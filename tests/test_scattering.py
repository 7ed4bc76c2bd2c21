"""Tests for the scattering amplitudes and geometry container."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracasimir.scattering import (
    BoundaryMode,
    Geometry,
    parabolic_amplitude_table,
    plane_amplitude,
)
from paracasimir.roundtrip import _knife_start
from paracasimir.specfun import DomainError


class TestPlaneAmplitude:
    def test_perfect_mirror_signs(self):
        assert plane_amplitude(BoundaryMode.NEUMANN) == 1.0
        assert plane_amplitude(BoundaryMode.DIRICHLET) == -1.0

    def test_mode_name_is_not_a_mode(self):
        with pytest.raises(DomainError, match="unknown boundary mode 'dirichlet'"):
            plane_amplitude("dirichlet")


class TestGeometry:
    def test_derived_quantities(self):
        geom = Geometry(R=2.0, H=0.5, theta=0.1)
        assert geom.d == 0.5 + 1.0
        assert geom.d - geom.R / 2 == geom.H
        assert geom.mu0 == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_knife_edge(self):
        geom = Geometry(R=0.0, H=1.0)
        assert geom.mu0 == 0.0
        assert geom.d == geom.H

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"R": -0.1, "H": 1.0},
            {"R": 1.0, "H": 0.0},
            {"R": 1.0, "H": -2.0},
            {"R": 1.0, "H": 1.0, "theta": math.pi / 2},
            {"R": 1.0, "H": 1.0, "theta": -math.pi / 2},
            {"R": 1.0, "H": 1.0, "theta": 2.0},
        ],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(DomainError):
            Geometry(**kwargs)

    def test_touching_bodies_rejected(self):
        # R = 1, H = 0.1 touches the plane at theta = arccos(5/6) ~ 0.586.
        with pytest.raises(DomainError, match="-0.005"):
            Geometry(1.0, 0.1, 0.6)

    @pytest.mark.parametrize("R, H, theta", [(2.0, 0.5, 0.0), (0.0, 0.7, 1.2),
                                             (0.3, 0.1, 0.0), (0.0, 1.0, 0.0)])
    def test_gap_is_H_untilted_or_at_zero_radius(self, R, H, theta):
        assert Geometry(R, H, theta).gap == H

    def test_gap_at_tilt(self):
        geom = Geometry(1.0, 0.1, 0.3)
        assert geom.gap == pytest.approx(geom.d - 0.5 / math.cos(0.3), rel=1e-14)
        assert geom.gap == pytest.approx(0.0766, abs=1e-4)


class TestKnifeEdgeAmplitudes:
    def test_spot_values(self):
        expected = -math.sqrt(2.0 / math.pi)
        signs, logs = parabolic_amplitude_table(0, BoundaryMode.DIRICHLET, 0.0)
        assert signs[0] * math.exp(logs[0]) == pytest.approx(expected, rel=1e-13)
        signs, logs = parabolic_amplitude_table(1, BoundaryMode.NEUMANN, 0.0)
        assert signs[1] * math.exp(logs[1]) == pytest.approx(expected, rel=1e-13)
        # Each channel's own parity carries -n! sqrt(2/pi); the other
        # parity vanishes exactly.
        for mode, own, other in ((BoundaryMode.DIRICHLET, 4, 5), (BoundaryMode.NEUMANN, 5, 4)):
            signs, logs = parabolic_amplitude_table(5, mode, 0.0)
            assert signs[own] * math.exp(logs[own]) == pytest.approx(
                -math.factorial(own) * math.sqrt(2.0 / math.pi), rel=1e-13)
            assert signs[other] == 0 and logs[other] == -math.inf

    def test_factorial_form_up_to_60(self):
        # At the knife edge, the amplitude of the parity-matched channel
        # is exactly -n! sqrt(2/pi) and the other parity's is zero;
        # compare in log space so 60! cannot overflow the check itself.
        for mode in BoundaryMode:
            signs, logs = parabolic_amplitude_table(60, mode, 0.0)
            for n in range(_knife_start(mode), 61, 2):
                assert signs[n] == -1
                expected_log = math.lgamma(n + 1) + 0.5 * math.log(2.0 / math.pi)
                assert logs[n] == pytest.approx(expected_log, abs=1e-10, rel=0.0)
            other = slice(1 - _knife_start(mode), None, 2)
            assert np.all(signs[other] == 0) and np.all(logs[other] == -np.inf)

    def test_continuity_at_small_radius(self):
        # No jump in the ratio formula between argument 0 and just off it.
        for mode in BoundaryMode:
            signs, logs = parabolic_amplitude_table(11, mode, np.array([0.0, 1e-8]))
            orders = slice(_knife_start(mode), None, 2)
            assert np.array_equal(signs[orders, 1], signs[orders, 0])
            assert logs[orders, 1] == pytest.approx(logs[orders, 0], abs=1e-6)


class TestSharedPass:
    def test_tuple_of_modes_is_bitwise_each_mode_alone(self):
        mu0_scaled = np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 30)])
        for modes in (tuple(BoundaryMode), tuple(reversed(BoundaryMode)),
                      (BoundaryMode.NEUMANN,)):
            tables = parabolic_amplitude_table(120, modes, mu0_scaled)
            assert len(tables) == len(modes)
            for mode, (signs, logs) in zip(modes, tables):
                alone = parabolic_amplitude_table(120, mode, mu0_scaled)
                assert np.array_equal(signs, alone[0]) and np.array_equal(logs, alone[1])

    @pytest.mark.parametrize("modes", [(), ("neumann",), (BoundaryMode.DIRICHLET, None)])
    def test_bad_tuple_rejected(self, modes):
        with pytest.raises(DomainError, match="boundary mode"):
            parabolic_amplitude_table(3, modes, 0.5)


class TestFiniteRadiusAmplitudes:
    @pytest.mark.parametrize("mu0_scaled", [0.3, 1.0, 2.7, 8.0])
    def test_dirichlet_sign_alternation(self, mu0_scaled):
        # f_n^D carries sign (-1)^{n+1} at positive argument.
        signs, _ = parabolic_amplitude_table(20, BoundaryMode.DIRICHLET, mu0_scaled)
        assert np.array_equal(signs, -((-1.0) ** np.arange(21)))

    @pytest.mark.parametrize("mu0_scaled", [0.3, 1.0, 2.7, 8.0])
    def test_neumann_sign_alternation(self, mu0_scaled):
        signs, _ = parabolic_amplitude_table(20, BoundaryMode.NEUMANN, mu0_scaled)
        assert np.array_equal(signs, (-1.0) ** np.arange(21))

    @given(st.integers(0, 80), st.floats(1e-3, 10.0, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_amplitudes_finite(self, n, mu0_scaled):
        for mode in BoundaryMode:
            signs, logs = parabolic_amplitude_table(n, mode, mu0_scaled)
            assert np.all(np.abs(signs) == 1.0)
            assert np.all(np.isfinite(logs))

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            parabolic_amplitude_table(0, BoundaryMode.DIRICHLET, -0.5)

    def test_mode_must_be_a_boundary_mode(self):
        with pytest.raises(DomainError, match="boundary mode"):
            parabolic_amplitude_table(3, "neumann", 0.5)
