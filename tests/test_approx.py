"""Tests for proximity-force baselines and the broadside edge fit."""

import math

import numpy as np
import pytest
from scipy import integrate

from paracasimir.approx import (
    EdgeFit,
    EdgeLimitWarning,
    edge_coefficient_fit,
    edge_fit_window_sweep,
    edge_pfa_disk,
    parallel_plates,
    pfa_energy,
)
from paracasimir.specfun import DomainError

HALF_PI = math.pi / 2.0


class TestParallelPlates:
    def test_reference_value(self):
        assert parallel_plates(1.0) == -math.pi**2 / 720.0

    def test_cubic_scaling(self):
        assert parallel_plates(2.0) == pytest.approx(
            parallel_plates(1.0) / 8.0, rel=1e-15
        )

    @pytest.mark.parametrize("H", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_separation(self, H):
        with pytest.raises(DomainError):
            parallel_plates(H)


class TestPfaEnergy:
    def test_reference_value(self):
        expected = -math.pi**3 / (960.0 * math.sqrt(2.0))
        assert pfa_energy(1.0, 1.0) == pytest.approx(expected, rel=1e-15)
        assert pfa_energy(1.0, 1.0) == pytest.approx(-0.0228383, abs=5e-7)

    def test_separation_exponent(self):
        assert pfa_energy(0.25, 1.0) == pytest.approx(
            32.0 * pfa_energy(1.0, 1.0), rel=1e-14
        )

    def test_radius_exponent(self):
        assert pfa_energy(1.0, 4.0) == pytest.approx(
            2.0 * pfa_energy(1.0, 1.0), rel=1e-14
        )

    def test_zero_radius_degenerates_with_warning(self):
        with pytest.warns(EdgeLimitWarning):
            assert pfa_energy(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("args", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0),
                                      (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_invalid_arguments(self, args):
        with pytest.raises(DomainError):
            pfa_energy(*args)


class TestEdgePfaDisk:
    def test_asymptote_closed_form(self):
        _, asym = edge_pfa_disk(0.01, 2.0, 0.0067)
        assert asym == pytest.approx(
            -0.0067 * math.pi * math.sqrt(2.0 / (2.0 * 0.01**3)), rel=1e-15
        )

    def test_close_approach_limit(self):
        exact, asym = edge_pfa_disk(1e-4, 1.0, 0.0067415)
        assert exact / asym == pytest.approx(1.0, abs=0.01)

    def test_linearity_in_coefficient(self):
        one = edge_pfa_disk(0.3, 1.0, 1.0)
        two = edge_pfa_disk(0.3, 1.0, 2.0)
        assert two[0] == pytest.approx(2.0 * one[0], rel=1e-15)
        assert two[1] == pytest.approx(2.0 * one[1], rel=1e-15)

    def test_moderate_gap_against_quadrature(self):
        H, r, C = 1.0, 1.0, 0.005

        def integrand(x):
            return 1.0 / (H + r - math.sqrt(r * r - x * x)) ** 2

        oracle, est = integrate.quad(integrand, 0.0, r, limit=200)
        exact, _ = edge_pfa_disk(H, r, C)
        assert exact == pytest.approx(-C * 2.0 * oracle, rel=1e-9)

    def test_separation_exponent_of_asymptote(self):
        near = edge_pfa_disk(1e-3, 1.0, 1.0)
        far = edge_pfa_disk(4e-3, 1.0, 1.0)
        assert far[1] / near[1] == pytest.approx(4.0**-1.5, rel=1e-15)
        assert far[0] / near[0] == pytest.approx(4.0**-1.5, rel=0.02)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (math.nan, 1.0, 1.0),
                                      (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0),
                                      (1.0, math.inf, 1.0), (1.0, 2.0, math.nan),
                                      (1.0, 2.0, math.inf), (1.0, 2.0, -math.inf)])
    def test_invalid_geometry(self, args):
        with pytest.raises(DomainError):
            edge_pfa_disk(*args)


def synthetic_line(slope, intercept=math.pi**2 / 1440.0, degrees=None):
    if degrees is None:
        degrees = np.arange(70.0, 89.5, 0.5)
    theta = np.radians(degrees)
    return [(t, intercept + slope * (t - HALF_PI)) for t in theta]


class TestEdgeCoefficientFit:
    def test_exact_line_recovery(self):
        fit = edge_coefficient_fit(synthetic_line(0.0009))
        assert isinstance(fit, EdgeFit)
        assert fit.c_parallel_half == pytest.approx(math.pi**2 / 1440.0, rel=1e-12)
        assert fit.c_edge == pytest.approx(0.0009, rel=1e-9)
        assert fit.residual < 1e-15
        assert fit.fit_window == (math.radians(80.0), math.radians(89.0))

    def test_window_restricts_samples(self):
        samples = synthetic_line(0.0009)
        # Corrupt every sample outside the fit window; the fit must not see them.
        lo = math.radians(80.0)
        spiked = [(t, c if t >= lo else c + 1.0) for t, c in samples]
        fit = edge_coefficient_fit(spiked)
        assert fit.c_edge == pytest.approx(0.0009, rel=1e-9)

    def test_too_few_samples_in_window(self):
        samples = synthetic_line(0.0009, degrees=np.array([70.0, 72.0, 85.0, 86.0, 87.0]))
        with pytest.raises(DomainError):
            edge_coefficient_fit(samples)

    def test_decreasing_window_rejected(self):
        with pytest.raises(DomainError):
            edge_coefficient_fit(synthetic_line(0.0009),
                                 fit_window=(math.radians(89.0), math.radians(80.0)))

    @pytest.mark.parametrize("bad", [(85.0, math.nan), (85.0, math.inf), (85.0, -math.inf),
                                     (math.nan, 0.0068), (60.0, math.nan)])
    def test_nonfinite_sample_rejected(self, bad):
        # A nonfinite c inside the window would make every field NaN, and a
        # NaN theta would silently drop out of every window.
        deg, c = bad
        samples = synthetic_line(0.0009) + [(math.radians(deg), c)]
        with pytest.raises(DomainError, match="finite"):
            edge_coefficient_fit(samples)


class TestWindowSweep:
    def test_pure_line_is_window_independent(self):
        fits = edge_fit_window_sweep(synthetic_line(0.0009))
        assert len(fits) == 4
        slopes = [f.c_edge for f in fits]
        assert max(slopes) - min(slopes) < 1e-12

    def test_nonfinite_sample_rejected_not_skipped(self):
        samples = synthetic_line(0.0009) + [(math.radians(85.0), math.nan)]
        with pytest.raises(DomainError, match="finite"):
            edge_fit_window_sweep(samples)
        with pytest.raises(DomainError, match="finite"):
            edge_fit_window_sweep(iter(samples))

    def test_sparse_samples_skip_narrow_windows(self):
        samples = synthetic_line(
            0.0009, degrees=np.array([88.0, 88.3, 88.6, 89.0])
        )
        fits = edge_fit_window_sweep(samples)
        assert len(fits) == 2
        assert all(f.fit_window[0] >= math.radians(80.0) for f in fits)

    def test_curvature_shows_up_as_window_sensitivity(self):
        intercept, slope, quad = math.pi**2 / 1440.0, 0.0009, 0.05
        theta = np.radians(np.arange(70.0, 89.5, 0.5))
        samples = [
            (t, intercept + slope * (t - HALF_PI) + quad * (t - HALF_PI) ** 2)
            for t in theta
        ]
        fits = edge_fit_window_sweep(samples)
        by_lo = sorted(fits, key=lambda f: f.fit_window[0])
        wide, tight = by_lo[0], by_lo[-1]
        assert abs(tight.c_edge - slope) < abs(wide.c_edge - slope)
        assert abs(wide.c_edge - tight.c_edge) > 1e-4
