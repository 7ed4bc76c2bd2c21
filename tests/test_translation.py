"""Tests for the plane-parabola translation elements and the wave-expansion oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from paracasimir._quad import _legendre_rule, panel_grid
from paracasimir.specfun import DomainError
from paracasimir.testing import (
    ParabolicPoint,
    green_parabolic,
    plane_wave_partial_sum,
    theta0_element,
    tilted_element,
)
from paracasimir.translation import (
    _U_EDGES_DAMPING,
    _U_EDGES_FIXED,
    AccuracyError,
    _gram,
    _u_grid,
)


def quadrature_oracle(n, n2, q, d):
    """Direct u-integral of the untilted element, scipy adaptive rule.

    After kx = q sinh u the integrand is
    (-1)^{(n+n2)/2} tanh^{n+n2}(u/2) sech^2(u/2) e^{-2qd cosh u},
    normalized by 1/(2 sqrt(2 pi)).
    """
    w = 2.0 * q * d
    total = n + n2

    def integrand(u):
        return (
            math.tanh(u / 2.0) ** total
            * (1.0 / math.cosh(u / 2.0)) ** 2
            * math.exp(-w * (math.cosh(u) - 1.0))
        )

    upper = math.acosh(1.0 + 45.0 / w)
    value, _ = scipy.integrate.quad(integrand, 0.0, upper, epsabs=1e-14, epsrel=1e-12)
    sign = (-1.0) ** (total // 2)
    return sign * 2.0 * value * math.exp(-w) / (2.0 * math.sqrt(2.0 * math.pi))


class TestTheta0Element:
    def test_odd_sums_vanish_exactly(self):
        for n, n2 in ((0, 1), (1, 2), (3, 0), (2, 5), (7, 8)):
            assert theta0_element(n, n2, 1.2, 0.9) == 0.0

    def test_against_direct_quadrature(self):
        value = theta0_element(0, 0, 1.0, 1.0)
        assert value == pytest.approx(quadrature_oracle(0, 0, 1.0, 1.0), rel=1e-8)

    def test_bateman_identity_random_orders(self):
        rng = np.random.default_rng(915)
        for _ in range(20):
            n = int(rng.integers(0, 13))
            n2 = n + 2 * int(rng.integers(0, 4))
            q = float(rng.uniform(0.3, 3.0))
            d = float(rng.uniform(0.4, 2.0))
            closed = theta0_element(n, n2, q, d)
            assert closed == pytest.approx(quadrature_oracle(n, n2, q, d), rel=1e-8)

    def test_symmetrized_orders_coincide(self):
        # Only n + n2 enters the closed form in the symmetrized
        # convention, so (2, 0) and (0, 2) are the same number.
        assert theta0_element(2, 0, 0.7, 1.1) == theta0_element(0, 2, 0.7, 1.1)
        assert theta0_element(5, 1, 2.0, 0.6) == theta0_element(1, 5, 2.0, 0.6)

    @pytest.mark.parametrize("args", [(0, 0, 0.0, 1.0), (0, 0, 1.0, -0.5)])
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            theta0_element(*args)


class TestTiltedElement:
    @pytest.mark.parametrize(
        "n,n2,q,d",
        [(0, 0, 1.0, 1.0), (2, 0, 0.5, 1.5), (3, 3, 1.7, 0.8), (6, 2, 2.5, 1.2)],
    )
    def test_zero_tilt_reduces_to_closed_form(self, n, n2, q, d):
        assert tilted_element(n, n2, q, d, 0.0) == pytest.approx(
            theta0_element(n, n2, q, d), rel=1e-9
        )

    def test_swap_symmetry(self):
        for theta in (0.3, -0.7, 1.1):
            a = tilted_element(3, 5, 1.2, 0.9, theta)
            b = tilted_element(5, 3, 1.2, 0.9, -theta)
            assert a == pytest.approx(b, rel=1e-12)

    def test_doubling_distance_damps(self):
        for theta in (0.0, 0.5, 1.2):
            near = abs(tilted_element(2, 2, 1.0, 0.8, theta))
            far = abs(tilted_element(2, 2, 1.0, 1.6, theta))
            assert far < near

    def test_values_are_real_floats(self):
        for theta in (-1.3, -0.2, 0.4, 1.45):
            value = tilted_element(4, 2, 1.5, 1.0, theta)
            assert isinstance(value, float)
            assert math.isfinite(value)

    def test_coarse_quadrature_raises_accuracy_error(self):
        with pytest.raises(AccuracyError) as excinfo:
            tilted_element(30, 28, 2.0, 1.5, 1.2, node_count=2)
        assert excinfo.value.estimate > 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tilted_element(0, 0, 1.0, 1.0, math.pi / 2)
        with pytest.raises(DomainError):
            tilted_element(0, 0, -1.0, 1.0, 0.0)


class TestParityGram:
    """The parity quarter of the tilted Gram against the scalar element.

    `tilted_element` integrates the unfolded complex integrand over +u
    and -u and checks itself by node doubling; the Gram folds the two
    halves into real arithmetic.  They are tied by
    G[n, n2] = (-1)^n2 T_{n n2} sqrt(2 pi) e^w.
    """

    PAIRS = ((0, 0), (1, 3), (10, 40), (50, 50), (99, 70), (100, 100), (0, 100))

    @pytest.mark.parametrize("theta", [0.3, math.radians(85.0)])
    @pytest.mark.parametrize("start", [0, 1])
    @pytest.mark.parametrize("q", [0.05, 0.4, 2.0])
    def test_quarter_matches_scalar_element(self, theta, start, q):
        d = 1.0
        # 85 degrees needs more u nodes than the default 16 to reach
        # 1e-12; both sides use the same count.
        G, w = _gram(q, d, theta, 200, 32, start, 2)
        assert G.shape == (101 - start, 101 - start)
        assert np.array_equal(G, G.T)
        scale = np.abs(G).max()
        for a, b in self.PAIRS:
            if max(a, b) >= G.shape[0]:
                continue
            n, n2 = start + 2 * a, start + 2 * b
            element = tilted_element(n, n2, q, d, theta, node_count=32)
            expected = (-1.0) ** n2 * element * math.sqrt(2.0 * math.pi) * math.exp(w)
            assert abs(G[a, b] - expected) <= 1e-12 * scale

    def test_quarter_is_a_slice_of_the_full_gram(self):
        full, _ = _gram(0.4, 1.0, 0.7, 60)
        for start in (0, 1):
            quarter, _ = _gram(0.4, 1.0, 0.7, 60, start=start, step=2)
            np.testing.assert_allclose(quarter, full[start::2, start::2],
                                       rtol=0, atol=1e-14 * np.abs(full).max())


def cumprod_gram(q, d, theta, nu_max, start, step):
    """The tilted Gram built the direct way: cumulative-product powers in
    a (u, order) table P and G = A^T A with A = [Re P; Im P]."""
    w = 2.0 * q * d
    u, wq = _u_grid(w, 16)
    half = 0.5 * (theta - 1j * u)
    t = np.tan(half)
    root = np.sqrt(wq * np.exp(-w * (np.cosh(u) - 1.0)) / np.abs(np.cos(half)) ** 2)
    P = np.empty((u.size, (nu_max - start) // step + 1), dtype=complex)
    P[:, 0] = root * t ** start
    P[:, 1:] = (t ** step)[:, None]
    np.cumprod(P, axis=1, out=P)
    A = np.concatenate([P.real, P.imag])
    return A.T @ A


class TestGramProperties:
    """`_gram` over tilt, frequency (down to w -> 0, where the u range
    grows like ln(1/w)), order and parity."""

    @given(theta_deg=st.floats(0.0, 89.5),
           log_q=st.floats(math.log10(1e-4), math.log10(20.0)),
           nu_max=st.integers(0, 400),
           layout=st.sampled_from([(0, 2), (1, 2), (0, 1)]))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_psd_and_matches_cumprod(self, theta_deg, log_q, nu_max, layout):
        start, step = layout
        nu_max = max(nu_max, start)
        q, theta = 10.0 ** log_q, math.radians(theta_deg)
        G, _ = _gram(q, 1.0, theta, nu_max, start=start, step=step)
        assert np.array_equal(G, G.T)
        expected = cumprod_gram(q, 1.0, theta, nu_max, start, step)
        diag = np.sqrt(np.diag(expected))
        assert np.all(np.abs(G - expected) <= 1e-12 * np.outer(diag, diag))
        assert np.linalg.eigvalsh(G)[0] >= -1e-12 * np.abs(G).max()


def direct_grid(edges, count):
    """Gauss-Legendre panels on ``edges`` from a fresh `roots_legendre`."""
    edges = np.asarray(edges, dtype=float)
    xg, wg = roots_legendre(count)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    return ((mid[:, None] + half[:, None] * xg[None, :]).ravel(),
            (half[:, None] * wg[None, :]).ravel())


class TestLegendreRule:
    """The Gauss-Legendre rule is cached; the grids built from it are not
    allowed to move."""

    @pytest.mark.parametrize("count", [2, 10, 16, 20, 32])
    def test_panel_grid_matches_direct_rule(self, count):
        edges = [0.0, 0.3, 1.0, 2.5, 7.0]
        x, w = panel_grid(edges, count)
        x_ref, w_ref = direct_grid(edges, count)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)

    def test_cached_rule_is_read_only(self):
        nodes, weights = _legendre_rule(16)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

    @pytest.mark.parametrize("w", [1e-3, 0.01, 0.3, 2.0, 50.0, 400.0])
    def test_u_grid_unchanged(self, w):
        upper = math.acosh(1.0 + _U_EDGES_DAMPING[-1] / w)
        edges = {math.acosh(1.0 + e / w) for e in _U_EDGES_DAMPING} | set(_U_EDGES_FIXED)
        u, wq = _u_grid(w, 16)
        edges = sorted({0.0, upper, *(e for e in edges if 1e-3 < e < upper)})
        u_ref, wq_ref = direct_grid(edges, 16)
        assert np.array_equal(u, u_ref) and np.array_equal(wq, wq_ref)


class TestGreenOracle:
    R1 = ParabolicPoint(0.8, 0.5, 0.0)
    R2 = ParabolicPoint(-0.3, 1.6, 0.4)

    @staticmethod
    def free_space(r1, r2, kappa):
        dist = math.dist(r1.to_cartesian(), r2.to_cartesian())
        return math.exp(-kappa * dist) / (4.0 * math.pi * dist)

    def test_converges_to_free_space(self):
        target = self.free_space(self.R1, self.R2, 1.0)
        errors = [
            abs(green_parabolic(self.R1, self.R2, 1.0, nu_max=nm) - target) / target
            for nm in (10, 20, 40)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-6

    def test_unit_separation_value(self):
        # Shrink the pair to exactly unit separation; the limit value is
        # e^{-1}/(4 pi).
        scale = math.dist(self.R1.to_cartesian(), self.R2.to_cartesian())
        root = math.sqrt(scale)
        r1 = ParabolicPoint(self.R1.lam / root, self.R1.mu / root, self.R1.z / scale)
        r2 = ParabolicPoint(self.R2.lam / root, self.R2.mu / root, self.R2.z / scale)
        target = math.exp(-1.0) / (4.0 * math.pi)
        got = green_parabolic(r1, r2, 1.0, nu_max=120)
        assert got == pytest.approx(target, rel=2e-6)

    def test_symmetry_under_swap(self):
        a = green_parabolic(self.R1, self.R2, 1.0, nu_max=30)
        b = green_parabolic(self.R2, self.R1, 1.0, nu_max=30)
        assert a == b

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError):
            green_parabolic(self.R1, self.R1, 1.0)

    def test_equal_mu_rejected(self):
        with pytest.raises(DomainError):
            green_parabolic(
                ParabolicPoint(0.4, 0.7, 0.0), ParabolicPoint(-0.9, 0.7, 0.3), 1.0
            )


class TestPlaneWaveOracle:
    POINTS = (ParabolicPoint(0.6, 0.8), ParabolicPoint(-1.1, 0.3), ParabolicPoint(2.0, 1.5))

    @staticmethod
    def plane_wave(point, q, phi):
        x, y, _ = point.to_cartesian()
        return math.exp(-q * (x * math.sin(phi) + y * math.cos(phi)))

    @pytest.mark.parametrize("q", [1.3, 3.0])
    def test_zero_angle_keeps_only_order_zero(self, q):
        # tan(phi/2) = 0: every order above 0 vanishes, and the n = 0 term
        # e^{-lam~^2/4} e^{mu~^2/4} is e^{-q y} itself.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point in self.POINTS:
                got = plane_wave_partial_sum(point, q, 0.0)
                assert got == pytest.approx(self.plane_wave(point, q, 0.0), rel=1e-14)

    @pytest.mark.parametrize("phi", [-0.3, -0.8])
    def test_negative_angle(self, phi):
        for point in self.POINTS:
            got = plane_wave_partial_sum(point, 1.3, phi)
            assert got == pytest.approx(self.plane_wave(point, 1.3, phi), rel=1e-13)
