"""Tests for the special-function layer.

The backbone is the frozen fixture table generated once by
``scripts/gen_specfun_fixtures.py`` with mpmath at 50+ digits; every
order table (``pcf_regular_table``, ``pcf_regular_imag_table``,
``pcf_outgoing_table``, ``bateman_k_table``) must agree with it to 1e-10
relative error.  On top of that sit closed-form spot values, recurrence
and derivative identities, the overflow and argument contracts of the
tables, and the parabolic coordinate map.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
from scipy import integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from paracasimir.specfun import (
    _SEED_SLICE,
    DomainError,
    bateman_k_table,
    bateman_m_log,
    pcf_outgoing_table,
    pcf_regular_imag_table,
    pcf_regular_table,
)
from paracasimir.testing import ParabolicPoint

LOG_TOL = 1e-10


def value_at(n, sign, logmag):
    """The float sign[n] * exp(logmag[n]) of a sign/log table."""
    return float(sign[n] * math.exp(logmag[n]))


def group_by_x(records):
    groups = {}
    for n, x, sign, logmag in records:
        groups.setdefault(x, []).append((n, sign, logmag))
    return groups


def check_rows(rows, signs, logs, label):
    for n, sign, logmag in rows:
        assert signs[n] == sign, f"{label}: sign mismatch at n={n}"
        assert logs[n] == pytest.approx(logmag, abs=LOG_TOL, rel=0.0), (
            f"{label}: log magnitude off at n={n}"
        )


class TestFixtureAgreement:
    def test_regular(self, specfun_by_family):
        for x, rows in group_by_x(specfun_by_family["regular"]).items():
            nmax = max(n for n, _, _ in rows)
            s, l = pcf_regular_table(nmax, x)
            check_rows(rows, s, l, f"regular x={x}")

    def test_regular_deriv(self, specfun_by_family):
        for x, rows in group_by_x(specfun_by_family["regular_deriv"]).items():
            nmax = max(n for n, _, _ in rows)
            _, _, ds, dl = pcf_regular_table(nmax, x, with_derivative=True)
            check_rows(rows, ds, dl, f"regular_deriv x={x}")

    def test_regular_imag(self, specfun_by_family):
        for x, rows in group_by_x(specfun_by_family["regular_imag"]).items():
            nmax = max(n for n, _, _ in rows)
            s, l = pcf_regular_imag_table(nmax, x)
            check_rows(rows, s, l, f"regular_imag x={x}")

    def test_regular_imag_deriv(self, specfun_by_family):
        for x, rows in group_by_x(specfun_by_family["regular_imag_deriv"]).items():
            nmax = max(n for n, _, _ in rows)
            _, _, ds, dl = pcf_regular_imag_table(nmax, x, with_derivative=True)
            check_rows(rows, ds, dl, f"regular_imag_deriv x={x}")

    def test_outgoing(self, specfun_by_family):
        for x, rows in group_by_x(specfun_by_family["outgoing"]).items():
            nmax = max(n for n, _, _ in rows)
            s, l = pcf_outgoing_table(nmax, x)
            check_rows(rows, s, l, f"outgoing x={x}")

    def test_outgoing_deriv(self, specfun_by_family):
        for x, rows in group_by_x(specfun_by_family["outgoing_deriv"]).items():
            nmax = max(n for n, _, _ in rows)
            _, _, ds, dl = pcf_outgoing_table(nmax, x, with_derivative=True)
            check_rows(rows, ds, dl, f"outgoing_deriv x={x}")

    def test_bateman(self, specfun_by_family):
        for u, rows in group_by_x(specfun_by_family["bateman"]).items():
            nmax = max(n for n, _, _ in rows)
            values = bateman_k_table(nmax, u)
            for n, sign, logmag in rows:
                v = values[n]
                assert math.copysign(1.0, v) == sign, f"bateman u={u} n={n}"
                assert math.log(abs(v)) == pytest.approx(logmag, abs=LOG_TOL, rel=0.0)


class TestSpotValues:
    def test_regular(self):
        assert value_at(0, *pcf_regular_table(0, 0.0)) == 1.0
        assert value_at(1, *pcf_regular_table(1, 1.0)) == pytest.approx(math.exp(-0.25), rel=1e-14)
        assert value_at(2, *pcf_regular_table(2, 0.0)) == pytest.approx(-1.0, rel=1e-14)
        # Past |x| = 54.6, where e^{-x^2/4} itself underflows to zero: D_1 = x e^{-x^2/4},
        # D_2 = (x^2 - 1) e^{-x^2/4} and D_1' = (1 - x^2/2) e^{-x^2/4}, in log form.
        for x in (-55.0, 55.0, 60.0):
            s, l, ds, dl = pcf_regular_table(2, x, with_derivative=True)
            quarter = x * x / 4.0
            assert s[1] == math.copysign(1.0, x)
            assert l[1] == pytest.approx(math.log(abs(x)) - quarter, rel=1e-14)
            assert s[2] == 1.0
            assert l[2] == pytest.approx(math.log(x * x - 1.0) - quarter, rel=1e-14)
            assert ds[1] == -1.0
            assert dl[1] == pytest.approx(math.log(x * x / 2.0 - 1.0) - quarter, rel=1e-14)

    def test_regular_imag(self):
        assert value_at(0, *pcf_regular_imag_table(0, 0.0)) == 1.0
        assert value_at(1, *pcf_regular_imag_table(1, 1.0)) == pytest.approx(
            -math.exp(0.25), rel=1e-14)
        _, _, *deriv = pcf_regular_imag_table(0, 2.0, with_derivative=True)
        assert value_at(0, *deriv) == pytest.approx(math.e, rel=1e-14)

    def test_outgoing(self):
        assert value_at(0, *pcf_outgoing_table(0, 0.0)) == pytest.approx(
            math.sqrt(math.pi / 2), rel=1e-14)
        expected = math.exp(0.25) * math.sqrt(math.pi / 2) * math.erfc(1 / math.sqrt(2))
        assert value_at(0, *pcf_outgoing_table(0, 1.0)) == pytest.approx(expected, rel=1e-13)
        assert value_at(1, *pcf_outgoing_table(1, 0.0)) == pytest.approx(1.0, rel=1e-13)

    def test_bateman_against_independent_float_oracle(self):
        # scipy's confluent hypergeometric U is an entirely separate
        # code path; it is itself only good to ~1e-7 here.
        for ell, u in ((-1, 0.5), (-3, 2.0), (-7, 0.9)):
            n = (-ell - 1) // 2
            expected = (
                math.exp(-u) * sp.hyperu(-ell / 2, 0, 2 * u) / sp.gamma(ell / 2 + 1)
            )
            assert bateman_k_table(n, u)[n] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("u", [6e-5, 3e-4])
    def test_bateman_small_argument_against_quadrature(self, u):
        # Below the fixtures' u >= 1e-3, where the classical coefficient
        # evaluates order 403: adaptive quadrature of
        # m_n(u) = (1/pi) int tanh^2n(t/2) sech^2(t/2) e^{-u cosh t} dt,
        # in plain floats on fixed subintervals up to u cosh t = 60.
        def integrand(t, n):
            return math.tanh(t / 2) ** (2 * n) / math.cosh(t / 2) ** 2 * math.exp(-u * math.cosh(t))

        edges = np.linspace(0.0, math.acosh(60.0 / u), 31)
        logm = bateman_m_log(403, u)
        for n in (0, 201, 403):
            value = sum(
                integrate.quad(integrand, a, b, args=(n,), epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:])
            ) / math.pi
            assert math.exp(logm[n]) == pytest.approx(value, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("x", [0.16, 0.2, 0.5])
    def test_outgoing_against_quadrature(self, x):
        # B_n = e^{-x^2/4}/n! int_0^inf t^n e^{-xt - t^2/2} dt by adaptive
        # quadrature, scaled by the integrand's peak at
        # t^ = 2n/(x + sqrt(x^2 + 4n)); h'' <= -1, so beyond t^ +- 12 it
        # lies below e^-72 of the peak.  log B_n is summed in one fsum so
        # that its only rounding is the final one.
        _, logs = pcf_outgoing_table(800, x)
        for n in (0, 1, 19, 400, 800):
            def h(t):
                return (n * math.log(t) if n else 0.0) - x * t - 0.5 * t * t

            peak = 2 * n / (x + math.sqrt(x * x + 4 * n))
            scale = h(peak) if n else 0.0
            edges = np.linspace(max(peak - 12.0, 0.0), peak + 12.0, 25)
            value = sum(
                integrate.quad(lambda t: math.exp(h(t) - scale) if t > 0 else float(n == 0),
                               a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:])
            )
            expected = math.fsum([scale, math.log(value), -0.25 * x * x]
                                 + [-math.log(k) for k in range(2, n + 1)])
            assert abs(logs[n] - expected) < 1e-12, (n, logs[n] - expected)

    @pytest.mark.parametrize("u", [0.5, 2.0, 10.0])
    def test_bateman_sum_rule(self, u):
        # sum_n m_n(u) = K_0(u)/pi; the table does not use it.  Beyond
        # order 400 the tail is below e^-40 of the sum at these u.
        total = np.exp(bateman_m_log(400, u)).sum()
        assert total == pytest.approx(sp.k0e(u) * math.exp(-u) / math.pi, rel=1e-12)


def residual_relative(parts):
    """|sum of signed terms| over the largest term magnitude.

    ``parts`` holds (sign, logmag, coeff) triples representing
    coeff * sign * exp(logmag); the sum is formed after rescaling by the
    largest magnitude so the measure is insensitive to overall scale.
    """
    mags = [l + math.log(abs(c)) for s, l, c in parts if s != 0 and c != 0]
    if not mags:
        return 0.0
    top = max(mags)
    total = sum(
        s * math.copysign(1.0, c) * math.exp(l + math.log(abs(c)) - top)
        for s, l, c in parts
        if s != 0 and c != 0
    )
    return abs(total)


class TestRecurrences:
    @given(st.integers(1, 150), st.floats(-30.0, 30.0, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_regular_order_recurrence(self, n, x):
        s, l = pcf_regular_table(n + 1, x)
        resid = residual_relative(
            [(s[n + 1], l[n + 1], 1.0), (s[n], l[n], -x), (s[n - 1], l[n - 1], n)]
        )
        assert resid < 1e-10

    @given(st.integers(1, 150), st.floats(0.0, 30.0, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_imag_order_recurrence(self, n, x):
        # i^{n} D_n(ix) satisfies t_{n+1} = -x t_n + n t_{n-1}.
        s, l = pcf_regular_imag_table(n + 1, x)
        resid = residual_relative(
            [(s[n + 1], l[n + 1], 1.0), (s[n], l[n], x), (s[n - 1], l[n - 1], -n)]
        )
        assert resid < 1e-10

    @given(st.integers(1, 150), st.floats(0.0, 50.0, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_outgoing_order_recurrence(self, n, x):
        # B_{n-1} - x B_n - (n+1) B_{n+1} = 0 for B_n = D_{-n-1}.
        s, l = pcf_outgoing_table(n + 1, x)
        resid = residual_relative(
            [(s[n - 1], l[n - 1], 1.0), (s[n], l[n], -x), (s[n + 1], l[n + 1], -(n + 1))]
        )
        assert resid < 1e-10

    @given(st.integers(0, 120), st.floats(-25.0, 25.0, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_regular_derivative_identities(self, n, x):
        s, l, ds, dl = pcf_regular_table(n + 1, x, with_derivative=True)
        # D_n' + (x/2) D_n - n D_{n-1} = 0
        parts = [(ds[n], dl[n], 1.0), (s[n], l[n], x / 2)]
        if n >= 1:
            parts.append((s[n - 1], l[n - 1], -float(n)))
        assert residual_relative(parts) < 1e-10
        # D_n' - (x/2) D_n + D_{n+1} = 0, which is not the combination
        # used to build the derivative table.
        resid = residual_relative(
            [(ds[n], dl[n], 1.0), (s[n], l[n], -x / 2), (s[n + 1], l[n + 1], 1.0)]
        )
        assert resid < 1e-10

    @given(st.integers(0, 120), st.floats(0.0, 25.0, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_imag_derivative_identity(self, n, x):
        # d/dx [i^n D_n(ix)] = -(x/2) t_n - t_{n+1}, the cross check for
        # the same-sign combination used internally.
        s, l, ds, dl = pcf_regular_imag_table(n + 1, x, with_derivative=True)
        resid = residual_relative(
            [(ds[n], dl[n], 1.0), (s[n], l[n], x / 2), (s[n + 1], l[n + 1], 1.0)]
        )
        assert resid < 1e-10

    @given(st.integers(1, 150), st.floats(0.0, 50.0, allow_subnormal=False))
    @settings(max_examples=60, deadline=None)
    def test_outgoing_derivative_identity(self, n, x):
        # B_n' = (x/2) B_n - B_{n-1}, mixing orders the opposite way
        # from the all-negative construction formula.
        s, l, ds, dl = pcf_outgoing_table(n, x, with_derivative=True)
        resid = residual_relative(
            [(ds[n], dl[n], 1.0), (s[n], l[n], -x / 2), (s[n - 1], l[n - 1], 1.0)]
        )
        assert resid < 1e-10

    @pytest.mark.parametrize("u", [6e-5, 1e-3, 0.04, 0.8, 6.0, 55.0])
    def test_bateman_contiguous_relation(self, u):
        values = bateman_k_table(40, u)
        for n in (1, 7, 24, 39):
            ell = -2 * n - 1
            terms = np.array(
                [
                    (ell / 2 + 1) * values[n - 1],
                    (ell - 2 * u) * values[n],
                    (ell / 2 - 1) * values[n + 1] if n + 1 <= 40 else 0.0,
                ]
            )
            if n + 1 > 40:
                continue
            assert abs(terms.sum()) < 1e-10 * np.abs(terms).max()


class TestOverflowContract:
    def test_large_order_large_argument(self):
        s, l = pcf_regular_table(200, 50.0)
        assert s[200] != 0 and math.isfinite(l[200])
        s, l = pcf_regular_imag_table(200, 100.0)
        assert s[200] == 1 and math.isfinite(l[200])
        s, l = pcf_outgoing_table(200, 100.0)
        assert s[200] == 1 and l[200] < 0 and math.isfinite(l[200])
        assert math.isfinite(bateman_k_table(200, 100.0)[200])

    @pytest.mark.parametrize("with_derivative,fn", [
        (False, pcf_outgoing_table), (False, pcf_regular_imag_table),
        (True, pcf_outgoing_table), (True, pcf_regular_imag_table),
        (False, bateman_k_table),
        (False, pcf_regular_table), (True, pcf_regular_table),
    ])
    def test_array_call_matches_scalar_calls(self, fn, with_derivative):
        xs = np.array([0.0, 0.03, 0.16, 0.2, 0.5, 1.3, 7.0, 28.3, 50.0])
        if fn is bateman_k_table:
            xs = xs[1:]  # u must be positive
        if fn is pcf_regular_table:
            # Either sign, and past |x| = 55, where e^{-x^2/4} underflows.
            xs = np.array([-60.0, -5.3, 0.0, 0.16, 7.0, 55.0, 60.0])

        def tables(nmax, x):
            if fn is bateman_k_table:
                return (fn(nmax, x),)
            return fn(nmax, x, with_derivative=with_derivative)

        for nmax in (0, 1, 40, 801):
            whole = tables(nmax, xs)
            assert all(t.shape == (nmax + 1, xs.size) for t in whole)
            for j, x in enumerate(xs):
                for table, single in zip(whole, tables(nmax, x)):
                    assert single.shape == (nmax + 1,)
                    np.testing.assert_array_equal(table[:, j], single,
                                                  err_msg=f"nmax={nmax}, x={x}")

    @pytest.mark.parametrize("nmax", [0, 1, 7, 160])
    def test_bateman_columns_do_not_depend_on_their_neighbours(self, nmax):
        # Drawn log-uniformly: with the seeds summed over all arguments at
        # once, 15 to 43 of the first 200 columns differed in their last
        # bits from a call of their own.  The seeds are summed over slices
        # of _SEED_SLICE arguments, and this call crosses a slice boundary.
        rng = np.random.default_rng(1)
        u = np.exp(rng.uniform(math.log(3e-4), math.log(55.0), _SEED_SLICE + 200))
        whole = bateman_m_log(nmax, u)
        for k in range(u.size):
            np.testing.assert_array_equal(whole[:, k], bateman_m_log(nmax, u[k:k + 1])[:, 0],
                                          err_msg=f"u={u[k]!r}")

    def test_bateman_m_log_shapes(self):
        scalar = bateman_m_log(5, 2.0)
        assert scalar.shape == (6,)
        arr = bateman_m_log(5, [0.5, 2.0, 9.0])
        assert arr.shape == (6, 3)
        assert np.allclose(arr[:, 1], scalar)
        assert np.all(np.isfinite(arr))


class TestErrors:
    @pytest.mark.parametrize(
        "fn,args",
        [
            (pcf_regular_table, (-1, 1.0)),
            (pcf_regular_table, (2.5, 1.0)),
            (pcf_regular_table, (0, float("inf"))),
            (pcf_regular_imag_table, (0, -1.0)),
            (pcf_outgoing_table, (1, -0.5)),
            (bateman_m_log, (0, 0.0)),
            (bateman_m_log, (0, -2.0)),
            (bateman_m_log, (1.5, 1.0)),
            (bateman_m_log, (0, float("inf"))),
            (bateman_m_log, (3, [[0.5, 1.0]])),
            (pcf_outgoing_table, (3, [0.5, -1e-3])),
            (pcf_outgoing_table, (3, [0.5, float("nan")])),
            (pcf_outgoing_table, (3, [float("inf"), 2.0])),
            (pcf_regular_imag_table, (3, [1.0, -0.5])),
            (pcf_regular_imag_table, (3, [float("nan")])),
            (pcf_regular_imag_table, (3, [0.0, float("-inf")])),
            (pcf_regular_table, (3, [[0.5, -1.0]])),
            (pcf_regular_table, (3, [-0.5, float("nan")])),
            (pcf_regular_table, (3, [2.0, float("-inf")])),
            (pcf_regular_table, (3, [])),
        ],
    )
    def test_domain_errors(self, fn, args):
        with pytest.raises(DomainError):
            fn(*args)

    def test_empty_u_rejected(self):
        with pytest.raises(DomainError):
            bateman_m_log(3, [])


class TestCoordinates:
    def test_forward_map(self):
        point = ParabolicPoint(2.0, 1.0, 0.5)
        assert point.to_cartesian() == (2.0, 1.5, 0.5)

    def test_negative_mu_rejected(self):
        with pytest.raises(DomainError):
            ParabolicPoint(1.0, -0.5)
