"""Tests for spectral integration, extrapolation, channels, and temperature."""

import importlib
import importlib.util
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import paracasimir.energy as energy_module
from paracasimir.energy import (
    EnergyResult,
    FitRejectedError,
    QuadratureSpec,
    c_theta,
    classical_coefficient,
    default_quadrature,
    energy_per_length,
    extrapolate_numax,
    thermal_energy,
)
from paracasimir._quad import expmap_grid, panel_grid
from paracasimir.roundtrip import _block_orders, build_kernel, kernel_blocks
from paracasimir.scattering import BoundaryMode, Geometry
from paracasimir.specfun import DomainError, bateman_m_log
from paracasimir.testing import literal_knife_kernel
from paracasimir.translation import AccuracyError

KNIFE = Geometry(0.0, 1.0)
LADDER = (8, 16, 32, 64)


class TestExtrapolation:
    def test_constant_series(self):
        series = [(n, 0.25) for n in (10, 20, 40, 80)]
        limit, err = extrapolate_numax(series)
        assert limit == 0.25
        assert err == 0.0

    def test_synthetic_geometric_tail(self):
        series = [(n, 1.0 + 2.0 * 0.5**n) for n in range(10, 61, 10)]
        limit, err = extrapolate_numax(series)
        assert limit == pytest.approx(1.0, abs=1e-10)
        assert err < 1e-8

    def test_synthetic_algebraic_tail(self):
        series = [(n, 1.0 + 5.0 / n**2) for n in (10, 20, 40, 80, 160)]
        limit, err = extrapolate_numax(series)
        assert limit == pytest.approx(1.0, abs=1e-10)
        assert abs(limit - 1.0) <= err

    def test_too_few_points_rejected(self):
        with pytest.raises(FitRejectedError):
            extrapolate_numax([(10, 1.0), (20, 0.9), (40, 0.85)])
        with pytest.raises(FitRejectedError):
            extrapolate_numax([(8, 1.0)])

    def test_alternating_tail_rejected(self):
        series = [(n, 1.0 + (-0.5) ** (n // 10)) for n in (10, 20, 30, 40, 50)]
        with pytest.raises(FitRejectedError):
            extrapolate_numax(series)

    def test_expanding_differences_rejected(self):
        series = [(10, 1.0), (20, 1.1), (40, 1.3), (80, 1.7), (160, 2.5)]
        with pytest.raises(FitRejectedError):
            extrapolate_numax(series)

    @pytest.mark.parametrize("order", [10.7, 10.0, True, -10, "10"])
    def test_bad_order_rejected(self, order):
        series = [(order, 1.0), (20, 0.9), (40, 0.85), (80, 0.825)]
        with pytest.raises(DomainError, match="order must be"):
            extrapolate_numax(series)

    def test_repeated_order_rejected(self):
        series = [(10, 1.0), (10, 1.1), (20, 0.9), (40, 0.85)]
        with pytest.raises(DomainError, match="only once"):
            extrapolate_numax(series)
        with pytest.raises(DomainError, match="only once"):
            extrapolate_numax([(10, 1.0), (10, 1.0), (20, 0.9), (40, 0.85)])

    def test_order_zero_takes_part(self):
        # The algebraic model has no value at order 0, so it is
        # back-predicted only at the other orders; with 0 in the ladder
        # nothing divides by zero (RuntimeWarning is an error here).
        series = [(n, 1.0 + 5.0 / (n + 1) ** 2) for n in (0, 2, 4, 8, 16)]
        limit, err = extrapolate_numax(series)
        assert abs(limit - 1.0) < 5.0 / 17 ** 2
        assert math.isfinite(err)
        res = energy_per_length(Geometry(1.0, 1.0), nu_max=(0, 2, 4, 8))
        assert [n for n, _ in res.series] == [0, 2, 4, 8]
        assert math.isfinite(res.extrapolated) and res.extrapolated < 0.0


class TestQuadratureSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_count": 1},
            {"panel_count": 0},
            {"tolerance": -1.0},
            {"qmin_scaled": 2.0, "qmax_scaled": 1.0},
            {"tolerance": math.inf},
            {"qmax_scaled": math.inf},
            {"node_count": 10.5},
            {"node_count": 10.0},
            {"node_count": True},
            {"panel_count": 12.5},
            {"panel_count": "12"},
            {"panel_count": True},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)

    def test_default_widens_for_positive_radius(self):
        knife = default_quadrature(KNIFE)
        body = default_quadrature(Geometry(2.0, 1.0))
        assert body.qmax_scaled > knife.qmax_scaled

    def test_node_count_tightens_error_estimate(self):
        coarse = energy_per_length(KNIFE, QuadratureSpec(node_count=6), nu_max=32)
        fine = energy_per_length(KNIFE, QuadratureSpec(node_count=12), nu_max=32)
        assert fine.quad_error <= coarse.quad_error
        assert fine.value == pytest.approx(coarse.value, rel=1e-9)

    # At 88 deg the top rung moves most with the panel count: from 18 to 12
    # panels its distance to the finer grid grew from 2.5e-7 to 8.9e-6 of
    # the budget.  At R = 1, H = 2 the integrand is smooth, and a grid of 3
    # panels is 2.5e-3 of the budget off.
    @pytest.mark.parametrize("geom,nu_max,channel", [
        (Geometry(0.0, 1.0, math.radians(88.0)), (32, 64, 128, 256), "neumann"),
        (Geometry(1.0, 2.0), (10, 20, 40, 80), "em"),
    ])
    def test_default_grid_agrees_with_a_finer_one(self, geom, nu_max, channel):
        spec = default_quadrature(geom)
        finer = replace(spec, panel_count=2 * spec.panel_count, node_count=2 * spec.node_count)
        res = energy_per_length(geom, spec, nu_max, channel)
        ref = energy_per_length(geom, finer, nu_max, channel)
        assert abs(res.value - ref.value) <= 1e-3 * (res.trunc_error + res.quad_error)

    def test_linear_panels_mapping_agrees(self):
        # The log-mapped grid against 40 panels spaced uniformly in x.
        spec = QuadratureSpec()
        x, w = panel_grid(np.linspace(spec.qmin_scaled, spec.qmax_scaled, 41),
                          spec.node_count)
        direct = energy_module._g_series(KNIFE, x, [32], "em")[0] @ (w * x) / (4.0 * math.pi)
        mapped = energy_per_length(KNIFE, nu_max=32)
        assert direct == pytest.approx(mapped.value, rel=1e-4)


class TestEnergyPerLength:
    def test_result_anatomy(self):
        result = energy_per_length(KNIFE, nu_max=LADDER)
        assert isinstance(result, EnergyResult)
        assert [n for n, _ in result.series] == list(LADDER)
        assert result.value < 0.0
        assert result.extrapolated < 0.0
        assert result.trunc_error >= 0.0
        assert result.quad_error >= 0.0
        assert result.channel == "em"
        assert abs(result.extrapolated) >= abs(result.series[-1][1]) * (1 - 1e-6)

    def test_one_rung_has_no_truncation_estimate(self):
        # nu_max = 8 expands to the single rung [8], which gives no
        # increment to estimate the truncation error from.
        result = energy_per_length(KNIFE, nu_max=8)
        assert [n for n, _ in result.series] == [8]
        assert result.trunc_error == math.inf

    @pytest.mark.parametrize("nu_max", [-1, "80", 1.5, True, (10.7, 20.2, 40.9, 80.1),
                                        (8, -16), (), (8, 8, 16, 16, 32, 64),
                                        (100, 100, 200, 400)])
    def test_invalid_ladders_rejected(self, nu_max):
        # A string is not read digit by digit, nor is a float truncated,
        # nor a repeated order dropped.
        with pytest.raises(DomainError):
            energy_per_length(KNIFE, nu_max=nu_max)

    def test_knife_edge_ballpark(self):
        # Tight agreement with the frozen constants is the acceptance
        # suite's job; here only the level of the plateau is pinned.
        result = energy_per_length(KNIFE, nu_max=LADDER)
        assert result.extrapolated == pytest.approx(-0.0067415, abs=2e-5)

    def test_channel_additivity(self):
        parts = {
            ch: energy_per_length(KNIFE, nu_max=32, channel=ch)
            for ch in ("em", "dirichlet", "neumann")
        }
        assert parts["em"].value == pytest.approx(
            parts["dirichlet"].value + parts["neumann"].value, abs=1e-12
        )
        assert parts["dirichlet"].channel == "dirichlet"

    def test_scale_invariance(self):
        scaled = [
            h * h * energy_per_length(Geometry(0.0, h), nu_max=24).value
            for h in (0.5, 1.0, 2.0)
        ]
        assert scaled[0] == pytest.approx(scaled[1], rel=1e-10)
        assert scaled[2] == pytest.approx(scaled[1], rel=1e-10)

    def test_magnitude_nondecreasing_in_numax(self):
        values = [
            abs(energy_per_length(KNIFE, nu_max=n).value) for n in (4, 8, 16, 32)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_finite_radius_negative_and_stronger(self):
        knife = energy_per_length(KNIFE, nu_max=24)
        body = energy_per_length(Geometry(1.0, 1.0), nu_max=24)
        assert body.value < knife.value < 0.0

    def test_tilted_channel_values(self):
        geom = Geometry(0.0, 1.0, theta=0.5)
        em = energy_per_length(geom, nu_max=(8, 16, 32, 64))
        d = energy_per_length(geom, nu_max=(8, 16, 32, 64), channel="dirichlet")
        n = energy_per_length(geom, nu_max=(8, 16, 32, 64), channel="neumann")
        assert em.value == pytest.approx(d.value + n.value, abs=1e-12)
        assert em.value < 0.0

    def test_unknown_channel_rejected(self):
        with pytest.raises(DomainError):
            energy_per_length(KNIFE, nu_max=16, channel="scalar")


class TestCTheta:
    def test_zero_tilt_matches_untilted_constant(self):
        assert c_theta(0.0, nu_max=LADDER).extrapolated == pytest.approx(0.0067415, abs=2e-5)

    def test_mirror_symmetry(self):
        assert c_theta(0.4, nu_max=32).extrapolated == pytest.approx(
            c_theta(-0.4, nu_max=32).extrapolated, rel=1e-10
        )

    def test_analytic_endpoint(self):
        assert c_theta(math.pi / 2).extrapolated == pytest.approx(math.pi**2 / 1440, rel=1e-15)
        assert c_theta(-math.pi / 2).extrapolated == pytest.approx(math.pi**2 / 1440, rel=1e-15)
        for ch in ("dirichlet", "neumann"):
            assert c_theta(math.pi / 2, channel=ch).extrapolated == pytest.approx(
                math.pi**2 / 2880, rel=1e-15
            )
        exact = c_theta(math.pi / 2, channel="neumann")
        assert exact == EnergyResult(exact.value, [], exact.value, 0.0, 0.0, "neumann")

    def test_near_parallel_uses_the_asked_ladder(self):
        # No order floor and no warning near broadside: the truncation
        # error of the asked ladder reports how far it has converged.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = c_theta(math.radians(86.0), nu_max=64).extrapolated
        assert math.pi**2 / 2880 < value < math.pi**2 / 1440

    def test_interior_angle_between_endpoints(self):
        value = c_theta(math.radians(45.0), nu_max=(16, 32, 64, 128)).extrapolated
        assert 0.0060 < value < 0.0070


def _term_grid(xn, spec):
    """Nodes and weights of one Matsubara term, written out independently
    of the library: the spec's log grid at n = 0, else z-panels up to the
    cutoff, mapped to x = sqrt(xn^2 + z^2)."""
    if xn == 0.0:
        return expmap_grid(spec.qmin_scaled, spec.qmax_scaled,
                           spec.panel_count, spec.node_count)
    zmax = math.sqrt(spec.qmax_scaled ** 2 - xn ** 2)
    edges = [0.0] + [e for e in energy_module._Z_EDGES if e < zmax] + [zmax]
    z, w = panel_grid(edges, spec.node_count)
    return np.hypot(xn, z), w


def _term_sizes(T_scaled, spec):
    """Node count of every term with x_n below the cutoff, in order of n."""
    sizes, n = [], 0
    while 2.0 * math.pi * n * T_scaled < spec.qmax_scaled:
        sizes.append(_term_grid(2.0 * math.pi * n * T_scaled, spec)[0].size)
        n += 1
    return sizes


def _matsubara_sum_per_term(geom, T_scaled, orders, channel, spec):
    """The Matsubara sum with one `_g_series` call per term, on that
    term's own grid, under the same stop rule."""
    def term(xn):
        x, w = _term_grid(xn, spec)
        return (energy_module._g_series(geom, x, orders, channel) @ w) / math.pi

    totals = 0.5 * term(0.0)
    n = 1
    while 2.0 * math.pi * n * T_scaled < spec.qmax_scaled:
        t = term(2.0 * math.pi * n * T_scaled)
        totals = totals + t
        if abs(t[-1]) <= 1e-3 * spec.tolerance * abs(totals[-1]):
            break
        n += 1
    return totals


class TestThermal:
    def test_zero_temperature_delegates(self):
        cold = thermal_energy(KNIFE, 0.0, nu_max=16)
        direct = energy_per_length(KNIFE, nu_max=16)
        assert cold.value == direct.value

    def test_negative_temperature_rejected(self):
        with pytest.raises(DomainError):
            thermal_energy(KNIFE, -0.1, nu_max=16)

    def test_small_temperature_approach(self):
        base = energy_per_length(KNIFE, nu_max=32).value
        gaps = [
            abs(thermal_energy(KNIFE, ts, nu_max=32).value - base)
            for ts in (0.2, 0.1, 0.05)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-4

    def test_thermal_strengthens_attraction(self):
        base = energy_per_length(KNIFE, nu_max=32).value
        warm = thermal_energy(KNIFE, 0.3, nu_max=32)
        assert isinstance(warm, EnergyResult)
        assert warm.value < base < 0.0

    def test_channel_additivity(self):
        em = thermal_energy(KNIFE, 0.25, nu_max=24).value
        d = thermal_energy(KNIFE, 0.25, nu_max=24, channel="dirichlet").value
        n = thermal_energy(KNIFE, 0.25, nu_max=24, channel="neumann").value
        assert em == pytest.approx(d + n, abs=1e-12)


    def test_failed_node_doubling_raises(self, monkeypatch):
        def matsubara_sum(geom, T_scaled, orders, channel, spec):
            # A clean truncation series whose value moves by 10% when the
            # frequency nodes are doubled.
            totals = -0.1 * (1.0 - 2.0 ** -np.log2(np.asarray(orders, dtype=float)))
            return totals * (1.0 if spec.node_count == 10 else 1.1)

        monkeypatch.setattr(energy_module, "_matsubara_sum", matsubara_sum)
        with pytest.raises(AccuracyError):
            thermal_energy(KNIFE, 0.05, nu_max=LADDER)

    # ``batches`` counts the batches of the full ladder's evaluation, and
    # ``unused`` the nodes of its last batch that lie beyond the stop, on
    # an n = 0 grid of 18 panels (180 nodes).
    @pytest.mark.parametrize("T_scaled,nu_max,spec,batches,unused", [
        (0.5, 32, QuadratureSpec(panel_count=18), 1, 0),       # all terms, one batch
        (0.3, 32, QuadratureSpec(panel_count=18), 2, 0),       # all terms, two
        (0.01, LADDER, QuadratureSpec(panel_count=18), 29, 350),  # many batches
        (0.05, LADDER, QuadratureSpec(panel_count=18, tolerance=1e-2), 4, 0),
        (0.05, LADDER, QuadratureSpec(panel_count=18, tolerance=1e-3), 5, 160),
        # Blocks past 33 rows, where the Cholesky factor's last bits can
        # depend on the block size, so a batch's nodes must each keep
        # their own cut.  Only the second case holds a term whose own
        # largest cut lies between 33 rows and its batch's, so only it
        # fails if a batch's nodes share the batch's largest cut.
        (0.05, (20, 40, 80, 160), QuadratureSpec(panel_count=18), 7, 110),
        (0.2, (40, 80, 160, 320), QuadratureSpec(panel_count=18), 2, 0),
    ])
    def test_batched_sum_is_bitwise_per_term(self, monkeypatch, T_scaled, nu_max, spec,
                                             batches, unused):
        calls = []
        g_series = energy_module._g_series

        def recording(geom, x, orders, channel):
            calls.append((len(orders), x.size))
            return g_series(geom, x, orders, channel)

        monkeypatch.setattr(energy_module, "_g_series", recording)
        got = thermal_energy(KNIFE, T_scaled, nu_max=nu_max, spec=spec)
        batched = [size for rungs, size in calls if rungs > 1]
        calls.clear()
        monkeypatch.setattr(energy_module, "_matsubara_sum", _matsubara_sum_per_term)
        want = thermal_energy(KNIFE, T_scaled, nu_max=nu_max, spec=spec)
        per_term = [size for rungs, size in calls if rungs > 1]
        for field in ("value", "extrapolated", "trunc_error", "quad_error"):
            assert getattr(got, field) == getattr(want, field), field
        assert len(batched) == batches
        assert sum(batched) - sum(per_term) == unused

    @pytest.mark.parametrize("T_scaled,spec", [
        (0.001, None),                          # every term below the cap
        (0.3, QuadratureSpec(node_count=40)),   # every term alone, n = 0 above it
    ])
    def test_batches_bound_memory(self, monkeypatch, T_scaled, spec):
        # Each call of `_g_series` holds consecutive terms, from n = 0 on,
        # and exceeds the cap only as a single term: memory is bounded by
        # the batch, not by 1/T.
        runs = []
        g_series, matsubara_sum = energy_module._g_series, energy_module._matsubara_sum

        def recording(geom, x, orders, channel):
            runs[-1][1].append(x.size)
            return g_series(geom, x, orders, channel)

        def marking(geom, T, orders, channel, spec):
            runs.append((spec, []))
            return matsubara_sum(geom, T, orders, channel, spec)

        monkeypatch.setattr(energy_module, "_g_series", recording)
        monkeypatch.setattr(energy_module, "_matsubara_sum", marking)
        thermal_energy(KNIFE, T_scaled, nu_max=8, spec=spec)
        cap = energy_module._BATCH_NODES
        assert len(runs) == 2  # the evaluation and its node-doubling check
        for run_spec, sizes in runs:
            terms = iter(_term_sizes(T_scaled, run_spec))
            for size in sizes:
                group = [next(terms)]
                while sum(group) < size:
                    group.append(next(terms))
                assert sum(group) == size
                assert size <= cap or len(group) == 1
        if spec is None:
            assert len(runs[0][1]) > 100 and max(s for _, sizes in runs for s in sizes) <= cap
        else:
            assert max(runs[1][1]) > cap


class TestLadderAgainstLU:
    """Every rung of `_g_series` against one LU per rung of an unsplit
    matrix, which shares neither the parity split nor the single
    Cholesky factorization of the ladder: at the untilted knife edge
    the signed combined kernel `literal_knife_kernel`, and otherwise
    each mode's `build_kernel` matrix."""

    @pytest.mark.parametrize("geom,channel", [
        (Geometry(0.0, 1.0), "em"),
        (Geometry(0.0, 1.0, math.radians(85.0)), "dirichlet"),
        (Geometry(0.0, 1.0, math.radians(85.0)), "neumann"),
        (Geometry(1.0, 1.0), "em"),
    ])
    def test_rungs_match_one_lu_per_rung(self, geom, channel):
        # From x = 3 on, zero-tilt blocks are factored only up to the
        # rung holding every order that can move 1 - N: the knife keeps
        # 13/13, 4/7 and 4/3 of its 26/25 rows at x = 3, 8 and 20, and
        # R = H = 1 keeps 26/13 and 4/3 of 26/25 at x = 8 and 20.  There
        # LU and Cholesky of the whole matrix differ by a few 1e-15.
        orders = [6, 13, 25, 50]
        x = np.array([0.1, 0.4, 1.2, 3.0, 8.0, 20.0])
        got = energy_module._g_series(geom, x, orders, channel)
        for i, xi in enumerate(x):
            if geom.R == 0.0 and geom.theta == 0.0 and channel == "em":
                kernels = [(literal_knife_kernel(xi, orders[-1]), np.arange(orders[-1] + 1))]
            else:
                kernels = [build_kernel(geom, xi / geom.H, orders[-1], mode)
                           for mode in energy_module._modes(channel)]
            for j, order in enumerate(orders):
                expected = 0.0
                for entries, kept in kernels:
                    cut = int(np.count_nonzero(kept <= order))
                    sign, logdet = np.linalg.slogdet(np.eye(cut) - entries[:cut, :cut])
                    assert sign == 1.0
                    expected += logdet
                tol = {"rel": 1e-12} if xi < 3.0 else {"abs": 1e-14}
                assert got[j, i] == pytest.approx(expected, **tol)

    @pytest.mark.parametrize("channel,parity", [("dirichlet", 0), ("neumann", 1)])
    def test_knife_rungs_match_hankel_moments(self, channel, parity):
        # At zero radius and tilt the channel's kernel is, up to the
        # similarity diag((-1)^a), the Hankel matrix M[a, a'] =
        # m_{a+a'+p}(2x) of Bateman moments, built here straight from
        # the table; x runs across the classical coefficient's order
        # doubling at 2e-2, and from 3 on into nodes where `kernel_blocks`
        # factors fewer rows than the top rung holds.
        orders = [9, 20, 41]
        x = np.array([1e-4, 1e-2, 0.5, 3.0, 8.0, 20.0])
        got = energy_module._g_series(KNIFE, x, orders, channel)
        logm = bateman_m_log(orders[-1], 2.0 * x)
        for i in range(x.size):
            for j, order in enumerate(orders):
                a = np.arange((order - parity) // 2 + 1)
                moments = np.exp(logm[a[:, None] + a[None, :] + parity, i])
                sign, logdet = np.linalg.slogdet(np.eye(a.size) - moments)
                assert sign == 1.0
                tol = {"rel": 1e-12} if x[i] < 3.0 else {"abs": 1e-14}
                assert got[j, i] == pytest.approx(logdet, **tol)

    @pytest.mark.parametrize("geom,top", [
        (KNIFE, 800), (Geometry(1.0, 1.0), 800),
        # Tilted blocks are factored whole; a shorter ladder keeps them cheap.
        (Geometry(0.0, 1.0, math.radians(85.0)), 160), (Geometry(1.0, 1.0, 0.3), 160),
    ], ids=["knife-0", "body-0", "knife-85", "body-0.3"])
    def test_node_value_depends_on_that_node_alone(self, geom, top):
        # Each zero-tilt node factors up to a rung of the ladder chosen from
        # that node alone.  Cutting a run at its largest live size would
        # tie a node's last bits to the other nodes of its run: the leading
        # rows of a Cholesky factor of more than about 30 rows depend in
        # their last bits on the size of the whole matrix, and with a top
        # rung of 800 many nodes keep between 30 and 401 rows.
        orders = [top // 8, top // 4, top // 2, top]
        x = np.geomspace(1e-3, 25.0, 23)
        together = energy_module._g_series(geom, x, orders, "em")
        for i in range(x.size):
            alone = energy_module._g_series(geom, x[i:i + 1], orders, "em")
            assert np.array_equal(together[:, i], alone[:, 0]), x[i]


class TestKernelBlockStream:
    """Each run of `kernel_blocks` is one flat list of (orders, stack)
    pairs, laid out by `_block_orders` mode after mode, for all four
    constructions.  Every block is bitwise symmetric, so the ladder
    above factors each with one Cholesky rather than one LU per rung."""

    @pytest.mark.parametrize("modes", [tuple(BoundaryMode), (BoundaryMode.DIRICHLET,),
                                       (BoundaryMode.NEUMANN,)],
                             ids=["both", "dirichlet", "neumann"])
    @pytest.mark.parametrize("geom, per_mode",
                             [(KNIFE, 1), (Geometry(0.0, 1.0, math.radians(85.0)), 1),
                              (Geometry(1.0, 0.1), 2), (Geometry(1.0, 0.1, 0.3), 1)],
                             ids=["knife-0", "knife-85", "body-0", "body-0.3"])
    def test_blocks_follow_layout_and_equal_their_transpose(self, geom, per_mode, modes):
        q = np.geomspace(0.02, 200.0, 9)
        layout = [idx for mode in modes for idx in _block_orders(geom, 60, mode)]
        assert len(layout) == per_mode * len(modes)
        covered = 0
        for nodes, blocks in kernel_blocks(geom, q, 60, modes):
            assert [idx.tolist() for idx, _ in blocks] == [idx.tolist() for idx in layout]
            run = nodes.stop - nodes.start
            for idx, stack in blocks:
                assert stack.shape == (run, idx.size, idx.size)
                for k, entries in enumerate(stack):
                    assert np.array_equal(entries, entries.T), (idx[0], k)
            covered += run
        assert covered == q.size


class TestClassicalCoefficient:
    def test_combined_channel_level(self):
        # Full-accuracy channel targets are exercised by the acceptance
        # suite at nu_max = 200; this guards the integrator plumbing.
        value = classical_coefficient(nu_max=24)
        assert value == pytest.approx(0.0472, abs=8e-4)
        assert value > 0.0
        assert type(value) is float

    @pytest.mark.parametrize("nu_max", [True, "8", 1.5, 8.0, -1])
    def test_bad_order_rejected(self, nu_max):
        with pytest.raises(DomainError, match="order must be"):
            classical_coefficient(nu_max=nu_max)


def test_package_names():
    # The oracles theta0_element, tilted_element and ParabolicPoint live in
    # paracasimir.testing; build_kernel, logdet_one_minus and
    # plane_amplitude stay importable from their own modules.
    import paracasimir

    assert set(paracasimir.__all__) == {
        "__version__", "DomainError", "BoundaryMode", "Geometry", "AccuracyError",
        "PhysicalRegimeError", "FitRejectedError", "QuadratureSpec", "EnergyResult",
        "default_quadrature", "energy_per_length", "extrapolate_numax", "c_theta",
        "classical_coefficient", "thermal_energy", "EdgeLimitWarning", "EdgeFit",
        "pfa_energy", "edge_pfa_disk", "parallel_plates", "edge_coefficient_fit",
        "edge_fit_window_sweep",
    }
    assert len(paracasimir.__all__) == 22
    assert all(hasattr(paracasimir, name) for name in paracasimir.__all__)


def test_traced_entry_points_are_bound():
    # The benchmark's tracer wraps its entry points by name and only
    # reports a name that no layer module binds, so a rename would
    # silently zero the counters it feeds.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look the module up in sys.modules while it executes.
    sys.modules[spec.name] = spans
    spec.loader.exec_module(spans)
    modules = [importlib.import_module(f"paracasimir.{name}") for name in spans.LAYER_MODULES]
    unbound = [entry.name for entry in spans.ENTRIES
               if not any(callable(getattr(mod, entry.name, None)) for mod in modules)]
    assert unbound == []
