"""Tests for round-trip kernel assembly and the stabilized log-determinant."""

import math
import re

import numpy as np
import pytest

import paracasimir.roundtrip as roundtrip_module
from paracasimir.energy import _g_series, _grid, default_quadrature
from paracasimir.roundtrip import (
    PhysicalRegimeError,
    _RANK_COLUMNS,
    _RANK_FROM,
    _RANK_MARGIN,
    _RUN_BYTES,
    _block_orders,
    _rows_factored,
    build_kernel,
    kernel_blocks,
    logdet_one_minus,
)
from paracasimir.scattering import (
    BoundaryMode,
    Geometry,
    parabolic_amplitude_table,
    plane_amplitude,
)
from paracasimir.specfun import DomainError, bateman_k_table
from paracasimir.testing import _det3, literal_knife_kernel, tilted_element

KNIFE = Geometry(R=0.0, H=1.0)


def brute_entry(geom, q, nu, nu2, mode):
    """One balanced-gauge entry from the amplitude table and one element.

    Applies the diagonal similarity sqrt(|F_nu| / nu!) explicitly, the
    long way the production assembly never takes.
    """
    signs, logs = parabolic_amplitude_table(max(nu, nu2), mode, geom.mu0 * math.sqrt(2.0 * q))
    half = 0.5 * (logs[nu] - math.lgamma(nu + 1))
    half2 = 0.5 * (logs[nu2] - math.lgamma(nu2 + 1))
    element = tilted_element(nu, nu2, q, geom.d, geom.theta)
    return signs[nu] * math.exp(half + half2) * plane_amplitude(mode) * element


def gauge_sign(geom, nu):
    """s_nu of the sign similarity S that every block is built without:
    (-1)^(nu // 2) at zero tilt, (-1)^nu at tilt."""
    return (-1.0) ** (nu // 2 if geom.theta == 0.0 else nu)


def cut_bound(block, peak):
    """The rank cut's bound tau / (1 - lambda_max) on a dense block's
    rungs, tau = max(1e-15, n eps peak) for the largest diagonal entry
    ``peak`` of the matrix pivoted (the `roundtrip` module docstring)."""
    tau = max(1e-15, block.shape[0] * np.finfo(float).eps * peak)
    return tau / (1.0 - np.linalg.eigvalsh(block)[-1])


def knife_g(q, nu_max):
    """log det(1 - N) of the knife edge at H = 1, both channels."""
    return sum(logdet_one_minus(build_kernel(KNIFE, q, nu_max, mode)[0])
               for mode in BoundaryMode)


class TestKnifeEdgeKernel:
    def test_single_entry_is_bateman_value(self):
        entries, orders = build_kernel(KNIFE, 0.7, 0, BoundaryMode.DIRICHLET)
        assert entries.shape == (1, 1)
        assert np.array_equal(orders, [0])
        assert entries[0, 0] == pytest.approx(bateman_k_table(0, 1.4)[0], rel=1e-13)
        entries, orders = build_kernel(KNIFE, 0.7, 0, BoundaryMode.NEUMANN)
        assert entries.shape == (0, 0)
        assert orders.size == 0

    def test_cross_parity_entry_is_zero(self):
        # At zero tilt and positive radius the even and odd orders
        # decouple, and the scattered matrix holds exact zeros between them.
        entries, orders = build_kernel(Geometry(R=1.0, H=1.0), 0.7, 1, BoundaryMode.DIRICHLET)
        assert np.array_equal(orders, [0, 1])
        assert entries[0, 1] == 0.0
        assert entries[1, 0] == 0.0

    def test_literal_alternating_form(self):
        # Each channel's kernel, conjugated by S, is the matching-parity
        # part of the combined kernel (-1)^nu k_{-nu-nu'-1}(2 q H).
        q, nu_max = 1.3, 7
        full = literal_knife_kernel(q, nu_max)
        for mode, start in ((BoundaryMode.DIRICHLET, 0), (BoundaryMode.NEUMANN, 1)):
            entries, orders = build_kernel(KNIFE, q, nu_max, mode)
            assert np.array_equal(orders, np.arange(start, nu_max + 1, 2))
            s = gauge_sign(KNIFE, orders)
            np.testing.assert_allclose(s[:, None] * entries * s, full[np.ix_(orders, orders)],
                                       rtol=1e-13)

    def test_block_additivity(self):
        for q in (0.3, 1.0, 3.0):
            total = logdet_one_minus(literal_knife_kernel(q, 40))
            assert total == pytest.approx(knife_g(q, 40), abs=1e-12)


class TestBruteForceAssembly:
    @pytest.mark.parametrize(
        "geom,q",
        [
            (Geometry(R=1.3, H=0.8), 1.1),
            (Geometry(R=0.7, H=1.0, theta=-0.4), 0.6),
            (Geometry(R=0.0, H=1.0, theta=0.6), 0.9),
        ],
    )
    def test_entries_match_scalar_assembly(self, geom, q):
        for mode in BoundaryMode:
            entries, orders = build_kernel(geom, q, 2, mode)
            for i, nu in enumerate(orders):
                for j, nu2 in enumerate(orders):
                    expected = (gauge_sign(geom, int(nu)) * gauge_sign(geom, int(nu2))
                                * brute_entry(geom, q, int(nu), int(nu2), mode))
                    assert entries[i, j] == pytest.approx(
                        expected, rel=1e-12, abs=1e-15
                    )

    def test_theta0_cross_parity_below_noise(self):
        entries, orders = build_kernel(Geometry(R=2.0, H=1.0), 0.8, 5, BoundaryMode.DIRICHLET)
        scale = np.abs(entries).max()
        tot = orders[:, None] + orders[None, :]
        assert np.abs(entries[tot % 2 == 1]).max() <= 1e-12 * scale
        # Zero-tilt blocks are built without their signs, so no entry is
        # negative in either mode.
        for geom in (Geometry(R=2.0, H=1.0), Geometry(R=0.5, H=0.1), KNIFE):
            for mode in BoundaryMode:
                for q in (0.05, 0.8, 6.0):
                    assert np.all(build_kernel(geom, q, 40, mode)[0] >= 0.0)


class TestRowsFactored:
    """The rows of a zero-tilt block that a node factors on a ladder."""

    IDX = np.arange(0, 21, 2)  # one parity block, orders 0..20
    ORDERS = [4, 10, 20]       # its rungs hold 3, 6 and 11 rows

    def test_knife_rounds_last_live_order_up_to_a_rung(self):
        table = np.full((6, 21), 1e-20)
        table[1, 6] = 1e-3                                # row 3 live
        table[2, 5] = math.inf                            # off the diagonal
        table[3, 12] = 2.0 ** -54                         # not below the cut
        table[4, 12] = np.nextafter(2.0 ** -54, 0.0)      # below it
        table[5, 16] = 0.1                                # row 8 live
        got = _rows_factored(self.IDX, self.ORDERS, table, None)
        assert got.tolist() == [3, 6, 11, 11, 3, 11]
        # A one-rung ladder, or a tilted block, keeps the whole block.
        assert _rows_factored(self.IDX, [20], table, None) == 11
        assert _rows_factored(self.IDX, self.ORDERS, None, None) == 11

    def test_body_reads_balanced_diagonal(self):
        # The diagonal is exp(2 h_n + table); an overflow counts as live,
        # and a nonfinite half-log keeps the whole block.
        table = np.full((3, 21), -50.0)
        half = np.zeros((21, 3))
        half[8, 1] = 400.0
        half[3, 2] = -math.inf
        got = _rows_factored(self.IDX, self.ORDERS, table, half)
        assert got.tolist() == [3, 6, 11]


class TestRankCut:
    """Blocks of more than _RANK_FROM orders on a ladder of several rungs
    are factored by partial pivoted Cholesky, and each rung comes from
    the r x r Gram of the factor (the `roundtrip` module docstring)."""

    ORDERS = [100, 200, 400, 800]

    @pytest.mark.parametrize("geom", [Geometry(1.0, 0.1), Geometry(1.0, 0.02),
                                      Geometry(1.0, 1.0), KNIFE],
                             ids=["body-0.1", "body-0.02", "body-1", "knife"])
    @pytest.mark.parametrize("x", [1e-3, 0.3, 3.0])
    def test_rungs_within_bound_of_dense_cholesky(self, geom, x):
        # Each rung lies within tau / (1 - lambda_max) of one dense Cholesky
        # of the same block, with the documented tau: 1e-15, or n eps
        # max_a N_aa where rounding keeps the residual trace above that.
        # Asked for both modes at once, the two modes' blocks over the same
        # orders are pivoted together, and N_aa is the larger of their two
        # diagonals.  1e-13 more allows for the rounding of a 401-order
        # dense factorization: the routes differ by up to 7e-14.
        q = x / geom.H
        full = {mode: build_kernel(geom, q, self.ORDERS[-1], mode) for mode in BoundaryMode}
        dense = {}
        for mode in BoundaryMode:
            entries, kept = full[mode]
            for idx in _block_orders(geom, self.ORDERS[-1], mode):
                sel = np.searchsorted(kept, idx)
                dense[mode, int(idx[0])] = entries[np.ix_(sel, sel)]
        for modes in [(mode,) for mode in BoundaryMode] + [tuple(BoundaryMode)]:
            (_, blocks), = kernel_blocks(geom, np.array([q]), self.ORDERS, modes)
            layout = [(mode, idx) for mode in modes
                      for idx in _block_orders(geom, self.ORDERS[-1], mode)]
            ranked = 0
            for (cut_idx, stack, factored), (mode, idx) in zip(blocks, layout, strict=True):
                block = dense[mode, int(idx[0])]
                peak = max(dense[other, int(idx[0])].diagonal().max()
                           for other, other_idx in layout if other_idx[0] == idx[0])
                sizes = np.searchsorted(idx, self.ORDERS, side="right")
                want = logdet_one_minus(block, sizes)
                cuts = np.searchsorted(cut_idx, self.ORDERS, side="right")
                if factored:
                    ranked += 1
                    assert stack.shape[0] == 1 and stack.shape[1] < 64
                    got = logdet_one_minus(stack, cuts, factored=True)[0]
                else:
                    assert cut_idx.size <= _RANK_FROM
                    got = logdet_one_minus(stack, cuts)[0]
                assert np.all(np.abs(got - want) <= cut_bound(block, peak) + 1e-13), (modes, idx[0])
            # The knife at x = 3 and R = H = 1 at x = 3 keep few enough rows
            # to stay dense; every other case takes the rank cut.
            assert ranked == (0 if x == 3.0 and geom.H == 1.0 else
                              len(modes) * (1 if geom.R == 0.0 else 2))

    @staticmethod
    def spoil_half_log(monkeypatch, order, bad, modes=0):
        """Put ``bad`` in the half-log of ``order`` at node 1, in the
        first mode asked for or in those ``modes`` picks."""
        half_logs = roundtrip_module._body_half_logs

        def spoiled(nu_max, asked, mu0_scaled):
            half = half_logs(nu_max, asked, mu0_scaled)
            half[modes, order, 1] = bad
            return half

        monkeypatch.setattr(roundtrip_module, "_body_half_logs", spoiled)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_half_log_raises(self, monkeypatch, bad):
        # The block keeps all 401 orders at x = 0.3 and takes the rank cut,
        # whose pivoting meets the nonfinite diagonal entry first.
        self.spoil_half_log(monkeypatch, 300, bad)
        with pytest.raises(PhysicalRegimeError, match="nonfinite") as info:
            _g_series(Geometry(1.0, 0.1), np.array([1e-3, 0.3, 3.0]), self.ORDERS, "em")
        assert "at x = 0.3, partial-wave order 300" in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_half_log_on_a_dense_stack_names_node_and_order(self, monkeypatch, bad):
        # On the ladder to 200 no block exceeds _RANK_FROM orders, so the
        # blocks are factored dense, and the order named is the smallest
        # whose leading block holds a nonfinite entry.
        self.spoil_half_log(monkeypatch, 30, bad)
        with pytest.raises(PhysicalRegimeError, match="nonfinite") as info:
            _g_series(Geometry(1.0, 0.1), np.array([1e-3, 0.3, 3.0]), [25, 50, 100, 200], "em")
        assert "at x = 0.3, partial-wave order 30" in str(info.value)

    @staticmethod
    def spoil(monkeypatch, name, where):
        """Put a NaN at index ``where`` of the array `roundtrip` gets from
        ``name`` (`_body_half_logs` or `bateman_m_log`)."""
        make = getattr(roundtrip_module, name)

        def spoiled(*args):
            out = make(*args)
            out[where] = math.nan
            return out

        monkeypatch.setattr(roundtrip_module, name, spoiled)

    @pytest.mark.parametrize("spoils, named", [
        # The last block of a run alone: the Neumann odd block.
        ([("_body_half_logs", (1, 301, 1))], 301),
        # Two blocks whose diagonals fail at the first step: the earlier
        # one is named.
        ([("_body_half_logs", (1, 301, 1)), ("_body_half_logs", (0, 300, 1))], 300),
        # m_301 sits on the odd blocks' diagonal and off the even blocks'
        # diagonal, so the odd blocks fail at the first step and the
        # Dirichlet even block, which comes first, at the second; it is
        # named, at the order its first pivot column (order 0) met.
        ([("bateman_m_log", (301, 1))], 602),
    ], ids=["neumann", "two-blocks", "off-diagonal"])
    def test_nonfinite_names_the_first_failing_block(self, monkeypatch, spoils, named):
        # As if the run's blocks were pivoted one after the other.
        for name, where in spoils:
            self.spoil(monkeypatch, name, where)
        with pytest.raises(PhysicalRegimeError, match="nonfinite") as info:
            _g_series(Geometry(1.0, 0.1), np.array([1e-3, 0.3, 3.0]), self.ORDERS, "em")
        assert str(info.value).endswith(f"at x = 0.3, partial-wave order {named}")

    @pytest.mark.parametrize("geom, orders, x", [
        (Geometry(1.0, 0.1), ORDERS, np.geomspace(1e-3, 3.0, 12)),
        # Ranks up to 36: the buffer outgrows its _RANK_COLUMNS columns.
        (Geometry(1.0, 0.09), ORDERS, np.geomspace(1e-3, 3.0, 12)),
        # Blocks of 202 orders, as `classical_coefficient` takes below x = 2e-2.
        (KNIFE, [403], np.geomspace(3e-5, 2e-2, 24)),
        (KNIFE, ORDERS, np.geomspace(1e-3, 3.0, 12)),
    ], ids=["body-0.1", "body-0.09", "knife-202", "knife-401"])
    def test_shared_loop_is_bitwise_each_block_alone(self, monkeypatch, geom, orders, x):
        # One `_pivoted_factors` loop serves every block of a run, its rows
        # padded to the largest block's orders.  At the knife edge the modes
        # take disjoint parities, and each block's stack is bitwise the one
        # its own loop gives over the same nodes.  At positive radius each
        # parity's two mode blocks keep the same orders in every run here
        # and are pivoted once, on the larger half-logs h_max: that stack is
        # bitwise what its own loop gives, and each mode's stack is exactly
        # it times exp(h_mode - h_max).  A run's buffer starts at the
        # previous run's largest rank plus _RANK_MARGIN, and only the first
        # run's may grow.
        runs, shared = [], roundtrip_module._rank_cut_blocks

        def recorded(kept, table, nodes, columns):
            blocks = shared(kept, table, nodes, columns)
            runs.append((kept, table, nodes, columns, blocks))
            return blocks

        monkeypatch.setattr(roundtrip_module, "_rank_cut_blocks", recorded)
        for _ in kernel_blocks(geom, x / geom.H, orders, tuple(BoundaryMode)):
            pass
        assert runs
        padded = above = False
        start = _RANK_COLUMNS
        for kept, table, nodes, columns, blocks in runs:
            assert len(blocks) == len(kept) == (2 if geom.R == 0.0 else 4)
            padded |= len({idx.size for idx, *_ in kept}) > 1
            rank = max(stack.shape[1] for _, stack, _ in blocks)
            assert columns == start and (rank <= columns or start == _RANK_COLUMNS)
            start, above = rank + _RANK_MARGIN, above or rank > _RANK_COLUMNS
            # At positive radius blocks b and b + 2 are parity b's two modes.
            for group in ([0], [1]) if geom.R == 0.0 else ([0, 2], [1, 3]):
                idx, pairs, _ = kept[group[0]]
                assert all(np.array_equal(kept[b][0], idx) for b in group)
                top = None if geom.R == 0.0 else np.max([kept[b][2] for b in group], axis=0)
                (alone_idx, alone, _), = shared([(idx, pairs, top)], table, nodes, _RANK_COLUMNS)
                assert np.array_equal(idx, alone_idx)
                assert alone.shape == (nodes.stop - nodes.start, alone.shape[1], idx.size)
                for b in group:
                    got_idx, stack, factored = blocks[b]
                    assert factored and np.array_equal(got_idx, idx)
                    want = alone
                    if top is not None:
                        want = alone * np.exp(kept[b][2][idx, nodes] - top[idx, nodes]).T[:, None]
                    assert np.array_equal(stack, want), (nodes, b)
        # On the ladder to 800, blocks of 401 and 400 orders share a run.
        assert padded == (orders[-1] == 800)
        # Body ranks pass _RANK_COLUMNS, where the first run's buffer size
        # would have doubled.
        assert above or geom.R == 0.0

    @pytest.mark.parametrize("modes", [(BoundaryMode.DIRICHLET,), tuple(BoundaryMode)],
                             ids=["dirichlet", "em"])
    def test_run_of_different_ranks_within_bound_of_dense_rungs(self, modes):
        # One run of nodes whose factors have ranks 24 to 34: the lower
        # ranks are padded with zero rows, and each node's rungs from the
        # whole stack keep the bound of the test above against the dense
        # rungs of `build_kernel`, tau taken from the larger diagonal of the
        # blocks pivoted together (both modes' over one parity, with both).
        geom = Geometry(1.0, 0.1)
        x = np.array([1e-3, 3e-2, 1.0, 3.0])
        (nodes, blocks), = kernel_blocks(geom, x / geom.H, self.ORDERS, modes)
        assert nodes == slice(0, x.size)
        for i, xi in enumerate(x):
            full = {mode: build_kernel(geom, xi / geom.H, self.ORDERS[-1], mode)
                    for mode in modes}
            for (cut_idx, stack, factored), mode in zip(blocks, np.repeat(modes, 2), strict=True):
                assert factored and stack.shape[0] == x.size
                ranks = np.count_nonzero(np.any(stack != 0.0, axis=2), axis=1)
                assert np.unique(ranks).size > 1 and ranks.max() == stack.shape[1]
                assert not np.any(stack[i, ranks[i]:])
                cuts = np.searchsorted(cut_idx, self.ORDERS, side="right")
                got = logdet_one_minus(stack, cuts, factored=True)[i]
                sel = np.ix_(*[np.searchsorted(full[mode][1], cut_idx)] * 2)
                block = full[mode][0][sel]
                peak = max(entries[sel].diagonal().max() for entries, _ in full.values())
                dense = logdet_one_minus(block, cuts)
                assert np.all(np.abs(got - dense) <= cut_bound(block, peak) + 1e-13), (xi, mode)

    def test_modes_keeping_different_orders_are_pivoted_apart(self):
        # Near the knife edge the rung cut of this ladder keeps 401 and 300
        # orders of the Dirichlet blocks and 301 and 400 of the Neumann ones
        # at this node, so no two blocks share orders: both modes at once
        # give bitwise each mode's blocks alone, each within its own bound.
        geom, x, orders = Geometry(0.01, 1.0), np.array([0.1165]), [400, 600, 800]
        (_, blocks), = kernel_blocks(geom, x / geom.H, orders, tuple(BoundaryMode))
        assert [idx.size for idx, *_ in blocks] == [401, 300, 301, 400]
        for mode, pair in zip(BoundaryMode, (blocks[:2], blocks[2:])):
            (_, alone), = kernel_blocks(geom, x / geom.H, orders, (mode,))
            full, kept = build_kernel(geom, x[0] / geom.H, orders[-1], mode)
            for (idx, stack, factored), (alone_idx, alone_stack, _) in zip(pair, alone):
                assert factored and np.array_equal(idx, alone_idx)
                assert np.array_equal(stack, alone_stack)
                block_idx = np.arange(idx[0], orders[-1] + 1, 2)
                sel = np.ix_(*[np.searchsorted(kept, block_idx)] * 2)
                cuts = np.searchsorted(idx, orders, side="right")
                got = logdet_one_minus(stack, cuts, factored=True)[0]
                dense = logdet_one_minus(full[sel], np.searchsorted(block_idx, orders,
                                                                   side="right"))
                bound = cut_bound(full[sel], full[sel].diagonal().max())
                assert np.all(np.abs(got - dense) <= bound + 1e-13), (mode, idx[0])

    def test_scale_is_zero_where_both_half_logs_are_minus_infinity(self, monkeypatch):
        # Order 300 has half-log -inf in both modes at x = 0.3: a zero row
        # and column of both even blocks, which are pivoted together.  Its
        # scale is 0, not exp(-inf + inf), so no NaN reaches a factor.
        self.spoil_half_log(monkeypatch, 300, -math.inf, modes=slice(None))
        geom, x = Geometry(1.0, 0.1), np.array([1e-3, 0.3, 3.0])
        merged = 0
        for nodes, blocks in kernel_blocks(geom, x / geom.H, self.ORDERS, tuple(BoundaryMode)):
            for idx, stack, factored in blocks:
                assert np.all(np.isfinite(stack))
                if factored and nodes.start <= 1 < nodes.stop and idx[0] == 0:
                    merged += 1
                    assert not np.any(stack[1 - nodes.start, :, idx == 300])
        assert merged == 2
        assert np.all(np.isfinite(_g_series(geom, x, self.ORDERS, "em")))

    def test_one_rung_takes_the_rank_cut(self):
        # A ladder of one rung takes the rank cut above _RANK_FROM orders;
        # an int asks `kernel_blocks` for the whole dense blocks, as
        # `build_kernel` does.
        geom, x, mode = Geometry(1.0, 0.1), 0.3, BoundaryMode.NEUMANN
        (_, blocks), = kernel_blocks(geom, np.array([x / geom.H]), [400], (mode,))
        assert [factored for *_, factored in blocks] == [True, True]
        (_, whole), = kernel_blocks(geom, np.array([x / geom.H]), 400, (mode,))
        assert [(idx.size, factored) for idx, _, factored in whole] == [(201, False), (200, False)]
        full, _ = build_kernel(geom, x / geom.H, 400, mode)
        bound = sum(max(1e-15, stack.shape[1] * np.finfo(float).eps * stack[0].diagonal().max())
                    / (1.0 - np.linalg.eigvalsh(stack[0])[-1]) for _, stack, _ in whole)
        got = _g_series(geom, np.array([x]), [400], mode.value)[0, 0]
        assert abs(got - logdet_one_minus(full)) <= bound + 1e-13

    def test_gram_failure_names_its_node_within_a_run(self, monkeypatch):
        # Every node's blocks but the lowest node's are scaled by 4, which
        # puts the Dirichlet even block's largest eigenvalue above one at
        # x = 1e-3; the two nodes share one run, and the message names the
        # second.
        geom, x = Geometry(1.0, 0.1), np.array([5e-4, 1e-3])
        half_logs = roundtrip_module._body_half_logs

        def scaled(nu_max, modes, mu0_scaled):
            lift = np.where(mu0_scaled > mu0_scaled.min(), 0.5 * math.log(4.0), 0.0)
            return half_logs(nu_max, modes, mu0_scaled) + lift

        monkeypatch.setattr(roundtrip_module, "_body_half_logs", scaled)
        runs = [nodes for nodes, _ in kernel_blocks(geom, x / geom.H, self.ORDERS,
                                                     (BoundaryMode.DIRICHLET,))]
        assert runs == [slice(0, 2)]
        assert np.all(np.isfinite(_g_series(geom, x[:1], self.ORDERS, "dirichlet")))
        with pytest.raises(PhysicalRegimeError, match="at x = 0.001: ") as info:
            _g_series(geom, x, self.ORDERS, "dirichlet")
        assert "Gram matrix of its factor" in str(info.value)

    def test_eigenvalue_above_one_names_the_node(self, monkeypatch):
        # Scaling every block by 4 puts the Dirichlet even block's largest
        # eigenvalue at 3.7 at x = 1e-3.  The Gram's size is a rank, not a
        # number of partial waves, and the message must not call it one.
        half_logs = roundtrip_module._body_half_logs
        monkeypatch.setattr(roundtrip_module, "_body_half_logs",
                            lambda *args: half_logs(*args) + 0.5 * math.log(4.0))
        with pytest.raises(PhysicalRegimeError, match="at x = 0.001: ") as info:
            _g_series(Geometry(1.0, 0.1), np.array([1e-3]), self.ORDERS, "dirichlet")
        assert "order" not in str(info.value)


class TestSharedHalfLogs:
    def test_one_pass_is_bitwise_each_mode_alone(self):
        # `_body_half_logs` takes every mode from one pass of the
        # recurrences; each mode's half-logs are bitwise those of its own
        # `parabolic_amplitude_table`, whatever the order of the modes.
        mu = np.concatenate([[0.0], np.sqrt(2.0 * np.geomspace(1e-3, 60.0, 40))])
        for modes in (tuple(BoundaryMode), tuple(reversed(BoundaryMode)),
                      (BoundaryMode.NEUMANN,), (BoundaryMode.DIRICHLET,)):
            half = roundtrip_module._body_half_logs(300, modes, mu)
            assert half.shape == (len(modes), 301, mu.size)
            for mode, got in zip(modes, half):
                _, logs = parabolic_amplitude_table(300, mode, mu)
                expected = 0.5 * (logs - roundtrip_module.gammaln(np.arange(301) + 1.0)[:, None])
                assert np.array_equal(got, expected)


class TestTiltedFactor:
    """At the tilted knife edge each node's block comes as its factor F,
    N = F^T F, cut on a ladder to the smallest rung holding every order
    with |F_a|^2 >= 2^-54, and its rungs come from one syrk and one
    Cholesky factorization (`logdet_one_minus` with ``factored``)."""

    ORDERS = [100, 200, 400, 800]

    @pytest.mark.parametrize("deg", [80.0, 85.0, 88.0])
    @pytest.mark.parametrize("x", [1e-3, 0.3, 3.0])
    def test_rungs_match_dense_cholesky(self, deg, x):
        # The rung cut's bound (module docstring): the orders left out move
        # the log det by at most sum N_jj (1 + tr N / (1 - lambda_max)).
        # 1e-13 more allows for the rounding of the two routes.
        geom = Geometry(0.0, 1.0, math.radians(deg))
        for mode in BoundaryMode:
            got = _g_series(geom, np.array([x]), self.ORDERS, mode.value)[:, 0]
            (_, [(cut_idx, *_)]), = kernel_blocks(geom, np.array([x]), self.ORDERS, (mode,))
            block, idx = build_kernel(geom, x, self.ORDERS[-1], mode)
            assert np.array_equal(cut_idx, idx[:cut_idx.size])
            dense = logdet_one_minus(block, np.searchsorted(idx, self.ORDERS, side="right"))
            eig = np.linalg.eigvalsh(block)[-1]
            dropped = block.diagonal()[cut_idx.size:]
            assert np.all(dropped < 2.0 ** -54)
            bound = dropped.sum() * (1.0 + block.trace() / (1.0 - eig))
            assert np.all(np.abs(got - dense) <= bound + 1e-13), mode

    def test_block_at_large_frequency_stops_below_the_top_rung(self):
        geom = Geometry(0.0, 1.0, math.radians(85.0))
        (_, blocks), = kernel_blocks(geom, np.array([3.0]), self.ORDERS, tuple(BoundaryMode))
        assert [factored for *_, factored in blocks] == [True, True]
        assert all(idx.size < 401 and factor.shape[0] == 1 and factor.shape[2] == idx.size
                   for idx, factor, _ in blocks)

    def test_runs_hold_one_node_each_factored_and_cut_alone(self):
        # The nodes' factors have different row counts 2U, so no run
        # stacks two; each node keeps the orders its own |F_a|^2 ask for.
        geom, x = Geometry(0.0, 1.0, math.radians(85.0)), np.array([1e-3, 0.3, 3.0, 8.0])
        runs = list(kernel_blocks(geom, x, self.ORDERS, tuple(BoundaryMode)))
        assert [nodes for nodes, _ in runs] == [slice(i, i + 1) for i in range(x.size)]
        rows, kept = set(), set()
        for nodes, blocks in runs:
            (_, alone), = kernel_blocks(geom, x[nodes], self.ORDERS, tuple(BoundaryMode))
            for (idx, F, factored), (idx_alone, F_alone, _) in zip(blocks, alone, strict=True):
                assert factored and F.shape[0] == 1 and F.shape[2] == idx.size
                assert np.array_equal(idx, idx_alone) and np.array_equal(F, F_alone)
                rows.add(F.shape[1])
                kept.add(idx.size)
        assert len(rows) > 1 and len(kept) > 1

    def test_nonfinite_factor_names_node_and_order(self, monkeypatch):
        gram = roundtrip_module._gram

        def spoiled(*args, **kwargs):
            V, w = gram(*args, **kwargs)
            V[300, 5] = math.nan
            return V, w

        monkeypatch.setattr(roundtrip_module, "_gram", spoiled)
        with pytest.raises(PhysicalRegimeError, match="nonfinite") as info:
            _g_series(Geometry(0.0, 1.0, math.radians(85.0)), np.array([0.3]), self.ORDERS,
                      "dirichlet")
        assert "at x = 0.3, partial-wave order 600" in str(info.value)

    def test_loss_of_positivity_names_node_and_order(self, monkeypatch):
        # Doubling the factor quadruples N; the order named is the one whose
        # leading block of 1 - 4 N first has a nonpositive eigenvalue.
        geom, x = Geometry(0.0, 1.0, math.radians(85.0)), 0.4
        gram = roundtrip_module._gram

        def doubled(*args, **kwargs):
            V, w = gram(*args, **kwargs)
            return 2.0 * V, w

        monkeypatch.setattr(roundtrip_module, "_gram", doubled)
        block, idx = build_kernel(geom, x, 100, BoundaryMode.NEUMANN)
        first = next(s for s in range(1, idx.size + 1)
                     if np.linalg.eigvalsh(np.eye(s) - block[:s, :s])[0] <= 0.0)
        assert idx[first - 1] == 3
        with pytest.raises(PhysicalRegimeError, match="at x = 0.4: ") as info:
            _g_series(geom, np.array([x]), [25, 50, 100], "neumann")
        assert f"positivity is lost at partial-wave order {idx[first - 1]};" in str(info.value)

    def test_dense_loss_of_positivity_names_node_and_order(self, monkeypatch):
        # R = 1, H = 0.1 blocks scaled by 4 keep at most 101 orders on this
        # ladder, so they are factored dense, a run of nodes at a time: here
        # x = 0.8 and 0.5 in one run, where only the second fails.
        geom, orders = Geometry(1.0, 0.1), [25, 50, 100, 200]
        half_logs = roundtrip_module._body_half_logs
        monkeypatch.setattr(roundtrip_module, "_body_half_logs",
                            lambda *args: half_logs(*args) + 0.5 * math.log(4.0))
        x = 0.5
        block, idx = build_kernel(geom, x / geom.H, orders[-1], BoundaryMode.DIRICHLET)
        even = idx % 2 == 0
        block, idx = block[np.ix_(even, even)], idx[even]
        first = next(s for s in range(1, idx.size + 1)
                     if np.linalg.eigvalsh(np.eye(s) - block[:s, :s])[0] <= 0.0)
        assert idx[first - 1] == 2
        runs = [nodes for nodes, _ in kernel_blocks(geom, np.array([0.8, x]) / geom.H, orders,
                                                     (BoundaryMode.DIRICHLET,))]
        assert runs == [slice(0, 2)]
        with pytest.raises(PhysicalRegimeError, match="at x = 0.5: ") as info:
            _g_series(geom, np.array([0.8, x]), orders, "dirichlet")
        message = str(info.value)
        assert f"positivity is lost at partial-wave order {idx[first - 1]};" in message
        assert "matrix" not in message


class TestRunRule:
    @pytest.mark.parametrize("geom, orders", [
        (KNIFE, [25, 50, 100, 200, 400]),
        (Geometry(0.0, 1.0, math.radians(85.0)), [25, 50, 100, 200, 400]),
        (Geometry(1.0, 0.1), [25, 50, 100, 200, 400]),
        (Geometry(1.0, 1.0, 0.3), [10, 20, 40]),
    ], ids=["knife-0", "knife-85", "body-0.1", "body-0.3"])
    def test_runs_end_at_a_change_of_rows_or_at_the_byte_budget(self, geom, orders):
        # A run ends at a change of kept rows, at the end of the series, or
        # where one more node would take its largest block past _RUN_BYTES:
        # n columns of n orders per node for a dense stack, _RANK_COLUMNS
        # for the rank cut's pivot buffer.  Only a one-node run may exceed
        # it.  The tilted knife edge's factors do not stack: one node a run.
        x, _ = _grid(default_quadrature(geom))
        runs = []
        for nodes, blocks in kernel_blocks(geom, x / geom.H, orders, tuple(BoundaryMode)):
            ranked = {factored for *_, factored in blocks} == {True}
            width = max(idx.size for idx, *_ in blocks)
            runs.append((nodes.stop - nodes.start, [idx.size for idx, *_ in blocks],
                         ranked, 8 * width * (_RANK_COLUMNS if ranked else width)))
        assert sum(size for size, *_ in runs) == x.size
        if geom.R == 0.0 and geom.theta != 0.0:
            assert {size for size, *_ in runs} == {1}
            return
        if geom.theta == 0.0:
            assert {ranked for _, _, ranked, _ in runs} == {True, False}
        for (size, kept, _, node_bytes), (_, after, *_) in zip(runs, runs[1:] + [(0, None)]):
            assert size == 1 or size * node_bytes <= _RUN_BYTES
            if after == kept:
                assert (size + 1) * node_bytes > _RUN_BYTES


class TestLogDet:
    def test_zero_kernel(self):
        assert logdet_one_minus(np.zeros((4, 4))) == 0.0
        assert logdet_one_minus(np.zeros((0, 0))) == 0.0
        assert np.array_equal(logdet_one_minus(np.zeros((3, 0, 0))), np.zeros(3))
        assert np.array_equal(logdet_one_minus(np.zeros((0, 0)), [0]), [0.0])
        assert np.array_equal(logdet_one_minus(np.zeros((3, 4, 4)), [0]), np.zeros((3, 1)))

    def test_one_by_one(self):
        for a in (0.3, -0.8, 0.999):
            got = logdet_one_minus(np.array([[a]]))
            assert got == pytest.approx(math.log1p(-a), rel=1e-14)

    def test_three_by_three_against_cofactors(self):
        for geom, q in ((Geometry(R=1.0, H=1.0), 0.9), (Geometry(R=3.0, H=0.5), 1.4)):
            entries, _ = build_kernel(geom, q, 2, BoundaryMode.DIRICHLET)
            expected = math.log(_det3(np.eye(3) - entries))
            assert logdet_one_minus(entries) == pytest.approx(expected, rel=1e-13)

    def test_similarity_invariance(self):
        # An orthogonal similarity keeps the kernel symmetric and its
        # log-determinant unchanged.
        rng = np.random.default_rng(7)
        entries = literal_knife_kernel(0.8, 30)
        base = logdet_one_minus(entries)
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(31, 31)))
            conjugated = Q @ entries @ Q.T
            conjugated = 0.5 * (conjugated + conjugated.T)
            assert logdet_one_minus(conjugated) == pytest.approx(base, abs=1e-12)
        # A +-1 diagonal similarity flips only signs inside the Cholesky
        # factorization, so every rung of every matrix is bitwise the same.
        geom, sizes = Geometry(R=1.0, H=0.5, theta=0.3), [0, 4, 11, 21]
        stack = np.stack([build_kernel(geom, q, 20, BoundaryMode.NEUMANN)[0]
                          for q in (0.1, 0.7, 3.0)])
        base = logdet_one_minus(stack, sizes)
        for _ in range(5):
            signs = rng.choice([-1.0, 1.0], size=21)
            flipped = signs[:, None] * stack * signs
            assert np.all(logdet_one_minus(flipped, sizes) == base)

    def test_spectral_radius_violation_raises(self):
        with pytest.raises(PhysicalRegimeError):
            logdet_one_minus(np.array([[2.0]]))
        with pytest.raises(PhysicalRegimeError):
            logdet_one_minus(np.array([[0.0, 2.0], [2.0, 0.0]]))
        # Two eigenvalues above one leave det(1 - N) positive; only the
        # positivity of 1 - N itself exposes the violation.
        with pytest.raises(PhysicalRegimeError, match="minor of order 1 "):
            logdet_one_minus(np.diag([2.0, 2.0]))

    def test_zero_diagonal_is_not_cut(self):
        # A symmetric N need not be positive semidefinite: here its
        # diagonal is zero, yet the off-diagonal pair moves the log det.
        entries = np.array([[0.0, 0.5], [0.5, 0.0]])
        expected = math.log(0.75)
        assert logdet_one_minus(entries) == pytest.approx(expected, rel=1e-15)
        ladder = logdet_one_minus(np.stack([np.zeros((2, 2)), entries]), [1, 2])
        assert np.array_equal(ladder[:, 0], [0.0, 0.0])
        assert ladder[0, 1] == 0.0
        assert ladder[1, 1] == pytest.approx(expected, rel=1e-15)

    def test_ladder_matches_leading_blocks(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 9)) / 10.0
        entries = a @ a.T
        sizes = [0, 2, 5, 9]
        ladder = logdet_one_minus(entries, sizes)
        for s, got in zip(sizes, ladder):
            assert got == pytest.approx(
                logdet_one_minus(entries[:s, :s]), rel=1e-13, abs=1e-15)

    def test_ladder_sizes_validated(self):
        with pytest.raises(DomainError):
            logdet_one_minus(np.zeros((3, 3)), [4])
        # Sizes are not rounded or cast: a float or a bool is refused.
        for sizes in ([1.7, 2], [True, 2], [1, np.float64(2.0)], np.array([1.0, 2.0]),
                      [np.bool_(True)]):
            with pytest.raises(DomainError, match="integers"):
                logdet_one_minus(np.zeros((3, 3)), sizes)
        # The integer arrays `_g_series` passes and an empty sequence work.
        for sizes in (np.array([0, 2, 3]), np.searchsorted([1, 2, 3], [1, 3], side="right"),
                      [np.int32(1), 3]):
            assert np.array_equal(logdet_one_minus(np.zeros((3, 3)), sizes), np.zeros(len(sizes)))
        assert logdet_one_minus(np.zeros((3, 3)), []).shape == (0,)
        assert logdet_one_minus(np.zeros((2, 3, 3)), ()).shape == (2, 0)

    def test_nonfinite_entries_raise(self):
        with pytest.raises(PhysicalRegimeError, match="nonfinite"):
            logdet_one_minus(np.array([[math.nan]]))
        base = np.diag([0.1, 0.2, 0.3])
        diagonal = base.copy()
        diagonal[1, 1] = math.inf
        pair = base.copy()
        pair[0, 2] = pair[2, 0] = -math.inf
        upper = base.copy()
        upper[0, 1] = math.nan
        # An overflowed kernel is reported as such, not as a loss of
        # positivity or of symmetry.
        for entries in (diagonal, -diagonal, pair, -pair, upper):
            with pytest.raises(PhysicalRegimeError, match="nonfinite"):
                logdet_one_minus(entries)
            with pytest.raises(PhysicalRegimeError, match="nonfinite"):
                logdet_one_minus(entries, [1, 3])
        for bad in (diagonal, pair, upper):
            with pytest.raises(PhysicalRegimeError, match="nonfinite"):
                logdet_one_minus(np.stack([base, base, bad, base]), [2, 3])
        # A nonfinite entry is named ahead of an earlier matrix's loss of
        # positivity, as on a factor's syrk side.
        stack = np.stack([np.diag([2.0, 0.5]), np.diag([0.1, -math.inf])])
        with pytest.raises(PhysicalRegimeError, match="nonfinite") as info:
            logdet_one_minus(stack, [1, 2])
        assert (info.value.matrix, info.value.rows) == (1, 2)

    def test_input_layout_does_not_matter(self):
        # 1 - N must be formed correctly from Fortran-ordered matrices and
        # from stacks whose node axis is not outermost in memory.
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 7)) / 10.0
        s = a @ a.T
        sizes = [0, 3, 7]
        assert logdet_one_minus(np.asfortranarray(s)) == logdet_one_minus(s)
        assert np.array_equal(logdet_one_minus(np.asfortranarray(s), sizes),
                              logdet_one_minus(s, sizes))
        b = rng.normal(size=(7, 7, 3)) / 10.0
        members = [b[..., k] @ b[..., k].T for k in range(3)]
        stack = np.moveaxis(np.stack(members, axis=-1), -1, 0)
        assert not stack.flags.c_contiguous
        ladder = logdet_one_minus(stack, sizes)
        for j, entries in enumerate(members):
            assert np.array_equal(ladder[j], logdet_one_minus(entries, sizes))

    def test_stack_matches_single_calls(self):
        # Every result must be bitwise the single call's.
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 9, 9)) / 10.0
        members = [m @ m.T for m in a]
        knife = [build_kernel(KNIFE, q, 16, BoundaryMode.DIRICHLET)[0]
                 for q in (0.05, 0.3, 2.0)]
        for stack in (np.stack(members), np.stack(knife)):
            whole = logdet_one_minus(stack)
            ladder = logdet_one_minus(stack, [0, 2, 5, stack.shape[1]])
            assert whole.shape == (len(stack),)
            assert ladder.shape == (len(stack), 4)
            for j, entries in enumerate(stack):
                assert whole[j] == logdet_one_minus(entries)
                assert np.array_equal(ladder[j],
                                      logdet_one_minus(entries, [0, 2, 5, stack.shape[1]]))

    @pytest.mark.parametrize("shape", [(2, 9), (5, 9), (14, 9)], ids=["gram", "wide", "tall"])
    def test_factored_matches_dense(self, shape):
        # A factor is taken on its cheaper side, the k x k Grams only below
        # k = n / 3; sizes in any order, and repeated, give what the dense
        # N = F^T F gives.
        rng = np.random.default_rng(13)
        factor = rng.normal(size=shape) / 10.0
        for block in (factor, np.asfortranarray(factor)):
            sizes = [9, 0, 4, 4, 2]
            got = logdet_one_minus(block, sizes, factored=True)
            np.testing.assert_allclose(got, logdet_one_minus(factor.T @ factor, sizes),
                                       rtol=1e-13, atol=1e-15)
            assert logdet_one_minus(block, factored=True) == pytest.approx(got[0], rel=1e-15)
            assert logdet_one_minus(block, [], factored=True).shape == (0,)
        with pytest.raises(DomainError, match="factor"):
            logdet_one_minus(np.zeros((2, 2, 3, 3)), factored=True)
        with pytest.raises(PhysicalRegimeError, match="not positive definite"):
            logdet_one_minus(10.0 * factor, [2, 9], factored=True)
        # Both sides fail by one rule: a stack names the failing matrix, and
        # a nonfinite column is named, at its order, ahead of an earlier
        # factor's loss of positivity.
        named = ("a Gram matrix of its factor has an eigenvalue of at least one" if shape[0] == 2
                 else "matrix 1 of the stack: its leading minor of order 1 (of 9) is not "
                      "positive; increase quadrature resolution or check the geometry")
        with pytest.raises(PhysicalRegimeError, match=re.escape(named)) as info:
            logdet_one_minus(np.stack([factor, 10.0 * factor]), [2, 9], factored=True)
        assert info.value.matrix == 1
        spoiled = factor.copy()
        spoiled[0, 4] = math.nan
        for stack, matrix in ((spoiled, 0), (np.stack([10.0 * factor, spoiled]), 1)):
            with pytest.raises(PhysicalRegimeError, match="nonfinite") as info:
                logdet_one_minus(stack, [2, 9], factored=True)
            assert (info.value.matrix, info.value.rows) == (matrix, 5)

    def test_stack_names_the_matrix_that_loses_positivity(self):
        stack = np.stack([np.diag([0.5, 0.5, 0.5])] * 4)
        stack[2, 1, 1] = 2.0
        with pytest.raises(PhysicalRegimeError, match="matrix 2 of the stack.*minor of order 2 "):
            logdet_one_minus(stack, [1, 3])

    def test_nonsymmetric_matrix_rejected(self):
        a = np.array([[0.1, 0.2], [0.0, 0.1]])
        with pytest.raises(DomainError, match="symmetric"):
            logdet_one_minus(a)
        with pytest.raises(DomainError, match="symmetric"):
            logdet_one_minus(a, [1, 2])
        stack = np.stack([np.diag([0.1, 0.2])] * 4)
        stack[3] = a
        with pytest.raises(DomainError, match="matrix 3 of the stack"):
            logdet_one_minus(stack)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(DomainError, match="square matrix"):
            logdet_one_minus(np.ones((2, 3)))


class TestGramSide:
    """With 3k < n, `logdet_one_minus(F, sizes, factored=True)` takes each
    rung from the k x k Gram of F's leading columns.  Its rungs are bit
    for bit those of `summed_rungs`: rung c's Gram S summed in order from
    the Grams of F's columns between rungs, made symmetric as
    0.5 (S + S^T) and factored by the dense `logdet_one_minus`."""

    LADDER = [100, 200, 300] + list(range(400, 801, 25))

    @staticmethod
    def summed_rungs(factors, sizes):
        cuts, where = np.unique(np.asarray(sizes, dtype=int), return_inverse=True)
        run, k, _ = factors.shape
        grams = [s @ s.transpose(0, 2, 1) for s in np.split(factors, cuts, axis=2)[:cuts.size]]
        for c in range(1, cuts.size):
            grams[c] = grams[c - 1] + grams[c]
        sym = np.stack([0.5 * (g + g.transpose(0, 2, 1)) for g in grams], axis=1)
        flat = logdet_one_minus(sym.reshape(run * cuts.size, k, k))
        return flat.reshape(run, cuts.size)[:, where]

    def assert_bitwise(self, factors, sizes):
        assert 3 * factors.shape[1] < factors.shape[2]
        got = logdet_one_minus(factors, sizes, factored=True)
        want = self.summed_rungs(factors, sizes)
        assert got.shape == want.shape == (factors.shape[0], len(sizes))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sizes,distinct", [([57, 57], 1), ([30, 0, 57, 9, 30], 4),
                                                (list(range(57, -1, -3)) + [57], 20)],
                             ids=["1", "4", "20"])
    def test_random_ladders(self, sizes, distinct):
        # Sizes in any order and repeated, 0 among them; node 1 is padded
        # with two zero rows.
        rng = np.random.default_rng(19)
        factors = rng.normal(size=(3, 6, 61)) / 40.0
        factors[1, 4:] = 0.0
        assert len(set(sizes)) == distinct
        self.assert_bitwise(factors, sizes)

    @pytest.mark.parametrize("ladder", [LADDER, TestRankCut.ORDERS, [800]],
                             ids=["20", "4", "1"])
    def test_rank_cut_stacks(self, ladder):
        # The rank cut's own stacks, a run of three nodes at H/R = 0.1, in
        # which zero rows pad the lower ranks to the run's largest.
        geom, x = Geometry(1.0, 0.1), np.array([0.02, 0.03, 0.05])
        (_, blocks), = kernel_blocks(geom, x / geom.H, ladder, tuple(BoundaryMode))
        factored = [(idx, stack) for idx, stack, factored in blocks if factored]
        assert len(factored) == 4
        assert any(np.all(stack == 0.0, axis=2).any() for _, stack in factored)
        for idx, stack in factored:
            self.assert_bitwise(stack, np.searchsorted(idx, ladder, side="right"))

    def test_factor_of_no_rows_and_stack_of_no_factors(self):
        self.assert_bitwise(np.zeros((2, 0, 7)), [0, 3, 7, 7])
        assert not logdet_one_minus(np.zeros((2, 0, 7)), [0, 3, 7, 7], factored=True).any()
        self.assert_bitwise(np.zeros((0, 2, 11)), [0, 5, 11])

    @pytest.mark.parametrize("entry", [1e160, 1.1e154], ids=["gram", "symmetrised"])
    def test_overflowing_gram_is_named_as_nonfinite(self, entry):
        # A finite factor whose Gram overflows, in its products (1e160
        # squared) or only as S + S^T (1.1e154 squared is finite, twice it
        # is not), is named as a nonfinite kernel at its node and rung, even
        # where an earlier node's Gram has an eigenvalue above one.
        factor = np.random.default_rng(13).normal(size=(2, 9)) / 10.0
        stack = np.stack([10.0 * factor, factor, factor])
        stack[1, 1, 5] = entry
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PhysicalRegimeError, match="nonfinite entries") as info:
                logdet_one_minus(stack, [9, 2], factored=True)
            assert (info.value.kind, info.value.matrix, info.value.rows) == ("nonfinite", 1, 9)
            with pytest.raises(PhysicalRegimeError) as summed:
                self.summed_rungs(stack, [9, 2])
        assert (summed.value.kind, summed.value.matrix) == ("nonfinite", 3)
        with pytest.raises(PhysicalRegimeError, match="eigenvalue of at least one") as info:
            logdet_one_minus(stack[[0, 2]], [9, 2], factored=True)
        assert (info.value.kind, info.value.matrix, info.value.rows) == ("gram", 0, 2)


class TestKernelShapeAndDecay:
    def test_monotone_decay_beyond_peak(self):
        qs = np.linspace(0.2, 8.0, 25)
        mags = [abs(knife_g(q, 20)) for q in qs]
        peak = int(np.argmax(mags))
        tail = mags[peak:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_truncation_monotonicity(self):
        for q in (0.5, 1.5):
            mags = [abs(knife_g(q, nu_max)) for nu_max in (2, 5, 10, 20, 40)]
            assert all(b >= a - 1e-15 for a, b in zip(mags, mags[1:]))

    def test_entries_vanish_at_large_q(self):
        near = np.abs(build_kernel(KNIFE, 5.0, 10, BoundaryMode.DIRICHLET)[0]).max()
        far = np.abs(build_kernel(KNIFE, 30.0, 10, BoundaryMode.DIRICHLET)[0]).max()
        assert far < near
        assert far < 1e-15

    def test_finite_radius_entries_finite(self):
        for geom in (Geometry(R=1.0, H=1.0), Geometry(R=10.0, H=1.0, theta=0.5)):
            for mode in BoundaryMode:
                entries, _ = build_kernel(geom, 2.0, 30, mode)
                assert np.all(np.isfinite(entries))

    def test_overflowed_entries_raise(self, monkeypatch):
        half_logs = roundtrip_module._body_half_logs
        monkeypatch.setattr(roundtrip_module, "_body_half_logs",
                            lambda *args: half_logs(*args) + 400.0)
        with pytest.raises(PhysicalRegimeError, match="kernel entries overflowed"):
            build_kernel(Geometry(R=1.0, H=1.0), 1.0, 4, BoundaryMode.DIRICHLET)

    def test_kernel_depends_on_q_through_qh(self):
        # In the scaled variable x = q H the kernel depends on geometry
        # ratios only.
        small, _ = build_kernel(Geometry(R=2.0, H=0.5), 3.0, 6, BoundaryMode.NEUMANN)
        large, _ = build_kernel(Geometry(R=4.0, H=1.0), 1.5, 6, BoundaryMode.NEUMANN)
        np.testing.assert_allclose(small, large, rtol=1e-13, atol=1e-300)


class TestArgumentValidation:
    def test_bad_q_and_numax(self):
        with pytest.raises(DomainError):
            build_kernel(KNIFE, 0.0, 4, BoundaryMode.DIRICHLET)
        with pytest.raises(DomainError):
            build_kernel(KNIFE, 1.0, -1, BoundaryMode.DIRICHLET)
        with pytest.raises(DomainError):
            build_kernel(KNIFE, 1.0, True, BoundaryMode.DIRICHLET)

    @pytest.mark.parametrize("geom", [KNIFE, Geometry(0.0, 1.0, math.radians(85.0)),
                                      Geometry(1.0, 1.0), Geometry(1.0, 1.0, 0.3)],
                             ids=["knife-0", "knife-85", "body-0", "body-0.3"])
    @pytest.mark.parametrize("q", [[], [0.5, math.nan], [-0.5], [0.5, 0.0]],
                             ids=["empty", "nan", "negative", "zero"])
    def test_kernel_blocks_rejects_bad_nodes(self, geom, q):
        with pytest.raises(DomainError, match="argument must be"):
            next(kernel_blocks(geom, np.array(q), [20, 40], tuple(BoundaryMode)))

    @pytest.mark.parametrize("geom", [KNIFE, Geometry(1.0, 1.0, 0.3)], ids=["knife-0", "body-0.3"])
    @pytest.mark.parametrize("orders, message", [([], "at least one order"),
                                                 ([2.5], "order must be an integer"),
                                                 ([True, 4], "order must be an integer")],
                             ids=["empty", "float", "bool"])
    def test_kernel_blocks_rejects_bad_ladders(self, geom, orders, message):
        with pytest.raises(DomainError, match=message):
            next(kernel_blocks(geom, np.array([0.5]), orders, tuple(BoundaryMode)))

    def test_build_kernel_takes_one_node(self):
        with pytest.raises(DomainError, match="q must be a scalar"):
            build_kernel(KNIFE, np.array([0.5, 1.0]), 4, BoundaryMode.DIRICHLET)
