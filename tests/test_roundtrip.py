"""Tests for round-trip kernel assembly and the stabilized log-determinant."""

import math

import numpy as np
import pytest

from paracasimir.roundtrip import PhysicalRegimeError, build_kernel, logdet_one_minus
from paracasimir.scattering import (
    BoundaryMode,
    Geometry,
    parabolic_amplitude_table,
    plane_amplitude,
)
from paracasimir.specfun import DomainError, bateman_k_table
from paracasimir.testing import tilted_element

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


def literal_knife_kernel(q, nu_max):
    """The knife edge's combined kernel over all orders 0..nu_max at H = 1,
    (-1)^nu k_{-nu-nu'-1}(2 q), written out from the Bateman table."""
    k = bateman_k_table(nu_max, 2.0 * q)
    nu = np.arange(nu_max + 1)
    tot = nu[:, None] + nu[None, :]
    return np.where(tot % 2 == 0, (-1.0) ** nu[:, None] * k[tot // 2], 0.0)


def knife_g(q, nu_max):
    """log det(1 - N) of the knife edge at H = 1, both channels."""
    return sum(logdet_one_minus(build_kernel(KNIFE, q, nu_max, mode)[0])
               for mode in BoundaryMode)


def det3(m):
    """Cofactor expansion of a 3x3 determinant, written out longhand."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


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
        # Each channel's kernel is the matching-parity part of the
        # combined kernel (-1)^nu k_{-nu-nu'-1}(2 q H).
        q, nu_max = 1.3, 7
        full = literal_knife_kernel(q, nu_max)
        for mode, start in ((BoundaryMode.DIRICHLET, 0), (BoundaryMode.NEUMANN, 1)):
            entries, orders = build_kernel(KNIFE, q, nu_max, mode)
            assert np.array_equal(orders, np.arange(start, nu_max + 1, 2))
            np.testing.assert_allclose(entries, full[np.ix_(orders, orders)], rtol=1e-13)

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
                    expected = brute_entry(geom, q, int(nu), int(nu2), mode)
                    assert entries[i, j] == pytest.approx(
                        expected, rel=1e-12, abs=1e-15
                    )

    def test_theta0_cross_parity_below_noise(self):
        entries, orders = build_kernel(Geometry(R=2.0, H=1.0), 0.8, 5, BoundaryMode.DIRICHLET)
        scale = np.abs(entries).max()
        tot = orders[:, None] + orders[None, :]
        assert np.abs(entries[tot % 2 == 1]).max() <= 1e-12 * scale


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
            expected = math.log(det3(np.eye(3) - entries))
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

    def test_spectral_radius_violation_raises(self):
        with pytest.raises(PhysicalRegimeError):
            logdet_one_minus(np.array([[2.0]]))
        with pytest.raises(PhysicalRegimeError):
            logdet_one_minus(np.array([[0.0, 2.0], [2.0, 0.0]]))
        # Two eigenvalues above one leave det(1 - N) positive; only the
        # positivity of 1 - N itself exposes the violation.
        with pytest.raises(PhysicalRegimeError, match="minor of order 1 "):
            logdet_one_minus(np.diag([2.0, 2.0]))

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
