"""Tests for round-trip kernel assembly and the stabilized log-determinant."""

import math

import numpy as np
import pytest

from paracasimir.roundtrip import (
    PhysicalRegimeError,
    TruncatedKernel,
    build_kernel,
    logdet_one_minus,
    parity_block,
)
from paracasimir.scattering import (
    BoundaryMode,
    Geometry,
    parabolic_amplitude,
    plane_amplitude,
)
from paracasimir.specfun import DomainError, bateman_k, bateman_k_table
from paracasimir.translation import tilted_element

KNIFE = Geometry(R=0.0, H=1.0)


def brute_entry(geom, q, nu, nu2, mode):
    """One balanced-gauge entry from scalar amplitudes and elements.

    Applies the diagonal similarity sqrt(|F_nu| / nu!) explicitly, the
    long way the production assembly never takes.
    """
    amp = parabolic_amplitude(nu, mode, geom.mu0 * math.sqrt(2.0 * q))
    amp2 = parabolic_amplitude(nu2, mode, geom.mu0 * math.sqrt(2.0 * q))
    half = 0.5 * (amp.logmag - math.lgamma(nu + 1))
    half2 = 0.5 * (amp2.logmag - math.lgamma(nu2 + 1))
    element = tilted_element(nu, nu2, q, geom.d, geom.theta)
    return amp.sign * math.exp(half + half2) * plane_amplitude(mode) * element


def det3(m):
    """Cofactor expansion of a 3x3 determinant, written out longhand."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


class TestKnifeEdgeKernel:
    def test_single_entry_is_bateman_value(self):
        kernel = build_kernel(KNIFE, 0.7, 0)
        assert kernel.entries.shape == (1, 1)
        assert kernel.entries[0, 0] == pytest.approx(bateman_k(-1, 1.4), rel=1e-13)

    def test_cross_parity_entry_is_zero(self):
        kernel = build_kernel(KNIFE, 0.7, 1)
        assert kernel.entries[0, 1] == 0.0
        assert kernel.entries[1, 0] == 0.0

    def test_literal_alternating_form(self):
        q, nu_max = 1.3, 6
        kernel = build_kernel(KNIFE, q, nu_max)
        k = bateman_k_table(nu_max, 2.0 * q * KNIFE.H)
        for nu in range(nu_max + 1):
            for nu2 in range(nu_max + 1):
                if (nu + nu2) % 2:
                    expected = 0.0
                else:
                    expected = (-1.0) ** nu * k[(nu + nu2) // 2]
                assert kernel.entries[nu, nu2] == pytest.approx(expected, rel=1e-13)

    def test_mode_kernels_match_parity_blocks(self):
        q, nu_max = 0.9, 9
        full = build_kernel(KNIFE, q, nu_max)
        for mode in BoundaryMode:
            block = parity_block(full, mode)
            direct = build_kernel(KNIFE, q, nu_max, mode=mode)
            assert np.array_equal(block.nu_indices, direct.nu_indices)
            np.testing.assert_allclose(block.entries, direct.entries, rtol=1e-13)
            assert direct.channel == block.channel

    def test_block_additivity(self):
        for q in (0.3, 1.0, 3.0):
            full = build_kernel(KNIFE, q, 40)
            total = logdet_one_minus(full)
            parts = sum(
                logdet_one_minus(parity_block(full, mode)) for mode in BoundaryMode
            )
            assert total == pytest.approx(parts, abs=1e-12)


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
            kernel = build_kernel(geom, q, 2, mode=mode)
            for i, nu in enumerate(kernel.nu_indices):
                for j, nu2 in enumerate(kernel.nu_indices):
                    expected = brute_entry(geom, q, int(nu), int(nu2), mode)
                    assert kernel.entries[i, j] == pytest.approx(
                        expected, rel=1e-12, abs=1e-15
                    )

    def test_theta0_cross_parity_below_noise(self):
        kernel = build_kernel(Geometry(R=2.0, H=1.0), 0.8, 5, mode=BoundaryMode.DIRICHLET)
        scale = np.abs(kernel.entries).max()
        tot = kernel.nu_indices[:, None] + kernel.nu_indices[None, :]
        assert np.abs(kernel.entries[tot % 2 == 1]).max() <= 1e-12 * scale


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
            kernel = build_kernel(geom, q, 2, mode=BoundaryMode.DIRICHLET)
            expected = math.log(det3(np.eye(3) - kernel.entries))
            assert logdet_one_minus(kernel) == pytest.approx(expected, rel=1e-13)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(7)
        kernel = build_kernel(KNIFE, 0.8, 30)
        base = logdet_one_minus(kernel)
        for _ in range(5):
            scale = np.exp(rng.uniform(-3, 3, size=31))
            conjugated = kernel.entries * np.outer(scale, 1.0 / scale)
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
        for entries in (a @ a.T, a):
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
        # positivity, whichever route it takes.
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
        assert logdet_one_minus(a.T) == logdet_one_minus(np.ascontiguousarray(a.T))
        assert np.array_equal(logdet_one_minus(a.T, sizes),
                              logdet_one_minus(np.ascontiguousarray(a.T), sizes))
        b = rng.normal(size=(7, 7, 3)) / 10.0
        members = [b[..., 0] @ b[..., 0].T, b[..., 1], b[..., 2] @ b[..., 2].T]
        stack = np.moveaxis(np.stack(members, axis=-1), -1, 0)
        assert not stack.flags.c_contiguous
        ladder = logdet_one_minus(stack, sizes)
        for j, entries in enumerate(members):
            assert np.array_equal(ladder[j], logdet_one_minus(entries, sizes))

    def test_stack_matches_single_calls(self):
        # Symmetric members take the Cholesky route and nonsymmetric ones
        # LU, within one stack; every result must be bitwise the single
        # call's.
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 9, 9)) / 10.0
        members = [a[0] @ a[0].T, a[1], a[2] @ a[2].T, a[3], a[4] @ a[4].T]
        knife = [build_kernel(KNIFE, q, 16, mode=BoundaryMode.DIRICHLET).entries
                 for q in (0.05, 0.3, 2.0)]
        for stack in (np.stack(members), np.stack(members[::2]), np.stack(knife)):
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


class TestKernelShapeAndDecay:
    def test_monotone_decay_beyond_peak(self):
        qs = np.linspace(0.2, 8.0, 25)
        mags = [abs(logdet_one_minus(build_kernel(KNIFE, q, 20))) for q in qs]
        peak = int(np.argmax(mags))
        tail = mags[peak:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_truncation_monotonicity(self):
        for q in (0.5, 1.5):
            mags = [
                abs(logdet_one_minus(build_kernel(KNIFE, q, nu_max)))
                for nu_max in (2, 5, 10, 20, 40)
            ]
            assert all(b >= a - 1e-15 for a, b in zip(mags, mags[1:]))

    def test_entries_vanish_at_large_q(self):
        near = np.abs(build_kernel(KNIFE, 5.0, 10).entries).max()
        far = np.abs(build_kernel(KNIFE, 30.0, 10).entries).max()
        assert far < near
        assert far < 1e-15

    def test_finite_radius_entries_finite(self):
        for geom in (Geometry(R=1.0, H=1.0), Geometry(R=10.0, H=1.0, theta=0.9)):
            for mode in BoundaryMode:
                kernel = build_kernel(geom, 2.0, 30, mode=mode)
                assert np.all(np.isfinite(kernel.entries))

    def test_q_scaled_records_qh(self):
        kernel = build_kernel(Geometry(R=2.0, H=0.5), 3.0, 2, mode=BoundaryMode.NEUMANN)
        assert kernel.q_scaled == pytest.approx(1.5)


class TestArgumentValidation:
    def test_combined_kernel_needs_knife_untilted(self):
        with pytest.raises(DomainError):
            build_kernel(Geometry(R=1.0, H=1.0), 1.0, 4)
        with pytest.raises(DomainError):
            build_kernel(Geometry(R=0.0, H=1.0, theta=0.3), 1.0, 4)

    def test_bad_q_and_numax(self):
        with pytest.raises(DomainError):
            build_kernel(KNIFE, 0.0, 4)
        with pytest.raises(DomainError):
            build_kernel(KNIFE, 1.0, -1)

    def test_parity_block_rejects_mode_kernels(self):
        kernel = build_kernel(KNIFE, 1.0, 4, mode=BoundaryMode.DIRICHLET)
        with pytest.raises(DomainError):
            parity_block(kernel, BoundaryMode.DIRICHLET)
