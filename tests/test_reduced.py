"""The symmetry-reduced PGM route and the noiseless closed form against the dense route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab import fidelity
from pbtlab.fidelity import (
    DEFAULT_RANK_TOL,
    _block_spectrum,
    _sector_blocks,
    _sector_weights,
    pgm_fidelities_reduced,
)

GAMMAS = (0.0, 0.3, 0.999, 1.0)
THETAS = (0.0, 1.3, 3.0)
# Both routes round off at ~1e-15 (eigensolvers on operators of dimension
# <= 512 and sums of a few dozen block traces); 1e-12 leaves a wide margin.
TOL = 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_compare_routes_match_dense(n):
    # compare's two columns: the reduced noise-adapted PGM and the noiseless
    # closed form, each against its dense 2^(N+1)-dimensional counterpart,
    # each state stack built once.  The reduced route takes no theta: the
    # dense PGM at every theta checks that a phase on B does not change the
    # adapted fidelity.
    assert all(gap.ok for gap in checks.closed_form_vs_trace((n,), GAMMAS, THETAS, TOL))


@settings(max_examples=30)
@given(st.integers(2, 6), st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
def test_routes_agree_at_random_points(n, g, t):
    # the dense route against the reduced PGM and against the noiseless closed
    # form, at any (N, |gamma|, theta) it reaches quickly; the Beigi-Konig
    # bound sits below the reduced PGM
    assert all(gap.ok for gap in checks.closed_form_vs_trace((n,), (g,), (t,), TOL))
    assert cf.beigi_konig_bound(n, g) <= pgm_fidelities_reduced(n, g) + 1e-12


# The anchors beyond the dense oracle's N <= 8: |gamma| = 1 gives f_ih and
# |gamma| = 0 gives 1/2 - 2^-(N+1).  Measured at most 6.7e-16 (|gamma| = 1,
# N = 3000) and 1.7e-16 (|gamma| = 0) up to N = 3000: the sector weights and
# f_ih share `closedform.binomial_weights`, accurate to a few ulp, and the
# block traces add no more than round-off.
ANCHOR_TOL = 3e-15


@pytest.mark.parametrize("n", [*range(1, 13), 20, 40, 100, 300, 1000, 3000])
def test_pure_singlet_gives_f_ih(n):
    # At |gamma| = 1 each signal state is pure and S is rank-deficient, so
    # the result depends on the rank cut.  The same call serves the
    # |gamma| = 0 anchor.
    one, zero = pgm_fidelities_reduced(n, [1.0, 0.0])
    assert abs(one - cf.f_ih(n)) <= ANCHOR_TOL
    assert abs(zero - (0.5 - 2.0 ** -(n + 1))) <= ANCHOR_TOL


def test_fully_dephased_gives_half_minus_two_to_minus_n_plus_one():
    for n in range(1, 61):
        (got,) = pgm_fidelities_reduced(n, [0.0])
        assert abs(got - (0.5 - 2.0 ** -(n + 1))) <= ANCHOR_TOL


MIXED_GRID = (1.0, 0.3, 1.0, 0.0, 0.999, 1.0)


@pytest.mark.parametrize("n", (1, 2, 3, 5, 9, 20))
def test_batched_rows_match_one_point_calls(n):
    # the |gamma| = 1 rows are rank-deficient, the others are not: each row
    # takes its own rank cut, so stacking rows changes no row's result; only
    # the summation of the block traces may round differently
    batched = pgm_fidelities_reduced(n, MIXED_GRID)
    for g, f in zip(MIXED_GRID, batched):
        assert abs(f - pgm_fidelities_reduced(n, [g])[0]) <= 1e-15
        # a float gives a scalar, as the other |gamma| functions do
        one = pgm_fidelities_reduced(n, g)
        assert np.ndim(one) == 0 and abs(one - f) <= 1e-15
    assert max(abs(f - cf.f_ih(n)) for g, f in zip(MIXED_GRID, batched) if g == 1.0) <= TOL
    # a 2-D grid keeps its shape, row-major as the flat one
    square = pgm_fidelities_reduced(n, np.reshape(MIXED_GRID, (2, 3)))
    assert square.shape == (2, 3) and np.array_equal(square.ravel(), batched)


@pytest.mark.parametrize("n", (2, 5, 9, 30, 256, 300))
def test_chunked_walk_matches_one_stack(n, monkeypatch):
    # BLOCK_CHUNK = 1 stacks one sector of one row at a time; the rank cut is
    # the row's own either way.  From N = 256 on the default stacks hold
    # several sectors each, dealt round-robin, but not all of them.
    whole = pgm_fidelities_reduced(n, MIXED_GRID)
    monkeypatch.setattr(fidelity, "BLOCK_CHUNK", 1)
    pieces = pgm_fidelities_reduced(n, MIXED_GRID)
    assert max(abs(a - b) for a, b in zip(whole, pieces)) <= 1e-15


def top_eigenvalues(n, two_j, g):
    """l+ of the closed-form blocks of sector j' = two_j / 2, rows J = j' +- 1/2."""
    _, ones, zeros, hop, *_ = _sector_blocks(n, [(two_j, 0.0)])
    return _block_spectrum(4.0 * g * g, ones, zeros, hop)[2]


@pytest.mark.parametrize("n", range(1, 8))
def test_block_spectrum_matches_dense(n):
    # every eigenvalue of 2^(N+1) S from the blocks and sector weights
    # `pgm_fidelities_reduced` runs, against the dense spectrum
    assert checks.spectrum_block_formulas((n,), (0.0, 0.3, 1.0), (0.7,), 1e-12).ok


@pytest.mark.parametrize("n", range(1, 13))
def test_largest_eigenvalue_sits_in_top_sector(n):
    # S's largest eigenvalue is N + 1 + sqrt((N-1)^2 + 4N|gamma|^2), at total
    # spin N/2 and m = -N/2 or N/2 - 1, where the rank cut takes it; total
    # spin N/2 lies only in the top sector j' = (N-1)/2, row 0 of its blocks
    for g in (0.0, 0.3, 0.999, 1.0):
        tops = [top_eigenvalues(n, two_j, g) for two_j, _ in _sector_weights(n)]
        largest = tops[0][0].max()
        assert largest == max(t.max() for t in tops)
        # at |gamma| = 1 l+ is flat in m, so the ends tie with the rest to round-off
        assert max(tops[0][0, 0], tops[0][0, -1]) == pytest.approx(largest, rel=1e-15, abs=0.0)
        expected = n + 1 + math.sqrt((n - 1) ** 2 + 4 * n * g ** 2)
        assert largest == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_non_psd_input_raises():
    # |gamma| = 1.5 gives a Bell block with eigenvalue -1/4; a NaN would
    # otherwise pass every comparison and come out as a NaN fidelity
    for bad in (1.5, math.nan, -0.1):
        with pytest.raises(ValueError, match=rf"gamma_abs must lie in \[0, 1\], got {bad}$"):
            pgm_fidelities_reduced(3, [0.5, bad])


def test_smallest_eigenvalue_stays_above_minus_the_cut():
    # pgm_fidelities_reduced drops every l- below its cut and has no guard for
    # a negative one beyond it.  The largest |gamma| the shared check accepts
    # tips the blocks that are singular at |gamma| = 1 below zero, by at most
    # half the cut: measured -0.5001 cut (N = 55) over these N.
    qq = 4.0 * np.array([1.0 + cf.GAMMA_SLACK]) ** 2  # as pgm_fidelities_reduced forms it
    for n in [*range(1, 61), 100, 300, 1000]:
        _, ones, zeros, hop, *_ = _sector_blocks(n, _sector_weights(n))
        lm = _block_spectrum(qq, ones, zeros, hop)[3]
        cut = DEFAULT_RANK_TOL * (n + 1 + np.sqrt((n - 1) ** 2 + n * qq))
        assert (lm / cut).min() >= -1.0, n


@pytest.mark.parametrize("n", range(1, 21))
def test_sector_weights_match_exact_degeneracy(n):
    for two_j, weight in _sector_weights(n):
        k = (n - 1 - two_j) // 2
        exact = math.comb(n - 1, k) * (two_j + 1) // (n - k) / 2 ** (n + 1)
        # a few roundings on binomial weights of a few ulp: measured 2.7e-16
        assert weight == pytest.approx(exact, rel=1e-15)


def test_sector_weights_sum_to_one_at_large_n():
    # sum_j' 4 (2j'+1) d_j' / 2^(N+1) = 4 * 2^(N-1) / 2^(N+1) = 1: the sectors
    # fill the whole space.  At N = 2000, 2^2001 and the largest d_j' overflow
    # a float, their weights do not; measured within 3.3e-16 of 1.
    for n in [*range(1, 61), 2000, 10_000]:
        weights = _sector_weights(n)
        assert all(math.isfinite(weight) for _, weight in weights)
        total = math.fsum(4 * (two_j + 1) * weight for two_j, weight in weights)
        assert abs(total - 1.0) <= 1e-15
