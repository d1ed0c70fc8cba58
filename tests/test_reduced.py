"""The symmetry-reduced PGM route and the noiseless closed form against the dense route."""

import math

import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import DephasingParams, SignalEnsemble
from pbtlab.fidelity import _sector_log_weights, ent_fidelity, pgm_fidelity_reduced
from pbtlab.linops import LinopsError
from pbtlab.povm import pgm

GAMMAS = (0.0, 0.3, 0.999, 1.0)
THETAS = (0.0, 1.3, 3.0)
# Both routes round off at ~1e-15 (eigensolvers on operators of dimension
# <= 512 and sums of a few dozen block traces); 1e-12 leaves a wide margin.
TOL = 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_compare_routes_match_dense(n):
    # compare's two columns: the reduced noise-adapted PGM and the noiseless
    # closed form, each against its dense 2^(N+1)-dimensional counterpart
    for g in GAMMAS:
        for th in THETAS:
            p = DephasingParams(g, th)
            ens = SignalEnsemble.build(n, p)
            adapted = ent_fidelity(pgm(ens), ens).ent_fidelity
            assert abs(pgm_fidelity_reduced(n, p) - adapted) <= TOL
    assert checks.closed_form_vs_trace((n,), GAMMAS, THETAS, TOL).ok


@pytest.mark.parametrize("n", range(1, 13))
def test_pure_singlet_gives_f_ih(n):
    # At |gamma| = 1 each signal state is pure and S is rank-deficient, so
    # the result depends on the rank cut; a phase on B does not change it.
    for th in THETAS:
        p = DephasingParams(1.0, th)
        assert abs(pgm_fidelity_reduced(n, p) - cf.f_ih(n)) <= TOL


def test_non_psd_input_raises():
    bad = DephasingParams(1.0, 0.0)
    object.__setattr__(bad, "gamma_abs", 1.5)  # Bell block eigenvalue -1/4
    with pytest.raises(LinopsError, match="not PSD"):
        pgm_fidelity_reduced(3, bad)


def test_rejects_empty_port_set():
    with pytest.raises(LinopsError):
        pgm_fidelity_reduced(0, DephasingParams(1.0, 0.0))


@pytest.mark.parametrize("n", range(1, 21))
def test_sector_weights_match_exact_degeneracy(n):
    for two_j, log_w in _sector_log_weights(n):
        exact = cf.degeneracy(n - 1, two_j / 2) / 2 ** (n + 1)
        # lgamma-based logs carry ~1e-15 relative error per term
        assert math.exp(log_w) == pytest.approx(exact, rel=1e-12)


def test_sector_weights_sum_to_one_at_large_n():
    # sum_j' 4 (2j'+1) d_j' / 2^(N+1) = 4 * 2^(N-1) / 2^(N+1) = 1; 2^2001 and
    # the largest d_j' overflow a float, their logs do not.
    n = 2000
    logs = _sector_log_weights(n)
    assert all(math.isfinite(log_w) for _, log_w in logs)
    total = math.fsum(4 * (two_j + 1) * math.exp(log_w) for two_j, log_w in logs)
    assert abs(total - 1.0) <= 1e-12
