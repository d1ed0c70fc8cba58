import math

import numpy as np
import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import DephasingParams, SignalEnsemble
from pbtlab.fidelity import (
    compare_noise_adapted,
    ent_fidelity,
    mixed_term,
)
from pbtlab.linops import LinopsError, HermitianOp
from pbtlab.povm import Povm, noiseless_povm


def test_result_invariants():
    ens = SignalEnsemble.build(3, DephasingParams(0.6, 0.2))
    res = ent_fidelity(noiseless_povm(3), ens)
    assert res.ent_fidelity == pytest.approx(0.25 * sum(res.per_port_traces), abs=1e-12)
    assert res.teleport_fidelity == pytest.approx((2 * res.ent_fidelity + 1) / 3, abs=1e-12)
    assert 0.0 <= res.ent_fidelity <= 1.0


def test_per_port_traces_equal():
    ens = SignalEnsemble.build(4, DephasingParams(0.4, 0.9))
    res = ent_fidelity(noiseless_povm(4), ens)
    assert np.allclose(res.per_port_traces, res.per_port_traces[0], atol=1e-9)


def test_dimension_mismatch_raises():
    ens = SignalEnsemble.noiseless(3)
    with pytest.raises(LinopsError):
        ent_fidelity(noiseless_povm(2), ens)


def test_noiseless_matches_f_ih():
    for n in (2, 3, 4, 5):
        ens = SignalEnsemble.noiseless(n)
        f = ent_fidelity(noiseless_povm(n), ens).ent_fidelity
        assert f == pytest.approx(cf.f_ih(n), abs=1e-9)


def test_theta_pi_matches_f_corr_trace():
    for n in (2, 3, 4):
        ens = SignalEnsemble.build(n, DephasingParams(1.0, math.pi))
        f = ent_fidelity(noiseless_povm(n), ens).ent_fidelity
        assert f == pytest.approx(cf.f_corr_trace(n), abs=1e-9)


def test_mixed_term_vanishes_for_noiseless_pgm():
    assert checks.mixed_term_vanishes((2, 3), 1e-10).worst < 1e-10


def test_mixed_term_nonzero_for_generic_povm():
    # a deliberately lopsided (non-PGM) POVM must not vanish: the check is not vacuous
    n = 2
    rng = np.random.default_rng(3)
    dim = 2 ** (n + 1)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = a @ a.conj().T
    g = g / np.linalg.eigvalsh(g).max()
    elements = (HermitianOp(g, n + 1), HermitianOp(np.eye(dim) - g, n + 1))
    pov = Povm(elements)
    assert mixed_term(pov, 1, n) > 1e-6


def test_compare_noise_adapted_n2():
    rows = compare_noise_adapted(2, [0.0, 0.2, 1.0])
    by_gamma = {r.gamma_abs: r for r in rows}
    r1 = by_gamma[1.0]
    assert r1.noiseless == pytest.approx(cf.f_ih(2), abs=1e-9)
    assert r1.noise_adapted == pytest.approx(cf.f_ih(2), abs=1e-9)
    assert r1.helstrom == pytest.approx(cf.helstrom_bound_n2(1.0), abs=1e-9)
    # strong-decoherence region: adapting to the noise wins
    r0 = by_gamma[0.2]
    assert r0.noise_adapted >= r0.noiseless
    for r in rows:
        assert r.noiseless <= r.helstrom + 1e-9
        assert r.noise_adapted <= r.helstrom + 1e-9
        assert r.noise_adapted >= r.beigi_konig - 1e-9


def test_compare_noise_adapted_larger_n():
    rows = compare_noise_adapted(5, [0.5, 0.8])
    for r in rows:
        assert r.helstrom is None
        assert r.noiseless >= r.noise_adapted - 1e-9
        assert r.noise_adapted >= r.beigi_konig - 1e-9


def test_helstrom_optimal_matches_closed_form():
    # ||eta_1 - eta_2||_1 = sqrt(1 + 2|gamma|^2), the trace norm in the Helstrom bound
    norm, _, _ = checks.helstrom((0.0, 0.4, 1.0), (0.0,), 1e-10, 1e-9)
    assert norm.ok


def test_helstrom_theta_independent():
    norm, spread, _ = checks.helstrom((0.6,), tuple(np.linspace(0, math.pi, 7)), 1e-10, 1e-9)
    assert norm.ok and spread.ok
