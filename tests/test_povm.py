import math

import numpy as np
import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import DephasingParams, SignalEnsemble
from pbtlab.fidelity import ent_fidelity
from pbtlab.linops import LinopsError, HermitianOp
from pbtlab.povm import (
    noiseless_povm,
    pgm,
    pgm_taylor,
    rotated_noiseless_povm,
    validate,
)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_noiseless_povm_is_valid(n):
    ens = SignalEnsemble.noiseless(n)
    rep = validate(noiseless_povm(n), ens)
    assert min(*rep.min_eigenvalues, rep.defect_min_eigenvalue) >= -1e-10
    assert rep.completeness_residual <= 1e-8
    assert max(map(abs, rep.defect_support_overlaps)) < 1e-10


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_noise_adapted_povm_is_valid(gamma):
    assert all(g.ok for g in checks.povm_validity((3,), (gamma,), 0.5, 1e-8, 1e-10, 1e-9))


def test_pgm_elements_sum_to_identity_on_support():
    ens = SignalEnsemble.noiseless(3)
    pov = pgm(ens)
    total = sum(e.matrix for e in pov.elements) + pov.defect.matrix
    assert np.allclose(total, np.eye(pov.dim), atol=1e-12)


def test_defect_gives_zero_fidelity_contribution():
    ens = SignalEnsemble.noiseless(3)
    pov = pgm(ens)
    for st in ens.states:
        assert abs(np.trace(pov.defect.matrix @ st.matrix)) < 1e-12


def test_merge_defect_zeroes_defect():
    ens = SignalEnsemble.noiseless(2)
    pov = pgm(ens, merge_defect=True)
    assert np.allclose(pov.defect.matrix, 0.0)
    total = sum(e.matrix for e in pov.elements)
    assert np.allclose(total, np.eye(pov.dim), atol=1e-12)


def test_merge_defect_preserves_fidelity():
    ens = SignalEnsemble.noiseless(3)
    f_plain = ent_fidelity(pgm(ens), ens).ent_fidelity
    f_merged = ent_fidelity(pgm(ens, merge_defect=True), ens).ent_fidelity
    assert f_merged == pytest.approx(f_plain, abs=1e-12)


def test_pgm_rejects_non_psd_state():
    ens = SignalEnsemble.noiseless(2)
    bad = HermitianOp(-ens.states[0].matrix, ens.states[0].n_qubits)
    broken = SignalEnsemble(2, ens.params, (bad, ens.states[1]),
                            ens.average_unnormalized)
    with pytest.raises(LinopsError):
        pgm(broken)


def test_povm_source_tags():
    assert noiseless_povm(2).source == "noiseless"
    ens = SignalEnsemble.build(2, DephasingParams(0.5, 0.0))
    assert pgm(ens).source == "noise_adapted"
    assert pgm_taylor(ens, 10).source == "taylor"
    assert rotated_noiseless_povm(2, 0.3).source == "noiseless_rotated"


def test_rotated_povm_matches_unrotated_closed_form():
    th = 1.1
    for n in (2, 3):
        pov = rotated_noiseless_povm(n, th)
        ens = SignalEnsemble.build(n, DephasingParams(0.7, th))
        got = ent_fidelity(pov, ens).ent_fidelity
        want = cf.fidelity_noiseless_povm(n, DephasingParams(0.7, 0.0))
        assert got == pytest.approx(want, abs=1e-9)


def test_taylor_pgm_converges_to_eigensolver():
    ens = SignalEnsemble.build(2, DephasingParams(0.5, 0.0))
    f_eig = ent_fidelity(pgm(ens), ens).ent_fidelity
    gaps = [abs(ent_fidelity(pgm_taylor(ens, order), ens).ent_fidelity - f_eig)
            for order in (10, 100, 1000)]
    assert gaps[-1] < 1e-8
    assert gaps[-1] <= gaps[0]


def test_taylor_rejects_bad_order():
    ens = SignalEnsemble.noiseless(2)
    with pytest.raises(ValueError):
        pgm_taylor(ens, 0)


def test_noiseless_fidelity_equals_closed_form():
    for n in (2, 3, 4):
        ens = SignalEnsemble.noiseless(n)
        f = ent_fidelity(noiseless_povm(n), ens).ent_fidelity
        assert f == pytest.approx(cf.f_ih(n), abs=1e-10)
