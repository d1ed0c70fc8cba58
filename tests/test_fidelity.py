import math

import numpy as np
import pytest

from pbtlab import checks
from pbtlab import closedform as cf
from pbtlab.ensemble import signal_states
from pbtlab.fidelity import pgm_fidelities_reduced
from pbtlab.povm import ent_fidelity, mixed_term, pgm

from paper_bounds import f_corr_trace


def per_port_traces(elements, states):
    return np.einsum("kij,kji->k", elements, states).real


def test_result_invariants():
    states, pov = signal_states(3, 0.6, 0.2), pgm(signal_states(3, 1.0))
    f = ent_fidelity(pov, states)
    assert f == pytest.approx(0.25 * per_port_traces(pov, states).sum(), abs=1e-12)
    assert 0.0 <= f <= 1.0


def test_per_port_traces_equal():
    traces = per_port_traces(pgm(signal_states(4, 1.0)), signal_states(4, 0.4, 0.9))
    assert np.allclose(traces, traces[0], atol=1e-9)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match=r"^POVM elements \(2, 8, 8\) do not match the "
                                         r"states \(3, 16, 16\)$"):
        ent_fidelity(pgm(signal_states(2, 1.0)), signal_states(3, 1.0))


def test_noiseless_matches_f_ih():
    for n in (2, 3, 4, 5):
        states = signal_states(n, 1.0)
        f = ent_fidelity(pgm(states), states)
        assert f == pytest.approx(cf.f_ih(n), abs=1e-10)


def test_theta_pi_matches_f_corr_trace():
    for n in (2, 3, 4):
        f = ent_fidelity(pgm(signal_states(n, 1.0)), signal_states(n, 1.0, math.pi))
        assert f == pytest.approx(f_corr_trace(n), abs=1e-9)


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
    assert mixed_term(np.stack([g, np.eye(dim) - g]), 1) > 1e-6


def compare_columns(n, grid):
    """compare's noiseless, noise-adapted and Beigi-Konig columns at theta = 0."""
    return (cf.noiseless_fidelity(n, grid), pgm_fidelities_reduced(n, grid),
            cf.beigi_konig_bound(n, grid))


def test_noiseless_vs_adapted_n2():
    grid = np.array([0.0, 0.2, 1.0])
    noiseless, adapted, beigi_konig = compare_columns(2, grid)
    helstrom = cf.helstrom_bound_n2(grid)
    assert noiseless[2] == pytest.approx(cf.f_ih(2), abs=1e-9)
    assert adapted[2] == pytest.approx(cf.f_ih(2), abs=1e-9)
    assert helstrom[2] == pytest.approx(cf.helstrom_bound_n2(1.0), abs=1e-9)
    # strong-decoherence region: adapting to the noise wins
    assert adapted[1] >= noiseless[1]
    assert np.all(noiseless <= helstrom + 1e-9)
    assert np.all(adapted <= helstrom + 1e-9)
    assert np.all(adapted >= beigi_konig - 1e-9)


def test_noiseless_vs_adapted_larger_n():
    noiseless, adapted, beigi_konig = compare_columns(5, np.array([0.5, 0.8]))
    assert np.all(noiseless >= adapted - 1e-9)
    assert np.all(adapted >= beigi_konig - 1e-9)


def test_helstrom_optimal_matches_closed_form():
    # ||eta_1 - eta_2||_1 = sqrt(1 + 2|gamma|^2), the trace norm in the Helstrom bound
    norm, _, _ = checks.helstrom((0.0, 0.4, 1.0), (0.0,), 1e-10, 1e-9)
    assert norm.ok


def test_helstrom_theta_independent():
    norm, spread, _ = checks.helstrom((0.6,), tuple(np.linspace(0, math.pi, 7)), 1e-10, 1e-9)
    assert norm.ok and spread.ok
