"""The benchmark's workloads: seeded CLI inputs plus a correctness gate each.

A workload turns a seed into the argument list of one `pbtlab` subcommand and
checks every row the subcommand writes against an independent route
(`reference.py`).  The seed only moves parameter values; grid sizes are fixed,
so the amount of work is the same for every seed.

Each output row is one operation of the benchmark: a row that is missing,
malformed or outside its tolerance is a failed operation.

Why these two (see README.md):
  dense  - the 2^(N+1)-dimensional PGM route (linops, ensemble, povm, fidelity)
  bath   - spin-boson quadrature, the closed forms per point and many tiny PGMs
           at complex gamma
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence

import reference as ref

# Tolerances of the gates, each with its reason.
# Dense PGM vs the closed form: eigensolver round-off on 256 x 256 operators.
DENSE_TOL = 1e-9
# Closed-form columns vs mpmath: float64 log-space sums over N + 1 terms.
CLOSED_TOL = 1e-12
# A bound column re-derived from its one-line formula.
FORMULA_TOL = 1e-12
# Quadrature vs reference: the package asks QUADPACK for 1e-10 relative /
# 1e-12 absolute per panel over up to ~800 panels; scaled by max(1, |ref|).
QUAD_TOL = 1e-9
# tau = 0 short-circuits to chi = phase = 0; the package's own verify suite
# uses the same bound.
ZERO_TOL = 1e-12
# gamma_abs is exp(-chi), printed with 17 significant digits.
EXP_TOL = 1e-15


def _fmt(x: float) -> str:
    return repr(float(x))


def _close(got: Optional[float], want: float, tol: float) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= tol


class Workload:
    """One CLI invocation and the gate on its output rows."""

    name: str = ""
    header: Sequence[str] = ()

    def argv(self) -> List[str]:
        raise NotImplementedError

    @property
    def expected_rows(self) -> int:
        raise NotImplementedError

    def check_row(self, i: int, row: Dict[str, Optional[float]]) -> Optional[str]:
        """Return None when row i passes, else a one-line reason."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"name": self.name, "argv": self.argv(), "rows": self.expected_rows}


class Dense(Workload):
    """`compare --n 7` over six |gamma| values at theta = 0, one of them 1.0."""

    name = "dense"
    header = ("n", "gamma_abs", "noiseless_fidelity", "noise_adapted_fidelity",
              "beigi_konig_bound", "helstrom_bound")

    def __init__(self, seed: int, n: int = 7, count: int = 6):
        rng = random.Random(f"dense-{seed}")
        self.n = n
        self.gammas = sorted([rng.random() for _ in range(count - 1)] + [1.0])
        self.cf = ref.ClosedForm(n)

    def argv(self) -> List[str]:
        return ["compare", "--n", str(self.n),
                "--gamma", ",".join(map(_fmt, self.gammas))]

    @property
    def expected_rows(self) -> int:
        return len(self.gammas)

    def check_row(self, i, row):
        g = self.gammas[i]
        if row["n"] != self.n or row["gamma_abs"] != g:
            return f"row {i}: inputs {row['n']}, {row['gamma_abs']} != {self.n}, {g}"
        if not _close(row["noiseless_fidelity"], self.cf.ent_fidelity(g, 0.0), DENSE_TOL):
            return f"row {i}: noiseless {row['noiseless_fidelity']} vs closed form"
        bound = ref.beigi_konig_bound(self.n, g)
        if not _close(row["beigi_konig_bound"], bound, FORMULA_TOL):
            return f"row {i}: Beigi-Konig column {row['beigi_konig_bound']} vs {bound}"
        adapted = row["noise_adapted_fidelity"]
        if adapted is None or not adapted >= bound:
            return f"row {i}: adapted {adapted} below the Beigi-Konig bound {bound}"
        if g == 1.0 and not _close(adapted, self.cf.f_ih, DENSE_TOL):
            return f"row {i}: adapted {adapted} at |gamma| = 1 vs f_ih {self.cf.f_ih}"
        if row["helstrom_bound"] is not None:
            return f"row {i}: Helstrom bound set for N = {self.n}"
        return None


class Bath(Workload):
    """`spinboson` over two ohmicities, two temperatures and a seeded tau grid."""

    name = "bath"
    header = ("ohmicity", "temp_ratio", "tau", "chi", "phase", "gamma_abs",
              "f_closed_form", "f_noise_adapted")
    ell = 3.0

    def __init__(self, seed: int, n: int = 5, taus: int = 21,
                 ohmicities: Sequence[float] = (2.0, 3.0),
                 temps: Sequence[float] = (0.1, 0.9)):
        rng = random.Random(f"bath-{seed}")
        self.n = n
        # tau_0 = 0 always; tau_i is jittered down from i by less than 1/2,
        # so the grid stays sorted and its total length (which sets the
        # number of quadrature panels) barely depends on the seed.
        self.taus = [0.0] + [i - 0.5 * rng.random() for i in range(1, taus)]
        self.ohmicities = list(ohmicities)
        self.temps = list(temps)
        self.cf = ref.ClosedForm(n)
        self.points = [(s, th, tau) for s in self.ohmicities
                       for th in self.temps for tau in self.taus]
        self.chi = [ref.spinboson_chi(tau, s, th, self.ell) for s, th, tau in self.points]
        phases = {(s, tau): ref.spinboson_phase(tau, s, self.ell)
                  for s in self.ohmicities for tau in self.taus}
        self.phase = [phases[s, tau] for s, _, tau in self.points]

    def argv(self) -> List[str]:
        return ["spinboson", "--n", str(self.n),
                "--s", ",".join(map(_fmt, self.ohmicities)),
                "--temp-ratio", ",".join(map(_fmt, self.temps)),
                "--ell", _fmt(self.ell),
                "--tau", ",".join(map(_fmt, self.taus)),
                "--povm", "closed_form,noise_adapted"]

    @property
    def expected_rows(self) -> int:
        return len(self.points)

    def check_row(self, i, row):
        s, th, tau = self.points[i]
        if (row["ohmicity"], row["temp_ratio"], row["tau"]) != (s, th, tau):
            return f"row {i}: inputs {row['ohmicity']}, {row['temp_ratio']}, {row['tau']}"
        chi, phase = row["chi"], row["phase"]
        if tau == 0.0 and not (_close(chi, 0.0, ZERO_TOL) and _close(phase, 0.0, ZERO_TOL)):
            return f"row {i}: chi {chi}, phase {phase} at tau = 0"
        if not _close(chi, self.chi[i], QUAD_TOL * max(1.0, abs(self.chi[i]))):
            return f"row {i}: chi {chi} vs reference {self.chi[i]}"
        if not _close(phase, self.phase[i], QUAD_TOL * max(1.0, abs(self.phase[i]))):
            return f"row {i}: phase {phase} vs reference {self.phase[i]}"
        if not _close(row["gamma_abs"], math.exp(-chi), EXP_TOL):
            return f"row {i}: gamma_abs {row['gamma_abs']} vs exp(-chi)"
        f = ref.teleport_fidelity(self.cf.ent_fidelity(row["gamma_abs"], phase))
        if not _close(row["f_closed_form"], f, CLOSED_TOL):
            return f"row {i}: f_closed_form {row['f_closed_form']} vs {f}"
        adapted = row["f_noise_adapted"]
        if tau == 0.0 and not _close(adapted, ref.teleport_fidelity(self.cf.f_ih), DENSE_TOL):
            return f"row {i}: f_noise_adapted {adapted} at tau = 0 vs f_ih"
        if adapted is None or not 0.0 <= adapted <= 1.0:
            return f"row {i}: f_noise_adapted {adapted} outside [0, 1]"
        return None


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "dense": Dense,
    "bath": Bath,
}


def parse_csv(text: str, header: Sequence[str]) -> List[Dict[str, Optional[float]]]:
    """Rows of a `--no-timestamp` CSV as dicts; raises ValueError on a bad header."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != tuple(header):
        raise ValueError(f"unexpected header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            rows.append(None)
            continue
        try:
            rows.append({h: float(c) if c else None for h, c in zip(header, cells)})
        except ValueError:
            rows.append(None)
    return rows


def count_failures(workload: Workload, csv_text: Optional[str]) -> tuple:
    """(failed rows, first few reasons) for one invocation's output.

    None stands for a run that exited nonzero or wrote nothing: all of its
    expected rows fail.  Missing and surplus rows fail too.
    """
    expected = workload.expected_rows
    if csv_text is None:
        return expected, ["no output"]
    try:
        rows = parse_csv(csv_text, workload.header)
    except ValueError as exc:
        return expected, [str(exc)]
    reasons = []
    failed = 0
    for i, row in enumerate(rows[:expected]):
        why = f"row {i}: malformed" if row is None else workload.check_row(i, row)
        if why is not None:
            failed += 1
            reasons.append(why)
    if len(rows) != expected:
        failed += abs(len(rows) - expected)
        reasons.append(f"{len(rows)} rows written, {expected} expected")
    return min(failed, expected), reasons[:5]
