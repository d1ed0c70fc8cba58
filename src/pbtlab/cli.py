"""Command-line front end: parameter sweeps emitted as CSV/JSON data files.

Subcommands:
  surface    fidelity over a (|gamma|, theta) grid at fixed N (closed form)
  vs-n       fidelity versus port count for chosen dephasing parameters
  compare    noiseless vs noise-adapted measurement fidelities with bounds
  spinboson  time-dependent fidelity for the thermal-bath dephasing model
  verify     run the internal consistency suites and emit a JSON report

Exit codes: 0 success, 1 configuration or domain error (a value outside a
model's range, such as a bath exponent whose decoherence factor leaves the
float range, or a failing quadrature in verify), 2 I/O error, 3 verification
failure.  CSV output uses 17 significant digits, LF line endings, a header
row, and (unless --no-timestamp) a leading comment line with the run time.
A JSON sidecar next to each CSV echoes the configuration: the subcommand and
the flags it takes (each subcommand registers only the flags it reads).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import gc
import json
import math
import re
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import closedform, spinboson as sb
from .fidelity import pgm_fidelities_reduced

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3

# The measurements `spinboson` fills a column for, in column order.
POVM_MODES = ("closed_form", "noise_adapted")


def _parse_grid(text: str) -> List[float]:
    """Parse 'a', 'a,b,c' or 'min:max:count' into a non-empty list of finite floats."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1 or not -math.inf < lo <= hi < math.inf:  # NaN fails too
                raise ValueError
            with np.errstate(all="ignore"):  # a span past the float range gives NaNs, refused below
                values = [lo] if count == 1 else list(np.linspace(lo, hi, count))
        else:
            values = [float(p) for p in text.split(",") if p.strip()]
        if not values or not all(map(math.isfinite, values)):
            raise ValueError
        return values
    except ValueError:
        raise ValueError(f"cannot parse grid specification {text!r}") from None


def _parse_int_list(text: str) -> List[int]:
    """Parse 'a', 'a,b,c' or 'lo:hi' into a non-empty list of integers."""
    try:
        if ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            values = list(range(lo, hi + 1))
        else:
            values = [int(p) for p in text.split(",") if p.strip()]
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise ValueError(f"cannot parse integer list {text!r}") from None


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _emit(args, header: List[str], rows: List[tuple], **extra) -> int:
    """Write the table to args.out: CSV with a JSON sidecar (its "rows" the row
    count), or JSON (its "rows" the rows, None as null).  Both dump the same
    {config, columns, rows} object, its config the parsed flags updated by extra."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    table = {"config": {**config, **extra}, "columns": header, "rows": len(rows)}
    json_path = args.out + ".json"
    if args.format == "json":
        table["rows"] = [[None if v is None else float(v) for v in row] for row in rows]
        json_path = args.out
    else:
        # one % per row: "%.17g" gives _fmt's text for a float, an int and a
        # numpy float64, but takes no None, so a row holding one goes cell by cell
        template = ",".join(["%.17g"] * len(header))
        lines = [",".join(header)] + [",".join(map(_fmt, row)) if None in row else template % row
                                      for row in rows]
        if not args.no_timestamp:
            lines.insert(0, "# generated " + datetime.datetime.now(datetime.timezone.utc).isoformat())
        with open(args.out, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    with open(json_path, "w") as fh:
        fh.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- commands

def _single_n(args) -> int:
    ns = _parse_int_list(args.n)
    if len(ns) != 1:
        raise ValueError(f"{args.command} requires a single --n value")
    return ns[0]


def _closed_form_grid(gamma: str, theta: str) -> tuple:
    """The |gamma| and theta of each cell of a grid, |gamma|-major, as arrays."""
    gammas, thetas = _parse_grid(gamma), _parse_grid(theta)
    return np.repeat(gammas, len(thetas)), np.tile(thetas, len(gammas))


def cmd_surface(args) -> int:
    n = _single_n(args)
    gammas, thetas = _closed_form_grid(args.gamma, args.theta)
    f = closedform.noiseless_fidelity(n, gammas, thetas)
    rows = list(zip(gammas.tolist(), thetas.tolist(), f.tolist(),
                    closedform.teleport_fidelity(f).tolist()))
    header = ["gamma_abs", "theta", "ent_fidelity", "teleport_fidelity"]
    return _emit(args, header, rows, n=n)


def cmd_vs_n(args) -> int:
    ns = _parse_int_list(args.n)
    gammas, thetas = _closed_form_grid(args.gamma, args.theta)
    cells = len(gammas)
    # the last cell is the noiseless reference (1, 0), f_ih(n)
    gammas, thetas = np.append(gammas, 1.0), np.append(thetas, 0.0)
    rows = []
    for n in ns:
        f = closedform.noiseless_fidelity(n, gammas, thetas)
        tf = closedform.teleport_fidelity(f).tolist()
        rows += zip([n] * cells, gammas[:-1].tolist(), thetas[:-1].tolist(), f[:-1].tolist(),
                    tf[:-1], tf[-1:] * cells)
    header = ["n", "gamma_abs", "theta", "ent_fidelity", "teleport_fidelity",
              "noiseless_teleport_fidelity"]
    return _emit(args, header, rows)


def cmd_compare(args) -> int:
    ns = _parse_int_list(args.n)
    if min(ns) < 2:
        raise ValueError("compare requires port counts >= 2")
    gammas = _parse_grid(args.gamma)
    rows = []
    for n in ns:
        helstrom = (closedform.helstrom_bound_n2(gammas).tolist() if n == 2
                    else [None] * len(gammas))
        rows += zip([n] * len(gammas), gammas,
                    closedform.noiseless_fidelity(n, gammas).tolist(),
                    pgm_fidelities_reduced(n, gammas).tolist(),
                    closedform.beigi_konig_bound(n, gammas).tolist(), helstrom)
    header = ["n", "gamma_abs", "noiseless_fidelity", "noise_adapted_fidelity",
              "beigi_konig_bound", "helstrom_bound"]
    return _emit(args, header, rows)


def cmd_spinboson(args) -> int:
    n = _single_n(args)
    modes = [m.strip() for m in args.povm.split(",") if m.strip()]
    if not modes:
        raise ValueError("spinboson requires at least one povm mode")
    taus = _parse_grid(args.tau)
    ohmicities, temps = _parse_grid(args.s), _parse_grid(args.temp_ratio)
    # the baths, s-major, as lists: the ohmicity and temp_ratio columns repeat them
    bath_s, bath_th = [v for v in ohmicities for _ in temps], temps * len(ohmicities)
    # one stacked evaluation for every bath and tau (which it checks), shared by both measurements
    chis, phases = sb.decoherence_grid(taus, bath_s, bath_th, args.ell)
    if taus != sorted(taus):
        raise ValueError("tau grid must be sorted ascending")
    for mode in modes:
        if mode not in POVM_MODES:
            raise ValueError(f"unknown povm mode {mode!r}")
    gamma_abs = np.exp(-chis)
    columns = [[v for v in bath_s for _ in taus], [v for v in bath_th for _ in taus],
               taus * len(bath_s), chis.ravel().tolist(), phases.ravel().tolist(),
               gamma_abs.ravel().tolist()]
    for mode in POVM_MODES:  # each requested route runs once, on the whole grid
        if mode not in modes:
            columns.append([None] * chis.size)
            continue
        # the PGM's fidelity does not depend on the phase
        f = (closedform.noiseless_fidelity(n, gamma_abs, phases) if mode == "closed_form"
             else pgm_fidelities_reduced(n, gamma_abs))
        columns.append(closedform.teleport_fidelity(f).ravel().tolist())
    header = ["ohmicity", "temp_ratio", "tau", "chi", "phase", "gamma_abs",
              "f_closed_form", "f_noise_adapted"]
    return _emit(args, header, list(zip(*columns)), n=n)


def cmd_verify(args) -> int:
    # Imported here so that the other subcommands do not load (or compile) it.
    from . import checks
    results = []
    for name, suite in checks.SUITES.items():
        gaps = suite()
        gap = next((g for g in gaps if not g.ok), gaps[0])
        detail = None if gap.ok else (
            f"{gap.quantity} {gap.worst:.3g} above {gap.bound:g} at {gap.where}")
        results.append({"suite": name, "passed": gap.ok, "detail": detail,
                        "worst": gap.worst, "bound": gap.bound,
                        "gaps": [vars(g) for g in gaps]})
    report = {"all_passed": all(r["passed"] for r in results), "suites": results}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


# ---------------------------------------------------------------- plumbing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and then shared:
    parsing does not change it, and no caller may."""
    p = argparse.ArgumentParser(
        prog="pbtlab",
        description="Port-based teleportation fidelity sweeps under dephasing.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # the flags of every sweep, built once and copied into each subparser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", default="9",
                        help="port count: single value, comma list, or lo:hi range")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp comment for byte-stable output")
    common.add_argument("--out", required=True, help="output file path")

    sp = sub.add_parser("surface", parents=[common], help="fidelity over a (gamma, theta) grid")
    sp.add_argument("--gamma", default="0:1:101", help="grid: value, list, or lo:hi:count")
    sp.add_argument("--theta", default="0:3.141592653589793:101")
    sp.set_defaults(func=cmd_surface)

    sp = sub.add_parser("vs-n", parents=[common], help="fidelity versus port count (closed form)")
    sp.add_argument("--gamma", default="1")
    sp.add_argument("--theta", default="0")
    sp.set_defaults(func=cmd_vs_n)

    sp = sub.add_parser("compare", parents=[common], help="noiseless vs noise-adapted measurements")
    sp.add_argument("--gamma", default="0:1:51")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("spinboson", parents=[common],
                        help="time-dependent fidelity for a thermal bath")
    sp.add_argument("--tau", default="0:8:81")
    sp.add_argument("--s", default="2", help="bath spectral exponent(s)")
    sp.add_argument("--temp-ratio", default="0.1,0.9", dest="temp_ratio")
    sp.add_argument("--ell", type=float, default=3.0)
    sp.add_argument("--povm", default="closed_form",
                    help=f"comma list from {{{', '.join(POVM_MODES)}}}")
    sp.set_defaults(func=cmd_spinboson)

    sp = sub.add_parser("verify", help="run the internal consistency suites")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.set_defaults(func=cmd_verify)

    # argparse reads a token that starts with '-' as an option unless it is a
    # plain number, so `--theta -1,2` would leave --theta without its value.
    # No pbtlab option starts with '-' and then a digit, '.', 'inf' or 'nan'
    # (in any case), so such a token is a value.
    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = re.compile(r"-([\d.]|(?i:inf|nan))")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The ~21k objects the imports leave (nearly all numpy's) live until
    # exit; frozen, no collection during the run rescans them.  Only the first
    # call freezes: a later one would pin whatever its caller holds for good.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:  # every configuration and domain error of the package
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
