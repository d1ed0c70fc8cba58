"""Command-line front end: parameter sweeps emitted as CSV/JSON data files.

Subcommands:
  surface    fidelity over a (|gamma|, theta) grid at fixed N (closed form)
  vs-n       fidelity versus port count for chosen dephasing parameters
  compare    noiseless vs noise-adapted measurement fidelities with bounds
  spinboson  time-dependent fidelity for the thermal-bath dephasing model
  verify     run the internal consistency suites and emit a JSON report

Exit codes: 0 success, 1 configuration or domain error (a value outside a
model's range, or a frequency integral whose integrand overflows or whose
quadrature fails), 2 I/O error, 3 verification failure.  CSV output uses 17
significant digits, LF line endings, a header row, and (unless
--no-timestamp) a leading comment line with the run time.
A JSON sidecar next to each CSV echoes the configuration: the subcommand and
the flags it takes (each subcommand registers only the flags it reads).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import closedform, spinboson as sb
from .ensemble import DephasingParams, SignalEnsemble
from .fidelity import compare_noise_adapted, ent_fidelity, mixed_term
from .linops import HermitianOp, state_fidelity, trace_norm
from .povm import noiseless_povm, pgm, pgm_taylor, validate

DEFAULT_MAX_N = 12

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    pass


def _parse_grid(text: str) -> List[float]:
    """Parse 'a', 'a,b,c' or 'min:max:count' into a list of floats."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1 or lo > hi:
                raise ValueError
            values = [lo] if count == 1 else list(np.linspace(lo, hi, count))
        else:
            values = [float(p) for p in text.split(",") if p.strip()]
        if not all(map(math.isfinite, values)):
            raise ValueError
        return values
    except ValueError:
        raise ConfigError(f"cannot parse grid specification {text!r}") from None


def _parse_int_list(text: str) -> List[int]:
    try:
        if ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse integer list {text!r}") from None


def _check_cap(ns: Sequence[int], max_n: int) -> None:
    bad = [n for n in ns if n > max_n]
    if bad:
        raise ConfigError(
            f"port count {max(bad)} exceeds the cap {max_n} for PGM "
            f"computations; raise it with --max-n-override"
        )


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _write_csv(path: str, header: List[str], rows: List[list],
               config: dict, timestamp: bool) -> None:
    lines = []
    if timestamp:
        lines.append("# generated " + datetime.datetime.now(datetime.timezone.utc).isoformat())
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(path + ".json", "w") as fh:
            json.dump({"config": config, "columns": header, "rows": len(rows)},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IOError(str(exc)) from exc


def _write_json(path: str, header: List[str], rows: List[list],
                config: dict) -> None:
    payload = {
        "config": config,
        "columns": header,
        "rows": [[None if v is None else float(v) for v in row] for row in rows],
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IOError(str(exc)) from exc


def _emit(args, header, rows, config) -> None:
    if args.format == "json":
        _write_json(args.out, header, rows, config)
    else:
        _write_csv(args.out, header, rows, config, timestamp=not args.no_timestamp)


# ---------------------------------------------------------------- commands

def cmd_surface(args) -> int:
    ns = _parse_int_list(args.n)
    if len(ns) != 1:
        raise ConfigError("surface requires a single --n value")
    n = ns[0]
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    gammas = _parse_grid(args.gamma)
    thetas = _parse_grid(args.theta)
    rows = []
    for g in gammas:
        for t in thetas:
            f = closedform.fidelity_noiseless_povm(n, DephasingParams(g, t))
            rows.append([g, t, f, closedform.teleport_fidelity(f)])
    header = ["gamma_abs", "theta", "ent_fidelity", "teleport_fidelity"]
    _emit(args, header, rows, _config_echo(args, n=n))
    return EXIT_OK


def cmd_vs_n(args) -> int:
    ns = _parse_int_list(args.n)
    if not ns or min(ns) < 1:
        raise ConfigError("vs-n requires positive port counts")
    gammas = _parse_grid(args.gamma)
    thetas = _parse_grid(args.theta)
    rows = []
    for n in ns:
        ref = closedform.f_ih(n)
        for g in gammas:
            for t in thetas:
                f = closedform.fidelity_noiseless_povm(n, DephasingParams(g, t))
                rows.append([n, g, t, f, closedform.teleport_fidelity(f),
                             closedform.teleport_fidelity(ref)])
    header = ["n", "gamma_abs", "theta", "ent_fidelity", "teleport_fidelity",
              "noiseless_teleport_fidelity"]
    _emit(args, header, rows, _config_echo(args))
    return EXIT_OK


def cmd_compare(args) -> int:
    ns = _parse_int_list(args.n)
    if not ns or min(ns) < 2:
        raise ConfigError("compare requires port counts >= 2")
    _check_cap(ns, args.max_n_override)
    gammas = _parse_grid(args.gamma)
    rows = []
    for n in ns:
        for row in compare_noise_adapted(n, gammas):
            rows.append([n, row.gamma_abs, row.noiseless, row.noise_adapted,
                         row.beigi_konig, row.helstrom])
    header = ["n", "gamma_abs", "noiseless_fidelity", "noise_adapted_fidelity",
              "beigi_konig_bound", "helstrom_bound"]
    _emit(args, header, rows, _config_echo(args))
    return EXIT_OK


def cmd_spinboson(args) -> int:
    ns = _parse_int_list(args.n)
    if len(ns) != 1:
        raise ConfigError("spinboson requires a single --n value")
    n = ns[0]
    modes = [m.strip() for m in args.povm.split(",") if m.strip()]
    for m in modes:
        if m not in sb.POVM_MODES:
            raise ConfigError(f"unknown povm mode {m!r}")
    if not modes:
        raise ConfigError("spinboson requires at least one povm mode")
    if "noise_adapted" in modes:
        _check_cap([n], args.max_n_override)
    if not math.isfinite(args.ell):
        raise ConfigError(f"--ell must be finite, got {args.ell}")
    taus = _parse_grid(args.tau)
    ohmicities = _parse_grid(args.s)
    temps = _parse_grid(args.temp_ratio)
    rows = []
    for s in ohmicities:
        baths = [sb.SpinBosonParams(s, th, args.ell) for th in temps]
        for th, curve in zip(temps, sb.fidelities_vs_time(n, baths, taus, modes)):
            for pts in curve:
                pt = pts[modes[0]]
                rows.append([s, th, pt.tau, pt.chi, pt.phase, pt.gamma_abs]
                            + [pts[m].teleport_fidelity if m in pts else None
                               for m in sb.POVM_MODES])
    header = ["ohmicity", "temp_ratio", "tau", "chi", "phase", "gamma_abs",
              "f_closed_form", "f_noise_adapted"]
    _emit(args, header, rows, _config_echo(args, n=n))
    return EXIT_OK


# ---------------------------------------------------------------- verify

def _suite_closed_form_agreement() -> Optional[str]:
    for n in (2, 3, 4):
        base = noiseless_povm(n)
        for g in (0.0, 0.5, 1.0):
            for t in (0.0, math.pi / 2, math.pi):
                dp = DephasingParams(g, t)
                ens = SignalEnsemble.build(n, dp)
                got = ent_fidelity(base, ens).ent_fidelity
                want = closedform.fidelity_noiseless_povm(n, dp)
                if abs(got - want) > 1e-9:
                    return f"N={n} gamma={g} theta={t}: {got} vs {want}"
    return None


def _suite_povm_validity() -> Optional[str]:
    for n in (2, 3, 4):
        for g in (0.3, 1.0):
            ens = SignalEnsemble.build(n, DephasingParams(g, 0.4))
            rep = validate(pgm(ens), ens)
            if not rep.ok():
                return f"N={n} gamma={g}: residual {rep.completeness_residual}"
            if max(map(abs, rep.defect_support_overlaps), default=0.0) > 1e-9:
                return f"N={n} gamma={g}: defect overlaps signal support"
    return None


def _suite_mixed_term() -> Optional[str]:
    for n in (2, 3, 4):
        base = noiseless_povm(n)
        for i in range(1, n + 1):
            v = mixed_term(base, i, n)
            if v > 1e-10:
                return f"N={n} port {i}: mixed term {v}"
    return None


def _suite_spectrum() -> Optional[str]:
    for n in (2, 3, 4):
        ens = SignalEnsemble.noiseless(n)
        dense = np.linalg.eigvalsh(ens.average_unnormalized.matrix)
        pred = closedform.spin_block_spectrum(n).eigenvalue_multiplicities()
        expected = sorted(
            [lam for lam, m in pred.items() for _ in range(m)]
            + [0.0] * (2 ** (n + 1) - sum(pred.values()))
        )
        if not np.allclose(sorted(dense), expected, atol=1e-10):
            return f"N={n}: dense spectrum disagrees with block formulas"
    return None


def _suite_pairwise() -> Optional[str]:
    for g in (0.0, 0.7, 1.0):
        ens = SignalEnsemble.build(3, DephasingParams(g, 0.3))
        for i in range(3):
            for j in range(i + 1, 3):
                f = state_fidelity(ens.states[i], ens.states[j])
                if abs(f - 0.5) > 1e-9:
                    return f"gamma={g} pair ({i},{j}): fidelity {f}"
    return None


def _suite_helstrom() -> Optional[str]:
    for g in (0.0, 0.4, 1.0):
        ens = SignalEnsemble.build(2, DephasingParams(g, 0.7))
        a, b = ens.states
        tn = trace_norm(HermitianOp(a.matrix - b.matrix, a.n_qubits))
        want = math.sqrt(1.0 + 2.0 * g * g)
        if abs(tn - want) > 1e-10:
            return f"gamma={g}: trace norm {tn} vs {want}"
    return None


def _suite_spinboson() -> Optional[str]:
    params = sb.SpinBosonParams(2.0, 0.5, 3.0)
    if abs(sb.chi(0.0, params)) > 1e-12 or abs(sb.phase(0.0, params)) > 1e-12:
        return "nonzero decoherence at tau = 0"
    flat = sb.SpinBosonParams(2.0, 0.5, 0.0)
    if abs(sb.chi(5.0, flat)) > 1e-12:
        return "nonzero chi at zero separation"
    c = sb.chi(4.0, params)
    if c < 0.0:
        return f"negative chi {c}"
    wide = sb.SpinBosonParams(2.0, 0.5, 3.0, sb.QuadratureSettings(upper_cutoff=120.0))
    if abs(sb.chi(4.0, wide) - c) > 1e-8:
        return "chi not converged in the frequency cutoff"
    return None


def _suite_taylor() -> Optional[str]:
    ens = SignalEnsemble.build(2, DephasingParams(1.0, 0.0))
    f_eig = ent_fidelity(pgm(ens), ens).ent_fidelity
    f_tay = ent_fidelity(pgm_taylor(ens, 4000), ens).ent_fidelity
    if abs(f_eig - f_tay) > 1e-6:
        return f"Taylor vs eigensolver gap {abs(f_eig - f_tay)}"
    return None


VERIFY_SUITES = [
    ("closed_form_agreement", _suite_closed_form_agreement),
    ("povm_validity", _suite_povm_validity),
    ("mixed_term_vanishes", _suite_mixed_term),
    ("spectrum_block_formulas", _suite_spectrum),
    ("pairwise_fidelity_half", _suite_pairwise),
    ("helstrom_trace_norm", _suite_helstrom),
    ("spin_boson_limits", _suite_spinboson),
    ("taylor_pgm_agreement", _suite_taylor),
]


def cmd_verify(args) -> int:
    results = []
    for name, fn in VERIFY_SUITES:
        failure = "injected fault" if args.inject_fault else fn()
        results.append({"suite": name, "passed": failure is None,
                        "detail": failure})
    report = {
        "all_passed": all(r["passed"] for r in results),
        "suites": results,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IOError(str(exc)) from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


# ---------------------------------------------------------------- plumbing

def _config_echo(args, **extra) -> dict:
    skip = {"func"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    cfg.update(extra)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pbtlab",
        description="Port-based teleportation fidelity sweeps under dephasing.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, dense=False):
        sp.add_argument("--n", default="9",
                        help="port count: single value, comma list, or lo:hi range")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp comment for byte-stable output")
        if dense:
            sp.add_argument("--max-n-override", type=int, default=DEFAULT_MAX_N,
                            help="raise the PGM port-count cap")
        sp.add_argument("--out", required=True, help="output file path")

    sp = sub.add_parser("surface", help="fidelity over a (gamma, theta) grid")
    common(sp)
    sp.add_argument("--gamma", default="0:1:101", help="grid: value, list, or lo:hi:count")
    sp.add_argument("--theta", default="0:3.141592653589793:101")
    sp.set_defaults(func=cmd_surface)

    sp = sub.add_parser("vs-n", help="fidelity versus port count (closed form)")
    common(sp)
    sp.add_argument("--gamma", default="1")
    sp.add_argument("--theta", default="0")
    sp.set_defaults(func=cmd_vs_n)

    sp = sub.add_parser("compare", help="noiseless vs noise-adapted measurements")
    common(sp, dense=True)
    sp.add_argument("--gamma", default="0:1:51")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("spinboson", help="time-dependent fidelity for a thermal bath")
    common(sp, dense=True)
    sp.add_argument("--tau", default="0:8:81")
    sp.add_argument("--s", default="2", help="bath spectral exponent(s)")
    sp.add_argument("--temp-ratio", default="0.1,0.9", dest="temp_ratio")
    sp.add_argument("--ell", type=float, default=3.0)
    sp.add_argument("--povm", default="closed_form",
                    help=f"comma list from {{{', '.join(sb.POVM_MODES)}}}")
    sp.set_defaults(func=cmd_spinboson)

    sp = sub.add_parser("verify", help="run the internal consistency suites")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ValueError, sb.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
