import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbtlab
from pbtlab import checks, cli
from pbtlab import closedform as cf
from pbtlab import quadrature as qd
from pbtlab import spinboson as sb
from pbtlab.cli import main

from paper_bounds import f_corr_trace

MODES = ("closed_form", "noise_adapted")


def read_csv(path):
    lines = path.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in data[1:]]
    return header, rows


def test_surface_grid_and_corner(tmp_path):
    out = tmp_path / "surf.csv"
    rc = main(["surface", "--n", "4", "--gamma", "0:1:3",
               "--theta", f"0:{math.pi}:3", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["gamma_abs", "theta", "ent_fidelity", "teleport_fidelity"]
    assert len(rows) == 9
    corner = [r for r in rows if float(r["gamma_abs"]) == 1.0 and float(r["theta"]) == 0.0]
    assert float(corner[0]["ent_fidelity"]) == pytest.approx(cf.f_ih(4), abs=1e-12)
    anti = [r for r in rows if float(r["gamma_abs"]) == 1.0
            and float(r["theta"]) == pytest.approx(math.pi)]
    assert float(anti[0]["ent_fidelity"]) == pytest.approx(f_corr_trace(4), abs=1e-12)


def test_surface_computes_closed_form_terms_once(tmp_path, monkeypatch):
    # one build of the closed form's weights per N on the whole grid, the vs-n
    # reference column included
    calls = []
    monkeypatch.setattr(cf, "binomial_weights",
                        lambda n, weights=cf.binomial_weights: calls.append(n) or weights(n))
    assert main(["surface", "--n", "4", "--gamma", "0:1:3", "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == [4]
    calls.clear()
    assert main(["vs-n", "--n", "2,5", "--gamma", "0:1:3", "--theta", "0,1",
                 "--out", str(tmp_path / "v.csv")]) == 0
    assert calls == [2, 5]


# Every closed-form sweep takes |gamma| in [0, 1] through one check, which
# lets rounding carry it up to 1e-12 above 1.
@pytest.mark.parametrize("argv", [["surface", "--n", "3"], ["vs-n", "--n", "3"],
                                  ["compare", "--n", "2"], ["compare", "--n", "3"]])
def test_gamma_range_is_one_check(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "x.csv")]
    for bad in ("1.5", "-0.1"):
        assert main(argv + ["--gamma", bad] + out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: gamma_abs must lie in [0, 1], got {bad}"]
    assert main(argv + ["--gamma", "1.0000000000005"] + out) == 0


# Outputs of the closed-form and reduced routes, generated with these argvs
# once both took their binomial weights from `closedform.binomial_weights`.
# spinboson has none: its rows go through numpy's exp, sin and cos, which may
# differ in the last bit from one CPU to another.
GOLDEN = {
    "surface.csv": ["surface", "--n", "3", "--gamma", "0:1:7", "--theta", "0:6.3:9"],
    "vs_n.csv": ["vs-n", "--n", "1:12", "--gamma", "0:1:5", "--theta", "0,1.3,3.1"],
    "compare.csv": ["compare", "--n", "2,3,7", "--gamma", "0:1:11"],
}


@pytest.mark.parametrize("name", GOLDEN)
def test_output_matches_golden_bytes(tmp_path, name):
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--no-timestamp", "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / name).read_bytes()


# What `_emit` writes, whichever path formats a row: each CSV cell is the
# JSON rows' value at 17 significant digits (empty for null), and each JSON
# file is its object dumped with indent 2 and sorted keys.  This holds on
# every platform, so it covers spinboson, which has no golden file.
@pytest.mark.parametrize("argv", [
    ["surface", "--n", "3", "--gamma", "0:1:4", "--theta", "0,1"],
    ["vs-n", "--n", "1:3", "--gamma", "0.5,1", "--theta", "0,2"],
    ["compare", "--n", "2,3,7", "--gamma", "0:1:5"],
    ["spinboson", "--n", "3", "--s", "2,3", "--temp-ratio", "0.1,0.9", "--tau", "0:4:5",
     "--povm", "closed_form,noise_adapted"],
    ["spinboson", "--n", "3", "--tau", "0:2:3", "--povm", "noise_adapted"],
], ids=["surface", "vs-n", "compare", "spinboson", "spinboson-noise-adapted"])
def test_csv_cells_are_the_json_rows_at_17_digits(tmp_path, argv):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--no-timestamp", "--out", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    lines = [",".join(payload["columns"])] + [
        ",".join("" if v is None else format(v, ".17g") for v in row) for row in payload["rows"]]
    assert csv_out.read_text() == "\n".join(lines) + "\n"
    for path in (tmp_path / "t.csv.json", json_out):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_surface_writes_json_sidecar(tmp_path):
    out = tmp_path / "surf.csv"
    main(["surface", "--n", "3", "--gamma", "0.5", "--theta", "0",
          "--out", str(out), "--no-timestamp"])
    sidecar = json.loads((out.parent / "surf.csv.json").read_text())
    assert sidecar["rows"] == 1
    assert sidecar["config"]["gamma"] == "0.5"


def test_surface_deterministic_without_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["surface", "--n", "3", "--gamma", "0:1:5", "--theta", "0:1:5",
            "--no-timestamp"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_line_present_by_default(tmp_path):
    out = tmp_path / "t.csv"
    main(["surface", "--n", "2", "--gamma", "1", "--theta", "0", "--out", str(out)])
    assert out.read_text().startswith("# generated ")


def test_vs_n_reference_column(tmp_path):
    out = tmp_path / "vsn.csv"
    rc = main(["vs-n", "--n", "1:6", "--gamma", "1", "--theta", "0",
               "--out", str(out), "--no-timestamp"])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 6
    for r in rows:
        n = int(float(r["n"]))
        want = cf.teleport_fidelity(cf.f_ih(n))
        assert float(r["teleport_fidelity"]) == pytest.approx(want, abs=1e-12)
        assert float(r["noiseless_teleport_fidelity"]) == pytest.approx(want, abs=1e-12)


def test_compare_columns_and_bounds(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--n", "2", "--gamma", "0:1:5", "--out", str(out),
               "--no-timestamp"])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["n", "gamma_abs", "noiseless_fidelity",
                      "noise_adapted_fidelity", "beigi_konig_bound",
                      "helstrom_bound"]
    for r in rows:
        assert float(r["noiseless_fidelity"]) <= float(r["helstrom_bound"]) + 1e-9
        assert float(r["noise_adapted_fidelity"]) <= float(r["helstrom_bound"]) + 1e-9


def test_no_port_cap(tmp_path, capsys):
    # the reduced PGM takes milliseconds at N = 13 and 40
    assert main(["compare", "--n", "13", "--gamma", "0.5", "--no-timestamp",
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["spinboson", "--n", "40", "--tau", "0,1", "--s", "2",
                 "--temp-ratio", "0.1", "--povm", "noise_adapted", "--no-timestamp",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert len(read_csv(tmp_path / "s.csv")[1]) == 2
    capsys.readouterr()
    assert main(["compare", "--n", "13", "--gamma", "0.5", "--max-n-override", "20",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "--max-n-override" in capsys.readouterr().err


def test_spinboson_rows(tmp_path):
    out = tmp_path / "sb.csv"
    rc = main(["spinboson", "--n", "4", "--tau", "0:2:3", "--s", "2",
               "--temp-ratio", "0.1", "--ell", "3", "--povm", "closed_form",
               "--out", str(out), "--no-timestamp"])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    first = rows[0]
    assert float(first["tau"]) == 0.0
    assert float(first["gamma_abs"]) == 1.0
    assert float(first["f_closed_form"]) == pytest.approx(
        cf.teleport_fidelity(cf.f_ih(4)), abs=1e-12)
    assert first["f_noise_adapted"] == ""


def test_spinboson_two_modes_share_one_decoherence_factor(tmp_path, monkeypatch):
    base = ["spinboson", "--n", "3", "--tau", "0:2:3", "--s", "2,3",
            "--temp-ratio", "0.1", "--ell", "3", "--no-timestamp"]
    single = {}
    for mode in MODES:
        out = tmp_path / f"{mode}.csv"
        assert main(base + ["--povm", mode, "--out", str(out)]) == 0
        single[mode] = read_csv(out)[1]

    calls = []
    grid = sb.decoherence_grid
    monkeypatch.setattr(sb, "decoherence_grid", lambda taus, s, th, ell:
                        calls.append(len(s) * len(taus)) or grid(taus, s, th, ell))
    out = tmp_path / "both.csv"
    assert main(base + ["--povm", "closed_form,noise_adapted", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    # one stacked evaluation covers every row of the run
    assert calls == [len(rows)] == [6]
    for mode in MODES:
        col = f"f_{mode}"
        assert [r[col] for r in rows] == [r[col] for r in single[mode]]
    assert [r["chi"] for r in rows] == [r["chi"] for r in single["closed_form"]]


def test_spinboson_makes_one_reduced_call_per_run(tmp_path, monkeypatch):
    # a mode named twice still runs its route once
    base = ["spinboson", "--n", "4", "--tau", "0:4:9", "--temp-ratio", "0.1,0.9",
            "--povm", "closed_form,noise_adapted,noise_adapted", "--no-timestamp"]
    per_s = []
    for s in ("2", "3"):
        out = tmp_path / f"s{s}.csv"
        assert main(base + ["--s", s, "--out", str(out)]) == 0
        per_s += out.read_text().splitlines(keepends=True)[1:]

    calls = []
    reduced = cli.pgm_fidelities_reduced
    monkeypatch.setattr(cli, "pgm_fidelities_reduced",
                        lambda n, grid: calls.append(grid.size) or reduced(n, grid))
    out = tmp_path / "both.csv"
    assert main(base + ["--s", "2,3", "--out", str(out)]) == 0
    assert out.read_text().splitlines(keepends=True)[1:] == per_s
    assert calls == [2 * 2 * 9]


def test_spinboson_pure_singlet_at_300_ports(tmp_path):
    # at tau = 0 the pairs have not dephased: f_ih(300), far beyond the dense oracle
    out = tmp_path / "sb.csv"
    assert main(["spinboson", "--n", "300", "--povm", "noise_adapted", "--tau", "0,1",
                 "--no-timestamp", "--out", str(out)]) == 0
    start = [r for r in read_csv(out)[1] if float(r["tau"]) == 0.0]
    assert len(start) == 2
    want = cf.teleport_fidelity(cf.f_ih(300))
    assert all(abs(float(r["f_noise_adapted"]) - want) <= 1e-12 for r in start)


def test_spinboson_unsorted_tau_is_config_error(tmp_path, capsys):
    rc = main(["spinboson", "--n", "3", "--tau", "3,1", "--s", "2",
               "--temp-ratio", "0.1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: tau grid must be sorted ascending\n"


@pytest.mark.parametrize("flag, value", [
    ("--tau", "0,inf"),
    ("--ell", "inf"),
    ("--s", "inf"),
    ("--ell", "nan"),
    ("--temp-ratio", "nan"),
])
def test_spinboson_non_finite_input_is_config_error(tmp_path, flag, value):
    argv = {"--tau": "0,1", "--s": "2", "--temp-ratio": "0.1", "--ell": "3"}
    argv[flag] = value
    rc = main(["spinboson", "--n", "3", "--out", str(tmp_path / "x.csv")]
              + [a for kv in argv.items() for a in kv])
    assert rc == 1


def test_spinboson_overflowing_ohmicity_is_one_error_line(tmp_path, capsys):
    # Gamma(s - 1) leaves the float range from s ~ 172.5 on
    rc = main(["spinboson", "--n", "2", "--s", "1000", "--tau", "0,1",
               "--temp-ratio", "0.1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    # stacked with a finite bath, the overflowing one is still named
    rc = main(["spinboson", "--n", "2", "--s", "2,1000", "--tau", "0,1",
               "--temp-ratio", "0.1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: the decoherence factor at s=1000 leaves the float range"]


def test_spinboson_quadrature_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    # rows take the analytic route; a failure there is one line, as a
    # quadrature failure (verify still integrates) is
    def failing(taus, s, th, ell):
        raise ValueError("the decoherence factor at s=2 leaves the float range")

    monkeypatch.setattr(sb, "decoherence_grid", failing)
    rc = main(["spinboson", "--n", "2", "--tau", "0,1", "--s", "2",
               "--temp-ratio", "0.1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the decoherence factor at s=2 leaves the float range"]


def test_spinboson_bad_mode(tmp_path, capsys):
    rc = main(["spinboson", "--n", "4", "--povm", "bogus",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown povm mode 'bogus'\n"


def test_invalid_grid_is_config_error(tmp_path, capsys):
    # an empty grid is an error too, not a header-only table
    for argv, text in ((["surface", "--n", "3", "--gamma", "1:0:5"], "1:0:5"),
                       (["surface", "--gamma", ""], ""),
                       (["compare", "--n", "3", "--gamma", ","], ","),
                       (["spinboson", "--tau", ""], ""),
                       (["spinboson", "--s", ""], "")):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot parse grid specification {text!r}"]


# the configuration errors the CLI raises itself, and the port count it leaves to f_ih
@pytest.mark.parametrize("argv, err", [
    ("surface --gamma 0:1", "cannot parse grid specification '0:1'"),
    ("surface --n x", "cannot parse integer list 'x'"),
    ("vs-n --n 3:1", "cannot parse integer list '3:1'"),
    ("surface --n 2,3", "surface requires a single --n value"),
    ("spinboson --n 2,3", "spinboson requires a single --n value"),
    ("vs-n --n 0:2", "vs-n requires positive port counts"),
    ("compare --n 1:3", "compare requires port counts >= 2"),
    ("spinboson --povm ,", "spinboson requires at least one povm mode"),
    ("surface --n 0", "need n >= 1, got 0"),
])
def test_config_error_is_one_line(tmp_path, capsys, argv, err):
    assert main(argv.split() + ["--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


# with several bad inputs the bath is checked where the baths are built, s-major:
# before tau and its order, and the first bath's first bad entry wins; a tau
# grid that starts with a minus sign reaches the tau check
@pytest.mark.parametrize("argv, err", [
    ("--s 0.5 --tau 3,1", "ohmicity must be finite and exceed 1, got 0.5"),
    ("--s 2,0.5 --temp-ratio -1", "temperature ratio must be finite and >= 0, got -1.0"),
    ("--s 0.5,2 --temp-ratio -1 --ell -2", "ohmicity must be finite and exceed 1, got 0.5"),
    ("--temp-ratio -1 --povm bogus", "temperature ratio must be finite and >= 0, got -1.0"),
    ("--temp-ratio -1 --tau -1,3", "temperature ratio must be finite and >= 0, got -1.0"),
    ("--tau -1,3", "tau must be finite and >= 0, got -1.0"),
])
def test_bath_error_precedence(tmp_path, capsys, argv, err):
    assert main(["spinboson", *argv.split(), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


# A grid value that starts with '-' and then a digit or '.' reaches its flag,
# which argparse alone allows only for a plain number; an option does not.
def test_leading_minus_grid_reaches_its_flag(tmp_path):
    argv = ["surface", "--n", "3", "--gamma", "0.5", "--no-timestamp", "--out"]
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    for theta in ("-1,2", "-.5:1:3"):
        assert main(argv + [str(spaced), "--theta", theta]) == 0
        assert main(argv + [str(joined), f"--theta={theta}"]) == 0
        assert spaced.read_bytes() == joined.read_bytes(), theta


# So does one that starts with '-inf' or '-nan' in any case: the spaced and the
# '=' spelling reach the same grid check and give the same error.
@pytest.mark.parametrize("argv", [
    ("spinboson", "--tau", "-inf,3"),
    ("spinboson", "--tau", "-nan"),
    ("spinboson", "--tau", "-Infinity"),
    ("surface", "--theta", "-inf,1"),
])
def test_leading_minus_word_reaches_its_flag(tmp_path, capsys, argv):
    command, flag, value = argv
    out = ["--out", str(tmp_path / "x.csv")]
    assert main([command, flag, value, *out]) == 1
    spaced = capsys.readouterr().err
    assert main([command, f"{flag}={value}", *out]) == 1
    assert capsys.readouterr().err == spaced == f"error: cannot parse grid specification {value!r}\n"
    assert not (tmp_path / "x.csv").exists()


def test_flag_without_its_value_is_usage_error(tmp_path, capsys):
    assert main(["surface", "--gamma", "--out", str(tmp_path / "x.csv")]) == 1
    assert "argument --gamma: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_io_error_exit_code(tmp_path):
    rc = main(["surface", "--n", "3", "--gamma", "1", "--theta", "0",
               "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 2


# compare's helstrom_bound at N = 3 and spinboson's f_noise_adapted are empty
# cells in CSV and null in JSON
@pytest.mark.parametrize("argv, count", [
    (["surface", "--n", "3", "--gamma", "0:1:3", "--theta", "0"], 3),
    (["compare", "--n", "2,3", "--gamma", "0:1:3"], 6),
    (["spinboson", "--n", "3", "--tau", "0:2:3", "--s", "2", "--temp-ratio", "0.1",
      "--povm", "closed_form"], 3),
], ids=["surface", "compare", "spinboson"])
def test_json_format(tmp_path, argv, count):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--no-timestamp", "--out", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    header, rows = read_csv(csv_out)
    payload = json.loads(json_out.read_text())
    assert payload["columns"] == header
    assert len(payload["rows"]) == count
    assert payload["rows"] == [[float(r[h]) if r[h] else None for h in header] for r in rows]
    if argv[0] != "surface":
        assert None in payload["rows"][-1]


def test_verify_passes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    assert [s["suite"] for s in report["suites"]] == ["closed_form_agreement", "povm_validity",
        "mixed_term_vanishes", "spectrum_block_formulas", "pairwise_fidelity_half",
        "helstrom_trace_norm", "spin_boson_limits", "taylor_pgm_agreement",
        "decoherence_routes"]
    for s in report["suites"]:
        assert s["passed"] and math.isfinite(s["worst"]) and s["worst"] <= s["bound"]


def test_verify_without_out_writes_stdout(capsys, monkeypatch):
    name = "helstrom_trace_norm"
    monkeypatch.setattr(checks, "SUITES", {name: checks.SUITES[name]})
    assert main(["verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and [s["suite"] for s in report["suites"]] == [name]


def test_verify_quadrature_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the quadrature raises ValueError, so main reports it without loading the quadrature
    monkeypatch.setattr(checks, "SUITES", {"spin_boson_limits": checks.SUITES["spin_boson_limits"]})
    monkeypatch.setattr(qd.integrate, "quad", lambda *args, **kwargs: (math.nan, 0.0))
    assert main(["verify", "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: quadrature gave a non-finite value")
    assert not (tmp_path / "report.json").exists()


# The modules that `surface`, `vs-n`, `compare` and `spinboson` run; the
# oracles (ensemble, povm, linops, quadrature) and checks load only for verify.
# The bath model imports no fidelity route.
FAST_PATH = ["pbtlab", "pbtlab.cli", "pbtlab.closedform", "pbtlab.fidelity",
             "pbtlab.spinboson"]


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this source tree, without writing bytecode."""
    src = str(Path(pbtlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=60, **kwargs)


def test_cli_starts_without_the_oracles(tmp_path):
    out = ["--out", str(tmp_path / "x.csv")]
    compare = ["compare", "--n", "3", "--gamma", "0.5,1", *out]
    spinboson = ["spinboson", "--n", "2", "--tau", "0,1", "--temp-ratio", "0.1",
                 "--povm", "closed_form,noise_adapted", *out]
    runs = (f"import pbtlab.cli; assert pbtlab.cli.main({compare!r}) == 0; "
            f"assert pbtlab.cli.main({spinboson!r}) == 0")
    # and no class defined in a loaded module is a dataclass, which Python
    # would build with exec on every start; and no scipy module loads, on
    # import or lazily inside a route (the sweeps need numpy only)
    for imports, loaded in (("import pbtlab.cli; pbtlab.cli.build_parser()", FAST_PATH),
                            ("import pbtlab.spinboson", ["pbtlab", "pbtlab.spinboson"]),
                            (runs, FAST_PATH)):
        code = (f"import sys; {imports}; "
                "ms = sorted(m for m in sys.modules if m.startswith('pbtlab')); print(*ms); "
                "print(*(f'{m}.{k}' for m in ms for k, c in vars(sys.modules[m]).items() "
                "if isinstance(c, type) and c.__module__ == m "
                "and hasattr(c, '__dataclass_fields__'))); "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        modules, dataclass_names, scipy_modules = _python("-c", code).stdout.split("\n")[:3]
        assert modules.split() == loaded, imports
        assert dataclass_names.split() == [], imports
        assert scipy_modules.split() == [], imports


def test_one_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    argv = ["compare", "--n", "3", "--gamma", "0:1:3", "--no-timestamp", "--out", "x.csv"]
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(shared)
    # a usage error and a JSON run on the process's parser, then a CSV run
    assert main(["compare", "--gamma"]) == 1
    assert main(argv[:-1] + ["run.json", "--format", "json"]) == 0
    assert main(argv) == 0
    capsys.readouterr()
    _python("-m", "pbtlab.cli", *argv, cwd=fresh)
    for name in ("x.csv", "x.csv.json"):
        assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name


def test_every_public_module_imports():
    # a name left in __all__ after its module is deleted breaks `from pbtlab import *`
    for name in pbtlab.__all__:
        importlib.import_module(f"pbtlab.{name}")
    code = "from pbtlab import *; print(*sorted(k for k in dir() if not k.startswith('_')))"
    out = _python("-c", code).stdout
    assert out.split() == sorted(pbtlab.__all__)


def test_verify_fault_injection(tmp_path, monkeypatch):
    def failing():
        gap = checks.Gap("injected", 1e-10)
        for value, where in ((0.5, "a"), (2.0, "b"), (1.0, "c")):
            gap.see(value, where)
        return (gap,)
    monkeypatch.setitem(checks.SUITES, "helstrom_trace_norm", failing)
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    [failed] = [s for s in report["suites"] if not s["passed"]]
    assert failed["suite"] == "helstrom_trace_norm" and failed["worst"] == 2.0 > failed["bound"]
    assert failed["detail"] == "injected 2 above 1e-10 at b"
