"""pbtlab benchmark: end-to-end CLI timings and per-layer spans.

    python3 perfbench/run.py --workload dense|bath|all \
        --seed N --seconds S --trace 0|1

Run from any directory; the package is taken from `src/` next to this
directory.  Each sample is a fresh interpreter (probe.py) that imports
`pbtlab.cli`, builds the parser and calls `pbtlab.cli.main(argv)` with the
CLI's default `--threads 1` and the BLAS pinned to BLAS_THREADS threads.
Every output row is checked against an independent route (workloads.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced samples and prints the per-layer metrics (tracer.py).  Times in the
end-to-end metrics are the probe process's CPU time (user + system).  The
workload is single-threaded, so that is its wall time less the time the
shared host held the vCPU back.  Each is then scaled by CAL_REF_S over the
CPU time the same probe took to import numpy and scipy
(probe.CALIBRATION_MODULES), which takes out the host's slower and faster
spells of a few minutes.  Unscaled CPU and wall times are printed and
recorded beside them.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run details, the environment and every
function's span totals go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

from tracer import summarize  # noqa: E402
from workloads import WORKLOADS, Workload, count_failures  # noqa: E402

# A run must end within 180 s; stop starting samples after this many seconds.
DEADLINE_S = 165.0
# Untraced samples per --trace 0 run; the median of three resists one outlier.
MIN_SAMPLES = 3
# Set-up samples per --trace 0 run, topped up with set-up-only probes.
SETUP_SAMPLES = 7
# CPU seconds of the calibration imports at the reference host speed: about
# their median on the 2-vCPU Xeon virtual machine the benchmark was written
# on, so scaled times read as CPU seconds there.
CAL_REF_S = 0.6
# BLAS threads in every probe.  The machine has 2 cores and the CLI runs one
# worker thread, so one BLAS thread keeps the load to one core.
BLAS_THREADS = 1

END_TO_END = {
    "cpu_s": "s",
    "rows_per_cpu_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

PER_LAYER = {
    "linops.inv_sqrt_on_support.s": "s",
    "linops.inv_sqrt_on_support.calls": "count",
    "linops.max_dim": "dim",
    "povm.pgm.s": "s",
    "povm.pgm.self_s": "s",
    "povm.pgm.calls": "count",
    "povm.noiseless_povm.s": "s",
    "ensemble.SignalEnsemble.build.s": "s",
    "ensemble.SignalEnsemble.build.calls": "count",
    "fidelity.ent_fidelity.s": "s",
    "fidelity.ent_fidelity.calls": "count",
    "fidelity.compare_noise_adapted.self_s": "s",
    "closedform.fidelity_noiseless_povm.s": "s",
    "closedform.fidelity_noiseless_povm.calls": "count",
    "closedform.f_ih.s": "s",
    "closedform.f_ih.calls": "count",
    "closedform.f_ih.calls_per_n": "ratio",
    "closedform.f_corr.calls": "count",
    "spinboson.chi.s": "s",
    "spinboson.chi.calls": "count",
    "spinboson.phase.s": "s",
    "spinboson.decoherence_factor.calls_per_point": "ratio",
    "spinboson.phase.calls_per_distinct": "ratio",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (no package, probe crashed at import)."""


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics (all but trace.overhead_s) from tracer.summarize()."""
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name == "linops.max_dim":
            out[name] = max((st["max_key"] for fid, st in summary.items()
                             if fid.startswith("linops.")), default=0)
            continue
        fid, stat = name.rsplit(".", 1)
        st = summary.get(fid, {"calls": 0, "s": 0.0, "self_s": 0.0, "distinct": 0})
        if stat.startswith("calls_per_"):
            out[name] = st["calls"] / st["distinct"] if st["distinct"] else 0.0
        else:
            out[name] = st[stat]
    return out


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _probe(request: dict, timeout: float):
    """Run probe.py once; returns (its JSON result or None, stderr tail)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), json.dumps(request)],
            cwd=str(WORK), env=_child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-2000:]
    return json.loads(lines[-1]), ""


def _environment(probe_env: dict, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pbtlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **probe_env,
        "blas_threads": BLAS_THREADS,
        "cli_threads": 1,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def read_output(path: Path):
    """The CSV an invocation wrote, or None."""
    try:
        return path.read_text()
    except OSError:
        return None


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Sample one workload for about `seconds`; returns metrics and details."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    out_csv = WORK / f"{workload.name}.csv"
    spans_path = WORK / f"{workload.name}-spans.json"
    argv = workload.argv() + ["--out", str(out_csv), "--no-timestamp"]

    warm, err = _probe({"argv": None, "env": True}, deadline - time.monotonic())
    if warm is None:
        raise BenchmarkError(f"cannot import pbtlab.cli: {err}")
    if not Path(warm["pbtlab"]).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"pbtlab imported from {warm['pbtlab']}, not {SRC}")

    plain, traced, failures = [], [], []
    setups = [warm]
    attempted = failed = 0
    t_measure = time.monotonic()
    durations = []
    while True:
        is_traced = trace and len(plain) > len(traced)
        out_csv.unlink(missing_ok=True)
        t0 = time.monotonic()
        res, err = _probe({"argv": argv, "trace": is_traced, "spans": str(spans_path)},
                          deadline - t0)
        durations.append(time.monotonic() - t0)
        ok = res is not None and res["rc"] == 0
        bad, why = count_failures(workload, read_output(out_csv) if ok else None)
        attempted += workload.expected_rows
        failed += bad
        if bad:
            failures.append({"traced": is_traced, "rc": res and res["rc"],
                             "stderr": err, "reasons": why})
        if res is not None:
            setups.append(res)
            if is_traced:
                spans = json.loads(spans_path.read_text())
                traced.append({"wall_s": res["wall_s"],
                               "layers": summarize(spans["names"], spans["spans"])})
            else:
                plain.append(res)
        now = time.monotonic()
        done = len(plain) >= (1 if trace else MIN_SAMPLES) and (not trace or traced)
        # Stop when the next sample would end more than half a sample past
        # `seconds`, so the measured time averages `seconds`.
        if done and now - t_measure + 0.5 * statistics.median(durations) > seconds:
            break
        if now + statistics.median(durations) > deadline:
            break
    if not plain or (trace and not traced):
        raise BenchmarkError(f"no completed sample of {workload.name}: {failures[:1]}")

    while not trace and len(setups) < SETUP_SAMPLES and time.monotonic() + 5 < deadline:
        res, err = _probe({"argv": None}, deadline - time.monotonic())
        if res is None:
            raise BenchmarkError(f"set-up probe failed: {err}")
        setups.append(res)

    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        per_call = [layer_metrics(t["layers"]) for t in traced]
        metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
        metrics["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - wall
        units = PER_LAYER
    else:
        cpu = statistics.median(r["cpu_s"] * CAL_REF_S / r["calib_cpu_s"] for r in plain)
        metrics = {
            "cpu_s": cpu,
            "rows_per_cpu_s": workload.expected_rows / cpu,
            "setup_s": statistics.median(r["setup_cpu_s"] * CAL_REF_S / r["calib_cpu_s"]
                                         for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END
    return {
        "workload": workload.describe(),
        "environment": warm["env"],
        "samples": {"untraced": len(plain), "traced": len(traced), "setup": len(setups)},
        "elapsed_s": time.monotonic() - started,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "unscaled": {
            "wall_s": wall,
            "rows_per_s": workload.expected_rows / wall,
            "setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups),
            "unscaled_cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "unscaled_setup_cpu_s": statistics.median(r["setup_cpu_s"] for r in setups),
            "calib_cpu_s": statistics.median(r["calib_cpu_s"] for r in setups),
        },
        "layers": traced[-1]["layers"] if traced else None,
        "raw": {"wall_s": [r["wall_s"] for r in plain], "cpu_s": [r["cpu_s"] for r in plain],
                "setup_cpu_s": [r["setup_cpu_s"] for r in setups],
                "calib_cpu_s": [r["calib_cpu_s"] for r in setups],
                "setup_wall_s": [r["setup_wall_s"] for r in setups],
                "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
                "traced_wall_s": [t["wall_s"] for t in traced]},
    }


def _print_human(name: str, result: dict) -> None:
    s = result["samples"]
    print(f"# {name}: {result['workload']['rows']} rows per invocation, "
          f"{s['untraced']} untraced / {s['traced']} traced / {s['setup']} set-up samples")
    for metric, m in result["metrics"].items():
        print(f"{name:7s} {metric:46s} {m['value']:.6g} {m['unit']}")
    for metric, value in result["unscaled"].items():
        unit = "rows/s" if metric.startswith("rows") else "s"
        print(f"{name:7s} {metric:46s} {value:.6g} {unit} (not in the JSON line)")
    rate = result["failed"] / result["attempted"]
    print(f"{name:7s} {'fail_rate':46s} {rate:.6g} ratio "
          f"({result['failed']} of {result['attempted']} rows failed)")
    for f in result["failures"]:
        print(f"# failure: {f}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "pbtlab" / "cli.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / 'pbtlab'}")
    workload = WORKLOADS[name](seed)
    result = measure(workload, seconds, trace)
    result["environment"] = _environment(result["environment"], seed)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    print("# environment: " + json.dumps(result["environment"], sort_keys=True))
    _print_human(name, result)
    print(f"# details: {path}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    def line(r):
        return {"correct": r["failed"] == 0, "attempted": r["attempted"],
                "failed": r["failed"], "metrics": r["metrics"]}

    if args.workload == "all":
        print(json.dumps({n: line(r) for n, r in results.items()}))
    else:
        print(json.dumps(line(results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
