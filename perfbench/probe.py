"""One measurement in a fresh interpreter; the benchmark starts one per sample.

    python3 perfbench/probe.py '<request json>'

The request holds "argv" (the pbtlab subcommand, or null to time set-up only),
"trace" (wrap the layers with tracer.Tracer) and "spans" (where the tracer
writes its spans).  The probe times `import pbtlab.cli` plus `build_parser()`
(set-up), then `cli.main(argv)`, each both as wall time and as this process's
CPU time (user + system), and prints one JSON line with them, the exit code,
the peak resident set size and, with "env", the versions of the libraries the
run used.

Set-up starts with the import of CALIBRATION_MODULES, timed on its own as
well (calib_cpu_s): most of what set-up costs, fixed here so that no change
to pbtlab moves it, and the benchmark's gauge of the host's speed.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time


def _library_versions() -> dict:
    import mpmath
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


CALIBRATION_MODULES = ("numpy", "scipy.integrate", "scipy.linalg", "scipy.special")


def main() -> int:
    req = json.loads(sys.argv[1])
    t0, c0 = time.perf_counter(), time.process_time()
    for name in CALIBRATION_MODULES:
        importlib.import_module(name)
    calib = time.process_time() - c0
    import pbtlab.cli as cli
    cli.build_parser()
    out = {"setup_wall_s": time.perf_counter() - t0, "setup_cpu_s": time.process_time() - c0,
           "calib_cpu_s": calib, "pbtlab": os.path.abspath(cli.__file__)}
    if req.get("env"):
        out["env"] = _library_versions()
    if req.get("argv") is not None:
        tracer = None
        if req.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t1, c1 = time.perf_counter(), time.process_time()
        rc = cli.main(req["argv"])
        out["wall_s"] = time.perf_counter() - t1
        out["cpu_s"] = time.process_time() - c1
        out["rc"] = rc
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(req["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
