"""Layer spans recorded from outside the package.

`Tracer.install()` wraps every public function, and every public classmethod
of a public class, defined in the pbtlab modules below.  It then re-binds each
module-level name that refers to a wrapped function, so calls through names
bound by import (`povm.inv_sqrt_on_support`, `fidelity.pgm`, `spinboson.pgm`,
`cli.compare_noise_adapted`, ...) are recorded too.  The package is not edited.

A span is (function id, start, end, parent span index, key).  Spans stay in a
list in memory and are written out once, after the traced call returns.  The
key is recorded only where a derived metric needs it: the argument that makes
a call distinct (for the waste ratios) and, for linops, the largest operator
dimension passed in.

`summarize()` derives per-function counts and times from the spans.  The layer
of a span is its module; a span's self time is its duration minus the part
covered by nested spans of other modules, so `cli.main`'s self time is the
wall time not spent in any numerical layer (parsing and CSV/JSON output).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("linops", "ensemble", "povm", "fidelity", "closedform", "spinboson", "cli")


def _dims(bound: dict):
    """Largest operator dimension among the arguments of a linops call."""
    best = None
    for value in bound.values():
        shape = getattr(getattr(value, "matrix", value), "shape", None)
        if shape:
            best = max(best or 0, int(shape[0]))
    return best


# Arguments that identify a distinct unit of work, per function id.
_KEYS = {
    "closedform.f_ih": lambda b: b["n"],
    "spinboson.decoherence_factor": lambda b: repr((b["tau"], b["params"])),
    # The phase does not depend on the temperature.
    "spinboson.phase": lambda b: repr(
        (b["tau"], dataclasses.replace(b["params"], temperature_ratio=0.0))),
}


def _key_fn(fid: str, fn):
    extract = _dims if fid.startswith("linops.") else _KEYS.get(fid)
    if extract is None:
        return None
    sig = inspect.signature(fn)

    def key(args, kwargs):
        return extract(sig.bind(*args, **kwargs).arguments)
    return key


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []

    def _wrap(self, fid: str, fn):
        fn_index = len(self.names)
        self.names.append(fid)
        key = _key_fn(fid, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            k = key(args, kwargs) if key else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fn_index, start, end, parent, k)
        return traced

    def install(self) -> None:
        pkg = importlib.import_module("pbtlab")
        mods = {m: importlib.import_module(f"pbtlab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(member, classmethod):
                            fid = f"{short}.{name}.{attr}"
                            setattr(obj, attr, classmethod(self._wrap(fid, member.__func__)))
        for mod in (pkg, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def summarize(names, spans) -> dict:
    """Per function id: calls, s (inclusive), self_s, distinct keys and max key."""
    module = [n.split(".", 1)[0] for n in names]
    span_module = [module[sp[0]] for sp in spans]
    covered = [0.0] * len(spans)
    for sp in spans:
        parent = sp[3]
        if parent < 0 or span_module[parent] == module[sp[0]]:
            continue
        # sp is the first span of its module below each ancestor of the
        # parent's module up to the next module boundary.
        layer, a = span_module[parent], parent
        while a >= 0 and span_module[a] == layer:
            covered[a] += sp[2] - sp[1]
            a = spans[a][3]
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "keys": set()})
    for sp, cov in zip(spans, covered):
        st = stats[names[sp[0]]]
        st["calls"] += 1
        st["s"] += sp[2] - sp[1]
        st["self_s"] += sp[2] - sp[1] - cov
        if sp[4] is not None:
            st["keys"].add(sp[4])
    out = {}
    for fid, st in stats.items():
        keys = st.pop("keys")
        st["distinct"] = len(keys)
        st["max_key"] = max((k for k in keys if isinstance(k, int)), default=0)
        out[fid] = st
    return out
