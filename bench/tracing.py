"""Spans and counts recorded around the package's public functions.

A Tracer replaces a function at the module attribute its callers resolve
(`gkpo.harness.kendall_tau`, `gkpo.adapters.classify`, ...) with a wrapper
that records one span per call: name, start, end, parent span and the id of
the top-level operation it belongs to. Spans live in compact arrays in
memory; `summary()` derives self times from them and `save()` writes them out
at the end of a run. Nothing is installed until `install()` is called, so an
untraced run executes the package unmodified.
"""

from __future__ import annotations

import array
import gzip
import importlib
import time
import tracemalloc
from collections import Counter
from typing import Any, Callable

ROOT = "op"  # name of the span around one workload operation

# layer name -> (module attribute paths the callers resolve)
LAYERS: dict[str, tuple[str, ...]] = {
    "schema.parse": ("gkpo.schema.parse", "gkpo.cli.parse", "gkpo.harness.parse"),
    "schema.validate": ("gkpo.schema.validate", "gkpo.cli.validate"),
    "canonical.canonicalize": (
        "gkpo.canonical.canonicalize",
        "gkpo.cli.canonicalize",
        "gkpo.harness.canonicalize",
    ),
    # opal_hash calls canonicalize, so its self time is the sha256 digest
    "canonical.opal_hash": (
        "gkpo.canonical.opal_hash",
        "gkpo.cli.opal_hash",
        "gkpo.harness.opal_hash",
    ),
    "adapters.from_gkpo": ("gkpo.adapters.from_gkpo", "gkpo.cli.from_gkpo"),
    "adapters.to_gkpo": ("gkpo.adapters.to_gkpo", "gkpo.cli.to_gkpo"),
    "reducibility.classify": ("gkpo.reducibility.classify", "gkpo.adapters.classify"),
    "algebra.scale_fix": ("gkpo.algebra.scale_fix",),
    "engine.kendall_tau": ("gkpo.harness.kendall_tau",),
    "engine.mcnemar_exact": ("gkpo.engine.mcnemar_exact", "gkpo.harness.mcnemar_exact"),
    "engine.bootstrap_diff_ci": (
        "gkpo.engine.bootstrap_diff_ci",
        "gkpo.harness.bootstrap_diff_ci",
    ),
    "engine.object_margin": ("gkpo.harness.object_margin",),
    # object_margin calls object_weight through gkpo.engine's own global
    "engine.object_weight": ("gkpo.harness.object_weight", "gkpo.engine.object_weight"),
    "harness.train_run": ("gkpo.harness.train_run",),
    "harness.gen_dataset": ("gkpo.harness.gen_dataset",),
}


def _resolve(path: str):
    module_name, attr = path.rsplit(".", 1)
    return importlib.import_module(module_name), attr


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT, *LAYERS]
        self._index = {n: i for i, n in enumerate(self.names)}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(self._index[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def operation(self, fn: Callable[[], Any]) -> Any:
        """Run fn as one top-level operation under a root span."""
        self._op_id += 1
        sid = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        track_peak = name == "engine.kendall_tau"

        def wrapper(*args, **kwargs):
            if not self._stack:  # outside an operation, e.g. a correctness check
                return fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            started = track_peak and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            elif track_peak:
                tracemalloc.reset_peak()
            sid = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self._close(sid)
                if track_peak:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
                    if started:
                        tracemalloc.stop()
                if observe:
                    observe(self.counts, args, kwargs, result, exc)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, Callable] = {}
        for name, paths in LAYERS.items():
            for path in paths:
                module, attr = _resolve(path)
                fn = getattr(module, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Self time per layer (ns) and how much of the root spans' time the
        layer spans directly under them cover."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = np.bincount(name, weights=dur - child, minlength=len(self.names))
        root = name == self._index[ROOT]
        return {
            "ops": int(root.sum()),
            "root_ns": float(dur[root].sum()),
            "covered_ns": float(child[root].sum()),
            "self_ns": {n: float(self_ns[i]) for i, n in enumerate(self.names) if self_ns[i]},
            "spans": len(dur),
        }

    def save(self, path: str) -> None:
        """Write every span as a tab-separated line of a gzip file: name,
        start_ns, end_ns, parent span (-1 for a root), operation id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            names, start, end, parent, op = self.names, self.start, self.end, self.parent, self.op
            fh.writelines(
                f"{names[n]}\t{start[i]}\t{end[i]}\t{parent[i]}\t{op[i]}\n"
                for i, n in enumerate(self.name)
            )


# -- counts taken at the layer boundaries -----------------------------------


def _parse(counts, args, kwargs, result, exc):
    text = args[0] if args else kwargs.get("text", "")
    counts["schema.bytes_in"] += len(text.encode("utf-8"))
    if exc is not None:
        counts["schema.parse.rejected"] += 1


def _validate(counts, args, kwargs, result, exc):
    if result is not None:
        counts["schema.validate.violations"] += len(result)


def _canonicalize(counts, args, kwargs, result, exc):
    if result is not None:
        counts["canonical.bytes_out"] += len(result)


def _from_gkpo(counts, args, kwargs, result, exc):
    if result is not None and result.blocked:
        counts["adapters.from_gkpo.blocked"] += 1


def _mcnemar(counts, args, kwargs, result, exc):
    counts["engine.mcnemar_exact.discordant"] += sum(args[:2])


def _train_run(counts, args, kwargs, result, exc):
    data = args[1] if len(args) > 1 else kwargs["data"]
    counts["harness.pairs"] += len(data)


_OBSERVERS = {
    "schema.parse": _parse,
    "schema.validate": _validate,
    "canonical.canonicalize": _canonicalize,
    "adapters.from_gkpo": _from_gkpo,
    "engine.mcnemar_exact": _mcnemar,
    "harness.train_run": _train_run,
}
