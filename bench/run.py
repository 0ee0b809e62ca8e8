"""gkpo benchmark: four workloads, untraced (end-to-end) or traced (per layer).

Run from the root of a checkout; the package is taken from ./src:

    python3 bench/run.py --workload docs --seed 1 --seconds 30 --trace 0

Workloads: docs (document pipeline in process plus cold CLI calls), h1 and h2
(`gkpo harness` as a subprocess), stats (McNemar exact test and bootstrap CI).
One caller, closed loop: each operation starts when the previous one has
finished, and at most one subprocess runs at a time. Every run also times a
fixed sample of twelve cold `gkpo validate|hash|convert` invocations.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run, which alternates untraced and traced passes over the same
inputs. Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
1 when a correctness check failed and 2 when no gkpo checkout is found.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path
from typing import Any, Callable

import workloads as wls
from tracing import ROOT, Tracer

NS = {"us": 1e3, "ms": 1e6, "s": 1e9}
SETUP_REPEATS = 5
SIDE_CLUSTERS = 4
GAUGE_EVERY_S = 0.2  # longest stretch of operations between two loop-gauge readings
# what the gauges read on a 2.1 GHz Xeon VM in a fast stretch
LOOP_REF_S = 0.002
PAIRWISE_REF_S = 0.013
NUMPY_START_REF_S = 0.15
IMPORT_PROBE = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import gkpo.cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    gkpo.cli.main(["validate", sys.argv[1]])
print(json.dumps({"import_s": t1 - t0, "numpy_loaded": int("numpy" in sys.modules)}))
"""


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wls.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _attempt(wl, item, fn, tally: wls.Tally):
    """Time one operation; an exception or a failed check counts as failed."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = fn(item)
    except Exception:
        dt = time.perf_counter() - t0
        tally.fail(traceback.format_exc(limit=3))
        return dt, None
    dt = time.perf_counter() - t0
    try:
        wl.check(item, out, tally)
    except Exception:
        tally.fail(traceback.format_exc(limit=3))
    return dt, out


def _side_clusters(wl) -> list[tuple[float, list]]:
    """The cold CLI sample and the set-ups, dealt round-robin into clusters
    that are spread evenly over the run, so that each kind samples several
    stretches of time. Returns (fraction of the run, tasks) per cluster."""
    tasks = [("cli", call) for call in wl.cli_calls] + [("setup", None)] * SETUP_REPEATS
    return [((c + 0.5) / SIDE_CLUSTERS, tasks[c::SIDE_CLUSTERS]) for c in range(SIDE_CLUSTERS)]


def _best_of_three(task: Callable[[], Any]) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - t0)
    return best


def _loop() -> int:
    """A fixed pure-Python loop."""
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return s


def _pairwise() -> float:
    """An all-pairs sign sum over 1000 values in numpy, the kind of work
    kendall_tau does."""
    import numpy as np

    x = np.arange(1000.0) % 37
    iu = np.triu_indices(len(x), k=1)
    return float(np.sum(np.sign(x[:, None] - x[None, :])[iu]))


def _numpy_start_time() -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


class SpeedGauge:
    """Scales measured times to a host of fixed speed.

    The speed this process gets drifts by up to 40% over seconds to minutes
    (the host's other tenants), and a whole run can fall in a slow stretch.
    A gauge times a fixed task that does not touch the package, `read`,
    between measurements. Each time measured between two readings is
    multiplied by `ref` over their mean, so that it reads as on a host where
    the task takes `ref` seconds."""

    def __init__(self, read: Callable[[], float], ref: float) -> None:
        self.read, self.ref = read, ref
        self.readings = [read()]
        self.last = time.perf_counter()
        self._pending: list[tuple[list[float], float]] = []

    def add(self, dest: list[float], seconds: float) -> None:
        """Queue a measured time; flush() appends it to dest, scaled."""
        self._pending.append((dest, seconds))

    def flush(self) -> None:
        self.readings.append(self.read())
        factor = 2 * self.ref / (self.readings[-2] + self.readings[-1])
        for dest, seconds in self._pending:
            dest.append(seconds * factor)
        self._pending.clear()
        self.last = time.perf_counter()

    def summary(self) -> dict:
        return {"ref": self.ref, "median_reading": statistics.median(self.readings),
                "readings": len(self.readings)}


OP_GAUGES = {
    "loop": (lambda: _best_of_three(_loop), LOOP_REF_S),
    "pairwise": (lambda: _best_of_three(_pairwise), PAIRWISE_REF_S),
}


def untraced(wl, seconds: float, tally: wls.Tally, setup_cmd: list[str]):
    """End-to-end metrics. Operation times are scaled by the workload's
    operation gauge (OP_GAUGES); the cold CLI calls and set-ups, which are mostly interpreter start and
    imports, by the numpy-start gauge. The raw medians and the readings go
    to the meta line."""
    t_start = time.perf_counter()
    t_end = t_start + seconds
    clusters = _side_clusters(wl)
    gauge = SpeedGauge(*OP_GAUGES[wl.op_gauge])
    cli_times: list[float] = []
    setup_times: list[float] = []
    raw: dict[str, list[float]] = {"setup_s": [], "op_p50_ms": [], "cli_cold_p50_ms": []}
    start_gauge: SpeedGauge | None = None

    def run_cluster(tasks) -> None:
        nonlocal start_gauge
        gauge.flush()
        if start_gauge is None:
            start_gauge = SpeedGauge(_numpy_start_time, NUMPY_START_REF_S)
        else:
            start_gauge.flush()  # nothing pending: a fresh reading before the cluster
        for kind, call in tasks:
            if kind == "setup":
                res = subprocess.run(setup_cmd, capture_output=True, text=True, check=True)
                dt = float(res.stdout.split()[-1])
                start_gauge.add(setup_times, dt)
                raw["setup_s"].append(dt)
            else:
                argv, expected = call
                tally.attempted += 1
                t0 = time.perf_counter()
                res = wls.run_cli(argv, wl.root, wl.work)
                dt = time.perf_counter() - t0
                start_gauge.add(cli_times, dt)
                raw["cli_cold_p50_ms"].append(dt * 1e3)
                wl.check_cli(expected, res, tally)
            start_gauge.flush()
        gauge.flush()

    times: list[float] = []
    rss_kb: list[int] = []
    total = 0.0
    i = 0
    while True:
        while clusters and time.perf_counter() >= t_start + clusters[0][0] * seconds:
            run_cluster(clusters.pop(0)[1])
        dt, out = _attempt(wl, wl.items[i % len(wl.items)], wl.run, tally)
        i += 1
        gauge.add(times, dt)
        raw["op_p50_ms"].append(dt * 1e3)
        total += dt
        if isinstance(out, wls.CliResult):
            rss_kb.append(out.maxrss_kb)
        if time.perf_counter() - gauge.last >= GAUGE_EVERY_S:
            gauge.flush()
        if t_end - time.perf_counter() < total / i / 2:  # the next op would mostly overrun
            break
    gauge.flush()
    for _, tasks in clusters:
        run_cluster(tasks)
    # the CLI workloads run in children; the others in this process
    peak_kb = max(rss_kb) if rss_kb else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p99_ms": (_quantile(times, 99) * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "cli_cold_p50_ms": (statistics.median(cli_times) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    scaling = {
        "op_gauge_s": {"task": wl.op_gauge, **gauge.summary()},
        "numpy_start_gauge_s": start_gauge.summary(),
        "raw_medians": {name: statistics.median(v) for name, v in raw.items()},
    }
    return metrics, {"time_share": wl.time_shares(times), "scaling": scaling}


def _import_probe(wl) -> tuple[float, int]:
    """Import time of gkpo.cli and whether `validate` loaded numpy, read
    from fresh interpreters."""
    path = wl.cli_calls[0][0][1]  # the valid document of the CLI sample
    runs = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, path],
            capture_output=True, text=True, cwd=wl.root, env=wls.cli_env(wl.root), check=True,
        )
        runs.append(json.loads(res.stdout.splitlines()[-1]))
    return statistics.median(r["import_s"] for r in runs), max(r["numpy_loaded"] for r in runs)


def traced(wl, seconds: float, tally: wls.Tally, out_dir: Path):
    import_s, numpy_loaded = _import_probe(wl)
    tracer = Tracer()
    passes: dict[bool, list[float]] = {False: [], True: []}
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        on = k % 2 == 1
        run = (lambda item: tracer.operation(lambda: wl.run_in_process(item))) if on else wl.run_in_process
        if on:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for item in wl.items:
                _attempt(wl, item, run, tally)
        finally:
            if on:
                tracer.uninstall()
        dt = time.perf_counter() - t0
        passes[on].append(dt)
        k += 1
        if k >= 2 and t_end - time.perf_counter() < dt / 2:
            break
    out_dir.mkdir(exist_ok=True)
    tracer.save(str(out_dir / f"spans-{wl.name}.tsv.gz"))
    overhead = statistics.median(passes[True]) / statistics.median(passes[False]) - 1
    return layer_metrics(tracer, import_s, numpy_loaded, overhead)


def layer_metrics(tr: Tracer, import_s: float, numpy_loaded: int, overhead: float):
    s = tr.summary()
    ops, c, self_ns = s["ops"], tr.counts, s["self_ns"]

    def per_call(key: str, layer: str) -> float:
        calls = c[f"{layer}.calls"]
        return c[key] / calls if calls else 0.0

    def self_time(layer: str, unit: str) -> tuple[float, str]:
        return self_ns.get(layer, 0) / ops / NS[unit], unit

    m: dict[str, tuple[float, str]] = {
        "cli.import_s": (import_s, "s"),
        "cli.numpy_loaded": (numpy_loaded, "flag"),
    }
    for layer, unit in (
        ("schema.parse", "us"),
        ("schema.validate", "us"),
        ("canonical.canonicalize", "us"),
        ("adapters.from_gkpo", "us"),
        ("reducibility.classify", "us"),
        ("algebra.scale_fix", "us"),
        ("engine.kendall_tau", "s"),
        ("engine.mcnemar_exact", "s"),
        ("engine.bootstrap_diff_ci", "s"),
        ("engine.object_margin", "ms"),
        ("engine.object_weight", "ms"),
        ("harness.train_run", "s"),
    ):
        m[f"{layer}.calls"] = (c[f"{layer}.calls"] / ops, "count")
        m[f"{layer}.self_{unit}"] = self_time(layer, unit)
    m.update(
        {
            "schema.parse.rejected": (c["schema.parse.rejected"] / ops, "count"),
            "schema.bytes_in": (c["schema.bytes_in"] / ops, "bytes"),
            "schema.validate.violations": (c["schema.validate.violations"] / ops, "count"),
            "canonical.bytes_out": (c["canonical.bytes_out"] / ops, "bytes"),
            "canonical.sha256_us": self_time("canonical.opal_hash", "us"),
            "adapters.from_gkpo.blocked_ratio": (
                per_call("adapters.from_gkpo.blocked", "adapters.from_gkpo"), "ratio"),
            "adapters.to_gkpo.self_us": self_time("adapters.to_gkpo", "us"),
            "engine.kendall_tau.peak_mb": (tr.peaks.get("engine.kendall_tau", 0.0), "MB"),
            "engine.mcnemar_exact.discordant": (
                per_call("engine.mcnemar_exact.discordant", "engine.mcnemar_exact"), "count"),
            "harness.pairs": (per_call("harness.pairs", "harness.train_run"), "count"),
            "harness.gen_dataset.self_s": self_time("harness.gen_dataset", "s"),
            "unattributed": (1 - s["covered_ns"] / s["root_ns"], "ratio"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
    )
    return m, s


def _shares(s) -> list[str]:
    root = s["root_ns"]
    lines = [f"self-time shares of traced op wall time (base: {s['ops']} ops, {root / 1e9:.3f} s, {s['spans']} spans)"]
    shares = {name: ns / root for name, ns in s["self_ns"].items() if name != ROOT}
    shares["unattributed"] = 1 - s["covered_ns"] / root
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<28} {share:8.2%}")
    return lines


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _provenance(root: Path) -> dict:
    commit = None  # a checkout exported without .git has no commit to report
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
    }


def _setup_cmd(args) -> list[str]:
    """A fresh interpreter that times import plus input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    return cmd + ["--small"] if args.small else cmd


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    if not (root / "src" / "gkpo" / "cli.py").is_file() or not (root / "fixtures").is_dir():
        print("bench: no gkpo checkout here (src/gkpo and fixtures/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        wl = wls.make(args.workload, root, work, args.seed, args.small)
        if args.setup_only:
            print(time.perf_counter() - t0)
            return 0
        wl.cli_calls = wl.cli_sample()
        tally = wls.Tally()
        extra_meta: dict = {}
        if args.trace:
            metrics, summary = traced(wl, args.seconds, tally, root / ".bench_out")
        else:
            metrics, extra_meta = untraced(wl, args.seconds, tally, _setup_cmd(args))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "sizes": wl.meta,
        **extra_meta,
        "cli_sample": [argv[0] for argv, _ in wl.cli_calls],
        "known_defects": {k: tally.known_defects[k] for k in wls.KNOWN_DEFECTS},
        **_provenance(root),
    }
    print("meta " + json.dumps(meta))
    if args.trace:
        print("\n".join(_shares(summary)))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, count in meta["known_defects"].items():
        print(f"known defect {name}: {count} ({wls.KNOWN_DEFECTS[name]})")
    for message in tally.messages:
        print("FAILED " + message.strip().replace("\n", "\n  "))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
