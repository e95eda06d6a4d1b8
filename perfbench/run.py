"""ltvctl benchmark: times real ltvctl subcommands in-process on seeded spec files.

    python3 perfbench/run.py --workload verdict --seed 3 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time,
the time of one round of the workload in units of a host-speed probe, and
peak memory. ``--trace 1`` runs a
fixed amount of work twice per call, once plain and once under the outside-in
layer tracer, and reports per-layer self times, call counts and the tracing
overhead. Every call's exit code and report.json are checked; the last line
of standard output is one JSON object with the result. See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from checks import ReportChecker, compare_reference
from layertrace import LayerTracer
from workloads import FULL, TOY, WORKLOADS, write_spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 1
SETUP_REPEATS = 7
PROBE_PRODUCTS = 15000  # about 40-60 ms per probe on a 2 vCPU Xeon

# per-layer metrics reported by a traced run (see README.md for what each should move)
SELF_TIME_LAYERS = (
    "duality.admissibility", "hautus.sweep", "hautus.frozen", "gramian.obs",
    "propagate.step_build", "gramian.ctrl_lyapunov", "gramian.ctrl_quadrature",
    "propagate.prefix_products", "propagate.propagate_state", "duality.input_map_adjoint",
    "duality.null_test", "synth", "sysmodel.parse_system", "cli",
)
COUNT_LAYERS = (
    "duality.admissibility", "hautus.frozen", "gramian.obs", "propagate.step_build",
    "propagate.propagate_state", "sysmodel.eval_coeff",
)


@dataclass(frozen=True)
class Sample:
    shape: str
    command: str
    seconds: float


def probe() -> float:
    """Seconds for a fixed loop of small matrix products: the host's current speed."""
    a = np.full((20, 20), 1 / 20)
    start = time.perf_counter()
    x = np.eye(20)
    for _ in range(PROBE_PRODUCTS):
        x = a @ x
    return time.perf_counter() - start


class Bench:
    """Runs and checks ltvctl calls for one workload, counting attempts and failures."""

    def __init__(self, workload, workdir: Path, reference: dict):
        from ltvcontrol import cli  # src/ is put on sys.path at run time

        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.checker = ReportChecker(SRC / "ltvcontrol" / "schemas" / "report.schema.json")
        self.attempted = 0
        self.failures: list[str] = []
        self.reports: dict[str, dict] = {}
        self.probes: list[float] = []  # host-speed probe times, one before each call

    def spec_file(self, spec) -> Path:
        path = self.workdir / f"spec-{spec.index}.json"
        write_spec(spec, path)
        return path

    def call(self, spec, call, spec_path: Path, seed: int, tracer=None,
             ref_key: str | None = None) -> float:
        """Run one ltvctl call; return its wall time. Failures are recorded."""
        self.probes.append(probe())
        outdir = self.workdir / f"out-{self.attempted}"
        argv = [call.command, str(spec_path), "-o", str(outdir), "--seed", str(seed),
                *call.flags]
        self.attempted += 1
        gc.collect()
        sink = io.StringIO()
        if tracer is not None:
            tracer.install()
        raised = None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # a raising call is a counted failure, not a crash
                    rc, raised = None, exc
                seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems, doc = self.checker.check(spec, call.command, rc, outdir)
        if raised is not None:
            problems.insert(0, f"raised {raised!r}")
        if ref_key is not None and doc is not None:
            self.reports[ref_key] = doc
            if ref_key in self.reference:
                problems += compare_reference(doc, self.reference[ref_key])
        shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failures.append(f"{spec.shape}#{spec.index} {call.command}: {problems[0]}")
        return seconds

    def reference_round(self, sizes, label: str) -> None:
        """Run round 0 of the reference seed, comparing each report with its reference."""
        w = self.workload
        for index in range(w.round_size):
            spec = w.spec(REFERENCE_SEED, index, sizes)
            path = self.spec_file(spec)
            for call in spec.calls:
                self.call(spec, call, path, REFERENCE_SEED,
                          ref_key=f"{label}/{w.name}/{index}/{call.command}")


def measure_setup(repeats: int) -> list[float]:
    """Seconds for `import ltvcontrol.cli` in fresh interpreters (one warm-up first)."""
    code = ("import time; t = time.perf_counter(); import ltvcontrol.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return times[1:]


def timed_loop(bench: Bench, seed: int, seconds: float, sizes) -> list[Sample]:
    """Closed loop: whole specs, one call at a time, until the time is up and a round is done."""
    w = bench.workload
    samples = []
    bench.probes.clear()
    label = "full" if sizes == FULL else "toy"
    deadline = time.perf_counter() + seconds
    index = 0
    while index < w.round_size or time.perf_counter() < deadline:
        spec = w.spec(seed, index, sizes)
        path = bench.spec_file(spec)
        for call in spec.calls:
            ref_key = None
            if seed == REFERENCE_SEED and index < w.round_size:
                ref_key = f"{label}/{w.name}/{index}/{call.command}"
            samples.append(Sample(spec.shape, call.command,
                                  bench.call(spec, call, path, seed, ref_key=ref_key)))
        index += 1
    return samples


def traced_loop(bench: Bench, seed: int, sizes):
    """Each call of trace_rounds rounds twice, plain and traced, alternating which goes first.

    Returns the tracer and the (plain, traced) wall time of every call."""
    w = bench.workload
    tracer = LayerTracer()
    pairs = []
    for index in range(w.round_size * w.trace_rounds):
        spec = w.spec(seed, index, sizes)
        path = bench.spec_file(spec)
        for call in spec.calls:
            traced_first = len(pairs) % 2 == 1
            first = bench.call(spec, call, path, seed, tracer if traced_first else None)
            second = bench.call(spec, call, path, seed, None if traced_first else tracer)
            pairs.append((second, first) if traced_first else (first, second))
    return tracer, pairs


def _metric(value, unit):
    return {"value": value, "unit": unit}


def command_stats(samples: list[Sample], probe_s: float) -> dict:
    """Per command, overall and per shape: call count, median and mean wall time,
    and the mean in probe units."""
    def stats(group):
        times = [s.seconds for s in group]
        mean = statistics.fmean(times)
        return {"calls": len(times), "p50_s": statistics.median(times), "mean_s": mean,
                "mean_rel": mean / probe_s}

    by_cmd = defaultdict(list)
    by_shape = defaultdict(list)
    for s in samples:
        by_cmd[s.command].append(s)
        by_shape[(s.command, s.shape)].append(s)
    return {cmd: {**stats(group),
                  "shapes": {shape: stats(g) for (c, shape), g in by_shape.items() if c == cmd}}
            for cmd, group in by_cmd.items()}


def round_rel(stats: dict) -> float:
    """One round (every command once on every shape) from per-shape means, in probe units."""
    return sum(row["mean_rel"] for cmd in stats.values() for row in cmd["shapes"].values())


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts and ".egg-info" not in str(p))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k in ("LTV_THREADS", "OPENBLAS_CORETYPE")},
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None,
                 setup_repeats: int = SETUP_REPEATS, workdir: Path | None = None) -> dict:
    """Run one workload and return the record; record["result"] is the contract JSON."""
    sizes = FULL if sizes is None else sizes
    workload = WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    OUT.mkdir(exist_ok=True)
    own_workdir = workdir is None
    workdir = workdir or OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record: dict = {}
    try:
        bench = Bench(workload, workdir, reference)
        bench.reference_round(TOY, "toy")
        if not trace:
            setup = measure_setup(setup_repeats)
            samples = timed_loop(bench, seed, seconds, sizes)
            stats = command_stats(samples, statistics.fmean(bench.probes))
            record["commands"] = stats
            record["samples"] = [[s.shape, s.command, s.seconds] for s in samples]
            record["probes"] = bench.probes
            record["setup_s"] = setup
            metrics = {
                "setup_s": _metric(statistics.median(setup), "s"),
                "round_rel": _metric(round_rel(stats), "probe"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            tracer, pairs = traced_loop(bench, seed, sizes)
            totals = tracer.layer_totals()
            record["layers"] = totals
            record["trace"] = tracer.dump()
            metrics = {f"{layer}.self_s": _metric(totals[layer]["self_s"], "s")
                       for layer in SELF_TIME_LAYERS}
            metrics.update({f"{layer}.calls": _metric(totals[layer]["calls"], "count")
                            for layer in COUNT_LAYERS})
            # per-call pairs run back to back, so host-speed drift largely cancels
            metrics["trace.overhead_frac"] = _metric(
                statistics.median(traced / plain - 1 for plain, traced in pairs), "ratio")
            record["pairs_s"] = pairs
        record["failures"] = bench.failures
        record["result"] = {
            "correct": not bench.failures,
            "attempted": bench.attempted,
            "failed": len(bench.failures),
            "metrics": metrics,
        }
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return record


def record_reference() -> None:
    """Write reference.json: reports of round 0 at the reference seed, toy and full sizes."""
    reports = {}
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            bench = Bench(workload, workdir, {})
            bench.reference_round(TOY, "toy")
            bench.reference_round(FULL, "full")
            if bench.failures:
                raise SystemExit(f"not recording a failing reference: {bench.failures}")
            reports.update(bench.reports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reports, sort_keys=True, separators=(",", ":")) + "\n")


def _summary(record: dict) -> list[str]:
    result = record["result"]
    lines = [f"# ltvctl benchmark: workload {record['workload']} seed {record['seed']} "
             f"trace {record['trace']}: {result['attempted']} calls, {result['failed']} failed "
             f"(failed_frac {result['failed'] / result['attempted']:.3g})"]
    for cmd, row in record.get("commands", {}).items():
        shapes = ", ".join(f"{s} {r['p50_s']:.4g} / {r['mean_s']:.4g} s ({r['calls']})"
                           for s, r in row["shapes"].items())
        lines.append(f"#   {cmd}.p50_s {row['p50_s']:.4g} s, mean {row['mean_s']:.4g} s = "
                     f"{row['mean_rel']:.4g} probe, over {row['calls']} calls; "
                     f"per shape p50 / mean: {shapes}")
    for name, m in result["metrics"].items():
        lines.append(f"#   {name} {m['value']:.6g} {m['unit']}")
    lines += [f"#   FAILED {f}" for f in record["failures"][:10]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "ltvcontrol" / "cli.py").is_file():
        print(f"ltvcontrol sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record.update(run_record(args))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("\n".join(_summary(record)))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
