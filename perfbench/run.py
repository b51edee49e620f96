"""spamsim benchmark: one workload, one seed, one measured window.

Usage (from the root of a checkout that holds ``src/spamsim``)::

    python3 perfbench/run.py --workload spam-postselect --seed 1 --seconds 20 --trace 0

The run first measures set-up (a cold ``import spamsim`` plus the first
``default_model()``) in several fresh processes, then runs the workload as a
closed loop for ``--seconds``: each unit is one call at ``nproc`` workers
paired with the same call at 1 worker (``spam-rus`` runs at 1 worker only),
the pair order alternating.  Every output is checked against an oracle.

Right before every timed call the run times a fixed reference kernel that
does not involve spamsim.  The throughput metrics divide each call's time by
that reference time, so they read in shots per reference-kernel time and
cancel the drift of the machine's own speed (see README.md).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces half the
units and reports the per-layer metrics from the traced calls.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (oracle checks) and ``metrics``.  A record of the
run (environment, sizes, every sample, every failed check) and, when traced,
the spans are written under ``--out-dir``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_UNITS = 4  # keeps a median, and two traced plus two untraced units

SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import spamsim
imported = time.perf_counter()
spamsim.default_model()
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "default_model_s": done - imported}))
"""

END_TO_END_UNITS = {
    "shots_per_ref": "1/ref",
    "shots_per_ref_1w": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("engine", "analytics", "detection", "cli", "schema")

PER_LAYER_UNITS = {
    "engine.run_experiment_s": "s",
    "engine.ns_per_shot": "ns",
    "engine.shots": "count",
    "engine.chunks": "count",
    "engine.attempts_per_shot": "ratio",
    "engine.accepted_fraction": "fraction",
    "engine.scaling_efficiency": "ratio",
    "engine.self_fraction": "fraction",
    "analytics.self_fraction": "fraction",
    "detection.self_fraction": "fraction",
    "detection.histogram_bins": "count",
    "cli.self_fraction": "fraction",
    "cli.schema_validate_fraction": "fraction",
    "cli.schema_validate_calls": "count",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "setup.import_s": "s",
    "setup.default_model_s": "s",
    "trace.overhead_fraction": "fraction",
}


@dataclass
class Sample:
    unit: int
    role: str  # "primary" (the workload's worker count) or "single" (1 worker)
    workers: int
    seconds: float
    reference: float  # seconds the reference kernel took right before the call
    shots: int
    traced: bool
    root: int | None  # id of the call's root span when traced


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args, sizes: dict) -> dict:
    import spamsim

    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "spamsim": spamsim.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": sizes,
    }


def measure_setup(repeats: int) -> list[dict]:
    """Cold import plus first ``default_model()``, each in a fresh process."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return runs


REFERENCE_ROWS = 4_000
REFERENCE_DRAWS = 50_000
REFERENCE_ROW = (0, "zero", "b", "d", "d", "b", "b", "b", 0, "None", "zero")


def reference_seconds() -> float:
    """Wall time of a fixed single-threaded kernel, about 10 ms.

    Half of it is interpreter-bound (CSV rows into memory), half numpy-bound
    (Poisson and normal draws), the two kinds of work spamsim does.  On a
    shared machine both halves slow down and speed up with the host, so a
    call's time over this time tracks the program rather than the machine.
    """
    import numpy as np

    start = time.perf_counter()
    writer = csv.writer(io.StringIO())
    for _ in range(REFERENCE_ROWS):
        writer.writerow(REFERENCE_ROW)
    rng = np.random.default_rng(0)
    rng.poisson(30.0, REFERENCE_DRAWS)
    rng.normal(0.0, 1.0, REFERENCE_DRAWS)
    return time.perf_counter() - start


def unit_seed(seed: int, unit: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(entropy=[seed, unit]).generate_state(1)[0])


def run_loop(workload, args, tracer, targets):
    """Closed loop of units until ``args.seconds`` have passed.

    Unit 0 warms caches and lazy imports; it is checked but not measured.
    """
    nproc = _nproc()
    if workload.workers_fixed is not None:
        schedule = [("primary", workload.workers_fixed)]
    else:
        schedule = [("primary", nproc), ("single", 1)]
    samples: list[Sample] = []
    checks = []
    unit = 0
    started = None
    while started is None or unit <= MIN_UNITS or time.perf_counter() - started < args.seconds:
        if unit == 1:
            started = time.perf_counter()
        seed = unit_seed(args.seed, unit)
        # Units 1, 2, 5, 6, ... are traced: both pair orders, traced and not.
        traced = tracer is not None and unit % 4 in (1, 2)
        order = schedule if unit % 2 == 0 else schedule[::-1]
        outputs = []
        for role, workers in order:
            call = workload.arrange(seed, workers)
            reference = reference_seconds()
            root = None
            with tracer.installed(targets) if traced else nullcontext():
                with tracer.span("bench.call", "bench", unit=unit, role=role,
                                 workers=workers) if traced else nullcontext() as span:
                    begin = time.perf_counter()
                    output = call()
                    elapsed = time.perf_counter() - begin
                if traced:
                    root = span.id
                    span.attrs.update(workload.counts(output))
            if unit > 0:
                samples.append(Sample(unit, role, workers, elapsed, reference,
                                      workload.shots(output), traced, root))
            outputs.append((workers, output))
        checks.extend(workload.check(outputs))
        workload.release(outputs)
        unit += 1
    return samples, checks


def throughput(samples: list[Sample], role: str, per_reference: bool = False) -> float:
    """Median over the untraced calls in ``role`` of shots per second, or of
    shots per reference-kernel time."""
    return median([s.shots * (s.reference if per_reference else 1.0) / s.seconds
                   for s in samples if s.role == role and not s.traced])


def end_to_end(samples, setup_runs, single_partner: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw wall-clock figures they rest on."""
    single = "single" if single_partner else "primary"
    metrics = {
        "shots_per_ref": throughput(samples, "primary", per_reference=True),
        "shots_per_ref_1w": throughput(samples, single, per_reference=True),
        "setup_s": median([r["import_s"] + r["default_model_s"] for r in setup_runs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "shots_per_s": throughput(samples, "primary"),
        "shots_per_s_1w": throughput(samples, single),
        "reference_ms": 1e3 * median([s.reference for s in samples if not s.traced]),
    }
    return metrics, raw


def span_table(calls: list[list], selves: dict[int, float]) -> dict:
    """Per span name: median per call of its count, total and self seconds,
    and the median duration of one span over all calls."""
    names = sorted({span.name for members in calls for span in members})
    table = {}
    for name in names:
        per_call = [[span for span in members if span.name == name] for members in calls]
        table[name] = {
            "calls": median([len(group) for group in per_call]),
            "total_s": median([sum(s.duration for s in group) for group in per_call]),
            "self_s": median([sum(selves[s.id] for s in group) for group in per_call]),
            "p50_s": median([s.duration for group in per_call for s in group]),
        }
    return table


def per_layer(samples, spans, setup_runs, single_partner: bool) -> tuple[dict, dict]:
    from spans import self_times, subtree

    by_id = {span.id: span for span in spans}
    selves = self_times(spans)
    roots = [by_id[s.root] for s in samples if s.traced and s.role == "primary"]
    calls = [subtree(spans, root) for root in roots]
    rows = []
    for root, members in zip(roots, calls):
        layer_self = {layer: 0.0 for layer in LAYERS}
        for span in members:
            if span.layer in layer_self:
                layer_self[span.layer] += selves[span.id]
        engine = [span for span in members if span.name == "engine.run_experiment"]
        engine_s = sum(span.duration for span in engine)
        shots = sum(span.attrs["shots"] for span in engine)
        wall = root.duration
        rows.append({
            "engine.run_experiment_s": engine_s,
            "engine.ns_per_shot": 1e9 * engine_s / shots,
            "engine.shots": shots,
            "engine.chunks": sum(span.attrs["chunks"] for span in engine),
            "engine.attempts_per_shot": sum(span.attrs["attempts"] for span in engine) / shots,
            "engine.accepted_fraction": sum(span.attrs["accepted"] for span in engine) / shots,
            "engine.self_fraction": layer_self["engine"] / wall,
            "analytics.self_fraction": layer_self["analytics"] / wall,
            "detection.self_fraction": layer_self["detection"] / wall,
            "detection.histogram_bins": sum(span.attrs.get("bins", 0) for span in members),
            "cli.self_fraction": layer_self["cli"] / wall,
            "cli.schema_validate_fraction": layer_self["schema"] / wall,
            "cli.schema_validate_calls": sum(1 for span in members if span.layer == "schema"),
            "cli.rows_written": root.attrs.get("rows_written", 0),
            "cli.bytes_written": root.attrs.get("bytes_written", 0),
        })
    metrics = {name: median([row[name] for row in rows]) for name in rows[0]}
    primary = throughput(samples, "primary")
    single = throughput(samples, "single") if single_partner else primary
    workers = max(s.workers for s in samples if s.role == "primary")
    metrics["engine.scaling_efficiency"] = primary / (workers * single)
    metrics["setup.import_s"] = median([r["import_s"] for r in setup_runs])
    metrics["setup.default_model_s"] = median([r["default_model_s"] for r in setup_runs])
    metrics["trace.overhead_fraction"] = (
        median([s.seconds for s in samples if s.traced and s.role == "primary"])
        / median([s.seconds for s in samples if not s.traced and s.role == "primary"])
        - 1.0
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}, span_table(calls, selves)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up process, for the benchmark's tests")
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench_runs"),
                        help="where run records, spans and CLI outputs go")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spamsim" / "__init__.py").is_file():
        _fail(f"no spamsim sources under {SRC}; run from a spamsim checkout")
    sys.path.insert(0, str(SRC))
    import spamsim

    if Path(spamsim.__file__).resolve().parent != SRC / "spamsim":
        _fail(f"imported spamsim from {spamsim.__file__}, not from {SRC}")

    import workloads
    from spans import Tracer, problems

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    os.makedirs(args.out_dir, exist_ok=True)
    setup_runs = measure_setup(1 if args.smoke else SETUP_REPEATS)
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES
    workload = workloads.WORKLOADS[args.workload](sizes[args.workload], args.out_dir)
    single_partner = workload.workers_fixed is None

    run_id = f"{args.workload}-seed{args.seed}"
    tracer = Tracer(run_id) if args.trace else None
    samples, checks = run_loop(workload, args, tracer, workloads.trace_targets())
    failed = [check for check in checks if not check.passed]

    stem = os.path.join(args.out_dir, f"{run_id}-trace{args.trace}")
    record = {
        "environment": environment(args, workload.sizes()),
        "setup_runs": setup_runs,
        "samples": [asdict(sample) for sample in samples],
        "checks_attempted": len(checks),
        "checks_failed": [asdict(check) for check in failed],
    }
    if args.trace:
        metrics, table = per_layer(samples, tracer.spans, setup_runs, single_partner)
        units = PER_LAYER_UNITS
        record["spans_by_name"] = table
        record["span_problems"] = problems(tracer.spans)
        with open(stem + "-spans.json", "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in tracer.spans], handle)
    else:
        metrics, record["wall_clock"] = end_to_end(samples, setup_runs, single_partner)
        units = END_TO_END_UNITS
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    calls = sum(1 for s in samples if s.role == "primary" and s.traced == bool(args.trace))
    print(f"# {args.workload} seed {args.seed}: {calls} measured primary calls, "
          f"{len(setup_runs)} set-up processes, nproc {_nproc()}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if not args.trace:
        raw = record["wall_clock"]
        print(f"# wall clock: shots_per_s {raw['shots_per_s']:.6g} 1/s, shots_per_s_1w "
              f"{raw['shots_per_s_1w']:.6g} 1/s, reference kernel {raw['reference_ms']:.4g} ms")
    if args.trace:
        for name, row in record["spans_by_name"].items():
            print(f"# span {name}: calls {row['calls']:g}, total {row['total_s']:.6g} s, "
                  f"self {row['self_s']:.6g} s, p50 {row['p50_s']:.6g} s")
    print(f"# checks failed {len(failed)} of {len(checks)} attempted")
    for check in failed[:10]:
        print(f"# FAILED {check.name}: {check.detail}")
    print(f"# record {stem}.json")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
