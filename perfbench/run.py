"""Seeded, fingerprint-checked benchmark of the bmcc library.

Run from the repository root:

    python3 perfbench/run.py --workload solve-dense --seed 7 --seconds 30 --trace 0

The library is imported from ``src/``. One client drives it from a single
thread in a closed loop (see ``workloads.py``). With ``--trace 0`` the run
sets up every catalog of the workload (at least three set-ups in all), then
runs whole passes for about ``--seconds`` (at least one pass), and reports
the end-to-end metrics declared in ``BENCHMARK.json``: medians over set-ups
and over passes. Their seconds are rescaled to a reference host speed by a
probe timed around every operation (see ``workloads.probe``). With
``--trace 1`` it sets up once, runs one untraced pass and one pass under
timing spans (``spans.py``), and reports the per-layer metrics.

The last line of standard output is the result; the line before it records
the run's context: input digest, passes and wall seconds, the median host
speed factor, Python and numpy versions, cores and the size of ``src/bmcc``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def timed_run(session, seconds):
    """Untraced run: returns the end-to-end metrics and the run's context."""
    setups = []
    while len(setups) < SETUP_SAMPLES:
        setups += session.setup()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(session.run_pass()[0])
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break  # another pass of the same length would end past --seconds
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in passes[0] if all(name in p for p in passes)}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, {"passes": len(passes), "wall_s": time.perf_counter() - start}


def traced_run(session):
    """Traced run: one untraced pass, then one under spans; returns the
    per-layer metrics and the run's context. Span times are wall seconds,
    not rescaled: their sum plus ``client.self_s`` is the traced pass."""
    session.setup()
    t0 = time.perf_counter()
    session.run_pass()
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    with installed(tracer):
        t0 = time.perf_counter()
        _, outcome = session.run_pass()
        traced_s = time.perf_counter() - t0

    metrics = dict(tracer.self_s)
    metrics.update(tracer.counts)
    metrics["solvers.greedy_calls"] = tracer.calls["solvers.greedy_s"]
    metrics["solvers.center_exact_calls"] = tracer.calls["solvers.center_exact_s"]
    metrics["marketplace.catalog_bytes"] = sum(c.catalog_file.stat().st_size
                                               for c in session.catalogs)
    for label, counts in outcome["graphs"].items():
        metrics.update((f"graph.{name}.{label}", n) for name, n in counts.items())
    for solver, counts in outcome["solutions"].items():
        metrics.update((f"solvers.{name}.{solver}", n) for name, n in counts.items())
    metrics["trace_overhead_s"] = traced_s - untraced_s
    metrics["client.self_s"] = traced_s - tracer.top_level_s
    return metrics, {"passes": 2, "untraced_pass_s": untraced_s, "traced_pass_s": traced_s}


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "bmcc").glob("*.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import bmcc
    except ImportError as exc:
        print(f"perfbench: cannot import bmcc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(bmcc.__file__).resolve().parent != (SRC / "bmcc").resolve():
        print(f"perfbench: imported bmcc from {bmcc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    from workloads import WORKLOADS, Session, load_expected

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        session = Session(workload, args.seed, workdir, load_expected(args.seed))
        if args.trace:
            metrics, run_context = traced_run(session)
        else:
            metrics, run_context = timed_run(session, args.seconds)

    names = {m["name"] for m in declared}
    if session.failed == 0 and set(metrics) != names:
        print(f"perfbench: measured {sorted(set(metrics) - names)} but not "
              f"{sorted(names - set(metrics))}", file=sys.stderr)
        return 2
    print(json.dumps({"context": {
        "workload": workload.name, "seed": args.seed, "inputs": session.digest,
        "fingerprints_committed": session.expected is not None, **run_context,
        "host_speed": statistics.median(session.speeds),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "src_bmcc_lines": src_lines(),
    }}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
