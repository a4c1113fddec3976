"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep-mnist --seed 1 --seconds 15 --trace 0

Run from the repository root; compresslab is imported from ./src.  The last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  The environment goes to stderr, and a record of
the run (environment, per-round times, problems found and, when traced, every
span) to benchmarks/out/.  See benchmarks/README.md.
"""

from __future__ import annotations

import os
import sys

# Fixed BLAS thread count, set before numpy loads: trained bits depend on it.
# One thread: two made no workload faster here, and two spinning BLAS threads
# slow down many-fold as soon as anything else wants one of the cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up is timed at least this often and for at least this long; median reported
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 3, 1.0
MIN_ROUNDS = 2


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as f:
                    src_lines += f.read().count(b"\n")
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def run_rounds(workload, work: str, seconds: float, tracer=None) -> list[tuple]:
    """A warm-up round, then whole rounds until ``seconds`` have passed.

    The warm-up round pays for first-touch memory and is not timed.  With a
    tracer, the timed rounds alternate untraced and traced, in pairs.
    Returns per round (wall seconds, failed operations, output digest, spans).
    """
    rounds = []
    start = None
    while len(rounds) <= MIN_ROUNDS or time.perf_counter() - start < seconds \
            or (tracer and len(rounds) % 2 == 0):
        traced = tracer is not None and len(rounds) >= 2 and len(rounds) % 2 == 0
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            failed = workload.run_round(work)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        spans = tracer.spans if traced else None
        rounds.append((wall, failed, workload.digest(work), spans))
        if start is None:
            start = time.perf_counter()
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "compresslab")):
        print(f"error: no compresslab sources under {os.path.join(ROOT, 'src')}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import compresslab
    import compresslab.cli  # noqa: F401  (not imported by the package itself)
    from tracing import UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    env = environment(np)
    print(json.dumps({"environment": env}), file=sys.stderr)

    run_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    data, work = os.path.join(run_dir, "data"), os.path.join(run_dir, "work")
    os.makedirs(data)
    workload = WORKLOADS[args.workload](compresslab, args.seed, data)

    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer(compresslab) if args.trace else None
    rounds = run_rounds(workload, work, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls = [r[0] for r in rounds[1:]]
    failed = sum(r[1] for r in rounds)
    problems = workload.check(work)
    digests = [r[2] for r in rounds]
    if any(d != digests[0] for d in digests):
        problems.append("outputs differ between rounds of one seed"
                        + (" (traced against untraced)" if args.trace else ""))

    if args.trace:
        per_round = [layer_metrics(r[3]) for r in rounds if r[3] is not None]
        metrics = {name: {"value": statistics.median(m[name] for m in per_round),
                          "unit": unit} for name, unit in UNITS.items()}
        overhead = statistics.median(walls[1::2]) - statistics.median(walls[0::2])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record = {"args": vars(args), "environment": env, "setup_s": setup_times,
              "round_wall_s": walls, "problems": problems, "metrics": metrics}
    if tracer:
        record["spans"] = [r[3] for r in rounds if r[3] is not None]
    shutil.rmtree(run_dir)
    os.makedirs(os.path.dirname(run_dir), exist_ok=True)
    with open(run_dir + ".json", "w") as f:
        json.dump(record, f)
    print(json.dumps({"correct": not problems, "attempted": workload.ops_per_round * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
