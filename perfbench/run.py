"""wavedecay benchmark: named workloads in one process, with checked outputs.

    python3 perfbench/run.py --workload reference_cubic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  After set-up the workload's round of operations repeats until
--seconds have passed.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
Metric definitions and the workload rationale are in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import wavedecay; print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float):
    """Repeat rounds until `seconds` have passed.

    Returns the operations with their times, per-round wall times, and the
    peak RSS after the first round: later rounds add per-law cache entries,
    so the peak at the end would grow with the number of rounds, that is
    with speed.
    """
    from workloads import Ops  # imported after the thread pinning, like numpy

    ops, walls, rss = Ops(), [], 0.0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        workload.run_round(ops)
        walls.append(time.perf_counter() - t0)
        rss = rss or peak_rss_mb()
    return ops, walls, rss


def round_seconds(ops) -> float:
    """Time of one round, each operation taken at its median over the run."""
    return sum(statistics.median(times) for times in ops.seconds.values())


def steps_per_s(ops) -> float:
    """Time steps over time, over the operations whose output shows steps."""
    return sum(ops.steps.values()) / sum(statistics.median(ops.seconds[name]) for name in ops.steps)


def environment(wd) -> dict:
    import numpy
    import scipy

    return {
        "backend": wd.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "WAVEDECAY_BACKEND_set": "WAVEDECAY_BACKEND" in os.environ,
        "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end(workload, setups, rss, ops) -> dict:
    # general_envelope simulates only during set-up, so its set-up runs give the rate
    rate_ops = ops if ops.steps else workload.setup_ops
    return {
        "wall_s": (round_seconds(ops), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "steps_per_s": (steps_per_s(rate_ops), "1/s"),
        "ops_ok_frac": ((ops.attempted - ops.failed) / ops.attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(tracer, walls, traced_ops, untraced_ops) -> dict:
    n = len(walls)
    total = sum(walls)
    steps = tracer.counters["kernels.steps"]
    calls, secs = tracer.calls, tracer.seconds
    psi0_evals = calls("transforms.psi0_eval")
    psi0_quads = tracer.stats.get("numutil.adaptive_simpson@transforms", [0])[0]
    m = {
        "kernels.us_per_step": (1e6 * secs("kernels.advance") / steps if steps else 0.0, "us"),
        "kernels.newton_iters_per_step": (tracer.counters["kernels.ghat_calls"] / steps if steps else 0.0, "count"),
        "kernels.advance_calls": (calls("kernels.advance") / n, "count"),
        "kernels.share": (tracer.self_s["kernels"] / total, "ratio"),
        "sim.sample_s": ((secs("sim.energy") + secs("sim.dissipation_rate")) / n, "s"),
        "sim.init_s": (secs("sim.init_state") / n, "s"),
        "harness.integral_s": (secs("harness.check_integral_inequality") / n, "s"),
        "harness.fit_s": (secs("harness.fit_tail_exponent") / n, "s"),
        "harness.calibrate_upper_s": (secs("harness.calibrate_upper") / n, "s"),
        "harness.calibrate_lower_s": (secs("harness.calibrate_lower") / n, "s"),
        "harness.compare_s": (secs("harness.compare_to_envelope") / n, "s"),
        "harness.write_s": ((secs("sim.to_csv") + secs("harness._atomic_write")) / n, "s"),
        "harness.write_bytes": (tracer.counters["harness.write_bytes"] / n, "B"),
        "harness.envelope_evals": (calls("transforms.envelope_value") / n, "count"),
        "transforms.psi0_evals": (psi0_evals / n, "count"),
        "transforms.psi0_quadratures": (psi0_quads / n, "count"),
        "transforms.psi0_cache_hit_ratio": (1.0 - psi0_quads / psi0_evals if psi0_evals else 0.0, "ratio"),
        "transforms.hprime_inv_calls": (calls("transforms.hprime_inv") / n, "count"),
        "transforms.inverse_L_calls": (calls("transforms.inverse_L") / n, "count"),
        "feedback.evals": (sum(calls(f"feedback.{f}") for f in ("eval_H", "eval_H_prime", "lambda_H")) / n, "count"),
        "numutil.root_solves": (calls("numutil.bisect_root") / n, "count"),
        "numutil.quadratures": (calls("numutil.adaptive_simpson") / n, "count"),
        "odecmp.lower_envelope_evals": (calls("odecmp.lower_envelope") / n, "count"),
        "config.parse_s": (secs("config.parse_config_text") / n, "s"),
    }
    for layer, s in tracer.self_s.items():
        m[f"{layer}.s"] = (s / n, "s")
    m["trace.coverage"] = (tracer.covered_s() / total, "ratio")
    m["trace.wall_s"] = (round_seconds(traced_ops), "s")
    m["trace.overhead_s"] = (round_seconds(traced_ops) - round_seconds(untraced_ops), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("reference_cubic", "family_sweep", "general_envelope"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "wavedecay", "__init__.py")):
        print(f"error: no wavedecay sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import wavedecay as wd

    if not os.path.abspath(wd.__file__).startswith(SRC + os.sep):
        print(f"error: imported wavedecay from {wd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT_DIR) as work_dir:
        workload = WORKLOADS[args.workload](wd, args.seed, ROOT, work_dir, tiny=args.size == "tiny")
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(t_import + time.perf_counter() - t0)

        if args.trace == 0:
            ops, walls, rss = measure(workload, args.seconds)
            runs = [ops]
        else:
            untraced_ops, _, _ = measure(workload, args.seconds / 2)
            tracer = Tracer(wd)
            tracer.install()
            try:
                ops, walls, _ = measure(workload, args.seconds / 2)
            finally:
                tracer.uninstall()
            runs = [untraced_ops, ops]

    env = environment(wd)
    if args.trace == 0:
        metrics = end_to_end(workload, setups, rss, ops)
    else:
        metrics = per_layer(tracer, walls, ops, untraced_ops)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed, "rounds": len(walls),
                                 "environment": env})
        print(f"spans: {spans_path} ({len(tracer.spans)} spans)")

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    failures = collections.Counter()
    for r in runs:
        failures.update(r.failures)
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} rounds timed "
          f"(median {statistics.median(walls):.4g} s, fastest {min(walls):.4g} s), "
          f"{attempted} operations, {failed} failed")
    for key, count in sorted(failures.items()):
        print(f"  failure x{count}  {key}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(r.wrong == 0 for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
