"""duomech benchmark runner.

    python3 perfbench/run.py --workload {sweep,bisect,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/``.  With ``--trace 0`` the run reports every end-to-end metric; with
``--trace 1`` it measures untraced passes, then traced passes, and reports
every per-layer metric plus the tracing overhead.  Every pass's output is
checked against ``perfbench/reference``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the seed, the sample counts and the environment.  Exit
code 0 when every output matched the reference, 1 on any mismatch, 2 when
the checkout has no duomech sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "points_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "params.derive.us": "us",
    "dynamics.system_matrices.us": "us",
    "dynamics.check_stability.us": "us",
    "dynamics.check_stability.calls_per_point": "calls/point",
    "dynamics.eigvals_per_point": "calls/point",
    "dynamics.solve_per_point": "calls/point",
    "dynamics.solve_lyapunov.self_us": "us",
    "measures.from_matrix.us": "us",
    "measures.correlation_report.us": "us",
    "measures.symplectic_eigenvalues.calls_per_point": "calls/point",
    "measures.eigvals_per_point": "calls/point",
    "measures.det_per_point": "calls/point",
    "sweep.evaluate_point.us": "us",
    "sweep.run_sweep.self_us_per_point": "us/point",
    "sweep.emit_csv.us_per_row": "us/row",
    "cli.main.self_ms": "ms",
    "sweep.find_critical_xi.evals_per_search": "evals/search",
    "montecarlo.integrate.us_per_step": "us/step",
    "montecarlo.steps_to_verdict": "steps",
    "montecarlo.compare.us": "us",
    "trace.overhead_frac": "ratio",
}
SETUP_REPEATS = 9
TAIL_BEYOND = 10   # the tail percentile keeps this many samples above it


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "bisect", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import duomech, build the workload inputs and exit "
                             "(what setup_s times, in a fresh interpreter)")
    return parser.parse_args(argv)


# ------------------------------------------------------------ environment

def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; exported
    checkouts have no .git and report the source digest alone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "duomech").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ------------------------------------------------------------ measurement

def measure_setup(args) -> list[float]:
    """CPU time of fresh interpreters that import duomech and build the
    workload inputs, ``SETUP_REPEATS`` times, scaled to the reference host
    speed by calibrations of the sweep-point kernel around them."""
    from hostspeed import HostSpeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    speed = HostSpeed("point")
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        speed.tick()
    speed.finish()
    return [t * speed.scale(i) for i, t in enumerate(times)]


def run_passes(workload, check, budget_s: float, tracer=None):
    """Repeat passes while the next step is expected to end within half a
    step of ``budget_s`` of wall time; at least one step.  A step is one
    untraced pass, or with a ``tracer`` an untraced and a traced pass, so
    that drift in machine speed hits both alike.  Without a tracer the
    operations are interleaved with host-speed calibrations.  Each pass's
    output is checked into ``check`` as soon as it is timed.  Returns the
    untraced and the traced passes as (CPU seconds, wall seconds, result),
    and the ``HostSpeed`` (None with a tracer)."""
    from hostspeed import HostSpeed
    from spans import instrument
    from workloads import clock

    untraced, traced = [], []
    speed = None if tracer else HostSpeed(workload.calibration)
    start = time.perf_counter()
    while True:
        for passes in (untraced, traced) if tracer else (untraced,):
            t0, c0 = time.perf_counter(), clock()
            if passes is traced:
                with instrument(tracer):
                    result = workload.run_pass()
            elif speed:
                result = workload.run_pass(tick=speed.tick)
            else:
                result = workload.run_pass()
            passes.append((clock() - c0, time.perf_counter() - t0, result))
            check.add(workload.check(result))
            result.drop_outputs()
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(untraced)) > budget_s:
            if speed:
                speed.finish()
            return untraced, traced, speed


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it.  Below
    ``10 * TAIL_BEYOND`` samples that percentile would fall under p90 and is
    no tail, so the maximum stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 10 * TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n}"


def end_to_end_metrics(setup_times, passes, speed) -> tuple[dict, dict]:
    """Times scaled to the reference host speed (see ``hostspeed``); a
    pass's time is the sum of its operations' times."""
    scaled, i = [], 0
    for _, _, result in passes:
        scaled.append([s * speed.scale(i + k) for k, s in enumerate(result.op_seconds)])
        i += len(result.op_seconds)
    pass_times = [sum(ops) for ops in scaled]
    ops = [s for pass_ops in scaled for s in pass_ops]
    points = sum(result.points for _, _, result in passes)
    tail_value, tail_label = tail(ops)
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "points_per_s": points / sum(pass_times),
        "op_ms_p50": 1e3 * statistics.median(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = [c for c, _, _ in passes]
    walls = [wall for _, wall, _ in passes]
    samples = {"setup_runs": len(setup_times), "passes": len(passes), "ops": len(ops),
               "points": points,
               # the highest percentile with TAIL_BEYOND samples beyond it; on
               # a shared virtual machine it follows bursts of other guests'
               # load, so it is reported here and not gated
               "op_ms_tail": 1e3 * tail_value, "op_ms_tail_percentile": tail_label,
               "calibration_ms": [round(1e3 * c, 4) for c in speed.values],
               "pass_cpu_s_unscaled_median": statistics.median(raw),
               "pass_wall_s_median": statistics.median(walls),
               "cpu_share_of_wall": sum(raw) / sum(walls)}
    return values, samples


def per_layer_metrics(tracer, traced, untraced) -> dict:
    from spans import descendants_of, summarize

    summary = summarize(tracer)
    spans, linalg = summary["spans"], summary["linalg"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def mean_us(name, key="total_s"):
        n = calls(name)
        return 1e6 * spans[name][key] / n if n else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    points = calls("sweep.evaluate_point")
    rows = descendants_of(tracer, "sweep.run_sweep", "sweep.evaluate_point")
    searches = calls("sweep.find_critical_xi")
    verdicts = calls("montecarlo.integrate")
    steps = [r.outputs["steps"] for _, _, r in traced if "steps" in r.outputs]
    integrate_s = spans.get("montecarlo.integrate", {}).get("total_s", 0.0)
    traced_cpu = statistics.median(c for c, _, _ in traced)
    untraced_cpu = statistics.median(c for c, _, _ in untraced)
    return {
        "params.derive.us": mean_us("params.derive"),
        "dynamics.system_matrices.us": mean_us("dynamics.system_matrices"),
        "dynamics.check_stability.us": mean_us("dynamics.check_stability"),
        "dynamics.check_stability.calls_per_point": ratio(calls("dynamics.check_stability"), points),
        "dynamics.eigvals_per_point": ratio(linalg.get("dynamics", {}).get("eigvals", 0), points),
        "dynamics.solve_per_point": ratio(linalg.get("dynamics", {}).get("solve", 0), points),
        "dynamics.solve_lyapunov.self_us": mean_us("dynamics.solve_lyapunov", "self_s"),
        "measures.from_matrix.us": mean_us("measures.from_matrix"),
        "measures.correlation_report.us": mean_us("measures.correlation_report"),
        "measures.symplectic_eigenvalues.calls_per_point":
            ratio(calls("measures.symplectic_eigenvalues"), points),
        "measures.eigvals_per_point": ratio(linalg.get("measures", {}).get("eigvals", 0), points),
        "measures.det_per_point": ratio(linalg.get("measures", {}).get("det", 0), points),
        "sweep.evaluate_point.us": mean_us("sweep.evaluate_point"),
        "sweep.run_sweep.self_us_per_point":
            ratio(1e6 * spans.get("sweep.run_sweep", {}).get("self_s", 0.0), rows),
        "sweep.emit_csv.us_per_row":
            ratio(1e6 * spans.get("sweep.emit_csv", {}).get("total_s", 0.0), rows),
        "cli.main.self_ms": mean_us("cli.main", "self_s") / 1e3,
        "sweep.find_critical_xi.evals_per_search":
            ratio(descendants_of(tracer, "sweep.find_critical_xi", "sweep.evaluate_point"),
                  searches),
        "montecarlo.integrate.us_per_step": ratio(1e6 * integrate_s, sum(steps)),
        "montecarlo.steps_to_verdict": ratio(sum(steps), verdicts),
        "montecarlo.compare.us": mean_us("montecarlo.compare"),
        "trace.overhead_frac": traced_cpu / untraced_cpu - 1.0,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "duomech" / "__init__.py").is_file():
        print(f"error: no duomech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # fixed BLAS threading, set before numpy loads; child interpreters inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import workloads

    if Path(workloads.duomech.__file__).resolve().parent != ROOT / "src" / "duomech":
        print(f"error: duomech imported from {workloads.duomech.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        with workloads.scratch_dir() as scratch:
            workload_cls(args.seed, scratch)
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    with workloads.scratch_dir() as scratch:
        workload = workload_cls(args.seed, scratch)
        check = workloads.CheckResult()
        warm = workload.warm_up()
        if warm is not None:
            check.add(workload.check(warm))
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        untraced, traced, speed = run_passes(workload, check, args.seconds, tracer)

    if traced and traced[0][2].outputs != untraced[0][2].outputs:
        check.failed += 1
        check.problems.append("traced pass output differs from the untraced pass")

    if args.trace:
        metrics = per_layer_metrics(tracer, traced, untraced)
        units = PER_LAYER
        samples = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                   "spans": len(tracer.spans)}
    else:
        metrics, samples = end_to_end_metrics(setup_times, untraced, speed)
        units = END_TO_END
    for problem in check.problems:
        print(f"mismatch: {problem}", file=sys.stderr)
    for note in check.notes:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": samples, "notes": check.notes,
                      "environment": environment()}))
    correct = check.failed == 0 and check.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
