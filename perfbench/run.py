"""qfridge benchmark driver.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of one workload, each in a fresh worker process, until S
seconds are used, and prints every metric by name with its unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``wall_s`` (median seconds per pass), ``peak_rss_mb``
  (median peak resident set of the pass's process) and ``setup_s`` (median
  time from process start until imports are done and inputs are built);
* ``--trace 1``: the per-layer figures of ``tracer.LAYER_METRICS`` from
  traced passes, alternated with untraced passes to measure the tracing
  overhead.

The full report, with the environment block, is also written to
``perfbench/_out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
WORKLOADS = ("relax_search", "fridge_block", "big_register", "small_register")
MIN_SETUPS = 9
PASS_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60


def _read_sys(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(seed):
    """Python, numpy and BLAS, the CPU and memory limits, and the seed."""
    from worker import BLAS_THREADS  # imported first: it pins BLAS before numpy loads

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cgroup_cpu_max": _read_sys("/sys/fs/cgroup/cpu.max") or _read_sys("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
        "cgroup_memory_max": _read_sys("/sys/fs/cgroup/memory.max")
        or _read_sys("/sys/fs/cgroup/memory/memory.limit_in_bytes"),
        "seed": seed,
    }


def run_worker(workload, seed, trace=False, setup_only=False, spans=None):
    """Start a worker; return (setup seconds, pass summary or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RuntimeError(f"worker for {workload} did not start: {ready!r}")
        rest, _ = proc.communicate(timeout=SETUP_TIMEOUT_S if setup_only else PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Passes until the time budget is used; traced runs alternate an
    untraced and a traced pass."""
    deadline = time.perf_counter() + seconds
    setups, plain, traced = [], [], []
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"
    longest = 0.0
    while True:
        started = time.perf_counter()
        setup_s, summary = run_worker(workload, seed)
        setups.append(setup_s)
        plain.append(summary)
        if trace:
            setup_s, summary = run_worker(workload, seed, trace=True, spans=spans)
            setups.append(setup_s)
            traced.append(summary)
        longest = max(longest, time.perf_counter() - started)
        if time.perf_counter() + longest > deadline:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, setup_only=True)[0])
    return setups, plain, traced


def layer_metrics(plain, traced):
    """Median self times over traced passes; counts must repeat exactly."""
    from tracer import DETERMINISTIC_SUFFIXES, LAYER_METRICS

    figures = [p["layers"] for p in traced]
    mismatched = [
        k for k in set().union(*figures)
        if k.endswith(DETERMINISTIC_SUFFIXES) and len({f.get(k, 0) for f in figures}) > 1
    ]
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [f.get(name, 0) for f in figures]
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1)
    metrics["trace.overhead_frac"]["value"] = overhead
    return metrics, figures[0], mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description="qfridge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qfridge" / "__init__.py").is_file():
        print(f"error: no qfridge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    env = environment(args.seed)
    setups, plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = plain + traced
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    for op in failed:
        print(f"FAILED {op['op']}: {op['problems'][:5]}", file=sys.stderr)

    walls = [p["wall_s"] for p in plain]
    report = {
        "workload": args.workload,
        "env": env,
        "passes": len(plain),
        "pass_wall_s": walls,
        "setup_samples_s": setups,
        "op_seconds": {op["op"]: [o["seconds"] for p in plain for o in p["ops"] if o["op"] == op["op"]]
                       for op in plain[0]["ops"]},
        "ops_failed_frac": len(failed) / len(ops),
    }
    correct = not failed
    if args.trace:
        metrics, report["layers_all"], mismatched = layer_metrics(plain, traced)
        if mismatched:
            print(f"FAILED: counts differ between traced passes: {sorted(mismatched)}", file=sys.stderr)
            correct = False
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    report["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print("env " + json.dumps(env))
    print(f"{args.workload}: {len(plain)} passes, wall_s per pass {[round(w, 4) for w in walls]}, "
          f"ops_failed_frac {report['ops_failed_frac']:.4g} ({len(failed)}/{len(ops)})")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
