"""One pass of one workload in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]
       [--spans FILE] [--write-reference]

Prints ``READY`` once imports are done and the inputs are built, then runs
every operation of the workload once and prints one JSON line with the
per-operation times and check results, the process's peak RSS and, when
traced, the per-layer figures.  BLAS is pinned to ``BLAS_THREADS`` threads
before numpy is imported, so timings and reference outputs do not depend on
the caller's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1  # steadier timings on a shared box, and <= nproc on any machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (needs the paths and BLAS pin above)

WORK_DIR = Path(__file__).resolve().parent / "_work"


def run_pass(ops, tracer=None, reference=None):
    """Run each op once, timing it and checking its outputs afterwards."""
    results = []
    for op in ops:
        root = tracer.open(f"op.{op.name}") if tracer else None
        start = time.perf_counter()
        try:
            outputs, error = op.run(), None
        except Exception:  # an operation that raises counts as failed
            outputs, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        problems = [error] if error else workloads.check(op, outputs, reference)
        results.append({"op": op.name, "seconds": seconds, "problems": problems, "outputs": outputs})
    return results


def _dump_reference(doc):
    """JSON with one line per output, so a changed value shows as one line."""
    ops = []
    for op, outputs in doc.items():
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in outputs.items())
        ops.append(f" {json.dumps(op)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(ops) + "\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced pass's spans (JSON lines)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this pass's outputs as the reference (default seed only)")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        parser.error("references are stored for the default seed only")

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        reference = None
        if args.seed == workloads.DEFAULT_SEED and not args.write_reference:
            reference = workloads.load_reference(args.workload)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        results = run_pass(ops, tracer, reference)
        if tracer:
            tracer.uninstall()
            if args.spans:
                tracer.write_spans(args.spans)
        if args.write_reference:
            failed = [r for r in results if r["problems"]]
            if failed:
                raise SystemExit(f"not storing a reference with failing ops: {failed}")
            path = workloads.REFERENCE_DIR / f"{args.workload}.json"
            path.write_text(_dump_reference({r["op"]: r["outputs"] for r in results}))
        summary = {
            "ops": [{k: r[k] for k in ("op", "seconds", "problems")} for r in results],
            "wall_s": sum(r["seconds"] for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": tracer.metrics() if tracer else None,
        }
        print(json.dumps(summary), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
