"""Benchmark for spdmeans: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload library_large --seed 1 --seconds 30 --trace 0

It imports ``spdmeans`` from ``src/`` of the checkout it sits in, builds the
workload's inputs from ``--seed``, and runs whole passes of the workload's
fixed operation mix in one closed loop (one caller, one process, BLAS pinned
to one thread) until ``--seconds`` have elapsed. Every operation's output is
checked outside the timed region. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's details and the machine facts.

``--trace 0`` reports the end-to-end metrics over every observed repetition
of every op (see measure.end_to_end), with the set-up repeated through the
run. ``--trace 1`` alternates untraced passes with
passes whose layer boundaries are wrapped (see tracer.py), and reports the
per-layer metrics per traced pass of the mix, plus the tracing overhead:
traced over untraced time of the mix.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("harness_small", "library_large", "cli_mean")
SETUP_REPEATS = 10


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every input, for the smoke test")
    p.add_argument("--blas-threads", choices=("1", "2", "unset"), default="1",
                   help="BLAS thread setting; other than 1 only for the sweep")
    return p.parse_args(argv)


def pin_threads(value: str) -> None:
    """Set the BLAS thread variables; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        if value == "unset":
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(np) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def import_spdmeans():
    """Import spdmeans (and its CLI) afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "spdmeans" or m.startswith("spdmeans.")]:
        del sys.modules[name]
    pkg = importlib.import_module("spdmeans")
    importlib.import_module("spdmeans.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "spdmeans":
        raise RuntimeError(f"imported spdmeans from {pkg.__file__}, not {SRC}")
    return pkg


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(args.blas_threads)
    if not (SRC / "spdmeans" / "__init__.py").is_file():
        print(f"error: no spdmeans package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    from measure import PassResult, end_to_end, per_layer, run_passes, run_traced
    from tracer import Tracer
    from workloads import HARNESS_CHECKS, KINDS, WORKLOADS

    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up():
        """Import, input generation and warm-up: (seconds, package, ops)."""
        gc.collect()
        t0 = time.perf_counter()
        pkg = import_spdmeans()
        ops = WORKLOADS[args.workload](pkg, args.seed, args.size, workdir)
        return time.perf_counter() - t0, pkg, ops

    try:
        first_s, pkg, ops = set_up()
        setup_runs = [first_s]
        t_run = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            base, traced = run_traced(ops, args.seconds, pkg, tracer)
            metrics = per_layer(base, traced, tracer.counts, KINDS, HARNESS_CHECKS)
            attempted = base.attempted + traced.attempted
            failed = base.failed + traced.failed
            detail = {"passes_untraced": base.passes, "passes_traced": traced.passes,
                      "wall_per_pass_untraced_s": base.total_s() / base.passes,
                      "wall_per_pass_traced_s": traced.total_s() / traced.passes}
        else:
            # The set-up is repeated at even intervals through the run, so
            # its median sees the same load of a shared host as the ops do.
            # The ops of the first set-up are the ones timed throughout.
            res = PassResult(ops)
            for i in range(1, SETUP_REPEATS + 1):
                run_passes(res, t_run + args.seconds * i / SETUP_REPEATS)
                if i < SETUP_REPEATS:
                    setup_runs.append(set_up()[0])
            metrics, detail = end_to_end(res, statistics.median(setup_runs), KINDS)
            attempted, failed = res.attempted, res.failed
            detail.update({"passes": res.passes, "timed_s": res.total_s()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "ops_per_pass": len(ops),
        "setup_runs_s": setup_runs, "run_wall_s": time.perf_counter() - t_run,
        "machine": machine_facts(np),
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
