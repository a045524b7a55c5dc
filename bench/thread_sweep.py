"""Diagnostic sweep of the BLAS thread setting on ``library_large``; not a gate.

    python3 bench/thread_sweep.py [--seed 1] [--seconds 20]

Runs ``bench/run.py --workload library_large`` three times, one process
after another, with the BLAS thread variables unset, set to 1 and set to 2,
and prints the p50 and max milliseconds per mean kind for each setting,
with the machine facts each run recorded. It documents the thread anomaly
noted in ROADMAP.md (inductive mean at dim 32, k 8: a rare call taking
~100x the median with the variables unset); it does not look for the
cause, and its numbers decide nothing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETTINGS = ("unset", "1", "2")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)

    sweep = {}
    for setting in SETTINGS:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", "library_large", "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--blas-threads", setting]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(f"threads={setting}: exit {out.returncode}\n{out.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        detail = json.loads(out.stdout.splitlines()[-2])["detail"]
        sweep[setting] = {"per_kind": detail["per_kind"], "machine": detail["machine"]}

    print(f"{'threads':>8} {'kind':>11} {'n':>5} {'p50_ms':>10} {'max_ms':>10}")
    for setting, run in sweep.items():
        for kind, s in run["per_kind"].items():
            print(f"{setting:>8} {kind:>11} {s['n']:5d} {s['p50_ms']:10.3f} {s['max_ms']:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
