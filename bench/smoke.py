"""Smoke test for the benchmark itself.

    python3 bench/smoke.py

Runs every workload named in BENCHMARK.json at toy size, untraced and
traced, and checks that each run exits 0, prints a last line with exactly
the result keys, reports every named metric with its unit, and has no failed
operation (fail ratio 0). Then checks that the benchmark exits non-zero
without printing a result when the checkout holds no ``src/``. Exits 1 on
the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "toy"]
    out = run(cmd, ROOT)
    where = f"{workload} trace={trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}\n{out.stderr[-2000:]}"]
    result = json.loads(out.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} value {m.get('value')!r}")
    return problems


def check_without_source(spec: dict) -> list[str]:
    """The benchmark must refuse to run in a directory without src/."""
    bare = ROOT / ".bench_work" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                     "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["without src/: the benchmark exited 0 or printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_without_source(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
            print(f"{w['name']} trace={trace} done", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
