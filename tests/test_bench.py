"""The benchmark's own output gates, run once per op at its toy size."""

from pathlib import Path

import pytest

import spdmeans
import spdmeans.cli  # noqa: F401  (the cli workload calls spdmeans.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["harness_small", "library_large", "cli_mean"])
def test_every_bench_op_passes_its_gate(workload, monkeypatch, tmp_path):
    # an op that fails its gate is a failed op in the bench's pass ratio
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    assert workload in WORKLOADS
    ops = WORKLOADS[workload](spdmeans, 7, "toy", tmp_path)
    assert ops
    failed = [op.label for op in ops if not op.gate(op.run())]
    assert not failed, failed
