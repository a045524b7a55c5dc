"""Timing loop and metric assembly.

Imported by run.py only after the BLAS thread variables are pinned, because
importing this module imports numpy.
"""

from __future__ import annotations

import contextlib
import resource
import sys
import time
import traceback

import numpy as np

from tracer import EIGH_FLOPS_PER_N3


class PassResult:
    """Durations of whole passes over the op mix, per pass and per op."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.rows: list[list[float]] = []   # seconds per op per pass
        self.attempted = 0
        self.failed = 0

    @property
    def passes(self) -> int:
        return len(self.rows)

    def times(self) -> np.ndarray:
        """Seconds per op, one row per pass."""
        return np.array(self.rows)

    def total_s(self) -> float:
        """Timed seconds over all passes."""
        return float(self.times().sum())

    def pass_s(self) -> np.ndarray:
        """Timed seconds of each pass."""
        return self.times().sum(axis=1)

    def group_s(self, group: str) -> float:
        """Timed seconds per pass spent in ops of ``group``."""
        cols = [i for i, op in enumerate(self.ops) if op.group == group]
        return float(self.times()[:, cols].sum()) / self.passes


def run_pass(res: PassResult, gate_ctx=contextlib.nullcontext) -> None:
    """Run one pass of ``res.ops`` and append its durations to ``res``.

    Each op is timed alone; its gate runs after the clock stops, inside
    ``gate_ctx`` (the tracer's pause when tracing). An op that raises or fails
    its gate counts as failed; its duration (up to the raise) is kept, so
    every op has one duration per pass.
    """
    row = []
    for op in res.ops:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            row.append(time.perf_counter() - t0)
            res.failed += 1
            print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        row.append(time.perf_counter() - t0)
        try:
            with gate_ctx():
                ok = op.gate(out)
        except Exception:
            print(f"gate {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            ok = False
        if not ok:
            res.failed += 1
            print(f"op {op.label} failed its correctness gate", file=sys.stderr)
    res.rows.append(row)


def run_passes(res: PassResult, until: float) -> None:
    """Run whole passes into ``res`` until ``time.perf_counter()`` reaches
    ``until`` (at least one pass)."""
    run_pass(res)
    while time.perf_counter() < until:
        run_pass(res)


def run_traced(ops, seconds: float, pkg, tracer) -> tuple[PassResult, PassResult]:
    """Alternate untraced and traced passes until ``seconds`` have elapsed.

    Alternating pass by pass exposes both sides to the same load on a shared
    host, so their ratio is the tracing overhead and not a drift of the host.
    """
    base, traced = PassResult(ops), PassResult(ops)
    deadline = time.perf_counter() + seconds
    while traced.passes == 0 or time.perf_counter() < deadline:
        run_pass(base)
        with tracer.installed(pkg):
            run_pass(traced, tracer.paused)
    return base, traced


def hd_quantile(x: np.ndarray, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of the
    order statistics (Biometrika 69, 1982).

    Where the op mix has a gap in cost near the quantile, a single order
    statistic jumps across the gap when a few ops trade places between seeds;
    this estimate moves smoothly. The Beta density is integrated on a grid of
    at most about 4e5 points, which keeps its memory small for long runs.
    """
    x = np.sort(x)
    n = x.size
    steps = max(2, 400_000 // n)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = (np.arange(steps * n) + 0.5) / (steps * n)
    logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ x)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(res: PassResult, setup_s: float, kinds) -> tuple[dict, dict]:
    """End-to-end metrics over every timed repetition of every op.

    Each pass runs every op of the mix once, so each op weighs the same in
    the quantiles and the per-kind means. The times are the ones observed,
    stalls included; an op that failed counts with the time it took, and
    ``correct`` is false then. The peak RSS is read before any statistic is
    computed, so it is the workload's own.
    """
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ms = res.times() * 1e3
    samples = ms.ravel()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric((res.attempted - res.failed) / res.total_s(), "1/s"),
        "op_ms.p50": metric(hd_quantile(samples, 0.5), "ms"),
        "op_ms.p90": metric(hd_quantile(samples, 0.9), "ms"),
        "op_ms.p99": metric(hd_quantile(samples, 0.99), "ms"),
        "pass_ratio": metric((res.attempted - res.failed) / res.attempted, "ratio"),
    }
    per_kind = {}
    for kind in kinds:
        cols = [i for i, op in enumerate(res.ops) if op.kind == kind]
        seen = ms[:, cols]
        metrics[f"{kind}_ms"] = metric(seen.mean(), "ms")
        per_kind[kind] = {"ops_per_pass": len(cols), "n": int(seen.size),
                          "p50_ms": float(np.median(seen)), "max_ms": float(seen.max()),
                          "max_op": res.ops[cols[int(seen.max(axis=0).argmax())]].label}
    metrics["peak_rss_mb"] = metric(rss_kb / 1024.0, "MB")
    return metrics, {"op_ms_samples": int(samples.size), "per_kind": per_kind}


def per_layer(base: PassResult, traced: PassResult, counts, kinds, checks) -> dict:
    """Per-layer metrics per pass of the mix, from the traced passes.

    Counts repeat exactly between runs with the same seed, because every pass
    runs the same ops on the same inputs. ``trace.overhead`` is the median
    traced pass time over the median untraced one.
    """
    p = traced.passes
    total_s = traced.total_s()

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "kernel.eigh.calls": metric(c("kernel.eigh.calls") / p, "count"),
        "kernel.eigh.s": metric(c("kernel.eigh.s") / p, "s"),
        "kernel.eigh.share": metric(ratio(c("kernel.eigh.s"), total_s), "ratio"),
        "kernel.eigh.mean_n": metric(
            ratio(c("kernel.eigh.n_sum"), c("kernel.eigh.calls")), "dim"),
        "kernel.eigh.flops_computed": metric(
            sum(f * (c(key) // p) for key, f in EIGH_FLOPS_PER_N3.items()), "flop"),
        "kernel.certify.calls": metric(c("kernel.certify.calls") / p, "count"),
        "kernel.certify.s": metric(c("kernel.certify.s") / p, "s"),
    }
    for kind in kinds:
        name = f"means.{kind}"
        m[f"{name}.calls"] = metric(c(f"{name}.calls") / p, "count")
        m[f"{name}.s"] = metric(c(f"{name}.s") / p, "s")
        m[f"{name}.self_s"] = metric(
            (c(f"{name}.s") - c(f"{name}.eigh_inside_s")) / p, "s")
    m["means.karcher.eigh_per_solve"] = metric(
        ratio(c("means.karcher.eigh_calls_inside"), c("means.karcher.calls")), "count")
    m["means.karcher.fail"] = metric(c("means.karcher.fail") / p, "count")
    m["harness.gen.s"] = metric(c("harness.gen.s") / p, "s")
    harness_s = 0.0
    for name in checks:
        s = traced.group_s(name)
        harness_s += s
        m[f"harness.check.{name}.s"] = metric(s, "s")
    m["harness.mean_share"] = metric(ratio(c("means.outer_s") / p, harness_s), "ratio")
    for key, unit in (("cli.parse.s", "s"), ("cli.render.s", "s"), ("cli.solve.s", "s"),
                      ("cli.bytes_in", "B"), ("cli.bytes_out", "B")):
        m[key] = metric(c(key) / p, unit)
    m["trace.overhead"] = metric(
        np.median(traced.pass_s()) / np.median(base.pass_s()), "ratio")
    return m
