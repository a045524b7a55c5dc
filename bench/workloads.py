"""The benchmark's three workloads: inputs, operations and correctness gates.

Each workload function takes the freshly imported ``spdmeans`` package, the
workload seed and the size preset, makes its inputs, warms up, and returns
the list of operations one pass of the workload runs. A pass is the same
fixed mix every time, so counts per pass repeat exactly.

- ``harness_small``: ``run_suite`` for every (check, kind) pair on the
  acceptance-test shapes, the Tier-1 traffic. Many small eighs, where
  Python overhead dominates: the workload batching should speed up.
- ``library_large``: direct ``mean`` calls on large and long tuples. LAPACK
  bound: the guard where batching must not slow things down, and where the
  inductive fold and the Karcher eigh count show directly.
- ``cli_mean``: in-process ``spdmeans.cli.main(["mean", ...])`` on JSON and
  CSV files, the parse -> certify -> solve -> render path. The only
  workload a change to the CLI should move.

Inputs of ``library_large`` and ``cli_mean`` come from this file's own
generator, not from ``spdmeans.gen_tuple``, so a change to the harness
generator cannot silently change them.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

KINDS = ("inductive", "variant", "karcher", "harmonic", "arithmetic")
GEOMETRIC = ("inductive", "variant", "karcher")

# Acceptance-test grid (tests/test_acceptance.py GRID): dims 2-8, k 2-6.
HARNESS_SHAPES = {"full": [(2, 3), (3, 2), (4, 4), (5, 6), (6, 5), (7, 2), (8, 3)],
                  "toy": [(2, 2), (3, 3)]}
HARNESS_TRIALS = 1
HARNESS_COND = 100.0
# Kinds each check applies to, as documented in spdmeans.harness; None marks
# the kind-independent checks. The gate fails loudly if the harness disagrees.
HARNESS_CHECKS = {
    "monotone": KINDS,
    "concavity": KINDS,
    "congruence": KINDS,
    "self_dual": KINDS,
    "determinant": GEOMETRIC,
    "hga": GEOMETRIC,
    "updating": ("inductive", "variant"),
    "block_regularity": KINDS,
    "jensen_contraction": ("inductive", "variant"),
    "jensen_pair": ("inductive", "variant"),
    "commuting": KINDS,
    "two_var": None,
    "karcher_residual": None,
}
# Kind-independent checks are charged to the kind whose cost they measure;
# two_var runs all three geometric kinds and is charged to none.
HARNESS_CHECK_KIND = {"two_var": None, "karcher_residual": "karcher"}

# (dim, k, cond). Cond 1e6 appears at dims 16 and 32 twice each, so the
# Karcher iteration count, which varies with the draw, averages over four
# tuples. At dim 64 and cond 1e6 the Karcher solver stops just above its
# 1e-10 tolerance (ConvergenceError, 8 draws of 8), so dim 64 runs at cond
# 1e2 only. A pass stays near one second, so that each op repeats 20-40
# times in a 30 s run.
LIBRARY_CASES = {
    "full": [(64, 16, 1e2), (64, 8, 1e2), (32, 16, 1e2), (16, 32, 1e2),
             (32, 8, 1e6), (32, 8, 1e6), (16, 16, 1e6), (16, 16, 1e6),
             (4, 64, 1e2)],
    "toy": [(8, 4, 1e2), (8, 4, 1e6), (3, 12, 1e2)],
}
# (dim, k), each written as JSON and as CSV.
CLI_CASES = {"full": [(8, 6), (16, 8), (32, 8), (64, 8)], "toy": [(4, 3)]}
CLI_COND = 100.0
FORMATS = ("json", "csv")

# Gate tolerances, scaled by the tuple's condition bound where rounding
# error grows with it. The determinant identity is compared in log space and
# allowed 1e-8 at cond 1e2, the harness tolerance on the acceptance grid. At
# cond 1e6 the inductive mean misses the identity by up to 1.3e-5 and the
# variant mean by up to 4e-7 (Karcher: 4e-11), which the 1e-4 allowed there
# still passes. Closed forms are compared in the relative max-norm; the
# harmonic oracle inverts through LU.
DET_TOL_PER_COND = 1e-10
ARITH_TOL = 1e-12
HARMONIC_TOL_PER_COND = 1e-13


@dataclass
class Op:
    """One timed operation and the gate its output must pass."""

    label: str
    kind: str | None        # mean kind the op is charged to
    group: str              # harness check name, or the workload name
    run: Callable[[], object]
    gate: Callable[[object], bool]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def spd_stack(rng: np.random.Generator, n: int, k: int, cond: float) -> np.ndarray:
    """k exactly symmetric SPD matrices: Haar basis times log-uniform spectrum.

    Eigenvalues lie in ``[cond^-1/2, cond^1/2]``, so each condition number is
    at most ``cond``.
    """
    q, r = np.linalg.qr(rng.standard_normal((k, n, n)))
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2) >= 0.0, 1.0, -1.0)[:, None, :]
    lam = cond ** rng.uniform(-0.5, 0.5, (k, n))
    a = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
    return (a + a.transpose(0, 2, 1)) * 0.5


def _case_rng(seed: int, *case) -> np.random.Generator:
    return np.random.default_rng([seed, *(int(c) for c in case)])


def _render(arrs: np.ndarray, fmt: str) -> str:
    """Matrix file text in the CLI's JSON or CSV layout, floats by repr."""
    if fmt == "json":
        return json.dumps({"dim": arrs.shape[-1], "matrices": arrs.tolist()}) + "\n"
    lines = [f"dim,{arrs.shape[-1]}"]
    for i, m in enumerate(arrs):
        if i:
            lines.append("")
        lines.extend(",".join(repr(float(x)) for x in row) for row in m)
    return "\n".join(lines) + "\n"


def _reparse(text: str, fmt: str) -> np.ndarray:
    """Independent reader for a one-matrix CLI output file."""
    if fmt == "json":
        return np.array(json.loads(text)["matrices"][0], dtype=float)
    rows = [ln for ln in text.splitlines()[1:] if ln.strip()]
    return np.array([[float(x) for x in ln.split(",")] for ln in rows])


# ---------------------------------------------------------------------------
# gates (run outside the timed region, with tracing paused)
# ---------------------------------------------------------------------------

def _relerr(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max()))


class MeanGate:
    """Checks a mean of one fixed tuple against kind-specific oracles.

    - geometric kinds: ``log det M = mean_i log det A_i`` (LU log-determinants);
    - Karcher: ``|| sum_i log(X^-1/2 A_i X^-1/2) ||_F`` at or below the solver
      tolerance, evaluated by the library's ``karcher_residual``;
    - arithmetic and harmonic: the numpy closed forms.
    Oracles are computed on first use and cached.
    """

    def __init__(self, pkg, tup, arrs: np.ndarray, cond: float) -> None:
        self.pkg, self.tup, self.arrs, self.cond = pkg, tup, arrs, cond
        self._cache: dict[str, object] = {}

    def _oracle(self, key: str, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def __call__(self, kind: str, result) -> bool:
        x = np.asarray(result.entries)
        n = self.arrs.shape[-1]
        if x.shape != (n, n) or not np.isfinite(x).all() or not np.array_equal(x, x.T):
            return False
        if kind in GEOMETRIC:
            target = self._oracle(
                "logdet", lambda: float(np.linalg.slogdet(self.arrs)[1].mean()))
            sign, logdet = np.linalg.slogdet(x)
            if sign <= 0 or abs(math.expm1(logdet - target)) > DET_TOL_PER_COND * self.cond:
                return False
        if kind == "karcher":
            tol = self.pkg.SolverConfig().residual_tol
            res = self.pkg.karcher_residual(result, self.tup).entries
            return float(np.linalg.norm(res)) <= tol
        if kind == "arithmetic":
            expected = self._oracle("arithmetic", lambda: self.arrs.mean(axis=0))
            return _relerr(x, expected) <= ARITH_TOL
        if kind == "harmonic":
            expected = self._oracle("harmonic", lambda: np.linalg.inv(
                np.linalg.inv(self.arrs).mean(axis=0)))
            return _relerr(x, expected) <= HARMONIC_TOL_PER_COND * self.cond
        return True


# ---------------------------------------------------------------------------
# workload functions
# ---------------------------------------------------------------------------

def harness_small(pkg, seed: int, size: str, workdir: Path) -> list[Op]:
    if set(HARNESS_CHECKS) != set(pkg.CHECK_NAMES):
        raise RuntimeError(f"harness checks changed: {pkg.CHECK_NAMES}")
    ops: list[Op] = []
    for dim, k in HARNESS_SHAPES[size]:
        for name, kinds in HARNESS_CHECKS.items():
            for kind in (kinds or (None,)):
                spec_seed = int(np.random.SeedSequence(
                    [seed, dim, k, len(ops)]).generate_state(1, np.uint64)[0])
                spec = pkg.GenSpec(dim=dim, k=k, seed=spec_seed,
                                   cond_bound=HARNESS_COND)
                expected = name if kind is None else f"{name}[{kind}]"
                ops.append(Op(
                    label=f"{expected} dim={dim} k={k}",
                    kind=kind if kind is not None else HARNESS_CHECK_KIND[name],
                    group=name,
                    run=_suite_call(pkg, name, kind, spec, HARNESS_TRIALS),
                    gate=_report_gate(expected, HARNESS_TRIALS),
                ))
    # Warm-up: every check once, one trial, at the first shape.
    first = HARNESS_SHAPES[size][0]
    spec = pkg.GenSpec(dim=first[0], k=first[1], seed=seed, cond_bound=HARNESS_COND)
    _warm_up(_suite_call(pkg, name, None if kinds is None else kinds[0], spec, 1)
             for name, kinds in HARNESS_CHECKS.items())
    return ops


def _warm_up(calls) -> None:
    """Call each once. A call that raises is left to the timed passes, which
    count it as failed, so a broken mean still yields a result line."""
    for call in calls:
        with contextlib.suppress(Exception):
            call()


def _suite_call(pkg, name, kind, spec, trials):
    kinds = None if kind is None else [kind]
    return lambda: pkg.run_suite([name], spec, trials=trials, tol=1e-8, kinds=kinds)


def _report_gate(expected: str, trials: int):
    def gate(reports) -> bool:
        return (len(reports) == 1 and reports[0].check_name == expected
                and reports[0].trials == trials and reports[0].passed)
    return gate


def library_large(pkg, seed: int, size: str, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    cases = LIBRARY_CASES[size]
    for i, (n, k, cond) in enumerate(cases):
        arrs = spd_stack(_case_rng(seed, i, n, k), n, k, cond)
        tup = pkg.SpdTuple([pkg.SpdMatrix(a) for a in arrs])
        gate = MeanGate(pkg, tup, arrs, cond)
        for kind in KINDS:
            ops.append(Op(
                label=f"{kind} dim={n} k={k} cond={cond:.0e} case={i}",
                kind=kind, group="library",
                run=(lambda kind=kind, tup=tup: pkg.mean(kind, tup)),
                gate=(lambda out, kind=kind, gate=gate: gate(kind, out)),
            ))
    # Warm-up: every kind once on the cheapest tuple.
    cheap = min(range(len(cases)), key=lambda j: cases[j][0] ** 3 * cases[j][1])
    _warm_up(op.run for op in ops[cheap * len(KINDS):(cheap + 1) * len(KINDS)])
    return ops


def cli_mean(pkg, seed: int, size: str, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    for i, (n, k) in enumerate(CLI_CASES[size]):
        arrs = spd_stack(_case_rng(seed, i, n, k), n, k, CLI_COND)
        tup = pkg.SpdTuple([pkg.SpdMatrix(a) for a in arrs])
        gate = MeanGate(pkg, tup, arrs, CLI_COND)
        for fmt in FORMATS:
            src = workdir / f"in_d{n}_k{k}.{fmt}"
            src.write_text(_render(arrs, fmt))
            for kind in KINDS:
                dst = workdir / f"out_{kind}_d{n}.{fmt}"
                argv = ["mean", "--kind", kind, "--input", str(src),
                        "--output", str(dst), "--format", fmt]
                ops.append(Op(
                    label=f"cli {kind} {fmt} dim={n} k={k}",
                    kind=kind, group="cli",
                    run=(lambda argv=argv: pkg.cli.main(argv)),
                    gate=_cli_gate(pkg, kind, tup, gate, dst, fmt),
                ))
    # Warm-up: every kind once on the smallest file of each format.
    _warm_up(op.run for op in ops[:len(KINDS) * len(FORMATS)])
    return ops


def _cli_gate(pkg, kind, tup, mean_gate: MeanGate, dst: Path, fmt: str):
    """Exit code 0, and the output reparses bit-exactly to the library result."""
    reference: list = []

    def gate(code) -> bool:
        if code != 0:
            return False
        if not reference:
            ref = pkg.mean(kind, tup)
            if not mean_gate(kind, ref):
                return False
            reference.append(np.asarray(ref.entries))
        return np.array_equal(_reparse(dst.read_text(), fmt), reference[0])
    return gate


WORKLOADS = {
    "harness_small": harness_small,
    "library_large": library_large,
    "cli_mean": cli_mean,
}
