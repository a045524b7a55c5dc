"""Randomized property checks for the mean constructions.

Every check draws seeded SPD tuples, measures one metric per trial, and
reports the worst signed violation: the metric minus a finite tolerance
>= 0, so values <= 0 pass and a NaN fails. Failures carry a witness seed:
rerunning the same check with ``seed = witness_seed`` and ``trials = 1``
reproduces the failing trial exactly, because trial t of seed s is trial 0
of the derived seed ``(s + t * 0x9E3779B97F4A7C15) mod 2^64``.

Each drawn tuple is one stacked draw from per-item streams: item ``i``
has a Philox stream for its eigenvalues and one for its Haar basis, both
seeded from the seed and a hash of the item's tag (``item{i}/eigs``,
``item{i}/basis``), so an item's entries do not depend on the other items.
The k Gaussian squares then go through one QR, the kernel's
:func:`spdmeans.kernel.haar_arr`, and the whole tuple through one rebuild.
Like every module but the kernel, the harness calls no factorization of
its own.

Every tuple a check draws or derives (perturbed, mixed, conjugated,
inverted, extended, block-diagonal, Jensen-combined) is built as one
``(k, n, n)`` stack and certified by one :func:`spdmeans.kernel.certify`
call.

Loewner comparisons are scaled by the larger ``max|entry|`` of the
operands and equality comparisons use the relative max-norm, so neither
verdict depends on the scale of the matrices.

A check is written once, as its trial ``check_<name>(head, sub, *opts)``,
which returns the metric of one instance drawn from ``sub`` (a Loewner
gap, relative distance, determinant misfit or residual norm); only the
sweep subtracts ``tol``. ``@_check(kinds)`` makes it the public
``check_<name>(head, spec, trials=DEFAULT_TRIALS, tol=DEFAULT_TOL, *opts)``
and enters it in the suite. The head is one of:

- none, for ``two_var`` and ``karcher_residual``, swept under ``<name>``;
- a ``kind``, rejected with ``ValueError`` outside ``kinds`` and swept
  under ``<name>[kind]``;
- a :class:`RegularMap` ``F``, for the two Jensen checks: the public check
  requires ``F.arity == spec.k`` and sweeps under ``<name>``, and the suite
  runs it on the auxiliary map of the inductive and variant means, under
  ``<name>[kind]``.

A public check raises ``TypeError`` unless ``spec`` is a :class:`GenSpec`
and ``F`` a :class:`RegularMap`. A package error raised by a trial keeps its type and attributes, and its
message names the report and the trial seed.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from .kernel import (SpdMatrix, SpdMeansError, SpdTuple, certify, congruence_arr,
                     eigvalsh, expect, haar_arr, inv_arr, inverse, is_integer,
                     is_real, power_arr, real_or_nan, rebuild)
from .means import (ConvergenceError, MeanKind, RegularMap, arithmetic_mean,
                    harmonic_mean, inductive_auxiliary, inductive_mean,
                    karcher_mean, karcher_residual, mean, variant_auxiliary,
                    variant_mean, weighted_geometric_2)

__all__ = [
    "GenSpec",
    "CheckReport",
    "CHECK_NAMES",
    "STRUCTURES",
    "gen_spd",
    "gen_tuple",
    "check_monotone",
    "check_concavity",
    "check_congruence",
    "check_self_dual",
    "check_determinant",
    "check_hga",
    "check_updating",
    "check_block_regularity",
    "check_jensen_contraction",
    "check_jensen_pair",
    "check_commuting",
    "check_two_var",
    "check_karcher_residual",
    "iter_suite",
    "run_suite",
]

STRUCTURES = ("generic", "commuting", "block")

# The sweep's defaults, of every check, the suite and the CLI.
DEFAULT_TRIALS = 100
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class GenSpec:
    """Deterministic recipe for drawing SPD tuples.

    Eigenvalues are log-uniform in ``[1/sqrt(cond_bound), sqrt(cond_bound)]``,
    conjugated by a Haar-distributed orthogonal basis, so every draw has
    condition number at most ``cond_bound``. ``structure`` selects generic
    tuples, tuples sharing one eigenbasis (pairwise commuting), or
    block-diagonal tuples with a common split.
    """

    dim: int
    k: int
    seed: int
    cond_bound: float = 100.0
    structure: str = "generic"

    def __post_init__(self) -> None:
        for name in ("dim", "k", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (1 <= self.dim <= 64):
            raise ValueError("dim must be in [1, 64]")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not is_real(self.cond_bound) or not 1.0 <= self.cond_bound <= 1e6:
            raise ValueError("cond_bound must be in [1, 1e6]")
        object.__setattr__(self, "cond_bound", float(self.cond_bound))
        if self.structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}")
        if self.structure == "block" and self.dim < 2:
            raise ValueError("block structure needs dim >= 2")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: worst signed violation and failure count.

    ``worst_violation <= 0`` means every trial passed. ``witness_seed`` is
    set only when there were failures and reproduces the worst trial when
    used as the spec seed with a single trial.
    """

    check_name: str
    trials: int
    failures: int
    worst_violation: float
    witness_seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ---------------------------------------------------------------------------
# deterministic generation
# ---------------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF
_U32 = 0xFFFFFFFF


def _trial_seed(seed: int, trial: int) -> int:
    return (seed + trial * _GOLDEN) & _U64


def _stream(seed: int, purpose: str) -> np.random.Generator:
    """The Philox stream of ``SeedSequence([seed, tag])``, tag hashed from ``purpose``.

    NumPy turns each integer of that list into its little-endian uint32
    words, with no high zero words; handing it those words directly skips
    its per-integer Python conversion and gives the same stream.
    """
    tag = int.from_bytes(
        hashlib.blake2b(purpose.encode(), digest_size=8).digest(), "big"
    )
    words = []
    for x in (seed, tag):
        words.append(x & _U32)
        while x >> 32:
            x >>= 32
            words.append(x & _U32)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _eig_rows(seed: int, dim: int, cond: float, tags: Sequence[str]) -> np.ndarray:
    """Log-uniform eigenvalues in ``[cond^-1/2, cond^1/2]``, one row per tag."""
    u = np.stack([_stream(seed, f"{tag}/eigs").uniform(-1.0, 1.0, dim)
                  for tag in tags])
    return cond ** (u / 2.0)


def _spd_stack(seed: int, dim: int, cond: float, tags: Sequence[str]) -> np.ndarray:
    """Each tag's SPD entries, from its own streams, as one ``(k, n, n)`` stack."""
    normals = np.stack([_stream(seed, f"{tag}/basis").standard_normal((dim, dim))
                        for tag in tags])
    return rebuild(haar_arr(normals), _eig_rows(seed, dim, cond, tags))


def _gen_items(spec: GenSpec, prefix: str = "item") -> SpdTuple:
    tags = [f"{prefix}{i}" for i in range(spec.k)]
    return certify(_spd_stack(spec.seed, spec.dim, spec.cond_bound, tags))


def _commuting_parts(spec: GenSpec):
    """Shared basis, per-item eigenvalue rows, and the certified tuple."""
    q = haar_arr(_stream(spec.seed, "item0/basis").standard_normal((spec.dim, spec.dim)))
    lams = _eig_rows(spec.seed, spec.dim, spec.cond_bound,
                     [f"item{i}" for i in range(spec.k)])
    return q, lams, certify(rebuild(q, lams))


def _block_sizes(dim: int) -> tuple[int, int]:
    return (dim + 1) // 2, dim // 2


def _assemble_block(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Block-diagonal ``diag(x, y)``, member by member for stacks."""
    d1, d2 = x.shape[-1], y.shape[-1]
    out = np.zeros(x.shape[:-2] + (d1 + d2, d1 + d2))
    out[..., :d1, :d1] = x
    out[..., d1:, d1:] = y
    return out


def _block_parts(spec: GenSpec, d1: int, d2: int):
    """The two diagonal-block tuples and the certified block-diagonal tuple."""
    xs = _gen_items(replace(spec, dim=d1, structure="generic"), "xitem")
    ys = _gen_items(replace(spec, dim=d2, structure="generic"), "yitem")
    return xs, ys, certify(_assemble_block(xs.stack, ys.stack))


def gen_spd(spec: GenSpec) -> SpdMatrix:
    """One certified SPD draw (the first element of a generic :func:`gen_tuple`)."""
    expect("gen_spd", GenSpec, spec)
    return _gen_items(replace(spec, k=1))[0]


def gen_tuple(spec: GenSpec) -> SpdTuple:
    """Draw a deterministic SPD tuple with the requested structure."""
    expect("gen_tuple", GenSpec, spec)
    if spec.structure == "generic":
        return _gen_items(spec)
    if spec.structure == "commuting":
        return _commuting_parts(spec)[2]
    return _block_parts(spec, *_block_sizes(spec.dim))[2]


# ---------------------------------------------------------------------------
# violation metrics and the trial sweep
# ---------------------------------------------------------------------------

def _absmax(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def _loewner_violation(small: np.ndarray, large: np.ndarray) -> float:
    """Gap of ``small <= large`` in the Loewner order, ``<= 0`` when it holds.

    Minus the lowest eigenvalue of ``large - small``, relative to the larger
    max|entry| of the operands, so the verdict does not depend on their scale.
    """
    scale = max(_absmax(small), _absmax(large))
    if scale == 0.0:
        return 0.0
    return -float(eigvalsh(large - small)[0]) / scale


def _releq_violation(actual: np.ndarray, expected: np.ndarray) -> float:
    """Distance of ``actual`` from ``expected`` in the relative max-norm."""
    denom = max(_absmax(actual), _absmax(expected))
    if denom == 0.0:
        return 0.0
    return _absmax(actual - expected) / denom


def _sweep(name: str, spec: GenSpec, trials: int, tol: float,
           trial_fn: Callable[[GenSpec], float]) -> CheckReport:
    # Every check runs here, the one place tol is applied. A NaN or infinite
    # tol would pass every trial; a NaN violation fails and is the worst seen.
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    trials = int(trials)
    given, tol = tol, real_or_nan(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {given!r}")
    worst = -math.inf
    worst_seed = spec.seed
    failures = 0
    for t in range(trials):
        sub = replace(spec, seed=_trial_seed(spec.seed, t))
        try:
            v = trial_fn(sub) - tol
        except SpdMeansError as exc:
            # Same type and attributes; the message names the check and the
            # seed that reproduces this trial as trial 0.
            exc.args = (f"{name}: trial seed {sub.seed}: {exc}",)
            raise
        if not v <= worst and not math.isnan(worst):
            worst, worst_seed = v, sub.seed
        if not v <= 0.0:
            failures += 1
    return CheckReport(name, trials, failures, worst,
                       worst_seed if failures else None)


# ---------------------------------------------------------------------------
# checks: each is its trial, registered by @_check
# ---------------------------------------------------------------------------

_GEOMETRIC = (MeanKind.INDUCTIVE, MeanKind.VARIANT, MeanKind.KARCHER)
_ALL_KINDS = tuple(MeanKind)
# kind -> the k-variable map whose perspective is its k+1 variable mean
_AUXILIARY = {MeanKind.INDUCTIVE: inductive_auxiliary,
              MeanKind.VARIANT: variant_auxiliary}
_DUAL = {MeanKind.ARITHMETIC: MeanKind.HARMONIC,
         MeanKind.HARMONIC: MeanKind.ARITHMETIC}

# name -> (suite runner, its kinds or None if kind-independent), in
# definition order
_REGISTRY: dict[str, tuple[Callable, Collection[MeanKind] | None]] = {}

_ARG = inspect.Parameter.POSITIONAL_OR_KEYWORD
_SWEEP = [inspect.Parameter("spec", _ARG, annotation="GenSpec"),
          inspect.Parameter("trials", _ARG, default=DEFAULT_TRIALS, annotation="int"),
          inspect.Parameter("tol", _ARG, default=DEFAULT_TOL, annotation="float")]


def _check(kinds: Collection[MeanKind] | None) -> Callable:
    """Make the trial ``check_<name>`` the public check of that name.

    ``kinds`` sets the trial's first parameter, the head: none for ``None``,
    a ``kind`` gated by a tuple of kinds, or a map ``F`` of arity ``spec.k``
    for a dict ``kind -> auxiliary factory``, which the suite calls by kind.
    The trial's parameters after ``sub`` are options, passed to every trial.
    """
    def register(trial: Callable[..., float]) -> Callable[..., CheckReport]:
        name = trial.__name__.removeprefix("check_")
        params = list(inspect.signature(trial).parameters.values())
        head = ([] if kinds is None else params[:1] if isinstance(kinds, dict)
                else [params[0].replace(annotation="MeanKind | str")])
        signature = inspect.Signature(head + _SWEEP + params[len(head) + 1:],
                                      return_annotation="CheckReport")

        def sweep(label, lead, spec, trials, tol, *opts) -> CheckReport:
            return _sweep(label, spec, trials, tol,
                          lambda sub: trial(*lead, sub, *opts))

        @functools.wraps(trial)
        def check(*args, **kwargs) -> CheckReport:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            lead, (spec, *rest) = bound.args[:len(head)], bound.args[len(head):]
            expect(trial.__name__, GenSpec, spec)
            if not isinstance(kinds, tuple):
                if lead:
                    expect(trial.__name__, RegularMap, lead[0])
                    if lead[0].arity != spec.k:
                        raise ValueError(f"map arity {lead[0].arity} does not "
                                         f"match spec.k {spec.k}")
                return sweep(name, lead, spec, *rest)
            kind = MeanKind(lead[0])
            if kind not in kinds:
                raise ValueError(f"{name} applies to "
                                 f"{[k.value for k in kinds]}, not {kind.value!r}")
            return sweep(f"{name}[{kind.value}]", (kind,), spec, *rest)

        def by_kind(kind, spec, trials, tol) -> CheckReport:
            lead = kinds[kind](spec.k) if isinstance(kinds, dict) else kind
            return sweep(f"{name}[{kind.value}]", (lead,), spec, trials, tol)

        check.__signature__ = signature
        _REGISTRY[name] = (check if kinds is None else by_kind, kinds)
        return check

    return register


@_check(_ALL_KINDS)
def check_monotone(kind: MeanKind, sub: GenSpec) -> float:
    """Adding an SPD perturbation to every item never lowers the mean."""
    t = gen_tuple(sub)
    base = mean(kind, t).entries
    pert = _spd_stack(sub.seed, sub.dim, sub.cond_bound,
                      [f"pert{i}" for i in range(len(t))])
    scale = 0.1 * np.abs(t.stack).max(axis=(1, 2))
    bumped = certify(t.stack + scale[:, None, None] * pert)
    return _loewner_violation(base, mean(kind, bumped).entries)


@_check(_ALL_KINDS)
def check_concavity(kind: MeanKind, sub: GenSpec) -> float:
    """Means are jointly concave: mixing tuples beats mixing results."""
    ta = gen_tuple(sub)
    tb = _gen_items(sub, "second")
    lam = float(_stream(sub.seed, "lambda").uniform(0.0, 1.0))
    combo = lam * mean(kind, ta).entries + (1.0 - lam) * mean(kind, tb).entries
    mixed = certify(lam * ta.stack + (1.0 - lam) * tb.stack)
    return _loewner_violation(combo, mean(kind, mixed).entries)


@_check(_ALL_KINDS)
def check_congruence(kind: MeanKind, sub: GenSpec) -> float:
    """Invariance under congruence by an invertible matrix."""
    t = gen_tuple(sub)
    rng = _stream(sub.seed, "congr")
    # Random invertible factor U diag(s) V with singular values in
    # [0.1, 10], so cond(C) <= 100 by construction. An unconstrained
    # Gaussian draw occasionally has condition numbers large enough that
    # merely rounding C^T A C to float64 perturbs the exact invariance
    # beyond testable tolerances.
    s = 10.0 ** rng.uniform(-1.0, 1.0, sub.dim)
    u, v = haar_arr(rng.standard_normal((2, sub.dim, sub.dim)))
    c = (u * s) @ v
    m0 = mean(kind, t).entries
    conj = certify(congruence_arr(c, t.stack))
    return _releq_violation(mean(kind, conj).entries, congruence_arr(c, m0))


@_check(_ALL_KINDS)
def check_self_dual(kind: MeanKind, sub: GenSpec) -> float:
    """Duality under inversion.

    Geometric kinds are self-dual: ``M(A^-1) = M(A)^-1``. Arithmetic and
    harmonic are each other's duals, so the check compares against the
    partner kind.
    """
    t = gen_tuple(sub)
    lhs = mean(kind, certify(inv_arr(t.stack)))
    rhs = inverse(mean(_DUAL.get(kind, kind), t))
    return _releq_violation(lhs.entries, rhs.entries)


@_check(_GEOMETRIC)
def check_determinant(kind: MeanKind, sub: GenSpec) -> float:
    """Geometric means multiply determinants: det M = (prod det A_i)^(1/k).

    Compared in log space through the eigenvalues, so large dimensions do
    not overflow.
    """
    t = gen_tuple(sub)
    ld_target = float(np.log(eigvalsh(t.stack)).sum()) / len(t)
    ld_actual = float(np.log(eigvalsh(mean(kind, t).entries)).sum())
    return abs(math.expm1(ld_actual - ld_target))


@_check(_GEOMETRIC)
def check_hga(kind: MeanKind, sub: GenSpec) -> float:
    """Harmonic <= geometric <= arithmetic, in the Loewner order."""
    t = gen_tuple(sub)
    g = mean(kind, t).entries
    return max(_loewner_violation(harmonic_mean(t).entries, g),
               _loewner_violation(g, arithmetic_mean(t).entries))


@_check(tuple(_AUXILIARY))
def check_updating(kind: MeanKind, sub: GenSpec) -> float:
    """Appending the identity contracts to the previous mean.

    Inductive: ``G_{k+1}(A_1..A_k, I) = G_k(A_1..A_k)^(k/(k+1))``.
    Variant:   ``H_{k+1}(A_1..A_k, I) = H_k(A_1^(k/(k+1)), ...)``.
    Each right side is the kind's auxiliary map, whose perspective at
    ``I`` is the mean of the extended tuple.
    """
    t = gen_tuple(sub)
    ext = certify(np.concatenate([t.stack, np.eye(sub.dim)[None]]))
    rhs = _AUXILIARY[kind](sub.k)(t)
    return _releq_violation(mean(kind, ext).entries, rhs.entries)


@_check(_ALL_KINDS)
def check_block_regularity(kind: MeanKind, sub: GenSpec,
                           block_sizes: tuple[int, int] | None = None) -> float:
    """Means act blockwise on block-diagonal tuples.

    ``block_sizes`` overrides the default even split of ``spec.dim``.
    """
    sizes = _block_sizes(sub.dim) if block_sizes is None else block_sizes
    if not (isinstance(sizes, (tuple, list)) and len(sizes) == 2
            and all(is_integer(d) and d >= 1 for d in sizes) and sum(sizes) == sub.dim):
        raise ValueError(f"block_sizes must be two integers >= 1 summing to dim "
                         f"{sub.dim}, got {sizes!r}")
    d1, d2 = map(int, sizes)
    xs, ys, full = _block_parts(sub, d1, d2)
    oracle = _assemble_block(mean(kind, xs).entries, mean(kind, ys).entries)
    return _releq_violation(mean(kind, full).entries, oracle)


def _contraction(sub: GenSpec) -> np.ndarray:
    """Random square matrix rescaled to top singular value 0.9."""
    g = _stream(sub.seed, "contraction").standard_normal((sub.dim, sub.dim))
    smax = math.sqrt(float(eigvalsh(g.T @ g)[-1]))
    return g * (0.9 / smax)


@_check(_AUXILIARY)
def check_jensen_contraction(F: RegularMap, sub: GenSpec) -> float:
    """Jensen inequality for a concave map under a contraction.

    For ``C`` with top singular value 0.9:
    ``C^T F(A_1..A_k) C <= F(C^T A_1 C, ..., C^T A_k C)``.
    """
    t = gen_tuple(sub)
    c = _contraction(sub)
    lhs = congruence_arr(c, F(t).entries)
    conj = certify(congruence_arr(c, t.stack))
    return _loewner_violation(lhs, F(conj).entries)


@_check(_AUXILIARY)
def check_jensen_pair(F: RegularMap, sub: GenSpec) -> float:
    """Two-term Jensen inequality with ``X = C`` and ``Y = (I - C^T C)^1/2``.

    ``X^T X + Y^T Y = I`` exactly in this construction, and concavity gives
    ``X^T F(A) X + Y^T F(B) Y <= F(X^T A_i X + Y^T B_i Y)``.
    """
    ta = gen_tuple(sub)
    tb = _gen_items(sub, "second")
    x = _contraction(sub)
    y = power_arr(np.eye(sub.dim) - x.T @ x, 0.5)
    lhs = (congruence_arr(x, F(ta).entries)
           + congruence_arr(y, F(tb).entries))
    combo = certify(congruence_arr(x, ta.stack) + congruence_arr(y, tb.stack))
    return _loewner_violation(lhs, F(combo).entries)


@_check(_ALL_KINDS)
def check_commuting(kind: MeanKind, sub: GenSpec) -> float:
    """On commuting tuples every mean reduces to its scalar counterpart.

    Items share an eigenbasis; the oracle applies the scalar mean to each
    eigenvalue row and rebuilds in that basis.
    """
    q, lams, items = _commuting_parts(sub)
    m = mean(kind, items).entries
    oracle = rebuild(q, scalar_mean(kind, lams))
    return _releq_violation(m, oracle)


def scalar_mean(kind: MeanKind | str, rows: np.ndarray) -> np.ndarray:
    """Scalar mean across the first axis: the commuting-case oracle."""
    kind = MeanKind(kind)
    if kind in _GEOMETRIC:
        return np.exp(np.log(rows).mean(axis=0))
    if kind is MeanKind.ARITHMETIC:
        return rows.mean(axis=0)
    return 1.0 / (1.0 / rows).mean(axis=0)


@_check(None)
def check_two_var(sub: GenSpec) -> float:
    """All geometric kinds agree with the closed form at k = 2."""
    pair = _gen_items(replace(sub, k=2))
    closed = weighted_geometric_2(pair[0], pair[1], 0.5).entries
    return max(_releq_violation(geo(pair).entries, closed)
               for geo in (inductive_mean, variant_mean, karcher_mean))


@_check(None)
def check_karcher_residual(sub: GenSpec) -> float:
    """The Karcher solution's log-sum residual is numerically zero."""
    t = gen_tuple(sub)
    try:
        x = karcher_mean(t)
    except ConvergenceError as exc:
        return exc.residual_norm
    return float(np.linalg.norm(karcher_residual(x, t).entries))


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

CHECK_NAMES = tuple(_REGISTRY)


def iter_suite(suite: Sequence[str], spec: GenSpec, trials: int = DEFAULT_TRIALS,
               tol: float = DEFAULT_TOL,
               kinds: Sequence[MeanKind | str] | None = None
               ) -> Iterator[CheckReport]:
    """Run the named checks, yielding each report as its check finishes.

    Kind-dependent checks are fanned over ``kinds`` and skipped for kinds
    they do not apply to (e.g. the determinant identity for the arithmetic
    mean), so restricting ``kinds`` narrows the suite. Unknown check names
    raise ``ValueError``, and a ``spec`` that is not a :class:`GenSpec` or a
    bare ``str`` for ``suite`` or ``kinds`` raises ``TypeError``, before any
    check runs.
    """
    expect("iter_suite", GenSpec, spec)
    for what, names in (("suite", suite), ("kinds", kinds)):
        if isinstance(names, str):
            raise TypeError(f"iter_suite: {what} must be a sequence of names, "
                            f"got str {names!r}")
    unknown = [n for n in suite if n not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown check name(s) {unknown}; "
                         f"available: {list(CHECK_NAMES)}")
    want = _ALL_KINDS if kinds is None else tuple(MeanKind(k) for k in kinds)
    for name in suite:
        fn, supported = _REGISTRY[name]
        if supported is None:
            yield fn(spec, trials, tol)
        else:
            for kd in want:
                if kd in supported:
                    yield fn(kd, spec, trials, tol)


def run_suite(suite: Sequence[str], spec: GenSpec, trials: int = DEFAULT_TRIALS,
              tol: float = DEFAULT_TOL,
              kinds: Sequence[MeanKind | str] | None = None) -> list[CheckReport]:
    """Run the named checks and return their reports; see :func:`iter_suite`."""
    return list(iter_suite(suite, spec, trials, tol, kinds))
