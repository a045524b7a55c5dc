"""Multivariate means of symmetric positive definite matrices.

Implements the two-variable weighted geometric mean, the perspective
construction that lifts a k-variable matrix map to k+1 variables, the
inductive geometric mean defined through that lift, a variant geometric
mean with a different updating rule, arithmetic and harmonic means, and
the Karcher mean, solved on the vanishing-log-sum equation by a plain
fixed-point update plus Anderson extrapolation, one residual per iterate.

All means act on ordered tuples (order matters for k >= 3), return
certified SPD matrices, and reduce to the classic two-variable geometric
mean at k = 2.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .kernel import (
    NotPositiveDefiniteError,
    ShapeError,
    SpdMatrix,
    SpdMeansError,
    SymMatrix,
    _eigh,
    _sym_part,
    power,
)

__all__ = [
    "MeanKind",
    "SpdTuple",
    "SolverConfig",
    "RegularMap",
    "ConvergenceError",
    "weighted_geometric_2",
    "perspective",
    "inductive_mean",
    "variant_mean",
    "arithmetic_mean",
    "harmonic_mean",
    "karcher_residual",
    "karcher_mean",
    "mean",
    "inductive_auxiliary",
    "variant_auxiliary",
]


class MeanKind(enum.Enum):
    """Selector for the mean constructions offered by :func:`mean`."""

    INDUCTIVE = "inductive"
    VARIANT = "variant"
    KARCHER = "karcher"
    ARITHMETIC = "arithmetic"
    HARMONIC = "harmonic"


class SpdTuple:
    """Ordered tuple of same-dimension SPD matrices.

    Order is significant: the means defined here are not permutation
    invariant for k >= 3.
    """

    __slots__ = ("items",)

    items: tuple[SpdMatrix, ...]

    def __init__(self, items: Sequence[SpdMatrix]) -> None:
        items = tuple(items)
        if not items:
            raise ValueError("an SpdTuple needs at least one matrix")
        for a in items:
            if not isinstance(a, SpdMatrix):
                raise TypeError(f"expected SpdMatrix, got {type(a).__name__}")
        d = items[0].dim
        for a in items[1:]:
            if a.dim != d:
                raise ShapeError(
                    f"all matrices must share a dimension: {a.dim} != {d}"
                )
        self.items = items

    @property
    def dim(self) -> int:
        return self.items[0].dim

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[SpdMatrix]:
        return iter(self.items)

    def __getitem__(self, i: int) -> SpdMatrix:
        return self.items[i]

    def __repr__(self) -> str:
        return f"SpdTuple(k={len(self.items)}, dim={self.dim})"


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the Karcher fixed-point solver.

    ``step`` scales the step size theta of the plain update
    ``X^1/2 exp(theta * step * S) X^1/2``; ``init`` picks the starting mean.
    """

    residual_tol: float = 1e-10
    max_iter: int = 500
    step: float = 1.0
    init: str = "arithmetic"

    def __post_init__(self) -> None:
        if not (self.residual_tol >= 1e-14):
            raise ValueError("residual_tol must be >= 1e-14")
        if not (1 <= self.max_iter <= 10_000):
            raise ValueError("max_iter must be in [1, 10000]")
        if not (0.0 < self.step <= 1.0):
            raise ValueError("step must be in (0, 1]")
        if self.init not in ("arithmetic", "inductive"):
            raise ValueError("init must be 'arithmetic' or 'inductive'")


@dataclass(frozen=True)
class RegularMap:
    """A k-variable matrix map, evaluated as ``fn(SpdTuple) -> SymMatrix``.

    Regularity (unitary invariance and the block-diagonal law) is a
    property of the supplied function; it is checked empirically by the
    harness, not enforced here.
    """

    arity: int
    fn: Callable[[SpdTuple], SymMatrix] = field(repr=False)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be >= 1")


class ConvergenceError(SpdMeansError):
    """Karcher solver ran out of iterations above the residual tolerance."""

    def __init__(self, message: str, last_iterate: np.ndarray,
                 residual_norm: float, iterations: int) -> None:
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        self.iterations = iterations


# ---------------------------------------------------------------------------
# array-level core: plain float64 ndarrays, exactly symmetric by construction
# ---------------------------------------------------------------------------

def _sandwich(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    # s symmetric: s @ a @ s, re-symmetrized against round-off drift
    return _sym_part(s @ a @ s)


def _sqrt_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square root and inverse square root from one eigendecomposition."""
    w, v = _eigh(a)
    if w[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"intermediate matrix lost positive definiteness: {w[0]:.3e}"
        )
    sw = np.sqrt(w)
    return _sym_part((v * sw) @ v.T), _sym_part((v / sw) @ v.T)


def _power_arr(a: np.ndarray, p: float) -> np.ndarray:
    w, v = _eigh(a)
    if w[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"intermediate matrix lost positive definiteness: {w[0]:.3e}"
        )
    return _sym_part((v * w**p) @ v.T)


def _exp_arr(a: np.ndarray) -> np.ndarray:
    w, v = _eigh(a)
    return _sym_part((v * np.exp(w)) @ v.T)


def _geometric_2_arr(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    sa, sai = _sqrt_pair(a)
    return _sandwich(sa, _power_arr(_sandwich(sai, b), t))


def _inductive_arr(arrs: list[np.ndarray]) -> np.ndarray:
    k = len(arrs)
    if k == 1:
        return arrs[0]
    bs, bis = _sqrt_pair(arrs[-1])
    inner = _inductive_arr([_sandwich(bis, a) for a in arrs[:-1]])
    return _sandwich(bs, _power_arr(inner, (k - 1) / k))


def _variant_arr(arrs: list[np.ndarray]) -> np.ndarray:
    k = len(arrs)
    if k == 1:
        return arrs[0]
    p = (k - 1) / k
    bs, bis = _sqrt_pair(arrs[-1])
    inner = _variant_arr([_power_arr(_sandwich(bis, a), p) for a in arrs[:-1]])
    return _sandwich(bs, inner)


def _arithmetic_arr(arrs: Sequence[np.ndarray]) -> np.ndarray:
    out = arrs[0].copy()
    for a in arrs[1:]:
        out += a
    return out / len(arrs)


def _harmonic_arr(arrs: Sequence[np.ndarray]) -> np.ndarray:
    return _power_arr(_arithmetic_arr([_power_arr(a, -1.0) for a in arrs]), -1.0)


def _karcher_state(x: np.ndarray, stack: np.ndarray):
    """Sqrt of the iterate, log-sum residual, its norm, and log spreads.

    The spread of ``X^-1/2 A_i X^-1/2`` is ``log w_max - log w_min``. One
    stacked eigendecomposition covers the whole tuple ``stack`` (k, n, n).
    """
    xs, xis = _sqrt_pair(x)
    c = xis @ stack @ xis
    w, v = _eigh((c + c.transpose(0, 2, 1)) * 0.5)
    if w[:, 0].min() <= 0.0:
        raise NotPositiveDefiniteError(
            "intermediate matrix lost positive definiteness: "
            f"{w[:, 0].min():.3e}"
        )
    lw = np.log(w)
    s = _sym_part(((v * lw[:, None, :]) @ v.transpose(0, 2, 1)).sum(axis=0))
    return xs, s, float(np.linalg.norm(s)), lw[:, -1] - lw[:, 0]


_ACCEL_DEPTH = 4


def _accel_extrapolate(hist_x: deque[np.ndarray], hist_f: deque[np.ndarray]):
    """Anderson-style extrapolation from recent fixed-point iterates.

    ``hist_x`` holds flattened iterates and ``hist_f`` the flattened
    displacements ``g(x) - x`` of the plain update at those iterates.
    Solves a small least-squares problem for the combination of recent
    steps that best cancels the displacement, and returns the flattened
    extrapolated iterate (or ``None`` with fewer than two history
    entries).
    """
    m = len(hist_f) - 1
    if m < 1:
        return None
    df = np.stack([hist_f[i + 1] - hist_f[i] for i in range(m)], axis=1)
    dg = np.stack(
        [
            (hist_x[i + 1] + hist_f[i + 1]) - (hist_x[i] + hist_f[i])
            for i in range(m)
        ],
        axis=1,
    )
    gamma, *_ = np.linalg.lstsq(df, hist_f[-1], rcond=None)
    return (hist_x[-1] + hist_f[-1]) - dg @ gamma


def _karcher_arr(arrs: Sequence[np.ndarray], cfg: SolverConfig):
    """Fixed-point solve of ``sum_i log(X^-1/2 A_i X^-1/2) = 0``.

    Plain update plus Anderson extrapolation, one residual per iterate.
    The plain update ``g = X^1/2 exp(theta * step * S) X^1/2`` (``S`` the
    residual at ``X``) feeds the Anderson history. The extrapolated iterate
    is kept when it is positive definite with a residual below the current
    one; otherwise ``g`` is taken. The kept iterate's residual is the one
    the next update needs. ``theta`` is ``1/k`` until a plain step raises
    the residual, then the Bini-Iannazzo step from the residual's spectra.
    The plain update alone contracts slowly on spread-out tuples; the
    extrapolation removes several error modes at once.
    """
    stack = np.stack(arrs)
    if cfg.init == "arithmetic":
        x = _arithmetic_arr(arrs)
    else:
        x = _inductive_arr(list(arrs))
    xs, s, r, spread = _karcher_state(x, stack)
    adaptive = False
    hist_x: deque[np.ndarray] = deque(maxlen=_ACCEL_DEPTH + 1)
    hist_f: deque[np.ndarray] = deque(maxlen=_ACCEL_DEPTH + 1)
    for _ in range(cfg.max_iter):
        if r <= cfg.residual_tol:
            return x, r
        if adaptive:
            # Bini-Iannazzo: 2 / sum_i L_i / tanh(L_i / 2) over the log
            # spreads; each term tends to 2 as L_i -> 0 (floored against 0/0).
            l = np.maximum(spread, 1e-8)
            theta = 2.0 / float(np.sum(l / np.tanh(l / 2)))
        else:
            theta = 1.0 / len(stack)
        g = _sandwich(xs, _exp_arr(s * (cfg.step * theta)))
        hist_x.append(x.ravel())
        hist_f.append(g.ravel() - x.ravel())
        accel = _accel_extrapolate(hist_x, hist_f)
        state = None
        if accel is not None and np.isfinite(accel).all():
            accel = _sym_part(accel.reshape(x.shape))
            try:
                state = _karcher_state(accel, stack)
            except SpdMeansError:
                pass
        if state is not None and state[2] < r:
            x = accel
        else:
            state = _karcher_state(g, stack)
            adaptive = adaptive or state[2] > r
            x = g
        xs, s, r, spread = state
    if r <= cfg.residual_tol:
        return x, r
    raise ConvergenceError(
        f"residual {r:.6e} above tolerance {cfg.residual_tol:.1e} "
        f"after {cfg.max_iter} iterations",
        last_iterate=x,
        residual_norm=r,
        iterations=cfg.max_iter,
    )


def _certify(arr: np.ndarray) -> SpdMatrix:
    return SpdMatrix(SymMatrix._wrap(arr))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def weighted_geometric_2(A: SpdMatrix, B: SpdMatrix, t: float) -> SpdMatrix:
    """Weighted two-variable geometric mean.

    Computes ``A^1/2 (A^-1/2 B A^-1/2)^t A^1/2`` for ``0 <= t <= 1``, so
    ``t = 0`` gives ``A`` and ``t = 1`` gives ``B``. The endpoints return
    the operand itself.
    """
    if A.dim != B.dim:
        raise ShapeError(f"dimension mismatch: {A.dim} != {B.dim}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t!r}")
    if t == 0.0:
        return A
    if t == 1.0:
        return B
    return _certify(_geometric_2_arr(A.entries, B.entries, t))


def perspective(F: RegularMap, args: SpdTuple, B: SpdMatrix) -> SymMatrix:
    """Perspective of a k-variable map, a k+1 variable map.

    Returns ``B^1/2 F(B^-1/2 A_1 B^-1/2, ..., B^-1/2 A_k B^-1/2) B^1/2``.
    The result is symmetric; it is SPD whenever ``F`` maps into SPD.
    """
    if F.arity != len(args):
        raise ValueError(f"map has arity {F.arity}, got {len(args)} arguments")
    if args.dim != B.dim:
        raise ShapeError(f"dimension mismatch: {args.dim} != {B.dim}")
    bs, bis = _sqrt_pair(B.entries)
    conj = SpdTuple([_certify(_sandwich(bis, a.entries)) for a in args])
    inner = F.fn(conj)
    return SymMatrix._wrap(_sandwich(bs, inner.entries))


def inductive_mean(t: SpdTuple) -> SpdMatrix:
    """Inductive geometric mean of an ordered SPD tuple.

    Defined by the recursion ``G_1(A) = A`` and

        ``G_k(A_1..A_k) = A_k^1/2 G_{k-1}(A_k^-1/2 A_i A_k^-1/2)^(k-1)/k A_k^1/2``

    which at k = 2 is the classic geometric mean and in general equals the
    weighted update ``G_k = G_{k-1} #_{1/k} A_k``.
    """
    if len(t) == 1:
        return t[0]
    return _certify(_inductive_arr([a.entries for a in t]))


def variant_mean(t: SpdTuple) -> SpdMatrix:
    """Variant geometric mean: the power moves inside the recursion.

    ``H_1(A) = A`` and

        ``H_k(A_1..A_k) = A_k^1/2 H_{k-1}((A_k^-1/2 A_i A_k^-1/2)^(k-1)/k) A_k^1/2``

    It agrees with :func:`inductive_mean` for k <= 2 and differs for
    k >= 3; it satisfies ``H_k(A, I, ..., I) = A^(1/k)``.
    """
    if len(t) == 1:
        return t[0]
    return _certify(_variant_arr([a.entries for a in t]))


def arithmetic_mean(t: SpdTuple) -> SpdMatrix:
    """Entrywise average of the tuple."""
    if len(t) == 1:
        return t[0]
    return _certify(_arithmetic_arr([a.entries for a in t]))


def harmonic_mean(t: SpdTuple) -> SpdMatrix:
    """Inverse of the arithmetic mean of the inverses."""
    if len(t) == 1:
        return t[0]
    return _certify(_harmonic_arr([a.entries for a in t]))


def karcher_residual(X: SpdMatrix, t: SpdTuple) -> SymMatrix:
    """Log-sum residual ``sum_i log(X^-1/2 A_i X^-1/2)``.

    The Karcher mean is the unique SPD matrix at which this vanishes.
    """
    if X.dim != t.dim:
        raise ShapeError(f"dimension mismatch: {X.dim} != {t.dim}")
    _, s, _, _ = _karcher_state(X.entries, np.stack([a.entries for a in t]))
    return SymMatrix._wrap(s)


def karcher_mean(t: SpdTuple, cfg: SolverConfig | None = None) -> SpdMatrix:
    """Karcher (Riemannian barycenter) mean of an SPD tuple.

    Solves ``sum_i log(X^-1/2 A_i X^-1/2) = 0`` by a plain fixed-point
    update plus Anderson extrapolation, one residual per iterate, starting
    from the arithmetic or inductive mean per ``cfg``.
    Raises :class:`ConvergenceError` if ``cfg.max_iter`` updates do not
    bring the Frobenius norm of the residual under ``cfg.residual_tol``.
    """
    if cfg is None:
        cfg = SolverConfig()
    if len(t) == 1:
        return t[0]
    x, _ = _karcher_arr([a.entries for a in t], cfg)
    return _certify(x)


_DISPATCH = {
    MeanKind.INDUCTIVE: inductive_mean,
    MeanKind.VARIANT: variant_mean,
    MeanKind.ARITHMETIC: arithmetic_mean,
    MeanKind.HARMONIC: harmonic_mean,
}


def mean(kind: MeanKind | str, t: SpdTuple,
         cfg: SolverConfig | None = None) -> SpdMatrix:
    """Dispatch to the mean named by ``kind``.

    ``cfg`` is honored by the Karcher solver and ignored by the closed-form
    kinds. For a single-element tuple every kind returns ``A_1`` itself.
    """
    kind = MeanKind(kind)
    if kind is MeanKind.KARCHER:
        return karcher_mean(t, cfg)
    return _DISPATCH[kind](t)


def inductive_auxiliary(k: int) -> RegularMap:
    """The k-variable map whose perspective is the k+1 variable inductive mean.

    ``F(A_1..A_k) = G_k(A_1..A_k)^(k/(k+1))``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def fn(t: SpdTuple) -> SymMatrix:
        return power(inductive_mean(t), k / (k + 1)).base

    return RegularMap(arity=k, fn=fn)


def variant_auxiliary(k: int) -> RegularMap:
    """The k-variable map whose perspective is the k+1 variable variant mean.

    ``F(A_1..A_k) = H_k(A_1^(k/(k+1)), ..., A_k^(k/(k+1)))``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = k / (k + 1)

    def fn(t: SpdTuple) -> SymMatrix:
        return variant_mean(SpdTuple([power(a, p) for a in t])).base

    return RegularMap(arity=k, fn=fn)
