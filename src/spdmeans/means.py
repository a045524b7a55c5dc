"""Multivariate means of symmetric positive definite matrices.

Implements the two-variable weighted geometric mean, the perspective
construction that lifts a k-variable matrix map to k+1 variables, the
inductive geometric mean defined through that lift and computed as the
fold ``G_j = G_{j-1} #_{1/j} A_j`` its updating condition gives, a variant
geometric mean with a different updating rule, arithmetic and harmonic
means, and the Karcher mean, solved on the vanishing-log-sum equation by
Newton steps: each Newton system is solved to a relative residual of 1e-6
by conjugate gradients in the eigenbases that each residual evaluation
already computes, one residual per update and a second when the
Bini-Iannazzo step replaces a Newton step that does not help; from that
first rejection, which marks the accuracy floor, Newton steps are halved.

They run on plain arrays through the core of :mod:`spdmeans.kernel`, and
read a tuple in one form only: its frozen ``(k, n, n)`` stack
``SpdTuple.stack``. A derived tuple (the conjugated arguments of a
perspective, the powered items of the variant's auxiliary map) is one
computed stack that :func:`spdmeans.kernel.certify` makes the tuple.
Where a formula is unchanged by rotating the square root of a matrix, the
congruence uses some factor ``A = F F^T`` in place of ``A^1/2``
(``F = A^1/2 Q`` with ``Q`` orthogonal): the two-variable mean
``A #_t B = F (F^-1 B F^-T)^t F^T`` and the last-item factor of each
variant level. The harmonic mean takes each of its inverses by one LU
solve (:func:`spdmeans.kernel.inv_arr`), with no factor and no
eigendecomposition. The geometric folds carry their factor: a step's
eigendecomposition ``F^-1 B F^-T = U diag(w) U^T`` gives the factor
``F U diag(w^(t/2))`` of ``A #_t B`` and its inverse, so the inductive
fold and the variant levels take one Cholesky factorization and one
inverse of that factor in all, and no factor is recomputed along the way.

All means act on ordered tuples (order matters for k >= 3), return
certified SPD matrices, and reduce to the classic two-variable geometric
mean at k = 2. Each kind is an array function of the stack, reached
through the one private ``_mean``: it raises ``TypeError`` for anything but
an ``SpdTuple``, returns a one-item tuple's item and certifies the rest.
That type gate, :func:`spdmeans.kernel.expect`, is the one the other public
operations and the kernel's use too, so a list or an array given for a
tuple or a matrix is a ``TypeError`` that names its type, and so is a
solver ``cfg`` that is not a :class:`SolverConfig`, a map that is not a
:class:`RegularMap`, or a map's result that is not a ``SymMatrix``; a
map's result of another dimension than its arguments' is a ``ShapeError``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernel import (
    ShapeError,
    SpdMatrix,
    SpdMeansError,
    SpdTuple,
    SymMatrix,
    certify,
    chol_pair,
    congruence_arr,
    eigh_pd,
    exp_arr,
    expect,
    inv_arr,
    is_integer,
    is_real,
    power,
    power_arr,
    real_or_nan,
    rebuild,
    sqrt_pair,
    sym_part,
)

__all__ = [
    "MeanKind",
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


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the Karcher solver.

    ``residual_tol`` bounds the Frobenius norm of the residual at the
    returned mean; ``max_iter`` caps the number of updates, each a Newton
    step or, where that step does not lower the residual, a Bini-Iannazzo
    step.
    """

    residual_tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self) -> None:
        tol = real_or_nan(self.residual_tol)
        if not 1e-14 <= tol < math.inf:
            raise ValueError(
                f"residual_tol must be finite and >= 1e-14, got {self.residual_tol!r}")
        object.__setattr__(self, "residual_tol", tol)
        if not is_integer(self.max_iter):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if not (1 <= self.max_iter <= 10_000):
            raise ValueError("max_iter must be in [1, 10000]")


@dataclass(frozen=True)
class RegularMap:
    """A k-variable matrix map ``fn(SpdTuple) -> SymMatrix``, evaluated by
    calling the map, which raises ``TypeError`` for any other result and
    ``ShapeError`` for a result whose dimension is not the arguments'.

    Regularity (unitary invariance and the block-diagonal law) is a
    property of the supplied function; it is checked empirically by the
    harness, not enforced here.
    """

    arity: int
    fn: Callable[[SpdTuple], SymMatrix] = field(repr=False)

    def __post_init__(self) -> None:
        if not is_integer(self.arity):
            raise ValueError(f"arity must be an integer, got {self.arity!r}")
        object.__setattr__(self, "arity", int(self.arity))
        if self.arity < 1:
            raise ValueError("arity must be >= 1")

    def __call__(self, t: SpdTuple) -> SymMatrix:
        out = self.fn(t)
        expect("RegularMap.fn", SymMatrix, out)
        if out.dim != t.dim:
            raise ShapeError(f"RegularMap.fn: result has dimension {out.dim}, "
                             f"arguments have {t.dim}")
        return out


class ConvergenceError(SpdMeansError):
    """Karcher solver ran out of iterations above the residual tolerance.

    ``last_iterate`` holds the best iterate seen, the one with the lowest
    residual, and ``residual_norm`` its residual; near the accuracy floor
    the fallback steps need not decrease the residual monotonically.
    """

    def __init__(self, message: str, last_iterate: np.ndarray,
                 residual_norm: float, iterations: int) -> None:
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        self.iterations = iterations


# ---------------------------------------------------------------------------
# array-level means: a tuple is one (k, n, n) stack
# ---------------------------------------------------------------------------

def _geometric_step(f: np.ndarray, fi: np.ndarray, a: np.ndarray, t: float):
    # G #_t A = F (F^-1 A F^-T)^t F^T for G = F F^T, carried as a factor:
    # with F^-1 A F^-T = U diag(w) U^T and h = w^(t/2), the new factor is
    # F U diag(h) and its inverse diag(1/h) U^T F^-1; nothing is refactored.
    w, u = eigh_pd(congruence_arr(fi.T, a))
    h = w ** (0.5 * t)
    return f @ (u * h), (u / h).T @ fi


def _inductive_arr(stack: np.ndarray) -> np.ndarray:
    # The fold G_j = G_{j-1} #_{1/j} A_j on one factor of G_j: a Cholesky
    # factorization of A_1, then one eigendecomposition per item.
    f, fi = chol_pair(stack[0])
    for j in range(1, len(stack)):
        f, fi = _geometric_step(f, fi, stack[j], 1.0 / (j + 1))
    return sym_part(f @ f.T)


def _variant_arr(stack: np.ndarray) -> np.ndarray:
    # H_m(B) = E H_{m-1}(C) E^T with B_m = E E^T and
    # C_i = (E^-1 B_i E^-T)^((m-1)/m); E = B_m^1/2 Q for an orthogonal Q,
    # which the power and H_{m-1} carry through. A loop, so a long tuple
    # cannot exhaust the interpreter's stack. Only A_k is factored: each
    # level's stacked eigendecomposition C_{m-1} = V diag(w^p) V^T gives
    # the next last-item factor V diag(w^(p/2)) and its inverse, and the
    # level factors multiply into one F, applied once. H_1(C_1) = C_1 is
    # the last factor's own product.
    f, ei = chol_pair(stack[-1])
    rest, m = stack[:-1], len(stack)
    while True:
        p = (m - 1) / m
        w, v = eigh_pd(congruence_arr(ei.T, rest))
        h = w[-1] ** (0.5 * p)
        f = f @ (v[-1] * h)
        if m == 2:
            return sym_part(f @ f.T)
        ei = (v[-1] / h).T
        rest, m = rebuild(v[:-1], w[:-1] ** p), m - 1


def _arithmetic_arr(stack: np.ndarray) -> np.ndarray:
    # Summed, then divided by k. Where the sum overflows though the average
    # is finite, the items are first scaled by 2^-m with 2^m >= k, exact in
    # the normal range, so the result is finite wherever the mean is.
    k = len(stack)
    with np.errstate(over="ignore"):
        total = stack.sum(axis=0)
    if np.isfinite(total).all():
        return total / k
    scale = 2.0 ** -(k - 1).bit_length()
    return (stack * scale).sum(axis=0) / (k * scale)


def _harmonic_arr(stack: np.ndarray) -> np.ndarray:
    return inv_arr(_arithmetic_arr(inv_arr(stack)))


def _karcher_state(x: np.ndarray, stack: np.ndarray):
    """Sqrt of the iterate, log-sum residual, its norm, and the spectra.

    One stacked eigendecomposition ``X^-1/2 A_i X^-1/2 = V_i diag(w_i)
    V_i^T`` covers the whole tuple ``stack`` (k, n, n); the state keeps
    ``log w`` and ``V``, which the Newton operator and the Bini-Iannazzo
    step read. The root is the symmetric one; see
    :func:`karcher_residual` for why.
    """
    xs, xis = sqrt_pair(x)
    w, v = eigh_pd(congruence_arr(xis, stack))
    lw = np.log(w)
    # a sum of exactly symmetric matrices is exactly symmetric
    s = rebuild(v, lw).sum(axis=0)
    return xs, s, float(np.linalg.norm(s)), lw, v


def _karcher_jacobian(lw: np.ndarray, v: np.ndarray) -> Callable:
    """The Newton operator ``J`` of the residual, from its spectra.

    The residual at ``X^1/2 exp(H) X^1/2`` is ``S - J[H]`` to first order
    (in a frame rotated by ``I + O(H)``), with
    ``J[H] = sum_i V_i (C_i o V_i^T H V_i) V_i^T``. With
    ``L = log w_a - log w_b``, the weight ``C_i[a, b] = (L/2) coth(L/2)``
    is ``L / (w_a - w_b)``, the divided difference of ``log``, times
    ``(w_a + w_b) / 2`` from the congruence. Every weight is at least 1, so
    ``J >= k I`` on symmetric matrices.
    """
    half = 0.5 * (lw[:, :, None] - lw[:, None, :])
    # the series 1 + x^2/3 where x / tanh(x) loses digits or divides 0 by 0
    small = np.abs(half) < 1e-4
    c = np.where(small, 1.0 + half * half / 3.0,
                 half / np.tanh(np.where(small, 1.0, half)))
    vt = v.swapaxes(-1, -2)
    return lambda h: (v @ (c * (vt @ h @ v)) @ vt).sum(axis=0)


# CG's relative residual at each Newton step, and its iteration cap. A
# residual state costs k + 2 eigendecompositions and a CG iteration none, so
# each Newton system is solved almost exactly. J's condition number kappa is
# at most the mean over the tuple of (L/2) coth(L/2) at its log spread, about
# 14 at cond 1e6; the CG bound 2 sqrt(kappa) ((sqrt(kappa) - 1) /
# (sqrt(kappa) + 1))^m on the relative residual reaches 1e-6 by m = 29
# (at most 11 seen per step on the bench's library tuples).
_CG_RTOL = 1e-6
_CG_MAX = 50


def _newton_step(s: np.ndarray, r: float, lw: np.ndarray, v: np.ndarray):
    """Newton direction ``H`` with ``J[H] ~ S``, by conjugate gradients.

    CG on symmetric matrices under the Frobenius product, from ``H = 0``,
    stopped at the relative residual ``_CG_RTOL``, so that every update up
    to the accuracy floor is a full Newton step, or after ``_CG_MAX``
    iterations: matmuls only, no eigendecomposition.
    """
    jac = _karcher_jacobian(lw, v)
    h = np.zeros_like(s)
    res, p, rr = s, s, r * r
    stop = (_CG_RTOL * r) ** 2
    for _ in range(_CG_MAX):
        q = jac(p)
        alpha = rr / float(np.vdot(p, q))
        h = h + alpha * p
        res = res - alpha * q
        rr, rr_old = float(np.vdot(res, res)), rr
        if rr <= stop:
            break
        p = res + (rr / rr_old) * p
    return sym_part(h)


def _karcher_arr(stack: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Solve ``sum_i log(X^-1/2 A_i X^-1/2) = 0`` by inexact Newton steps.

    Returns the iterate alone, the first with a residual norm at most
    ``cfg.residual_tol``. Starts from the arithmetic mean. Each update
    tries the Newton step ``X^1/2 exp(H) X^1/2`` with ``H`` from
    :func:`_newton_step`, which reuses the spectra of the residual just
    computed. The step is kept when its state is positive definite with a
    residual below the current one; otherwise the Bini-Iannazzo step
    ``X^1/2 exp(theta S) X^1/2``, with ``theta`` from the residual's log
    spreads, is taken, at the cost of a second residual. So an update costs
    one residual, two when the Newton step is rejected, which happens
    mostly at the accuracy floor.

    A rejection marks the floor, where the computed residual is rounding
    noise: a full Newton step from there cancels the noise of one reading
    and lands where the next reading holds the noise of two. So every later
    Newton step is halved, which averages the noise instead of chasing it
    and makes a reading under the tolerance more likely at a floor near it.
    """
    x = _arithmetic_arr(stack)
    xs, s, r, lw, v = _karcher_state(x, stack)
    best_x, best_r = x, r
    scale = 1.0  # of the Newton step: 0.5 from the first rejection on
    for _ in range(cfg.max_iter):
        if r <= cfg.residual_tol:
            return x
        trial = congruence_arr(xs, exp_arr(scale * _newton_step(s, r, lw, v)))
        try:
            state = _karcher_state(trial, stack)
        except SpdMeansError:
            state = None
        if state is None or not state[2] < r:
            scale = 0.5
            # Bini-Iannazzo: 2 / sum_i L_i / tanh(L_i / 2) over the log
            # spreads; each term tends to 2 as L_i -> 0 (floored against 0/0).
            l = np.maximum(lw[:, -1] - lw[:, 0], 1e-8)
            theta = 2.0 / float(np.sum(l / np.tanh(l / 2)))
            trial = congruence_arr(xs, exp_arr(s * theta))
            state = _karcher_state(trial, stack)
        x = trial
        xs, s, r, lw, v = state
        if r < best_r:
            best_x, best_r = x, r
    if r <= cfg.residual_tol:
        return x
    raise ConvergenceError(
        f"residual {best_r:.6e} above tolerance {cfg.residual_tol:.1e} "
        f"after {cfg.max_iter} iterations",
        last_iterate=best_x,
        residual_norm=best_r,
        iterations=cfg.max_iter,
    )


def _mean(arr_fn: Callable[..., np.ndarray], t: SpdTuple, *args) -> SpdMatrix:
    """The one path from a tuple to its mean ``arr_fn(t.stack, *args)``."""
    expect("mean", SpdTuple, t)
    if len(t) == 1:
        return t[0]
    return certify(arr_fn(t.stack, *args)[None])[0]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def weighted_geometric_2(A: SpdMatrix, B: SpdMatrix, t: float) -> SpdMatrix:
    """Weighted two-variable geometric mean.

    Computes ``A^1/2 (A^-1/2 B A^-1/2)^t A^1/2`` for ``0 <= t <= 1``, so
    ``t = 0`` gives ``A`` and ``t = 1`` gives ``B``. The endpoints return
    the operand itself. Evaluated as ``L (L^-1 B L^-T)^t L^T`` with
    ``A = L L^T``, which is the same matrix since the power commutes with
    the rotation ``Q = A^-1/2 L``: one Cholesky factorization, one inverse
    of that factor and one eigendecomposition. Against a 50-digit reference
    its relative max-norm error stays within ``32 * kappa * eps``, ``kappa``
    the condition number of ``A^-1/2 B A^-1/2`` (``tests/test_oracle.py``).
    """
    expect("weighted_geometric_2", SpdMatrix, A, B)
    if A.dim != B.dim:
        raise ShapeError(f"dimension mismatch: {A.dim} != {B.dim}")
    if not is_real(t) or not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t!r}")
    t = float(t)
    if t == 0.0:
        return A
    if t == 1.0:
        return B
    f, _ = _geometric_step(*chol_pair(A.entries), B.entries, t)
    return certify(sym_part(f @ f.T)[None])[0]


def perspective(F: RegularMap, args: SpdTuple, B: SpdMatrix) -> SymMatrix:
    """Perspective of a k-variable map, a k+1 variable map.

    Returns ``B^1/2 F(B^-1/2 A_1 B^-1/2, ..., B^-1/2 A_k B^-1/2) B^1/2``.
    The result is symmetric; it is SPD whenever ``F`` maps into SPD. It
    uses the symmetric root of ``B``, not a Cholesky factor: a Cholesky
    factor equals the root only up to a rotation, and a user's ``F`` need
    not be unitarily invariant.
    """
    expect("perspective", RegularMap, F)
    expect("perspective", SpdTuple, args)
    expect("perspective", SpdMatrix, B)
    if F.arity != len(args):
        raise ValueError(f"map has arity {F.arity}, got {len(args)} arguments")
    if args.dim != B.dim:
        raise ShapeError(f"dimension mismatch: {args.dim} != {B.dim}")
    bs, bis = sqrt_pair(B.entries)
    conj = certify(congruence_arr(bis, args.stack))
    return SymMatrix(congruence_arr(bs, F(conj).entries))


def inductive_mean(t: SpdTuple) -> SpdMatrix:
    """Inductive geometric mean of an ordered SPD tuple.

    Defined by the recursion ``G_1(A) = A`` and

        ``G_k(A_1..A_k) = A_k^1/2 G_{k-1}(A_k^-1/2 A_i A_k^-1/2)^(k-1)/k A_k^1/2``

    which at k = 2 is the classic geometric mean. The recursion is the
    unique solution of the updating condition ``G_k = G_{k-1} #_{1/k} A_k``,
    and that fold is how the mean is computed, on a factor ``G_j = F F^T``
    that each step's eigendecomposition updates: one Cholesky factorization
    of ``A_1``, one inverse of that factor and one eigendecomposition per
    item after the first, O(k) in all. Against a 50-digit reference its
    relative max-norm error stays within ``32 * kappa * eps``, ``kappa`` the
    largest condition number of ``G_{j-1}^-1/2 A_j G_{j-1}^-1/2`` over the
    fold's steps, which can reach the square of the items' condition
    number (``tests/test_oracle.py``).
    """
    return _mean(_inductive_arr, t)


def variant_mean(t: SpdTuple) -> SpdMatrix:
    """Variant geometric mean: the power moves inside the recursion.

    ``H_1(A) = A`` and

        ``H_k(A_1..A_k) = A_k^1/2 H_{k-1}((A_k^-1/2 A_i A_k^-1/2)^(k-1)/k) A_k^1/2``

    It agrees with :func:`inductive_mean` for k <= 2 and differs for
    k >= 3; it satisfies ``H_k(A, I, ..., I) = A^(1/k)``.

    Each level j is one stacked congruence by a factor of its last item
    and one stacked eigendecomposition of the j - 1 items before it. Only
    ``A_k`` is factored by Cholesky; the eigendecomposition of the item
    that comes last at the next level gives that level's factor, and the
    level factors multiply into one. So the mean costs k(k-1)/2
    eigendecompositions plus one Cholesky factorization and one inverse,
    O(k^2): at dim 3, k 200 that is 19900 eigendecompositions, against 199
    for the inductive mean. Against a 50-digit reference its relative
    max-norm error stays within ``32 * kappa * eps``, ``kappa`` the largest
    condition number of a congruence that a level raises to its power
    (``tests/test_oracle.py``).
    """
    return _mean(_variant_arr, t)


def arithmetic_mean(t: SpdTuple) -> SpdMatrix:
    """Entrywise average of the tuple."""
    return _mean(_arithmetic_arr, t)


def harmonic_mean(t: SpdTuple) -> SpdMatrix:
    """Inverse of the arithmetic mean of the inverses.

    Each inverse is one LU solve, exactly symmetrized, two stacked solves in
    all; no eigendecomposition until the result is certified. Against a
    50-digit reference its relative max-norm error stays within
    ``32 * kappa * eps``, ``kappa`` the largest condition number of an item
    or of the mean of the inverses (``tests/test_oracle.py``).
    """
    return _mean(_harmonic_arr, t)


def karcher_residual(X: SpdMatrix, t: SpdTuple) -> SymMatrix:
    """Log-sum residual ``sum_i log(X^-1/2 A_i X^-1/2)``.

    The Karcher mean is the unique SPD matrix at which this vanishes. It
    takes the symmetric root ``X^-1/2``, not a Cholesky factor: the log-sum
    is defined in that basis (a Cholesky factor returns it rotated), and
    this function and the solver share one computation, so a solve that
    stopped below its tolerance reads back the very residual it stopped on.
    """
    expect("karcher_residual", SpdMatrix, X)
    expect("karcher_residual", SpdTuple, t)
    if X.dim != t.dim:
        raise ShapeError(f"dimension mismatch: {X.dim} != {t.dim}")
    s = _karcher_state(X.entries, t.stack)[1]
    return SymMatrix(s)


def karcher_mean(t: SpdTuple, cfg: SolverConfig | None = None) -> SpdMatrix:
    """Karcher (Riemannian barycenter) mean of an SPD tuple.

    Solves ``sum_i log(X^-1/2 A_i X^-1/2) = 0`` by inexact Newton steps,
    starting from the arithmetic mean: each Newton system is solved to a
    relative residual of 1e-6 by conjugate gradients in the eigenbases of
    the residual's own eigendecomposition, so an update costs one residual,
    two when a Bini-Iannazzo step replaces a Newton step that does not
    lower it. From that first rejection on, Newton steps are halved.
    Raises :class:`ConvergenceError` if ``cfg.max_iter`` updates do not
    bring the Frobenius norm of the residual under ``cfg.residual_tol``.

    The objective is geodesically k-strongly convex, so against a 50-digit
    reference ``X*`` the returned ``X`` stays within the Riemannian distance
    ``d = ||log(X^-1/2 X* X^-1/2)||_F <= ||S(X)||_F / k + cond * eps``,
    ``S(X)`` its :func:`karcher_residual` and ``cond`` a bound on the items'
    condition numbers (``tests/test_oracle.py``).
    """
    cfg = SolverConfig() if cfg is None else cfg
    expect("karcher_mean", SolverConfig, cfg)
    return _mean(_karcher_arr, t, cfg)


_DISPATCH = {
    MeanKind.INDUCTIVE: inductive_mean,
    MeanKind.VARIANT: variant_mean,
    MeanKind.ARITHMETIC: arithmetic_mean,
    MeanKind.HARMONIC: harmonic_mean,
}


def mean(kind: MeanKind | str, t: SpdTuple,
         cfg: SolverConfig | None = None) -> SpdMatrix:
    """Dispatch to the mean named by ``kind``.

    ``cfg``, ``None`` or a :class:`SolverConfig` (else ``TypeError``), is
    honored by the Karcher solver and ignored by the closed-form kinds.
    Every kind goes through its public function to ``_mean``, so it raises
    ``TypeError`` for anything but an ``SpdTuple``, returns the item
    ``t[0]`` of a single-element tuple and otherwise the certified mean.
    """
    kind = MeanKind(kind)
    if cfg is not None:
        expect("mean", SolverConfig, cfg)
    if kind is MeanKind.KARCHER:
        return karcher_mean(t, cfg)
    return _DISPATCH[kind](t)


def inductive_auxiliary(k: int) -> RegularMap:
    """The k-variable map whose perspective is the k+1 variable inductive mean.

    ``F(A_1..A_k) = G_k(A_1..A_k)^(k/(k+1))``.
    """
    def fn(t: SpdTuple) -> SymMatrix:
        return power(inductive_mean(t), k / (k + 1))

    return RegularMap(arity=k, fn=fn)


def variant_auxiliary(k: int) -> RegularMap:
    """The k-variable map whose perspective is the k+1 variable variant mean.

    ``F(A_1..A_k) = H_k(A_1^(k/(k+1)), ..., A_k^(k/(k+1)))``.
    """
    def fn(t: SpdTuple) -> SymMatrix:
        return variant_mean(certify(power_arr(t.stack, k / (k + 1))))

    return RegularMap(arity=k, fn=fn)
