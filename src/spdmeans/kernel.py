"""Functional calculus for dense real symmetric matrices.

Value types certify their invariants once at construction (exact symmetry,
finite entries, positive definiteness) and are immutable afterwards. An
``SpdMatrix`` is a ``SymMatrix`` that passed certification; it stores its
entries alone. An ``SpdTuple`` is an ordered tuple of them held as one
read-only ``(k, n, n)`` stack that its items view, the one form the means
read.

Every matrix function goes through the package's one array-level spectral
core, functions on float64 arrays of shape ``(..., n, n)``, one matrix or a
stack alike: one LAPACK ``eigh`` (checking positive definiteness over the
whole stack where the function needs it), then ``f(A) = V f(w) V^T``
rebuilt by matmul, exactly symmetric. Powers, logs, exponentials,
square-root pairs and congruences are built on it, and the public functions
wrap the value types around it, behind one type gate, :func:`expect`. The
core also holds the package's other factorizations, one primitive each:
the one Cholesky factor, :func:`chol_pair`, for congruences that need
some factor ``A = L L^T`` rather than the symmetric root; the one
inverse, :func:`inv_arr`, one LU solve per member, exactly symmetrized,
about a quarter of an eigendecomposition's cost with the same
``cond * eps`` forward error; and the one QR, :func:`haar_arr`, behind the
harness's Haar bases. So this module is the package's one LAPACK
boundary: no other module uses ``numpy.linalg`` but for ``norm``. The
positive-definiteness rule is written once, over a stack, with one floor:
each member's smallest eigenvalue above its :func:`default_spd_tol`. One
stacked Cholesky factorization of the members, shifted below their floors
by a stated bound on the rounding errors, certifies them without their
eigenvalues; where it fails, one stacked eigenvalue solve decides.
Certification only decides: it keeps no eigenvalue. ``SpdMatrix`` applies
it to one matrix and :func:`certify` to a freshly computed stack, returning
that stack's ``SpdTuple`` with no copy. ``_held``, the only caller of
``__new__``, builds every tuple and its items; every other computed result
is a checked ``SymMatrix`` or ``certify``'s.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "SYMMETRY_RTOL",
    "SpdMeansError",
    "ShapeError",
    "SymmetryError",
    "DomainError",
    "NotPositiveDefiniteError",
    "EigenSolverError",
    "SymMatrix",
    "SpdMatrix",
    "SpdTuple",
    "default_spd_tol",
    "spectral_apply",
    "power",
    "sqrt",
    "inv_sqrt",
    "inverse",
    "log_m",
    "exp_m",
    "congruence",
]

# The symmetry gate is relative: asymmetry beyond round-off is an input
# error and is rejected, never repaired.
SYMMETRY_RTOL = 1e-12


class SpdMeansError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SpdMeansError):
    """Operand is not square, is empty, or dimensions do not match."""


class SymmetryError(SpdMeansError):
    """Input is too far from symmetric to be accepted."""


class DomainError(SpdMeansError):
    """Entries are not finite, or a scalar function left its domain."""


class NotPositiveDefiniteError(SpdMeansError):
    """Certification failed: smallest eigenvalue at or below tolerance."""


class EigenSolverError(SpdMeansError):
    """The symmetric eigensolver failed."""


_FLOOR = 1e-12
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def default_spd_tol(entries: np.ndarray) -> float | np.ndarray:
    """The positive-definiteness floor, the one certification uses.

    Relative to the data, so scaling a matrix scales its floor:
    ``1e-12 * max|entry|``, one floor per member of a stack.
    """
    return _FLOOR * np.abs(entries).max(axis=(-2, -1))


def _check_pd(stack: np.ndarray) -> None:
    """The certification rule, written once, for a finite ``(k, n, n)`` stack:
    each member's smallest eigenvalue, by :func:`eigvalsh`, is above its
    floor, :func:`default_spd_tol` of its entries, ``1e-12 * m`` with
    ``m = max|entry|``. Raises ``NotPositiveDefiniteError`` naming the first
    member that fails; returns nothing.

    First a sufficient certificate: one stacked Cholesky factorization of
    each member ``A`` shifted down by the margin ``s = (1e-12 + 4 n^3 eps) m``.
    If it runs to completion, every member passes the rule. With
    ``u = eps / 2``:

    - the shift rounds ``A - sI`` to ``B``, off by at most ``u (m + s)``
      on the diagonal;
    - a Cholesky factor ``R`` of ``B`` that runs to completion satisfies
      ``R^T R = B + dB``, ``|dB| <= gamma_{n+1} |R^T| |R|`` (Higham, Accuracy
      and Stability of Numerical Algorithms, 2nd ed., 2002, Thm 10.3).
      Then ``||dB||_2 <= gamma_{n+1} ||R||_F^2`` and the diagonal of the same
      bound gives ``||R||_F^2 <= trace(B) / (1 - gamma_{n+1}) <= n m (1 + u)
      / (1 - gamma_{n+1})``, so ``||dB||_2 <= n (n+1) u m (1 + O(nu))``,
      about ``n^2 eps m``. ``R`` is nonsingular, so ``R^T R`` is PD and
      ``lambda_min(A) > s - (n^2 + 1) eps m``;
    - eigvalsh is backward stable: its smallest eigenvalue is within
      ``p(n) u ||A||_2 <= p(n) u n m`` of ``lambda_min(A)``, with
      Householder tridiagonalization's ``p(n) = O(n^2)``. LAPACK states no
      constant; the margin leaves ``(4 n^3 - n^2 - 1) eps m >= 2 n^3 eps m``
      for it, which covers ``p(n) <= 4 n^2``, and at n = 1 eigvalsh is exact.

    So a member that passes has an eigvalsh smallest eigenvalue above its
    floor. A NaN pivot passes some LAPACK builds' positivity test, so the
    last diagonal entry is read too: a NaN or infinite entry anywhere in
    ``R`` fails a later pivot or makes every later pivot NaN, the last one
    included. When the factorization fails, or a margin is below the
    smallest normal float, where underflow's absolute errors void the
    relative bounds, the rule itself decides: one stacked eigenvalue solve.
    It is written as "not above" so that a NaN eigenvalue fails.
    """
    k, n, _ = stack.shape
    margin = (_FLOOR + 4.0 * n**3 * _EPS) * np.abs(stack).max(axis=(1, 2))
    # small stacks: a reduction over a list is cheaper than numpy's here
    if min(margin.tolist()) >= _TINY:
        shifted = stack.copy()
        shifted.reshape(k, -1)[:, ::n + 1] -= margin[:, None]
        try:
            factor = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            pass
        else:
            if all(d > 0.0 for d in factor[:, -1, -1].tolist()):
                return
    lowest = eigvalsh(stack)[:, 0]
    floors = default_spd_tol(stack)
    failed = ~(lowest > floors)
    if failed.any():
        i = int(failed.argmax())
        raise NotPositiveDefiniteError(
            f"matrix {i}: smallest eigenvalue {lowest[i]:.6e}"
            f" not above tolerance {floors[i]:.3e}")


def expect(what: str, cls: type, *values) -> None:
    """The type gate of the public operations: ``TypeError`` naming the
    type of the first value that is not a ``cls``."""
    for value in values:
        if not isinstance(value, cls):
            raise TypeError(f"{what}: expected {cls.__name__}, "
                            f"got {type(value).__name__}")


def is_integer(value) -> bool:
    """The package's integer rule: a ``numbers.Integral`` that is not a
    ``bool``, numpy integers included; callers store it as ``int``."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_real(value) -> bool:
    """The package's real-number rule: a ``numbers.Real`` that is not a
    ``bool``, numpy scalars included; callers store it as ``float``."""
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))


def real_or_nan(value) -> float:
    """``value`` as a ``float`` when :func:`is_real` takes it, else NaN,
    which fails every range check; a real out of float range, such as the
    integer ``10**400``, is NaN too."""
    try:
        return float(value) if is_real(value) else math.nan
    except OverflowError:
        return math.nan


def _square_float_array(values) -> np.ndarray:
    # The input gate of every array-like argument: square, nonempty, finite.
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"matrix is not a numeric grid: {exc}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ShapeError("matrix must have positive dimension")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return a


class SymMatrix:
    """Dense real symmetric matrix.

    Construction accepts anything convertible to a square float array whose
    asymmetry is within round-off (``SYMMETRY_RTOL`` relative, max-norm) and
    stores it exactly symmetric: as given when it already is, else as
    ``M / 2 + M.T / 2`` by :func:`sym_part`, the package's one
    symmetrization, finite for finite ``M``. Larger asymmetry is an
    input error. A ``SymMatrix`` argument, an ``SpdMatrix`` included,
    shares its entries. Entries are read-only after construction.
    """

    __slots__ = ("entries",)

    entries: np.ndarray

    def __init__(self, values) -> None:
        if isinstance(values, SymMatrix):
            self.entries = values.entries
            return
        a = _square_float_array(values)
        scale = float(np.abs(a).max())
        with np.errstate(over="ignore"):  # an infinite asymmetry is rejected
            asym = float(np.abs(a - a.T).max())
        if asym > SYMMETRY_RTOL * scale:
            raise SymmetryError(
                f"asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * max|entry|"
                f" = {SYMMETRY_RTOL * scale:.3e}"
            )
        if asym:
            a = sym_part(a)
        a.setflags(write=False)
        self.entries = a

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


class SpdMatrix(SymMatrix):
    """A symmetric matrix certified positive definite.

    Its smallest eigenvalue must lie strictly above ``default_spd_tol`` of
    the entries, the one floor. That is certified as in :func:`certify`: a
    shifted Cholesky certificate, with the eigenvalue rule deciding the
    rest. A matrix that fails certification is rejected, never repaired. A
    ``SymMatrix`` argument, an ``SpdMatrix`` included, is certified as it
    stands.

    ``min_eig_witness``, read-only, is the smallest eigenvalue of the
    entries, always above the floor, computed by one ``eigvalsh`` on each
    read.
    """

    __slots__ = ()

    def __init__(self, values) -> None:
        super().__init__(values)
        _check_pd(self.entries[None])

    @property
    def min_eig_witness(self) -> float:
        return float(eigvalsh(self.entries)[0])

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim}, min_eig={self.min_eig_witness:.3e})"


class SpdTuple:
    """Ordered tuple of same-dimension SPD matrices, held as one stack.

    Order is significant: the means are not permutation invariant for
    k >= 3. :attr:`stack` is one read-only ``(k, n, n)`` array, built once:
    the items' entries stacked, or from :func:`certify` the certified stack
    itself. Each item views its slice, so every entry is held once and
    nothing is certified twice.
    """

    __slots__ = ("items", "stack")

    items: tuple[SpdMatrix, ...]
    stack: np.ndarray

    def __init__(self, items: Sequence[SpdMatrix]) -> None:
        items = tuple(items)
        if not items:
            raise ValueError("an SpdTuple needs at least one matrix")
        expect("SpdTuple", SpdMatrix, *items)
        for a in items:
            if a.dim != items[0].dim:
                raise ShapeError(
                    f"all matrices must share a dimension: {a.dim} != {items[0].dim}")
        t = _held(np.stack([a.entries for a in items]))
        self.items, self.stack = t.items, t.stack

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[SpdMatrix]:
        return iter(self.items)

    def __getitem__(self, i: int) -> SpdMatrix:
        return self.items[i]

    def __repr__(self) -> str:
        return f"SpdTuple(k={len(self.items)}, dim={self.dim})"


def _held(stack: np.ndarray) -> SpdTuple:
    # The one trusted builder of tuples and items. The caller owns `stack`
    # (frozen here) and has certified every member.
    stack.setflags(write=False)
    t = object.__new__(SpdTuple)
    t.items = tuple(SpdMatrix.__new__(SpdMatrix) for _ in range(len(stack)))
    t.stack = stack
    for m, a in zip(t.items, stack):
        m.entries = a
    return t


# ---------------------------------------------------------------------------
# array-level spectral core: float64 arrays of shape (..., n, n)
# ---------------------------------------------------------------------------

def sym_part(a: np.ndarray) -> np.ndarray:
    """``a/2 + a^T/2`` over the last two axes; exactly symmetric in IEEE.

    Halved first, so a finite ``a`` gives a finite result. The halving is
    done in place: ``a`` is consumed, and every caller passes an array made
    for the call.
    """
    a *= 0.5
    return a + a.swapaxes(-1, -2)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a symmetric stack."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"symmetric eigensolver failed: {exc}") from exc


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric stack."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"symmetric eigensolver failed: {exc}") from exc


def eigh_pd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigh`, raising unless every member of the stack is PD."""
    w, v = eigh(a)
    # one matrix: index, since a reduction call costs ~1 us at harness sizes
    lowest = w[..., 0].min() if w.ndim > 1 else w[0]
    if not lowest > 0.0:  # "not above", so a NaN spectrum fails too
        raise NotPositiveDefiniteError(
            f"matrix lost positive definiteness: eigenvalue {lowest:.3e}"
        )
    return w, v


def rebuild(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """``V diag(fw) V^T`` for each member of the stack, exactly symmetric."""
    return sym_part((v * fw[..., None, :]) @ v.swapaxes(-1, -2))


def power_arr(a: np.ndarray, p: float) -> np.ndarray:
    """``a**p`` of a positive definite stack."""
    w, v = eigh_pd(a)
    return rebuild(v, w**p)


def log_arr(a: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive definite stack."""
    w, v = eigh_pd(a)
    return rebuild(v, np.log(w))


def exp_arr(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric stack."""
    w, v = eigh(a)
    return rebuild(v, np.exp(w))


def sqrt_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square root and inverse square root from one eigendecomposition."""
    w, v = eigh_pd(a)
    sw = np.sqrt(w)
    return rebuild(v, sw), rebuild(v, 1.0 / sw)


def chol_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor ``L`` (``a = L L^T``) and ``L^-1`` of a PD stack.

    ``L = a^1/2 Q`` for an orthogonal ``Q``, so it stands in for the
    symmetric root wherever the result is invariant under that rotation,
    at a fraction of an eigendecomposition's cost.
    """
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"matrix lost positive definiteness: Cholesky failed: {exc}"
        ) from exc
    return l, np.linalg.inv(l)


def inv_arr(a: np.ndarray) -> np.ndarray:
    """Inverse of each member of a nonsingular symmetric stack, exactly symmetric.

    One LU solve per member, then :func:`sym_part`. A singular member
    raises ``NotPositiveDefiniteError``.
    """
    try:
        return sym_part(np.linalg.inv(a))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"matrix lost positive definiteness: inverse failed: {exc}"
        ) from exc


def haar_arr(normals: np.ndarray) -> np.ndarray:
    """Haar orthogonal matrices from standard normal squares: one QR over the
    stack, each Q column's sign set so that R's diagonal is nonnegative."""
    q, r = np.linalg.qr(normals)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(d >= 0.0, 1.0, -1.0)[..., None, :]


def congruence_arr(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``c^T a c`` for a symmetric stack ``a``, exactly symmetric."""
    return sym_part(c.swapaxes(-1, -2) @ a @ c)


def certify(stack: np.ndarray) -> SpdTuple:
    """Certify each member of a fresh, exactly symmetric ``(k, n, n)`` stack.

    One finiteness check, then the rule of :class:`SpdMatrix` per member,
    over the whole stack at once. One stacked Cholesky factorization of the
    members shifted below their floors, ``default_spd_tol`` of their
    entries, by a bound on the rounding errors certifies them all; if it
    fails, one stacked eigenvalue solve decides, each member's smallest
    eigenvalue above its floor. The first member that fails raises
    ``NotPositiveDefiniteError("matrix i: ...")``. Otherwise the result is
    the :class:`SpdTuple` whose ``stack`` is the input and whose item i is
    an ``SpdMatrix`` viewing slice i, built by the same code as
    ``SpdTuple(items)``, with no second check and no copy. The caller must
    own ``stack``; it is frozen in place.
    """
    if not np.isfinite(stack).all():
        raise DomainError("matrix entries must be finite")
    _check_pd(stack)
    return _held(stack)


def spectral_apply(A: SpdMatrix, f: Callable[[float], float]) -> SymMatrix:
    """Apply a real scalar function to an SPD matrix through its spectrum.

    Returns the ``SymMatrix`` ``U f(L) U^T``, exactly symmetrized. A
    non-finite or non-real value of ``f`` at an eigenvalue, or a
    ``ValueError``, ``OverflowError`` or ``ZeroDivisionError`` it raises,
    is a ``DomainError`` naming the offending eigenvalue.
    """
    expect("spectral_apply", SymMatrix, A)
    w, v = eigh(A.entries)
    out = np.empty_like(w)
    for i, lam in enumerate(w.tolist()):
        try:
            y = f(lam)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"f({lam!r}) failed: {exc}") from exc
        try:
            out[i] = float(y)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"f({lam!r}) is not a real number: {y!r}") from exc
    if not np.isfinite(out).all():
        bad = float(w[~np.isfinite(out)][0])
        raise DomainError(f"f evaluated non-finite at eigenvalue {bad!r}")
    return SymMatrix(rebuild(v, out))


def power(A: SpdMatrix, p: float) -> SpdMatrix:
    """Matrix power ``A**p`` for real ``p`` via the functional calculus.

    ``p`` must pass the real-number rule, :func:`is_real`, else it is a
    ``ValueError``; an integer beyond float range is read as NaN, by
    :func:`real_or_nan`. The result is certified by :func:`certify`. A
    power out of float64 range, or of a NaN ``p``, is a ``DomainError``, as
    in :func:`exp_m`.
    """
    expect("power", SymMatrix, A)
    if not is_real(p):
        raise ValueError(f"p must be a real number, got {p!r}")
    # w**p may overflow, and inf * 0 in the rebuild is NaN; certify's
    # finiteness check turns either into the DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        a = power_arr(A.entries, real_or_nan(p))
    return certify(a[None])[0]


def sqrt(A: SpdMatrix) -> SpdMatrix:
    """Principal matrix square root."""
    return power(A, 0.5)


def inv_sqrt(A: SpdMatrix) -> SpdMatrix:
    """Inverse of the principal square root."""
    return power(A, -0.5)


def inverse(A: SpdMatrix) -> SpdMatrix:
    """Matrix inverse by one LU solve, exactly symmetrized (:func:`inv_arr`).

    Certified like :func:`power`. Against a 50-digit reference its relative
    max-norm error stays within ``4 * cond * eps`` (``tests/test_oracle.py``).
    """
    expect("inverse", SymMatrix, A)
    return certify(inv_arr(A.entries)[None])[0]


def log_m(A: SpdMatrix) -> SymMatrix:
    """Matrix logarithm of an SPD matrix (symmetric, any signature)."""
    expect("log_m", SymMatrix, A)
    return SymMatrix(log_arr(A.entries))


def exp_m(S: SymMatrix) -> SpdMatrix:
    """SPD matrix exponential of a symmetric matrix; overflow is a ``DomainError``."""
    expect("exp_m", SymMatrix, S)
    # exp(w) may overflow, and inf * 0 in the rebuild is NaN; certify's
    # finiteness check turns either into the DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        a = exp_arr(S.entries)
    return certify(a[None])[0]


def congruence(C, A: SymMatrix) -> SymMatrix:
    """Congruence transform ``C^T A C``, exactly symmetrized.

    ``C`` is any square array-like with finite entries (no symmetry
    required) of the same dimension as ``A``. A result out of float64 range
    is a ``DomainError``, as in :func:`exp_m`.
    """
    expect("congruence", SymMatrix, A)
    c = _square_float_array(C)
    if c.shape[0] != A.dim:
        raise ShapeError(f"dimension mismatch: C is {c.shape[0]}, A is {A.dim}")
    # the products may overflow; SymMatrix's finiteness check raises
    with np.errstate(over="ignore", invalid="ignore"):
        a = congruence_arr(c, A.entries)
    return SymMatrix(a)
