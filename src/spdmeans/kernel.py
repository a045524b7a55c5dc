"""Functional calculus for dense real symmetric matrices.

Value types certify their invariants once at construction (exact symmetry,
finite entries, positive definiteness) and are immutable afterwards. An
``SpdMatrix`` is a ``SymMatrix`` that also holds its certification witness.

Every matrix function goes through the package's one array-level spectral
core, functions on float64 arrays of shape ``(..., n, n)``, one matrix or a
stack alike: one LAPACK ``eigh`` (checking positive definiteness over the
whole stack where the function needs it), then ``f(A) = V f(w) V^T``
rebuilt by matmul, exactly symmetric. Powers, logs, exponentials,
square-root pairs and congruences are built on it, and the public functions
wrap the value types around it. The core also holds the one Cholesky
primitive, :func:`chol_pair`, for congruences that need some factor
``A = L L^T`` rather than the symmetric root. The positive-definiteness
rule is written once, over a stack: one stacked eigenvalue solve, each
member's smallest eigenvalue above its own floor. ``SpdMatrix`` applies it
to one matrix; :func:`certify`, the one way a freshly computed stack becomes
``SpdMatrix`` values, applies it to the whole stack. The trusted
constructors ``SymMatrix._wrap`` and ``certify`` are the only callers of
``__new__``, and ``_wrap`` is called only in this module.
"""

from __future__ import annotations

from typing import Callable

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


def default_spd_tol(entries: np.ndarray) -> float | np.ndarray:
    """Positive-definiteness floor used when no explicit tolerance is given.

    Relative to the data, so scaling a matrix scales its floor:
    ``1e-12 * max|entry|``, one floor per member of a stack.
    """
    return 1e-12 * np.abs(entries).max(axis=(-2, -1))


def _pd_witnesses(stack: np.ndarray, tol: float | None = None) -> list[float]:
    # The certification rule, written once: each member of a finite
    # (k, n, n) stack has its smallest eigenvalue above its floor.
    witnesses = eigvalsh(stack)[:, 0]
    floors = default_spd_tol(stack) if tol is None else np.full_like(witnesses, tol)
    failed = witnesses <= floors
    if failed.any():
        i = int(failed.argmax())
        raise NotPositiveDefiniteError(
            f"matrix {i}: smallest eigenvalue {witnesses[i]:.6e}"
            f" not above tolerance {floors[i]:.3e}")
    return witnesses.tolist()


def _square_float_array(values, name: str = "matrix") -> np.ndarray:
    # The input gate of every array-like argument: square, nonempty, finite.
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not a numeric grid: {exc}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ShapeError(f"{name} must have positive dimension")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} entries must be finite")
    return a


class SymMatrix:
    """Dense real symmetric matrix.

    Construction accepts anything convertible to a square float array whose
    asymmetry is within round-off (``SYMMETRY_RTOL`` relative, max-norm) and
    stores the exactly symmetrized ``(M + M.T) / 2``. Larger asymmetry is an
    input error. A ``SymMatrix`` argument, an ``SpdMatrix`` included, shares
    its entries. Entries are read-only after construction.
    """

    __slots__ = ("entries",)

    entries: np.ndarray

    def __init__(self, values) -> None:
        if isinstance(values, SymMatrix):
            self.entries = values.entries
            return
        a = _square_float_array(values)
        scale = float(np.abs(a).max())
        asym = float(np.abs(a - a.T).max())
        if asym > SYMMETRY_RTOL * scale:
            raise SymmetryError(
                f"asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * max|entry|"
                f" = {SYMMETRY_RTOL * scale:.3e}"
            )
        a = sym_part(a)
        a.setflags(write=False)
        self.entries = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "SymMatrix":
        # Trusted path for freshly computed, exactly symmetric arrays.
        # Callers must own `a`; it is frozen in place.
        if not np.isfinite(a).all():
            raise DomainError("matrix entries must be finite")
        obj = cls.__new__(cls)
        a.setflags(write=False)
        obj.entries = a
        return obj

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


class SpdMatrix(SymMatrix):
    """A symmetric matrix certified positive definite.

    ``min_eig_witness`` is the smallest eigenvalue found at certification
    time; it is strictly above the tolerance in force (``default_spd_tol``
    of the entries unless an explicit ``tol`` was passed). A matrix that
    fails certification is rejected, never repaired. A ``SymMatrix``
    argument, an ``SpdMatrix`` included, is certified as it stands.
    """

    __slots__ = ("min_eig_witness",)

    min_eig_witness: float

    def __init__(self, values, tol: float | None = None) -> None:
        super().__init__(values)
        self.min_eig_witness = _pd_witnesses(self.entries[None], tol)[0]

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim}, min_eig={self.min_eig_witness:.3e})"


# ---------------------------------------------------------------------------
# array-level spectral core: float64 arrays of shape (..., n, n)
# ---------------------------------------------------------------------------

def sym_part(a: np.ndarray) -> np.ndarray:
    """``(a + a^T) / 2`` over the last two axes; exactly symmetric in IEEE."""
    return (a + a.swapaxes(-1, -2)) * 0.5


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
    if lowest <= 0.0:
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


def congruence_arr(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``c^T a c`` for a symmetric stack ``a``, exactly symmetric."""
    return sym_part(c.swapaxes(-1, -2) @ a @ c)


def certify(stack: np.ndarray) -> list[SpdMatrix]:
    """Certify each member of a fresh, exactly symmetric ``(k, n, n)`` stack.

    One finiteness check and one eigenvalue solve over the whole stack, then
    the rule of :class:`SpdMatrix` per member: a smallest eigenvalue above
    ``default_spd_tol`` of its entries. The first member that fails raises
    ``NotPositiveDefiniteError("matrix i: ...")``; otherwise member i becomes
    an ``SpdMatrix`` viewing its slice, that eigenvalue its witness, with no
    second check. The caller must own ``stack``; it is frozen in place.
    """
    if not np.isfinite(stack).all():
        raise DomainError("matrix entries must be finite")
    witnesses = _pd_witnesses(stack)
    stack.setflags(write=False)
    out = [SpdMatrix.__new__(SpdMatrix) for _ in witnesses]
    for m, a, witness in zip(out, stack, witnesses):
        m.entries, m.min_eig_witness = a, witness
    return out


def spectral_apply(A: SpdMatrix, f: Callable[[float], float]) -> SymMatrix:
    """Apply a scalar function to an SPD matrix through its spectrum.

    Parameters
    ----------
    A : SpdMatrix
        Matrix to transform.
    f : callable
        Real function evaluated at each eigenvalue. A non-finite or non-real
        value, or a raised ``ValueError``/``OverflowError``/``ZeroDivisionError``,
        is reported as ``DomainError`` naming the offending eigenvalue.

    Returns
    -------
    SymMatrix
        ``U f(L) U^T``, exactly symmetrized.
    """
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
    return SymMatrix._wrap(rebuild(v, out))


def power(A: SpdMatrix, p: float) -> SpdMatrix:
    """Matrix power ``A**p`` for real ``p`` via the functional calculus.

    The result is certified by :func:`certify`: its witness is the smallest
    eigenvalue of the stored entries.
    """
    w, v = eigh_pd(A.entries)
    return certify(rebuild(v, w**p)[None])[0]


def sqrt(A: SpdMatrix) -> SpdMatrix:
    """Principal matrix square root."""
    return power(A, 0.5)


def inv_sqrt(A: SpdMatrix) -> SpdMatrix:
    """Inverse of the principal square root."""
    return power(A, -0.5)


def inverse(A: SpdMatrix) -> SpdMatrix:
    """Matrix inverse through the eigendecomposition (stays symmetric).

    Certified like :func:`power`.
    """
    return power(A, -1.0)


def log_m(A: SpdMatrix) -> SymMatrix:
    """Matrix logarithm of an SPD matrix (symmetric, any signature)."""
    return SymMatrix._wrap(log_arr(A.entries))


def exp_m(S: SymMatrix) -> SpdMatrix:
    """SPD matrix exponential of a symmetric matrix; overflow is a ``DomainError``."""
    w, v = eigh(S.entries)
    with np.errstate(over="ignore"):
        fw = np.exp(w)
    if not np.isfinite(fw).all():
        raise DomainError("matrix entries must be finite")
    return certify(rebuild(v, fw)[None])[0]


def congruence(C, A: SymMatrix) -> SymMatrix:
    """Congruence transform ``C^T A C``, exactly symmetrized.

    ``C`` is any square array-like with finite entries (no symmetry
    required) of the same dimension as ``A``.
    """
    c = _square_float_array(C)
    if c.shape[0] != A.dim:
        raise ShapeError(f"dimension mismatch: C is {c.shape[0]}, A is {A.dim}")
    return SymMatrix._wrap(congruence_arr(c, A.entries))
