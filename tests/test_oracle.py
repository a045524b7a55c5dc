"""Forward error of the closed-form means against a 50-digit reference.

The reference evaluates each mean from its definition in mpmath at 50
significant digits, every power and inverse from ``mp.eigsy``. The tuples
are the harness's own draws, whose items have condition numbers at most
``cond``. The stated accuracy is a relative max-norm error of at most
``32 * kappa * eps``, where ``kappa`` is the largest condition number of a
matrix the definition raises to a power: ``A^-1/2 B A^-1/2`` at each
two-variable step of a geometric mean, each congruence of a variant level
by its last item, each item and the mean of the inverses for the harmonic
mean. For a geometric step ``kappa`` can reach ``cond**2``, and the error
follows ``kappa``, not ``cond``: a bound of ``32 * cond * eps`` fails at
cond 1e4 already. At cond 1e10 that loss costs one variant draw its
positive definiteness, and the test expects the typed error there.

The Karcher mean's error is the Riemannian distance
``||log(X^-1/2 X* X^-1/2)||_F`` of the computed ``X`` from the 50-digit
``X*``; it bounds the relative 2-norm error by ``exp(d) - 1``. The stated
accuracy is ``d <= ||S(X)||_F / k + c * cond * eps`` with ``c = 1``. The
first term is the solver's own stop: the log-sum objective is geodesically
k-strongly convex (its Newton operator satisfies ``J >= k I``), so the
distance to the mean is at most the exact residual over ``k``. The second
covers the rounding of the computed residual ``S(X)``; the largest ``c``
seen on these draws is 0.024, at cond 1e2.

The public ``inverse`` is one LU solve, symmetrized. Its stated accuracy is
a relative max-norm error of at most ``4 * cond * eps``, ``cond`` the
condition number of the matrix; the largest constant seen on these draws is
0.62, at cond 1e2.
"""

import numpy as np
import pytest

from spdmeans import (NotPositiveDefiniteError, SpdMatrix, SpdTuple,
                      harmonic_mean, inductive_mean, inverse, karcher_mean,
                      karcher_residual, variant_mean, weighted_geometric_2)
from spdmeans.harness import _spd_stack

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

EPS = np.finfo(float).eps
CONDS = (1e2, 1e4, 1e6, 1e8, 1e10)
SHAPES = ((2, 2), (3, 3), (4, 4))  # (dim, k)
SEEDS = range(5)


def to_mp(a):
    return mp.matrix(a.tolist())


def mp_spectral(a, *powers):
    """Powers of ``a`` and its condition number, from one eigendecomposition."""
    w, q = mp.eigsy(a)
    w = [w[i] for i in range(a.rows)]
    return [q * mp.diag([x ** p for x in w]) * q.T for p in powers], max(w) / min(w)


def mp_geometric_2(a, b, t):
    (s, si), _ = mp_spectral(a, mp.mpf(0.5), mp.mpf(-0.5))
    (ct,), kappa = mp_spectral(si * b * si, t)
    return s * ct * s, kappa


def mp_inductive(items):
    g, kappa = items[0], 1
    for j in range(1, len(items)):
        g, kj = mp_geometric_2(g, items[j], mp.mpf(1) / (j + 1))
        kappa = max(kappa, kj)
    return g, kappa


def mp_variant(items):
    """The variant's level recursion; ``kappa`` over every powered congruence."""
    k = len(items)
    if k == 1:
        return items[0], 1
    (s, si), _ = mp_spectral(items[-1], mp.mpf(0.5), mp.mpf(-0.5))
    p = mp.mpf(k - 1) / k
    powered, kappas = zip(*(mp_spectral(si * a * si, p) for a in items[:-1]))
    inner, kappa = mp_variant([c for (c,) in powered])
    return s * inner * s, max(kappa, *kappas)


def mp_harmonic(items):
    inverses, kappas = zip(*(mp_spectral(a, -1) for a in items))
    total = inverses[0][0]
    for (inv,) in inverses[1:]:
        total += inv
    (h,), kappa = mp_spectral(total / len(items), -1)
    return h, max(kappa, *kappas)


def mp_function(a, f):
    """``f(a)`` of a symmetric mpmath matrix, from one eigendecomposition."""
    w, q = mp.eigsy(a)
    return q * mp.diag([f(w[i]) for i in range(a.rows)]) * q.T


def mp_karcher(items):
    """Karcher mean by Newton's method on the log-sum residual.

    From the arithmetic mean, each step solves the Newton system for the
    update ``X^1/2 exp(H) X^1/2`` on the n(n+1)/2 symmetric coordinates by
    LU. Its operator is the derivative of ``log(X^-1/2 A X^-1/2)`` along
    that update, from the divided differences of ``log`` in the spectra
    of ``X^-1/2 A_i X^-1/2``. The operator only steers the iteration: the
    result is the first iterate whose residual is below 1e-40.
    """
    n = items[0].rows
    x = items[0]
    for a in items[1:]:
        x = x + a
    x = x / len(items)
    basis = []
    for i in range(n):
        for j in range(i, n):
            e = mp.zeros(n, n)
            e[i, j] = e[j, i] = 1
            basis.append((i, j, e))
    for _ in range(30):
        (y, yi), _ = mp_spectral(x, mp.mpf(0.5), mp.mpf(-0.5))
        spectra = [mp.eigsy(yi * a * yi) for a in items]
        s = mp.zeros(n, n)
        for w, q in spectra:
            s += q * mp.diag([mp.log(w[i]) for i in range(n)]) * q.T
        if mp.mnorm(s, "f") < mp.mpf(10) ** -40:
            return x

        def jac(h):
            out = mp.zeros(n, n)
            for w, q in spectra:
                g = q.T * h * q
                for a in range(n):
                    for b in range(n):
                        if w[a] != w[b]:
                            g[a, b] *= ((mp.log(w[a]) - mp.log(w[b])) / (w[a] - w[b])
                                        * (w[a] + w[b]) / 2)
                out += q * g * q.T
            return out

        cols = [jac(e) for _, _, e in basis]
        coef = mp.lu_solve(mp.matrix([[c[i, j] for c in cols] for i, j, _ in basis]),
                           mp.matrix([s[i, j] for i, j, _ in basis]))
        h = mp.zeros(n, n)
        for c, (_, _, e) in zip(coef, basis):
            h += c * e
        x = y * mp_function(h, mp.exp) * y
        x = (x + x.T) / 2
    raise AssertionError("50-digit Karcher reference did not converge")


def mp_distance(x, reference):
    """Riemannian distance ``||log(X^-1/2 X* X^-1/2)||_F``."""
    (xi,), _ = mp_spectral(x, mp.mpf(-0.5))
    return float(mp.mnorm(mp_function(xi * reference * xi, mp.log), "f"))


def rel_error(actual, reference):
    """Relative max-norm distance of a float array from an mpmath matrix."""
    diff = to_mp(actual) - reference
    cells = [(i, j) for i in range(reference.rows) for j in range(reference.cols)]
    scale = max(abs(reference[c]) for c in cells)
    return float(max(abs(diff[c]) for c in cells) / scale)


CASES = {
    "weighted_geometric_2": (
        lambda t: weighted_geometric_2(t[0], t[1], 0.3),
        lambda items: mp_geometric_2(items[0], items[1], mp.mpf(0.3)),
    ),
    "inductive": (inductive_mean, mp_inductive),
    "variant": (variant_mean, mp_variant),
    "harmonic": (harmonic_mean, mp_harmonic),
}


# (name, cond, dim, k, seed) of the draws whose powered congruence loses
# positive definiteness in double precision (kappa about cond**2)
RAISES = {("variant", 1e10, 4, 4, 4)}


@pytest.mark.parametrize("cond", CONDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_forward_error_against_50_digit_reference(name, cond):
    compute, reference = CASES[name]
    with mp.workdps(50):
        for dim, k in SHAPES:
            for seed in SEEDS:
                arrs = _spd_stack(seed, dim, cond, [f"item{i}" for i in range(k)])
                t = SpdTuple([SpdMatrix(a) for a in arrs])
                if (name, cond, dim, k, seed) in RAISES:
                    with pytest.raises(NotPositiveDefiniteError):
                        compute(t)
                    continue
                expected, kappa = reference([to_mp(a) for a in arrs])
                err = rel_error(compute(t).entries, expected)
                bound = 32.0 * float(kappa) * EPS
                assert err <= bound, (dim, k, seed, err, bound)


@pytest.mark.parametrize("cond", CONDS)
def test_inverse_error_against_50_digit_reference(cond):
    with mp.workdps(50):
        for dim, k in SHAPES:
            for seed in SEEDS:
                for a in _spd_stack(seed, dim, cond, [f"item{i}" for i in range(k)]):
                    (expected,), kappa = mp_spectral(to_mp(a), -1)
                    err = rel_error(inverse(SpdMatrix(a)).entries, expected)
                    bound = 4.0 * float(kappa) * EPS
                    assert err <= bound, (dim, k, seed, err, bound)


@pytest.mark.parametrize("cond", (1e2, 1e4, 1e6))
def test_karcher_error_against_50_digit_reference(cond):
    with mp.workdps(50):
        for dim, k in ((2, 3), (3, 4)):
            for seed in SEEDS:
                arrs = _spd_stack(seed, dim, cond, [f"item{i}" for i in range(k)])
                t = SpdTuple([SpdMatrix(a) for a in arrs])
                x = karcher_mean(t)
                r = float(np.linalg.norm(karcher_residual(x, t).entries))
                err = mp_distance(to_mp(x.entries), mp_karcher([to_mp(a) for a in arrs]))
                bound = r / k + cond * EPS
                assert err <= bound, (dim, k, seed, err, bound)
