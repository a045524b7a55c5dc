import math
from pathlib import Path

import numpy as np
import pytest

from spdmeans import (
    ConvergenceError,
    MeanKind,
    RegularMap,
    ShapeError,
    SolverConfig,
    SpdMatrix,
    SpdTuple,
    arithmetic_mean,
    harmonic_mean,
    inductive_auxiliary,
    inductive_mean,
    inverse,
    karcher_mean,
    karcher_residual,
    mean,
    perspective,
    power,
    variant_auxiliary,
    variant_mean,
    weighted_geometric_2,
)

import spdmeans
import spdmeans.cli  # noqa: F401  (the tracer patches the CLI layer too)
from spdmeans import means
from spdmeans.harness import GenSpec, gen_tuple
from spdmeans.kernel import (NotPositiveDefiniteError, SymMatrix, congruence, exp_arr,
                             exp_m, inv_sqrt, log_m, sqrt)
from spdmeans.means import _karcher_jacobian, _karcher_state

from helpers import random_orthogonal, random_spd, rel_err


def diag(*vals):
    return SpdMatrix(np.diag([float(v) for v in vals]))


def rotated(theta, *vals):
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return SpdMatrix(r @ np.diag([float(v) for v in vals]) @ r.T)


# a fixed non-commuting triple used by several order-sensitivity tests
def skew_triple():
    return SpdTuple([diag(100.0, 1.0), rotated(math.pi / 4, 100.0, 1.0),
                     diag(1.0, 1.0)])


# -- two-variable weighted mean ---------------------------------------------

def test_weighted_geometric_2_scalar_values():
    a, b = diag(4.0), diag(9.0)
    assert abs(weighted_geometric_2(a, b, 0.5).entries[0, 0] - 6.0) < 1e-12
    # 4^(3/4) * 9^(1/4)
    expected = 4.0 ** 0.75 * 9.0 ** 0.25
    assert abs(weighted_geometric_2(a, b, 0.25).entries[0, 0] - expected) < 1e-12


def test_weighted_geometric_2_endpoints_exact():
    rng = np.random.default_rng(31)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    assert weighted_geometric_2(a, b, 0.0) is a
    assert weighted_geometric_2(a, b, 1.0) is b


def test_weighted_geometric_2_validation():
    rng = np.random.default_rng(32)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    with pytest.raises(ValueError):
        weighted_geometric_2(a, b, -0.1)
    with pytest.raises(ValueError):
        weighted_geometric_2(a, b, 1.1)
    # a bool or a string is no weight; a numpy real is one, stored as float
    for t in (True, False, "0.5"):
        with pytest.raises(ValueError, match="^t must be in"):
            weighted_geometric_2(a, b, t)
    assert np.array_equal(weighted_geometric_2(a, b, np.float32(0.5)).entries,
                          weighted_geometric_2(a, b, 0.5).entries)
    with pytest.raises(ShapeError):
        weighted_geometric_2(a, random_spd(rng, 4), 0.5)


def test_weighted_geometric_2_midpoint_symmetric():
    rng = np.random.default_rng(33)
    a, b = random_spd(rng, 4), random_spd(rng, 4)
    g1 = weighted_geometric_2(a, b, 0.5)
    g2 = weighted_geometric_2(b, a, 0.5)
    assert rel_err(g1.entries, g2.entries) < 1e-12


def test_weighted_geometric_2_idempotent():
    rng = np.random.default_rng(34)
    a = random_spd(rng, 4)
    assert rel_err(weighted_geometric_2(a, a, 0.3).entries, a.entries) < 1e-13


# -- inductive mean ----------------------------------------------------------

def test_inductive_scalar_values():
    assert abs(inductive_mean(SpdTuple([diag(1), diag(2), diag(4)]))
               .entries[0, 0] - 2.0) < 1e-12
    assert abs(inductive_mean(SpdTuple([diag(2), diag(8), diag(1)]))
               .entries[0, 0] - 4.0 ** (2.0 / 3.0)) < 1e-12


def test_single_element_tuple_returns_item_for_every_kind():
    rng = np.random.default_rng(35)
    a = random_spd(rng, 3)
    t = SpdTuple([a])
    for kind in MeanKind:
        assert mean(kind, t) is t[0]
    assert np.array_equal(t[0].entries, a.entries)


def test_inductive_equals_weighted_fold():
    # the recursion telescopes to G_j = G_{j-1} #_{1/j} A_j
    rng = np.random.default_rng(36)
    for k in (2, 3, 4, 5):
        items = [random_spd(rng, 3) for _ in range(k)]
        g = items[0]
        for j in range(1, k):
            g = weighted_geometric_2(g, items[j], 1.0 / (j + 1))
        direct = inductive_mean(SpdTuple(items))
        assert rel_err(direct.entries, g.entries) < 1e-10


def defining_recursion(items, variant):
    """The paper's recursions, built from public per-matrix functions only.

    Inductive: ``G_k = A_k^1/2 G_{k-1}(A_k^-1/2 A_i A_k^-1/2)^p A_k^1/2``;
    variant: ``H_k = A_k^1/2 H_{k-1}((A_k^-1/2 A_i A_k^-1/2)^p) A_k^1/2``,
    both with ``p = (k-1)/k``.
    """
    k = len(items)
    if k == 1:
        return items[0]
    b, p = items[-1], (k - 1) / k
    bis = inv_sqrt(b).entries
    conj = [SpdMatrix(congruence(bis, a)) for a in items[:-1]]
    if variant:
        inner = defining_recursion([power(a, p) for a in conj], True)
    else:
        inner = power(defining_recursion(conj, False), p)
    return SpdMatrix(congruence(sqrt(b).entries, inner))


@pytest.mark.parametrize("kind", ["inductive", "variant"])
def test_means_match_defining_recursion(kind):
    rng = np.random.default_rng(51)
    for n in (2, 3, 4, 5):
        for k in (2, 3, 4, 5, 6):
            items = [random_spd(rng, n) for _ in range(k)]
            oracle = defining_recursion(items, kind == "variant")
            assert rel_err(mean(kind, SpdTuple(items)).entries,
                           oracle.entries) < 1e-10


@pytest.fixture
def factorizations(monkeypatch):
    """Matrices passed to numpy's Cholesky, inverse and eigh, per function.

    A ``(m, n, n)`` stack counts as m matrices, so certifying a result
    counts one Cholesky.
    """
    counts = dict.fromkeys(("cholesky", "inv", "eigh"), 0)
    for name in counts:
        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kw):
            counts[_name] += int(np.prod(np.shape(a)[:-2]))
            return _real(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_geometric_means_factor_once(factorizations, k):
    # the fold and the variant levels carry one factor: only the first item
    # of the fold, the last item of the variant, is factored by Cholesky,
    # and certifying the result takes the other
    rng = np.random.default_rng(53)
    t = SpdTuple([random_spd(rng, 4) for _ in range(k)])
    for compute, eighs in (
            (inductive_mean, k - 1),
            (variant_mean, k * (k - 1) // 2),
            (lambda t: weighted_geometric_2(t[0], t[-1], 0.3), 1)):
        factorizations.update(cholesky=0, inv=0, eigh=0)
        compute(t)
        assert factorizations == {"cholesky": 2, "inv": 1, "eigh": eighs}


# -- variant mean ------------------------------------------------------------

def test_variant_scalar_values():
    assert abs(variant_mean(SpdTuple([diag(1), diag(2), diag(4)]))
               .entries[0, 0] - 2.0) < 1e-12


def test_variant_mean_of_a_tuple_longer_than_the_recursion_limit():
    vals = np.random.default_rng(36).uniform(0.5, 2.0, 1100)
    got = variant_mean(SpdTuple([diag(v) for v in vals])).entries[0, 0]
    want = math.exp(np.log(vals).mean())
    assert abs(got - want) <= 1e-12 * want


def test_variant_identity_tail_gives_root():
    rng = np.random.default_rng(37)
    a = random_spd(rng, 3)
    for k in (2, 3, 4):
        t = SpdTuple([a] + [SpdMatrix(np.eye(3))] * (k - 1))
        assert rel_err(variant_mean(t).entries,
                       power(a, 1.0 / k).entries) < 1e-10


def test_variant_agrees_with_inductive_at_k2():
    rng = np.random.default_rng(38)
    a, b = random_spd(rng, 4), random_spd(rng, 4)
    pair = SpdTuple([a, b])
    assert rel_err(variant_mean(pair).entries,
                   inductive_mean(pair).entries) < 1e-13


def test_variant_differs_from_inductive_at_k3():
    t = skew_triple()
    gap = np.abs(inductive_mean(t).entries - variant_mean(t).entries).max()
    assert gap > 1e-3


def test_order_matters_for_k3():
    t = skew_triple()
    rev = SpdTuple(list(t)[::-1])
    gap = np.abs(inductive_mean(t).entries - inductive_mean(rev).entries).max()
    assert gap > 1e-3


# -- arithmetic and harmonic -------------------------------------------------

def test_arithmetic_harmonic_scalars():
    pair = SpdTuple([diag(1), diag(4)])
    assert abs(arithmetic_mean(pair).entries[0, 0] - 2.5) < 1e-15
    assert abs(harmonic_mean(pair).entries[0, 0] - 1.6) < 1e-15


def test_arithmetic_harmonic_duality():
    rng = np.random.default_rng(39)
    t = SpdTuple([random_spd(rng, 3) for _ in range(4)])
    inv_t = SpdTuple([inverse(a) for a in t])
    assert rel_err(harmonic_mean(t).entries,
                   inverse(arithmetic_mean(inv_t)).entries) < 1e-12


# -- Karcher mean ------------------------------------------------------------

def test_karcher_commuting_diagonal():
    t = SpdTuple([diag(1, 4), diag(4, 1)])
    m = karcher_mean(t)
    assert rel_err(m.entries, 2.0 * np.eye(2)) < 1e-10
    assert np.linalg.norm(karcher_residual(m, t).entries) <= 1e-10


def test_karcher_matches_closed_form_k2():
    rng = np.random.default_rng(40)
    a, b = random_spd(rng, 5), random_spd(rng, 5)
    pair = SpdTuple([a, b])
    assert rel_err(karcher_mean(pair).entries,
                   weighted_geometric_2(a, b, 0.5).entries) < 1e-10


def test_karcher_residual_nonzero_away_from_solution():
    t = skew_triple()
    r = np.linalg.norm(karcher_residual(arithmetic_mean(t), t).entries)
    assert r > 1e-3


def test_karcher_scale_equivariance():
    rng = np.random.default_rng(41)
    t = SpdTuple([random_spd(rng, 3) for _ in range(3)])
    scaled = SpdTuple([SpdMatrix(2.5 * a.entries) for a in t])
    assert rel_err(karcher_mean(scaled).entries,
                   2.5 * karcher_mean(t).entries) < 1e-12


def test_karcher_convergence_error_carries_state():
    t = skew_triple()
    with pytest.raises(ConvergenceError) as err:
        karcher_mean(t, SolverConfig(max_iter=1))
    exc = err.value
    assert exc.iterations == 1
    assert exc.residual_norm > 1e-10
    assert exc.last_iterate.shape == (2, 2)


def test_karcher_does_not_diverge_on_ill_conditioned_tuple():
    # At cond 1e8 this tuple sits at the accuracy floor of a 1e-10 solve;
    # an unguarded 1/k step drives its residual up to order 10 instead.
    rng = np.random.default_rng([77, 8, 8, 4])
    t = SpdTuple([random_spd(rng, 8, cond=1e8) for _ in range(4)])
    try:
        karcher_mean(t)
    except ConvergenceError as exc:
        assert exc.residual_norm <= 1e-7


def test_karcher_convergence_error_reports_best_iterate():
    # The residual is not monotone near the accuracy floor; the error must
    # report the lowest residual seen, so more iterations never report worse.
    rng = np.random.default_rng([77, 8, 8, 4])
    t = SpdTuple([random_spd(rng, 8, cond=1e8) for _ in range(4)])
    reported = []
    for max_iter in (100, 200, 300, 400, 500):
        try:
            m = karcher_mean(t, SolverConfig(max_iter=max_iter))
        except ConvergenceError as exc:
            x = SpdMatrix(exc.last_iterate)
            assert np.linalg.norm(karcher_residual(x, t).entries) == \
                exc.residual_norm
            reported.append(exc.residual_norm)
        else:
            reported.append(np.linalg.norm(karcher_residual(m, t).entries))
    assert all(b <= a for a, b in zip(reported, reported[1:])), reported


def test_karcher_newton_steps_are_halved_from_the_first_rejection(monkeypatch):
    # A rejected Newton step marks the accuracy floor; from then on each
    # Newton direction H enters exp as H / 2, before it as H itself. The
    # Bini-Iannazzo step is the exp call that no Newton direction precedes.
    events, newton_step = [], means._newton_step

    def step(*args):
        h = newton_step(*args)
        events.append(("newton", h))
        return h

    def exp(a):
        events.append(("exp", a))
        return exp_arr(a)

    monkeypatch.setattr(means, "_newton_step", step)
    monkeypatch.setattr(means, "exp_arr", exp)
    rng = np.random.default_rng([77, 8, 8, 4])
    t = SpdTuple([random_spd(rng, 8, cond=1e8) for _ in range(4)])
    with pytest.raises(ConvergenceError):
        karcher_mean(t, SolverConfig(max_iter=30))
    scales, scale, prev = [], 1.0, None
    for kind, a in events:
        if kind == "exp":
            if prev is None:
                scale = 0.5
            else:
                assert np.array_equal(a, scale * prev)
                scales.append(scale)
        prev = a if kind == "newton" else None
    assert 1.0 in scales and 0.5 in scales, scales


def test_karcher_residual_matches_per_matrix_oracle():
    rng = np.random.default_rng(43)
    t = SpdTuple([random_spd(rng, 5) for _ in range(7)])
    x = random_spd(rng, 5)
    c = inv_sqrt(x).entries
    oracle = sum(log_m(SpdMatrix(congruence(c, a))).entries for a in t)
    assert rel_err(karcher_residual(x, t).entries, oracle) < 1e-12
    m = karcher_mean(t, SolverConfig(residual_tol=1e-12))
    assert np.linalg.norm(karcher_residual(m, t).entries) <= 1e-12


@pytest.mark.parametrize("case", ["generic", "repeated"])
def test_karcher_newton_operator_is_the_residual_derivative(case):
    # Along the factor Z = X^1/2 exp(eps H / 2) the residual is
    # sum_i log(exp(-eps H/2) M_i exp(-eps H/2)), M_i = X^-1/2 A_i X^-1/2,
    # which is karcher_residual(exp(eps H), (M_i)); its derivative at 0 is
    # -J[H]. The repeated eigenvalues of the second case take the series
    # branch of (L/2) coth(L/2) off the diagonal.
    rng = np.random.default_rng(54)
    if case == "generic":
        items = [random_spd(rng, 4) for _ in range(3)]
        x = random_spd(rng, 4)
    else:
        q = random_orthogonal(rng, 4)
        items = [SpdMatrix((q * [2.0, 2.0, 2.0, 7.0]) @ q.T),
                 random_spd(rng, 4), SpdMatrix(np.diag([3.0, 3.0, 0.5, 0.5]))]
        x = SpdMatrix(2.0 * np.eye(4))
    t = SpdTuple(items)
    _, s, _, lw, v = _karcher_state(x.entries, t.stack)
    assert np.linalg.norm(s) > 0.1
    if case == "repeated":
        gaps = np.abs(lw[:, :, None] - lw[:, None, :])[:, ~np.eye(4, dtype=bool)]
        assert gaps.min() < 1e-12
    c = inv_sqrt(x).entries
    conj = SpdTuple([SpdMatrix(congruence(c, a)) for a in t])
    h = rng.standard_normal((4, 4))
    h = (h + h.T) / np.linalg.norm(h + h.T)
    eps = 1e-4
    ends = [karcher_residual(exp_m(SymMatrix(e * h)), conj).entries
            for e in (eps, -eps)]
    jh = _karcher_jacobian(lw, v)(h)
    assert rel_err(jh, (ends[1] - ends[0]) / (2 * eps)) < 1e-8
    # J >= k I on symmetric matrices
    assert np.vdot(h, jh) >= len(t) * (1 - 1e-12)


def test_karcher_solve_cost(monkeypatch):
    # residuals per solve, the fold's eigh counts' counterpart: each Newton
    # update costs one residual, two when the Bini-Iannazzo step replaces it;
    # full Newton steps converge quadratically from the arithmetic mean
    calls = []

    def counted(*args):
        calls.append(args)
        return _karcher_state(*args)

    monkeypatch.setattr(means, "_karcher_state", counted)
    for spec, cost in ((GenSpec(dim=8, k=6, seed=7, cond_bound=100), 4),
                       (GenSpec(dim=5, k=4, seed=3, cond_bound=1e6), 6)):
        calls.clear()
        karcher_mean(gen_tuple(spec))
        assert len(calls) == cost, spec


def test_karcher_max_iter_counts_updates():
    # this tuple meets the tolerance on its third update: max_iter=3 returns
    # the mean, max_iter=2 stops one update short of it
    rng = np.random.default_rng([5, 4, 3])
    t = SpdTuple([random_spd(rng, 4) for _ in range(3)])
    x = karcher_mean(t, SolverConfig(max_iter=3))
    assert np.linalg.norm(karcher_residual(x, t).entries) <= 1e-10
    with pytest.raises(ConvergenceError) as err:
        karcher_mean(t, SolverConfig(max_iter=2))
    assert err.value.iterations == 2
    assert 1e-10 < err.value.residual_norm < 1e-6


def test_karcher_newton_trial_that_raises_falls_back(monkeypatch):
    # a Newton trial whose state cannot be computed is rejected like one
    # that does not lower the residual: the Bini-Iannazzo step follows
    events, calls = [], []
    newton_step = means._newton_step

    def step(*args):
        events.append("newton")
        return newton_step(*args)

    def state(x, stack):
        calls.append(x)
        if len(calls) == 2:  # the first Newton trial
            events.append("raise")
            raise NotPositiveDefiniteError("trial state failed")
        events.append("state")
        return _karcher_state(x, stack)

    rng = np.random.default_rng(46)
    t = SpdTuple([random_spd(rng, 4) for _ in range(3)])
    plain = karcher_mean(t)
    monkeypatch.setattr(means, "_newton_step", step)
    monkeypatch.setattr(means, "_karcher_state", state)
    x = karcher_mean(t)
    assert events[:4] == ["state", "newton", "raise", "state"]
    assert np.linalg.norm(karcher_residual(x, t).entries) <= 1e-10
    assert rel_err(x.entries, plain.entries) < 1e-9


def test_karcher_residual_dimension_mismatch():
    rng = np.random.default_rng(47)
    t = SpdTuple([random_spd(rng, 3) for _ in range(2)])
    with pytest.raises(ShapeError, match="dimension mismatch: 2 != 3"):
        karcher_residual(random_spd(rng, 2), t)


@pytest.mark.parametrize("cond", [1e2, 1e6])
def test_newton_step_solves_to_the_cg_tolerance(monkeypatch, cond):
    # The inner solve is held to a fixed relative residual: the returned H
    # has ||J[H] - S||_F <= _CG_RTOL ||S||_F, with an allowance of 1e-12
    # ||S||_F for the drift between CG's recurred residual and the true
    # one, and for symmetrizing H; it takes fewer than _CG_MAX
    # applications of J. The tolerance itself is pinned, so that it cannot
    # be loosened without this test changing.
    assert means._CG_RTOL == 1e-6
    applied = []

    def counted(lw, v):
        jac = _karcher_jacobian(lw, v)

        def apply(h):
            applied.append(1)
            return jac(h)
        return apply

    monkeypatch.setattr(means, "_karcher_jacobian", counted)
    rng = np.random.default_rng(61)
    for dim, k in ((3, 2), (4, 6), (5, 3), (6, 4), (8, 5), (8, 2)):
        t = gen_tuple(GenSpec(dim=dim, k=k, seed=dim * 10 + k, cond_bound=cond))
        for x in (t.stack.mean(axis=0), random_spd(rng, dim).entries):
            _, s, r, lw, v = _karcher_state(x, t.stack)
            assert r > 1e-3
            applied.clear()
            h = means._newton_step(s, r, lw, v)
            assert 0 < len(applied) < means._CG_MAX
            gap = np.linalg.norm(_karcher_jacobian(lw, v)(h) - s)
            assert gap <= (means._CG_RTOL + 1e-12) * r, (dim, k, gap / r)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=1e-16)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=20_000)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=2.5)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=True)
    cfg = SolverConfig(max_iter=np.int64(5))
    assert cfg == SolverConfig(max_iter=5) and type(cfg.max_iter) is int
    for tol in (1, np.float32(1e-8)):
        cfg = SolverConfig(residual_tol=tol)
        assert type(cfg.residual_tol) is float and cfg.residual_tol == float(tol)
    # an integer beyond float range is refused like any other bad tolerance
    for tol in (10**400, -10**400):
        with pytest.raises(ValueError, match="^residual_tol must be finite"):
            SolverConfig(residual_tol=tol)


# True would stop the Karcher solver at residual 1
@pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, True, "1e-10", None])
def test_solver_config_rejects_non_finite_residual_tol(tol):
    # an infinite tolerance would stop the Karcher solver at its start
    with pytest.raises(ValueError, match="residual_tol"):
        SolverConfig(residual_tol=tol)


# -- perspective and auxiliaries ---------------------------------------------

def test_perspective_scalar_value():
    # the perspective of the square root is the geometric mean: P(4, 9) = 6
    root = RegularMap(arity=1, fn=lambda t: power(t[0], 0.5))
    out = perspective(root, SpdTuple([diag(4.0)]), diag(9.0))
    assert abs(out.entries[0, 0] - 6.0) < 1e-12


def test_perspective_builds_inductive_mean():
    rng = np.random.default_rng(43)
    for k in (2, 3, 4):
        items = [random_spd(rng, 3) for _ in range(k)]
        b = random_spd(rng, 3)
        lifted = perspective(inductive_auxiliary(k), SpdTuple(items), b)
        full = inductive_mean(SpdTuple(items + [b]))
        assert rel_err(lifted.entries, full.entries) < 1e-12


def test_perspective_builds_variant_mean():
    rng = np.random.default_rng(44)
    for k in (2, 3):
        items = [random_spd(rng, 3) for _ in range(k)]
        b = random_spd(rng, 3)
        lifted = perspective(variant_auxiliary(k), SpdTuple(items), b)
        full = variant_mean(SpdTuple(items + [b]))
        assert rel_err(lifted.entries, full.entries) < 1e-12


def test_perspective_validation():
    rng = np.random.default_rng(45)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    aux = inductive_auxiliary(2)
    with pytest.raises(ValueError):
        perspective(aux, SpdTuple([a]), b)
    with pytest.raises(ShapeError):
        perspective(inductive_auxiliary(1), SpdTuple([a]), random_spd(rng, 2))


def test_auxiliary_scalar_case():
    # arity 1: F(A) = A^(1/2) for both families
    a = diag(16.0)
    assert abs(inductive_auxiliary(1).fn(SpdTuple([a])).entries[0, 0] - 4.0) < 1e-12
    assert abs(variant_auxiliary(1).fn(SpdTuple([a])).entries[0, 0] - 4.0) < 1e-12


def test_regular_map_validation():
    with pytest.raises(ValueError):
        RegularMap(arity=0, fn=lambda t: t[0])
    # the integer rule of GenSpec and SolverConfig: numpy integers are
    # stored as int, floats, bools and strings are rejected
    for bad in (2.5, True, "2", None):
        with pytest.raises(ValueError, match="^arity must be an integer, got "):
            RegularMap(arity=bad, fn=lambda t: t[0])
    arity = RegularMap(arity=np.int64(2), fn=lambda t: t[0]).arity
    assert arity == 2 and type(arity) is int
    # the auxiliary maps take their arity check from RegularMap
    for k in (0, -1):
        for auxiliary in (inductive_auxiliary, variant_auxiliary):
            with pytest.raises(ValueError):
                auxiliary(k)


def test_a_map_result_of_another_dimension_is_a_shape_error():
    # checked where the map is evaluated, before a product can mismatch
    a = SpdMatrix(np.eye(2))
    wide = RegularMap(arity=2, fn=lambda t: SymMatrix(np.eye(3)))
    for call in (lambda: wide(SpdTuple([a, a])),
                 lambda: perspective(wide, SpdTuple([a, a]), a)):
        with pytest.raises(ShapeError,
                           match="^RegularMap.fn: result has dimension 3, arguments have 2$"):
            call()


# -- shared mean behavior ------------------------------------------------------

def test_means_return_with_a_factored_operand_at_the_certification_floor():
    # Spectra reaching down to 3.2e-12, just above default_spd_tol: the
    # Cholesky factorization of such an operand must not fail where it
    # certifies. The partners are well conditioned; two operands both at the
    # floor would ask for a power of a matrix of condition 1e23.
    rng = np.random.default_rng(52)
    lam = np.logspace(0.0, -11.5, 64)
    for _ in range(3):
        q = random_orthogonal(rng, 64)
        a = SpdMatrix((q * lam) @ q.T)
        b, c = random_spd(rng, 64), random_spd(rng, 64)
        assert isinstance(weighted_geometric_2(a, b, 0.3), SpdMatrix)
        assert isinstance(inductive_mean(SpdTuple([a, b, c])), SpdMatrix)
        assert isinstance(variant_mean(SpdTuple([b, c, a])), SpdMatrix)
        assert isinstance(harmonic_mean(SpdTuple([a, b, c])), SpdMatrix)


def test_mean_dispatch_accepts_strings_and_enums():
    rng = np.random.default_rng(46)
    t = SpdTuple([random_spd(rng, 2) for _ in range(3)])
    for kind in MeanKind:
        by_enum = mean(kind, t)
        by_name = mean(kind.value, t)
        assert np.array_equal(by_enum.entries, by_name.entries)
    with pytest.raises(ValueError):
        mean("median", t)


def test_means_take_only_an_spd_tuple():
    # a one-item list once came back as its unchecked item, a longer one
    # raised a bare AttributeError
    eye = SpdMatrix(np.eye(2))
    calls = [inductive_mean, variant_mean, arithmetic_mean, harmonic_mean,
             karcher_mean] + [lambda t, kind=kind: mean(kind, t) for kind in MeanKind]
    for call in calls:
        for bad in (["x"], [np.eye(2)], [eye], [eye, eye], np.eye(2)[None]):
            with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
                call(bad)


def test_tuple_and_matrix_operations_name_a_wrong_type():
    # a list or an array in place of a tuple or a matrix is named by its
    # type, not reported as a missing attribute
    eye = SpdMatrix(np.eye(2))
    pair = SpdTuple([eye, eye])
    calls = [
        (lambda: perspective(inductive_auxiliary(2), [eye, eye], eye), "list"),
        (lambda: perspective(inductive_auxiliary(2), pair, np.eye(2)), "ndarray"),
        (lambda: karcher_residual(eye, [eye, eye]), "list"),
        (lambda: karcher_residual(np.eye(2), pair), "ndarray"),
        (lambda: weighted_geometric_2(np.eye(2), eye, 0.5), "ndarray"),
        (lambda: weighted_geometric_2(eye, [eye], 0.5), "list"),
        # the solver settings, read by the Karcher kind, gated by every kind
        (lambda: karcher_mean(pair, 5), "int"),
        (lambda: mean("karcher", pair, {"max_iter": 5}), "dict"),
        (lambda: mean("inductive", pair, cfg=5), "int"),
        # the map, and what the map returns, at its one evaluation
        (lambda: perspective(lambda t: t[0], pair, eye), "function"),
        (lambda: perspective(RegularMap(2, lambda t: t.stack[0]), pair, eye), "ndarray"),
        (lambda: RegularMap(1, lambda t: None)(SpdTuple([eye])), "NoneType"),
    ]
    for call, type_name in calls:
        with pytest.raises(TypeError, match=f"got {type_name}$"):
            call()


def test_mean_reaches_each_kind_through_its_public_name(monkeypatch):
    # bench/tracer.py counts a kind's calls by patching the module-level
    # <kind>_mean names and means._DISPATCH; mean() must go through them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    rng = np.random.default_rng(51)
    t = SpdTuple([random_spd(rng, 2) for _ in range(3)])
    for kind in MeanKind:
        tracer = Tracer()
        with tracer.installed(spdmeans):
            mean(kind, t)
        calls = {name: n for name, n in tracer.counts.items()
                 if name.startswith("means.") and name.endswith(".calls")}
        assert calls == {f"means.{kind.value}.calls": 1}


@pytest.mark.parametrize("kind", list(MeanKind))
def test_positive_homogeneity_all_kinds(kind):
    rng = np.random.default_rng(47)
    t = SpdTuple([random_spd(rng, 3) for _ in range(3)])
    # the extreme scales need the relative positive-definiteness floor
    for scale, tol in ((3.7, 1e-10), (1e-150, 1e-12), (1e150, 1e-12)):
        scaled = SpdTuple([SpdMatrix(scale * a.entries) for a in t])
        assert rel_err(mean(kind, scaled).entries,
                       scale * mean(kind, t).entries) < tol


@pytest.mark.parametrize("kind", ["inductive", "variant", "karcher"])
def test_joint_homogeneity_geometric_kinds(kind):
    rng = np.random.default_rng(48)
    items = [random_spd(rng, 3) for _ in range(3)]
    weights = [0.5, 2.0, 5.0]
    scaled = SpdTuple([SpdMatrix(w * a.entries)
                       for w, a in zip(weights, items)])
    factor = math.prod(weights) ** (1.0 / 3.0)
    assert rel_err(mean(kind, scaled).entries,
                   factor * mean(kind, SpdTuple(items)).entries) < 1e-8


def test_spd_tuple_validation():
    rng = np.random.default_rng(49)
    with pytest.raises(ValueError):
        SpdTuple([])
    with pytest.raises(TypeError):
        SpdTuple([np.eye(2)])
    with pytest.raises(ShapeError):
        SpdTuple([random_spd(rng, 2), random_spd(rng, 3)])


def test_updating_rules():
    rng = np.random.default_rng(50)
    for k in (1, 2, 3, 4):
        items = [random_spd(rng, 3) for _ in range(k)]
        t = SpdTuple(items)
        ext = SpdTuple(items + [SpdMatrix(np.eye(3))])
        p = k / (k + 1)
        assert rel_err(inductive_mean(ext).entries,
                       power(inductive_mean(t), p).entries) < 1e-9
        powered = SpdTuple([power(a, p) for a in items])
        assert rel_err(variant_mean(ext).entries,
                       variant_mean(powered).entries) < 1e-9


def test_harmonic_mean_and_inverse_cost_one_lu_solve_per_stack(monkeypatch):
    # two stacked inverses and the certification's one Cholesky, nothing
    # else: no eigendecomposition
    rng = np.random.default_rng(53)
    t = SpdTuple([random_spd(rng, 4) for _ in range(5)])
    counts = dict.fromkeys(("inv", "cholesky", "eigh", "eigvalsh"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    harmonic_mean(t)
    assert counts == {"inv": 2, "cholesky": 1, "eigh": 0, "eigvalsh": 0}
    counts.update(dict.fromkeys(counts, 0))
    inverse(t[0])
    assert counts == {"inv": 1, "cholesky": 1, "eigh": 0, "eigvalsh": 0}
