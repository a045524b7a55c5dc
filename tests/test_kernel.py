import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spdmeans import (
    DomainError,
    EigenSolverError,
    NotPositiveDefiniteError,
    ShapeError,
    SpdMatrix,
    SpdTuple,
    SymMatrix,
    SymmetryError,
    arithmetic_mean,
    congruence,
    default_spd_tol,
    exp_m,
    harmonic_mean,
    inductive_mean,
    inv_sqrt,
    inverse,
    karcher_mean,
    log_m,
    power,
    spectral_apply,
    sqrt,
    variant_mean,
    weighted_geometric_2,
)

from spdmeans import kernel
from spdmeans.harness import _loewner_violation
from spdmeans.kernel import (certify, chol_pair, eigh, eigh_pd, eigvalsh, exp_arr,
                             haar_arr, inv_arr, log_arr, power_arr, sqrt_pair)

from helpers import random_orthogonal, random_spd, rel_err


def test_is_real_takes_real_numbers_but_no_bool():
    for value in (1.5, 2, np.float32(0.5), np.float64(3.0), np.int64(4), Fraction(1, 3),
                  math.inf, math.nan):
        assert kernel.is_real(value)
    for value in (True, np.bool_(False), "1.0", None, 1j, np.array(1.0), [1.0]):
        assert not kernel.is_real(value)
    assert "is_real" not in kernel.__all__


def test_eigh_two_by_two():
    # [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
    values, vectors = eigh(SymMatrix([[2.0, 1.0], [1.0, 2.0]]).entries)
    assert np.allclose(values, [1.0, 3.0], atol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(vectors[:, 0]), [s, s], atol=1e-12)
    assert np.allclose(np.abs(vectors[:, 1]), [s, s], atol=1e-12)
    # signs within a column are opposite for the first eigenvector
    assert vectors[0, 0] * vectors[1, 0] < 0
    assert vectors[0, 1] * vectors[1, 1] > 0


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_eigh_invariants(n):
    rng = np.random.default_rng(1000 + n)
    a = SymMatrix((lambda m: (m + m.T) / 2)(rng.standard_normal((n, n))))
    values, vectors = eigh(a.entries)
    assert np.all(np.diff(values) >= 0)
    assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-10
    recon = (vectors * values) @ vectors.T
    assert np.abs(recon - a.entries).max() <= 1e-10 * np.abs(a.entries).max()


def test_spectral_apply_sqrt_hand_value():
    a = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
    root = spectral_apply(a, math.sqrt)
    expected = np.array([[1.36603, 0.36603], [0.36603, 1.36603]])
    assert np.abs(root.entries - expected).max() < 1e-4
    # exact values are (sqrt3 +/- 1)/2
    assert abs(root.entries[0, 0] - (math.sqrt(3) + 1) / 2) < 1e-12
    assert abs(root.entries[0, 1] - (math.sqrt(3) - 1) / 2) < 1e-12


def test_spectral_apply_matches_direct_square():
    rng = np.random.default_rng(11)
    a = random_spd(rng, 5)
    sq = spectral_apply(a, lambda t: t * t)
    assert rel_err(sq.entries, a.entries @ a.entries) < 1e-12


def test_spectral_apply_eigenvector_action():
    rng = np.random.default_rng(12)
    a = random_spd(rng, 6)
    values, vectors = eigh(a.entries)
    fa = spectral_apply(a, math.log1p)
    for i in range(6):
        v = vectors[:, i]
        assert np.abs(fa.entries @ v - math.log1p(values[i]) * v).max() < 1e-10


def test_spectral_apply_domain_errors():
    a = SpdMatrix(np.diag([1.0, 2.0]))
    with pytest.raises(DomainError):
        spectral_apply(a, lambda t: float("nan"))
    with pytest.raises(DomainError):
        spectral_apply(a, lambda t: math.sqrt(t - 100.0))
    # a non-real value is a domain error naming the eigenvalue, not a TypeError
    b = SpdMatrix(np.diag([1.0, 4.0]))
    with pytest.raises(DomainError, match=r"^f\(1\.0\) is not a real number"):
        spectral_apply(b, lambda t: (t - 2) ** 0.5)
    with pytest.raises(DomainError, match=r"^f\(1\.0\) is not a real number"):
        spectral_apply(b, lambda t: None)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_power_roundtrip(n):
    rng = np.random.default_rng(2000 + n)
    a = random_spd(rng, n)
    back = power(power(a, 1.0 / 3.0), 3.0)
    assert rel_err(back.entries, a.entries) < 1e-10


def test_power_special_exponents():
    rng = np.random.default_rng(21)
    a = random_spd(rng, 4)
    assert rel_err(power(a, 1.0).entries, a.entries) < 1e-14
    assert np.abs(power(a, 0.0).entries - np.eye(4)).max() < 1e-13


def test_sqrt_inverse_family():
    rng = np.random.default_rng(22)
    a = random_spd(rng, 5)
    r = sqrt(a)
    assert rel_err(r.entries @ r.entries, a.entries) < 1e-11
    assert rel_err(inv_sqrt(a).entries, inverse(r).entries) < 1e-11
    assert np.abs(inverse(a).entries @ a.entries - np.eye(5)).max() < 1e-9


def test_log_exp_roundtrip_wide_spectrum():
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lam = np.logspace(-3, 3, 6)  # condition 1e6
    a = SpdMatrix((q * lam) @ q.T)
    back = exp_m(log_m(a))
    assert rel_err(back.entries, a.entries) < 1e-9
    # and the reverse composition on a symmetric argument
    s = SymMatrix((lambda m: (m + m.T) / 2)(rng.standard_normal((4, 4))))
    again = log_m(exp_m(s))
    assert rel_err(again.entries, s.entries) < 1e-10


def test_exp_m_always_spd():
    rng = np.random.default_rng(24)
    s = SymMatrix((lambda m: (m + m.T) / 2)(rng.standard_normal((5, 5))))
    e = exp_m(s)
    assert e.min_eig_witness > 0


def test_exp_m_overflow_is_a_domain_error():
    # exp overflows to inf before the result is certified; the finiteness
    # check comes first, so the error is typed, not a PD failure at an
    # infinite floor; numpy's overflow warnings are not emitted either
    warnings.simplefilter("error")
    for s in ([[1.0, 800.0], [800.0, 1.0]], np.diag([800.0, 1.0])):
        with pytest.raises(DomainError):
            exp_m(SymMatrix(s))
    # at 709.5, exp(w) = 1.355e308 is finite and the rebuild keeps it so;
    # the condition number e^708.5 puts e^1 under the floor
    with pytest.raises(NotPositiveDefiniteError, match="not above tolerance"):
        exp_m(SymMatrix(np.diag([709.5, 1.0])))
    # a finite result near the float64 limit is returned and certified
    out = exp_m(SymMatrix(np.diag([709.5, 700.0])))
    assert np.array_equal(out.entries, np.diag(np.exp([709.5, 700.0])))
    assert math.isclose(out.min_eig_witness, math.exp(700.0), rel_tol=1e-15)


def test_power_and_congruence_overflow_is_a_domain_error():
    # as in exp_m: an out-of-range value is left to the finiteness check of
    # certify or SymMatrix, with no numpy warning first
    warnings.simplefilter("error")
    a = SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
    for call in (lambda: power(a, 2000.0),
                 lambda: power(a, 900.0),
                 lambda: power(SpdMatrix(np.diag([2.0, 1.0])), math.inf),
                 lambda: congruence(1e200 * np.eye(2), a)):
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            call()
    # finite results near the limit are returned as before
    big = 2.0 ** 1000 * np.eye(2)
    assert np.array_equal(power(SpdMatrix(2.0 * np.eye(2)), 1000.0).entries, big)
    assert np.array_equal(congruence(2.0 ** 500 * np.eye(2), SpdMatrix(np.eye(2))).entries,
                          big)


def test_finite_results_near_the_float64_limit_stay_finite():
    # halving before adding: the symmetrization of a result with entries
    # above 9e307 must not overflow into "entries must be finite"; nor may
    # the sum of the items (the arithmetic mean, the Karcher start) or of
    # their inverses (the harmonic mean, for the tiny pair)
    warnings.simplefilter("error")
    for a_d, b_d in [(np.array([1.5e308, 1e297]), np.array([1.2e308, 2e297])),
                     (np.array([8e-309, 1e-300]), np.array([1e-308, 2e-300]))]:
        a, b = SpdMatrix(np.diag(a_d)), SpdMatrix(np.diag(b_d))
        t = SpdTuple([a, b])
        geo = np.sqrt(a_d) * np.sqrt(b_d)
        for op, expected in [
            (lambda: congruence(np.eye(2), a), a_d),
            (lambda: power(a, 1.0), a_d),
            (lambda: weighted_geometric_2(a, b, 0.5), geo),
            (lambda: inductive_mean(t), geo),
            (lambda: variant_mean(t), geo),
            (lambda: karcher_mean(t), geo),
            (lambda: arithmetic_mean(t), a_d / 2 + b_d / 2),
            (lambda: harmonic_mean(t), 1.0 / (0.5 / a_d + 0.5 / b_d)),
        ]:
            out = op().entries
            assert np.isfinite(out).all()
            assert np.array_equal(out, np.diag(out.diagonal()))
            assert np.allclose(out.diagonal(), expected, rtol=1e-14, atol=0.0)


def test_congruence_values_and_shape_check():
    c = [[1.0, 2.0], [0.0, 1.0]]
    a = SymMatrix([[1.0, 0.0], [0.0, 2.0]])
    out = congruence(c, a)
    assert np.allclose(out.entries, np.transpose(c) @ a.entries @ c)
    assert np.array_equal(out.entries, out.entries.T)
    with pytest.raises(ShapeError):
        congruence(np.eye(3), a)
    # the gate on C: square and finite
    with pytest.raises(ShapeError):
        congruence([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]], a)
    with pytest.raises(DomainError):
        congruence([[1.0, float("nan")], [0.0, 1.0]], a)


def test_congruence_by_orthogonal_preserves_spectrum():
    rng = np.random.default_rng(25)
    a = random_spd(rng, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rotated = congruence(q, a)
    w0 = eigh(a.entries)[0]
    w1 = eigh(rotated.entries)[0]
    assert np.abs(w0 - w1).max() < 1e-9 * np.abs(w0).max()


def test_loewner_order_basic():
    rng = np.random.default_rng(26)
    a = random_spd(rng, 4)
    p = random_spd(rng, 4)
    bigger = a.entries + p.entries
    # a gap at or below the tolerance means the order holds
    assert _loewner_violation(a.entries, bigger) <= 1e-10
    assert _loewner_violation(bigger, a.entries) > 1e-10
    assert _loewner_violation(a.entries, a.entries) <= 0.0  # reflexive
    # the verdict does not depend on scale: a reversed order fails when tiny
    eye = np.eye(3)
    assert _loewner_violation(2e-150 * eye, 1e-150 * eye) > 1e-8
    assert _loewner_violation(1e-150 * eye, 2e-150 * eye) <= 1e-8


def test_loewner_transitive_on_chain():
    rng = np.random.default_rng(27)
    tol = 1e-10
    a = random_spd(rng, 5)
    b = a.entries + random_spd(rng, 5).entries
    c = b + random_spd(rng, 5).entries
    assert _loewner_violation(a.entries, b) <= tol
    assert _loewner_violation(b, c) <= tol
    assert _loewner_violation(a.entries, c) <= 2 * tol


def test_is_spd_gram_and_rejections():
    c = np.random.default_rng(28).standard_normal((5, 5))
    gram = c.T @ c + 2e-9 * np.eye(5)
    assert SpdMatrix(gram).min_eig_witness > default_spd_tol(gram)
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, -1e-6]))
    # the default floor is relative to the entries: 1e-12 * max|entry|
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, 1e-13]))
    assert abs(default_spd_tol(np.diag([1.0, 1e-13])) - 1e-12) < 1e-27
    assert abs(SpdMatrix(1e-12 * np.eye(3)).min_eig_witness - 1e-12) < 1e-27


def test_symmetry_gate():
    with pytest.raises(SymmetryError):
        SymMatrix([[1.0, 0.5], [0.0, 1.0]])
    # round-off asymmetry is accepted and symmetrized exactly
    a = np.array([[1.0, 0.25], [0.25 * (1 + 1e-14), 1.0]])
    s = SymMatrix(a)
    assert np.array_equal(s.entries, s.entries.T)
    # symmetrizing keeps finite entries finite, so the floor, not the
    # finiteness gate, rejects this matrix
    huge = np.diag([1e308, 1.0])
    assert np.array_equal(SymMatrix(huge).entries, huge)
    with pytest.raises(NotPositiveDefiniteError,
                       match="eigenvalue 1.000000e[+]00 not above tolerance 1.000e[+]296"):
        SpdMatrix(huge)
    near = np.array([[1.0, 1.5e308], [1.5e308 * (1 + 2**-52), 1.0]])
    s = SymMatrix(near)
    assert np.isfinite(s.entries).all() and np.array_equal(s.entries, s.entries.T)
    with pytest.raises(SymmetryError, match="asymmetry inf"):
        SymMatrix([[0.0, 1e308], [-1e308, 0.0]])
    # an exactly symmetric input is stored as given, subnormal entries too
    for tiny in (5e-324, 1e-310):
        assert np.array_equal(SymMatrix(tiny * np.eye(2)).entries, tiny * np.eye(2))


def test_nan_witness_is_not_certified(monkeypatch):
    # the rule reads "above the floor", so a NaN eigenvalue fails it. A
    # smallest eigenvalue just above the floor is below the Cholesky
    # certificate's margin, so the eigenvalue rule decides it
    near = np.diag([1.0, 1.0005e-12])
    assert SpdMatrix(near).min_eig_witness > default_spd_tol(near)
    monkeypatch.setattr(kernel, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    with pytest.raises(NotPositiveDefiniteError, match="eigenvalue nan"):
        SpdMatrix(near)
    with pytest.raises(NotPositiveDefiniteError, match="matrix 0"):
        certify(near[None].copy())


def test_shape_and_domain_rejections():
    with pytest.raises(ShapeError):
        SymMatrix([[1.0, 2.0, 3.0]])
    with pytest.raises(ShapeError):
        SymMatrix(np.zeros((0, 0)))
    with pytest.raises(ShapeError):
        SymMatrix([[1.0], [2.0, 3.0]])
    with pytest.raises(DomainError):
        SymMatrix([[float("inf")]])
    with pytest.raises(DomainError):
        SymMatrix([[float("nan")]])


def test_spd_certification():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.zeros((2, 2)))
    a = SpdMatrix(np.diag([3.0, 5.0]))
    assert abs(a.min_eig_witness - 3.0) < 1e-12
    # the one floor, 1e-12 * max|entry|, passes a witness of 1e-8
    near = np.diag([1.0, 1e-8])
    assert SpdMatrix(near).min_eig_witness > default_spd_tol(near)
    # one stacked solve certifies each member as its own construction would
    rng = np.random.default_rng(28)
    stack = np.stack([np.diag([3.0, 5.0]), near]
                     + [random_spd(rng, 2).entries for _ in range(4)])
    certified = certify(stack.copy())
    for m, a in zip(certified, stack, strict=True):
        assert m.min_eig_witness == SpdMatrix(a).min_eig_witness
        assert np.array_equal(m.entries, a)
        assert not m.entries.flags.writeable
    # each member has its own floor: member 1's witness 1e-17 is above its
    # floor 1e-18 but far below member 0's floor 1e-6
    mixed = np.stack([1e6 * np.eye(2), 1e-6 * np.diag([1.0, 1e-11])])
    for m, a in zip(certify(mixed.copy()), mixed, strict=True):
        assert m.min_eig_witness == SpdMatrix(a).min_eig_witness


def eigenvalue_rule(stack):
    """The eigenvalue rule applied directly: the error text of the first
    member whose smallest eigenvalue is not above 1e-12 * max|entry|, or
    None if there is none."""
    witnesses = np.linalg.eigvalsh(stack)[:, 0]
    floors = 1e-12 * np.abs(stack).max(axis=(1, 2))
    for i, (w, floor) in enumerate(zip(witnesses, floors)):
        if not w > floor:
            return f"matrix {i}: smallest eigenvalue {w:.6e} not above tolerance {floor:.3e}"
    return None


def certification_error(certify_fn, stack):
    try:
        certified = certify_fn(stack)
    except NotPositiveDefiniteError as exc:
        return str(exc), None
    return None, certified


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_the_cholesky_certificate_gives_the_eigenvalue_rules_verdicts_at_its_margins(
        n, monkeypatch):
    # Smallest eigenvalues at the floor 1e-12 * m and at the certificate's
    # margin (1e-12 + 4 n^3 eps) * m, each times 1 -+ 1e-3, m = max|entry|,
    # under Haar rotations, at scales 2^-1000, 1, 2^1000 and a subnormal one
    rng = np.random.default_rng(1000 + n)
    eps = np.finfo(float).eps
    calls = []
    real = np.linalg.eigvalsh

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    # eigenvalue solves certify ran for the stacks it accepted: none where
    # the certificate decided, one where the eigenvalue rule did
    paths = set()
    for scale in (2.0**-1000, 1.0, 2.0**1000, 2.0**-1060):
        members = []
        for _ in range(2):
            q = random_orthogonal(rng, n)
            lam = np.logspace(0.0, -3.0, n)
            base = q * lam @ q.T
            m = np.abs(base + base.T).max() / 2
            for level in (1e-12, 1e-12 + 4 * n**3 * eps):
                for offset in (1 - 1e-3, 1 + 1e-3):
                    lam[-1] = level * offset * m
                    a = q * lam @ q.T
                    members.append((a + a.T) / 2 * scale)
        for stack in [a[None] for a in members] + [np.stack(members)]:
            want = eigenvalue_rule(stack)
            calls.clear()
            got, certified = certification_error(certify, stack.copy())
            solves = len(calls)
            assert got == want
            if stack.shape[0] == 1:
                got, _ = certification_error(SpdMatrix, stack[0])
                assert got == want
            if certified is None:
                continue
            paths.add(solves)
            witnesses = [m.min_eig_witness for m in certified]
            assert np.array_equal(witnesses, real(stack)[:, 0])
            assert (np.array(witnesses) > default_spd_tol(stack)).all()
    # both the certificate and the eigenvalue rule accepted some stacks
    assert paths == {0, 1}


def test_the_witness_is_computed_from_the_entries_on_each_read_and_is_read_only(
        monkeypatch):
    rng = np.random.default_rng(29)
    stack = np.stack([random_spd(rng, 4).entries for _ in range(3)])
    calls = []
    real = np.linalg.eigvalsh

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    certified = certify(stack.copy())
    rebuilt = SpdTuple(list(certified))
    assert calls == []
    # each read is one eigenvalue solve of that item's entries, and equals
    # the stacked solve's smallest eigenvalue bit for bit
    for items in (certified, rebuilt, certified):
        for i, m in enumerate(items):
            before = len(calls)
            assert m.min_eig_witness == real(stack)[i, 0]
            assert calls[before:] == [(4, 4)]
    with pytest.raises(AttributeError):
        certified[0].min_eig_witness = 1.0


def test_spd_tuple_holds_one_frozen_stack():
    rng = np.random.default_rng(52)
    items = [random_spd(rng, 3) for _ in range(4)]
    # a user-built tuple stacks its items once and freezes the stack
    t = SpdTuple(items)
    assert t.stack.shape == (4, 3, 3) and t.dim == 3
    assert all(np.array_equal(m, a.entries) for m, a in zip(t.stack, items, strict=True))
    assert not t.stack.flags.writeable
    assert t.stack is t.stack
    with pytest.raises(ValueError):
        t.stack[0, 0, 0] = -1.0
    # its items view the stack, not the callers' arrays, so each entry is
    # held once
    for i, (m, a) in enumerate(zip(t, items, strict=True)):
        assert m is t[i] and isinstance(m, SpdMatrix)
        assert np.shares_memory(m.entries, t.stack[i])
        assert not np.shares_memory(m.entries, a.entries)
        assert m.min_eig_witness == a.min_eig_witness
    # a certified tuple holds its input stack, and its items view its slices
    fresh = np.stack([a.entries for a in items])
    c = certify(fresh)
    assert isinstance(c, SpdTuple) and len(c) == 4 and c.dim == 3
    assert c.stack is fresh and np.shares_memory(c.stack, fresh)
    assert not fresh.flags.writeable
    for i, m in enumerate(c):
        assert m is c[i] and isinstance(m, SpdMatrix)
        assert np.shares_memory(m.entries, c.stack[i])
        assert np.array_equal(m.entries, c.stack[i])


def test_spd_matrix_is_a_sym_matrix():
    a = SpdMatrix(np.eye(3))
    assert isinstance(a, SymMatrix)
    assert not hasattr(a, "__dict__")
    # a symmetric or SPD argument is certified as it stands
    again = SpdMatrix(a)
    assert again.entries is a.entries
    assert again.min_eig_witness == a.min_eig_witness
    assert SpdMatrix(SymMatrix(np.diag([2.0, 3.0]))).min_eig_witness == 2.0
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(SymMatrix(np.diag([1.0, 1e-13])))
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(SymMatrix(np.diag([1.0, -1.0])))
    # a SymMatrix of an SpdMatrix shares its entries
    assert SymMatrix(a).entries is a.entries
    # functions typed on SymMatrix take an SpdMatrix directly
    assert np.array_equal(congruence(np.eye(3), a).entries, a.entries)


def test_entries_are_read_only():
    a = SpdMatrix(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 7.0


def test_core_matches_public_functions_on_stacks_and_matrices():
    rng = np.random.default_rng(29)
    spd = [random_spd(rng, 4) for _ in range(5)]
    sym = [SymMatrix((lambda m: (m + m.T) / 2)(rng.standard_normal((4, 4))))
           for _ in range(5)]
    cases = [
        (lambda a: power_arr(a, 0.3), lambda m: power(m, 0.3), spd),
        (log_arr, log_m, spd),
        (exp_arr, exp_m, sym),
        (lambda a: sqrt_pair(a)[0], sqrt, spd),
        (lambda a: sqrt_pair(a)[1], inv_sqrt, spd),
        (inv_arr, inverse, spd),
    ]
    for core, public, members in cases:
        stack = np.stack([m.entries for m in members])
        expected = np.stack([public(m).entries for m in members])
        for arr, want in ((stack, expected), (stack[2], expected[2])):
            out = core(arr)
            assert out.shape == arr.shape
            assert rel_err(out, want) < 1e-12
            assert np.array_equal(out, out.swapaxes(-1, -2))


def test_chol_pair_on_stacks_and_matrices():
    rng = np.random.default_rng(31)
    stack = np.stack([random_spd(rng, 5, cond=1e4).entries for _ in range(4)])
    for a in (stack, stack[1]):
        l, li = chol_pair(a)
        assert l.shape == li.shape == a.shape
        assert np.array_equal(l, np.tril(l))
        assert rel_err(l @ l.swapaxes(-1, -2), a) < 1e-13
        assert np.abs(li @ l - np.eye(5)).max() < 1e-12


def test_haar_arr_is_the_qr_factor_with_a_nonnegative_r_diagonal():
    g = np.random.default_rng(41).standard_normal((6, 8, 8))
    q = haar_arr(g)
    assert q.shape == g.shape
    assert np.abs(q.swapaxes(-1, -2) @ q - np.eye(8)).max() <= 1e-14
    # Q^T G is R: upper triangular, with the diagonal the sign rule sets
    r = q.swapaxes(-1, -2) @ g
    rounding = 1e-14 * np.abs(r).max()
    assert np.abs(np.tril(r, -1)).max() <= rounding
    assert (np.diagonal(r, axis1=-2, axis2=-1) >= -rounding).all()
    # a stack is its members, bit for bit
    for qi, gi in zip(q, g):
        assert np.array_equal(qi, haar_arr(gi))


def test_core_rejects_stack_with_one_non_pd_member():
    rng = np.random.default_rng(30)
    stack = np.stack([random_spd(rng, 3).entries for _ in range(4)])
    stack[2] = np.diag([1.0, -1e-3, 2.0])
    for core in (lambda a: power_arr(a, 0.5), log_arr, sqrt_pair, chol_pair):
        # the typed error, not numpy's LinAlgError
        with pytest.raises(NotPositiveDefiniteError):
            core(stack)
    with pytest.raises(NotPositiveDefiniteError, match="^matrix 2: "):
        certify(stack)
    # a positive witness at or below the member's own floor fails too:
    # member 2's witness is 1e-19, its floor 1e-18
    mixed = np.stack([1e6 * np.eye(2), 1e-6 * np.diag([1.0, 1e-11]),
                      1e-6 * np.diag([1.0, 1e-13])])
    with pytest.raises(NotPositiveDefiniteError, match="^matrix 2: "):
        certify(mixed)


def test_a_nan_spectrum_is_not_positive_definite():
    # LAPACK returns [nan, nan] for an infinite entry, with no error and no
    # warning; "not above 0" fails it where "<= 0" would let it through
    bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
    assert np.isnan(np.linalg.eigh(bad)[0]).all()
    for a in (bad, np.stack([np.eye(2), bad])):
        for core in (eigh_pd, sqrt_pair):
            with pytest.raises(NotPositiveDefiniteError, match="eigenvalue nan"):
                core(a)


def test_eigensolver_failure_is_an_eigen_solver_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    # the identity is certified by Cholesky, so its witness is solved for
    # when read; a near-floor matrix is decided by the eigenvalue rule
    for core in (eigh, eigvalsh, eigh_pd, lambda a: SpdMatrix(a).min_eig_witness,
                 lambda a: SpdMatrix(np.diag([1.0, 1.0005e-12]))):
        with pytest.raises(EigenSolverError, match="did not converge"):
            core(np.eye(2))


def test_inv_arr_names_a_singular_member_as_not_positive_definite():
    # the typed error, not numpy's LinAlgError, and no RuntimeWarning
    stack = np.stack([np.eye(3), np.diag([1.0, 0.0, 2.0]), 2.0 * np.eye(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (stack, stack[1], np.zeros((2, 2))):
            with pytest.raises(NotPositiveDefiniteError, match="inverse failed"):
                inv_arr(a)


def test_kernel_operations_name_a_wrong_type():
    # an array or a list in place of a matrix is named by its type, not
    # reported as a missing attribute
    calls = [
        lambda m: power(m, 0.5), sqrt, inv_sqrt, inverse, log_m, exp_m,
        lambda m: spectral_apply(m, math.sqrt),
        lambda m: congruence(np.eye(2), m),
        lambda m: SpdTuple([SpdMatrix(np.eye(2)), m]),
    ]
    for call in calls:
        for bad, type_name in ((np.eye(2), "ndarray"), ([[1.0, 0.0], [0.0, 1.0]], "list")):
            with pytest.raises(TypeError, match=f"got {type_name}$"):
                call(bad)
    # power's exponent follows the real-number rule: a list is not broadcast
    # against the spectrum, nor a bool read as 1
    a = SpdMatrix(np.diag([2.0, 3.0]))
    for bad in ([1, 2], True, np.bool_(True), 1j, "2", None, np.array(2.0)):
        with pytest.raises(ValueError, match=r"^p must be a real number, got "):
            power(a, bad)
    for p in (2, np.int64(2), np.float32(2.0), Fraction(2)):
        assert np.array_equal(power(a, p).entries, np.diag([4.0, 9.0]))
    # an integer beyond float range is read as NaN, like NaN itself
    for p in (10**400, math.nan):
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            power(a, p)
