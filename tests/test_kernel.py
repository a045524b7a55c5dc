import math
import warnings

import numpy as np
import pytest

from spdmeans import (
    DomainError,
    EigenSolverError,
    NotPositiveDefiniteError,
    ShapeError,
    SpdMatrix,
    SymMatrix,
    SymmetryError,
    congruence,
    default_spd_tol,
    exp_m,
    inv_sqrt,
    inverse,
    log_m,
    power,
    spectral_apply,
    sqrt,
)

from spdmeans.harness import _loewner_violation
from spdmeans.kernel import (certify, chol_pair, eigh, exp_arr, log_arr, power_arr,
                             sqrt_pair)

from helpers import random_spd, rel_err


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
    # a violation at or below zero means the order holds
    assert _loewner_violation(a.entries, bigger, 1e-10) <= 0
    assert _loewner_violation(bigger, a.entries, 1e-10) > 0
    assert _loewner_violation(a.entries, a.entries, 0.0) <= 0  # reflexive
    # the verdict does not depend on scale: a reversed order fails when tiny
    eye = np.eye(3)
    assert _loewner_violation(2e-150 * eye, 1e-150 * eye, 1e-8) > 0
    assert _loewner_violation(1e-150 * eye, 2e-150 * eye, 1e-8) <= 0


def test_loewner_transitive_on_chain():
    rng = np.random.default_rng(27)
    tol = 1e-10
    a = random_spd(rng, 5)
    b = a.entries + random_spd(rng, 5).entries
    c = b + random_spd(rng, 5).entries
    assert _loewner_violation(a.entries, b, tol) <= 0
    assert _loewner_violation(b, c, tol) <= 0
    assert _loewner_violation(a.entries, c, 2 * tol) <= 0


def test_is_spd_gram_and_rejections():
    c = np.random.default_rng(28).standard_normal((5, 5))
    tol = 1e-9
    assert SpdMatrix(c.T @ c + 2 * tol * np.eye(5), tol=tol).min_eig_witness > tol
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, -1e-6]), tol=1e-9)
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
    # explicit tolerance overrides the default floor
    near = np.diag([1.0, 1e-8])
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(near, tol=1e-6)
    assert SpdMatrix(near, tol=1e-10).min_eig_witness > 0
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
        SpdMatrix(a, tol=2.0)
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
