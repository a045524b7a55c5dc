import math

import numpy as np
import pytest

from spdmeans import (
    DomainError,
    EigenSolverError,
    GeneralMatrix,
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
    is_spd,
    loewner_leq,
    log_m,
    power,
    spectral_apply,
    sqrt,
    sym_eigen,
)

from spdmeans.kernel import certify, exp_arr, log_arr, power_arr, sqrt_pair

from helpers import random_spd, rel_err


def test_sym_eigen_two_by_two():
    # [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
    dec = sym_eigen(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.values, [1.0, 3.0], atol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(dec.vectors[:, 0]), [s, s], atol=1e-12)
    assert np.allclose(np.abs(dec.vectors[:, 1]), [s, s], atol=1e-12)
    # signs within a column are opposite for the first eigenvector
    assert dec.vectors[0, 0] * dec.vectors[1, 0] < 0
    assert dec.vectors[0, 1] * dec.vectors[1, 1] > 0


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_sym_eigen_invariants(n):
    rng = np.random.default_rng(1000 + n)
    a = SymMatrix((lambda m: (m + m.T) / 2)(rng.standard_normal((n, n))))
    dec = sym_eigen(a)
    assert np.all(np.diff(dec.values) >= 0)
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(n)).max() <= 1e-10
    recon = (dec.vectors * dec.values) @ dec.vectors.T
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
    dec = sym_eigen(a.base)
    fa = spectral_apply(a, math.log1p)
    for i in range(6):
        v = dec.vectors[:, i]
        assert np.abs(fa.entries @ v - math.log1p(dec.values[i]) * v).max() < 1e-10


def test_spectral_apply_domain_errors():
    a = SpdMatrix(np.diag([1.0, 2.0]))
    with pytest.raises(DomainError):
        spectral_apply(a, lambda t: float("nan"))
    with pytest.raises(DomainError):
        spectral_apply(a, lambda t: math.sqrt(t - 100.0))


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


def test_congruence_values_and_shape_check():
    c = GeneralMatrix([[1.0, 2.0], [0.0, 1.0]])
    a = SymMatrix([[1.0, 0.0], [0.0, 2.0]])
    out = congruence(c, a)
    assert np.allclose(out.entries, c.entries.T @ a.entries @ c.entries)
    assert np.array_equal(out.entries, out.entries.T)
    with pytest.raises(ShapeError):
        congruence(GeneralMatrix(np.eye(3)), a)


def test_congruence_by_orthogonal_preserves_spectrum():
    rng = np.random.default_rng(25)
    a = random_spd(rng, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rotated = congruence(GeneralMatrix(q), a.base)
    w0 = sym_eigen(a.base).values
    w1 = sym_eigen(rotated).values
    assert np.abs(w0 - w1).max() < 1e-9 * np.abs(w0).max()


def test_loewner_order_basic():
    rng = np.random.default_rng(26)
    a = random_spd(rng, 4)
    p = random_spd(rng, 4)
    bigger = SymMatrix(a.entries + p.entries)
    assert loewner_leq(a.base, bigger, 1e-10)
    assert not loewner_leq(bigger, a.base, 1e-10)
    assert loewner_leq(a.base, a.base, 0.0)  # reflexive


def test_loewner_transitive_on_chain():
    rng = np.random.default_rng(27)
    tol = 1e-10
    a = random_spd(rng, 5)
    b = SymMatrix(a.entries + random_spd(rng, 5).entries)
    c = SymMatrix(b.entries + random_spd(rng, 5).entries)
    assert loewner_leq(a.base, b, tol)
    assert loewner_leq(b, c, tol)
    assert loewner_leq(a.base, c, 2 * tol)


def test_is_spd_gram_and_rejections():
    rng = np.random.default_rng(28)
    c = rng.standard_normal((5, 5))
    tol = 1e-9
    gram = SymMatrix(c.T @ c + 2 * tol * np.eye(5))
    assert is_spd(gram, tol)
    assert not is_spd(SymMatrix(np.diag([1.0, -1e-6])), 1e-9)
    # default tolerance scales with the entries
    assert not is_spd(SymMatrix(np.diag([1.0, 1e-13])))
    assert abs(default_spd_tol(np.diag([1.0, 1e-13])) - 1e-12 * 2.0) < 1e-27


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


def test_entries_are_read_only():
    a = SpdMatrix(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 7.0
    dec = sym_eigen(a.base)
    with pytest.raises(ValueError):
        dec.values[0] = 0.0


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


def test_core_rejects_stack_with_one_non_pd_member():
    rng = np.random.default_rng(30)
    stack = np.stack([random_spd(rng, 3).entries for _ in range(4)])
    stack[2] = np.diag([1.0, -1e-3, 2.0])
    for core in (lambda a: power_arr(a, 0.5), log_arr, sqrt_pair):
        with pytest.raises(NotPositiveDefiniteError):
            core(stack)
    with pytest.raises(NotPositiveDefiniteError, match="^matrix 2: "):
        certify(stack)
