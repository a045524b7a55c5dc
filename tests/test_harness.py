import dataclasses
import functools
import hashlib
import inspect
import math

import numpy as np
import pytest

from spdmeans import (CHECK_NAMES, ConvergenceError, GenSpec, MeanKind, SolverConfig,
                      gen_spd, gen_tuple, karcher_mean, run_suite)
from spdmeans import harness
from spdmeans.harness import (
    STRUCTURES,
    _stream,
    _trial_seed,
    check_block_regularity,
    check_commuting,
    check_congruence,
    check_determinant,
    check_hga,
    check_jensen_contraction,
    check_jensen_pair,
    check_karcher_residual,
    check_monotone,
    check_self_dual,
    check_two_var,
    check_updating,
    scalar_mean,
)
from spdmeans.kernel import NotPositiveDefiniteError, ShapeError, SymMatrix, rebuild
from spdmeans.means import RegularMap, inductive_auxiliary


def test_gen_spd_deterministic_and_bounded():
    spec = GenSpec(dim=5, k=1, seed=7, cond_bound=100.0)
    a = gen_spd(spec)
    b = gen_spd(spec)
    assert np.array_equal(a.entries, b.entries)
    w = np.linalg.eigvalsh(a.entries)
    assert w.min() > 0.1 * (1 - 1e-10)
    assert w.max() < 10.0 * (1 + 1e-10)
    assert w.max() / w.min() <= 100.0 * (1 + 1e-9)


def test_gen_spd_condition_one_is_identity():
    a = gen_spd(GenSpec(dim=4, k=1, seed=3, cond_bound=1.0))
    assert np.abs(a.entries - np.eye(4)).max() < 1e-14


def test_gen_tuple_first_item_matches_gen_spd():
    spec = GenSpec(dim=3, k=4, seed=11)
    assert np.array_equal(gen_tuple(spec)[0].entries, gen_spd(spec).entries)


def test_gen_tuple_generic_items_differ():
    t = gen_tuple(GenSpec(dim=3, k=3, seed=13))
    assert np.abs(t[0].entries - t[1].entries).max() > 1e-3


def test_gen_tuple_commuting():
    t = gen_tuple(GenSpec(dim=4, k=3, seed=17, structure="commuting"))
    for i in range(3):
        for j in range(i + 1, 3):
            comm = t[i].entries @ t[j].entries - t[j].entries @ t[i].entries
            assert np.abs(comm).max() <= 1e-12


def test_gen_tuple_block():
    # dims 2 and 3 split off a 1x1 block
    for dim in (5, 3, 2):
        d1 = (dim + 1) // 2
        t = gen_tuple(GenSpec(dim=dim, k=2, seed=19, structure="block"))
        for a in t:
            assert np.abs(a.entries[:d1, d1:]).max() == 0.0
            assert np.abs(a.entries[d1:, :d1]).max() == 0.0


def test_genspec_validation():
    for bad in (
        dict(dim=0, k=1, seed=1),
        dict(dim=65, k=1, seed=1),
        dict(dim=2, k=0, seed=1),
        dict(dim=2, k=1, seed=-1),
        dict(dim=2, k=1, seed=2**64),
        dict(dim=2, k=1, seed=1, cond_bound=0.5),
        dict(dim=2, k=1, seed=1, cond_bound=2e6),
        dict(dim=2, k=1, seed=1, structure="banded"),
        dict(dim=1, k=1, seed=1, structure="block"),
        # non-integers fail here, not later inside numpy or the stream hashing
        dict(dim=2.5, k=1, seed=1),
        dict(dim=2, k=2.0, seed=1),
        dict(dim=2, k=1, seed=1.5),
        dict(dim=True, k=1, seed=1),
        dict(dim=2, k=True, seed=1),
        dict(dim=2, k=1, seed=False),
        dict(dim=2, k=1, seed=1, cond_bound=True),
        dict(dim=2, k=1, seed=1, cond_bound="100"),
        dict(dim=2, k=1, seed=1, cond_bound=None),
    ):
        with pytest.raises(ValueError):
            GenSpec(**bad)


# Per-item reference for the draws: the stream layout, one QR per matrix.

def reference_stream(seed, purpose):
    tag = int.from_bytes(
        hashlib.blake2b(purpose.encode(), digest_size=8).digest(), "big")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))


def reference_basis(seed, tag, dim):
    g = reference_stream(seed, f"{tag}/basis").standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def reference_eigs(seed, tag, dim, cond):
    u = reference_stream(seed, f"{tag}/eigs").uniform(-1.0, 1.0, dim)
    return cond ** (u / 2.0)


def reference_items(seed, dim, k, cond, prefix):
    return np.stack([
        rebuild(reference_basis(seed, f"{prefix}{i}", dim),
                reference_eigs(seed, f"{prefix}{i}", dim, cond))
        for i in range(k)
    ])


def reference_tuple(spec):
    seed, dim, k, cond = spec.seed, spec.dim, spec.k, spec.cond_bound
    if spec.structure == "generic":
        return reference_items(seed, dim, k, cond, "item")
    if spec.structure == "commuting":
        q = reference_basis(seed, "item0", dim)
        return np.stack([rebuild(q, reference_eigs(seed, f"item{i}", dim, cond))
                         for i in range(k)])
    d1 = (dim + 1) // 2
    out = np.zeros((k, dim, dim))
    out[:, :d1, :d1] = reference_items(seed, d1, k, cond, "xitem")
    out[:, d1:, d1:] = reference_items(seed, dim - d1, k, cond, "yitem")
    return out


def test_stream_is_the_seed_sequence_of_seed_and_tag():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds += np.random.default_rng(5).integers(0, 2**64, 20, dtype=np.uint64).tolist()
    for seed in seeds:
        for purpose in ("item0/basis", "pert3/eigs", "congr", ""):
            got = _stream(seed, purpose)
            want = reference_stream(seed, purpose)
            assert np.array_equal(got.standard_normal(7), want.standard_normal(7))
            assert np.array_equal(got.uniform(-1.0, 1.0, 5), want.uniform(-1.0, 1.0, 5))


def test_gen_tuple_equals_per_item_draws():
    for structure in STRUCTURES:
        for dim in range(1 if structure != "block" else 2, 9):
            for k in range(1, 7):
                for seed, cond in ((42, 100.0), (2**64 - 1, 1e6)):
                    spec = GenSpec(dim, k, seed, cond, structure)
                    got = gen_tuple(spec).stack
                    assert got.tobytes() == reference_tuple(spec).tobytes(), spec


def test_trial_seed_scheme():
    assert _trial_seed(42, 0) == 42
    seeds = {_trial_seed(42, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_witness_seed_reproduces_failure():
    spec = GenSpec(dim=3, k=3, seed=42)
    rep = check_congruence("inductive", spec, trials=5, tol=1e-18)
    assert rep.failures == 5
    assert rep.witness_seed is not None
    again = check_congruence(
        "inductive", dataclasses.replace(spec, seed=rep.witness_seed),
        trials=1, tol=1e-18)
    assert again.worst_violation == rep.worst_violation


def test_passing_report_shape():
    rep = check_two_var(GenSpec(dim=3, k=2, seed=5), trials=4, tol=1e-8)
    assert rep.passed
    assert rep.check_name == "two_var"
    assert rep.trials == 4
    assert rep.failures == 0
    assert rep.worst_violation <= 0
    assert rep.witness_seed is None


@pytest.mark.parametrize("trials", [0, 2.5, True])
def test_trials_must_be_positive(trials):
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        check_two_var(GenSpec(dim=2, k=2, seed=1), trials=trials)


def test_a_raising_trial_names_its_check_and_seed():
    # trial 10 of seed 1 does not converge; its seed replays it as trial 0
    spec = GenSpec(dim=6, k=3, seed=1, cond_bound=1e6)
    seed = _trial_seed(1, 10)
    assert seed == 3326683750974675155
    with pytest.raises(ConvergenceError) as info:
        check_congruence("karcher", spec, trials=20)
    exc = info.value
    assert str(exc).startswith(f"congruence[karcher]: trial seed {seed}: residual ")
    assert exc.residual_norm > 1e-10 and exc.iterations == 500
    assert exc.last_iterate.shape == (6, 6)
    with pytest.raises(ConvergenceError) as again:
        check_congruence("karcher", dataclasses.replace(spec, seed=seed), trials=1)
    assert str(again.value) == str(exc)
    assert again.value.residual_norm == exc.residual_norm


def test_a_raising_jensen_trial_names_its_kind(monkeypatch):
    # the suite runs a Jensen check on each kind's auxiliary map, so an error
    # raised there names that kind, as a kind-dependent check's error does
    def boom(t):
        raise NotPositiveDefiniteError("boom")

    monkeypatch.setitem(harness._AUXILIARY, MeanKind.VARIANT,
                        lambda k: RegularMap(arity=k, fn=boom))
    spec = GenSpec(dim=3, k=3, seed=1)
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^jensen_contraction\[variant\]: trial seed 1: boom$"):
        run_suite(["jensen_contraction"], spec, trials=2, kinds=["variant"])
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^jensen_pair: trial seed 1: boom$"):
        check_jensen_pair(RegularMap(arity=3, fn=boom), spec, trials=2)
    [report] = run_suite(["jensen_contraction"], spec, trials=2, kinds=["inductive"])
    assert report.check_name == "jensen_contraction[inductive]" and report.passed


# tol=True used to run as 1.0, so every report passed by a full unit
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8, True, "1e-8", None,
                                 10**400, -10**400])
def test_check_tolerance_must_be_finite_and_nonnegative(tol):
    spec = GenSpec(dim=2, k=2, seed=1)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        check_two_var(spec, trials=1, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        run_suite(["monotone"], spec, trials=1, tol=tol, kinds=["inductive"])


def test_a_float32_tolerance_reports_as_its_float_twin():
    # converted with no RuntimeWarning, which the suite makes an error
    spec = GenSpec(dim=2, k=2, seed=1)
    tol = np.float32(1e-8)
    assert (check_two_var(spec, trials=2, tol=tol)
            == check_two_var(spec, trials=2, tol=float(tol)))


def test_real_cond_bounds_give_the_draws_and_reports_of_their_float_twins():
    twin = GenSpec(dim=3, k=2, seed=5, cond_bound=10.0)
    for cond in (10, np.float32(10)):
        spec = GenSpec(dim=3, k=2, seed=5, cond_bound=cond)
        assert spec == twin and type(spec.cond_bound) is float
        assert np.array_equal(gen_tuple(spec).stack, gen_tuple(twin).stack)
        assert (run_suite(["hga", "two_var"], spec, trials=2)
                == run_suite(["hga", "two_var"], twin, trials=2))


def test_nan_violation_fails_its_trial(monkeypatch):
    # NaN compares false both ways; a trial passes only on v <= 0
    spec = GenSpec(dim=2, k=2, seed=3)
    monkeypatch.setattr("spdmeans.harness._releq_violation",
                        lambda *args: math.nan)
    rep = check_two_var(spec, trials=3, tol=1e-8)
    assert not rep.passed
    assert rep.failures == 3
    assert math.isnan(rep.worst_violation)
    assert rep.witness_seed == _trial_seed(spec.seed, 0)


def test_inductive_determinant_identity_holds_at_k16_cond_1e6():
    # Fifteen composed two-variable means at cond 1e6 must keep the
    # determinant identity well inside 1e-7 (measured worst: 4.3e-9).
    spec = GenSpec(dim=16, k=16, seed=7, cond_bound=1e6)
    rep = check_determinant("inductive", spec, trials=10, tol=1e-7)
    assert rep.passed, rep


def test_run_suite_full_pass():
    reports = run_suite(list(CHECK_NAMES), GenSpec(dim=3, k=3, seed=42),
                        trials=5, tol=1e-8)
    assert all(r.passed for r in reports)
    names = {r.check_name for r in reports}
    assert "monotone[karcher]" in names
    assert "two_var" in names


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite(["nope"], GenSpec(dim=2, k=2, seed=1))


def test_iter_suite_checks_every_name_before_the_first_report():
    # a misspelt later name fails before the first check runs
    reports = harness.iter_suite(["two_var", "nope"], GenSpec(dim=2, k=2, seed=1))
    with pytest.raises(ValueError, match=r"unknown check name\(s\) \['nope'\]"):
        next(reports)


def test_run_suite_kind_filtering():
    spec = GenSpec(dim=2, k=2, seed=8)
    none = run_suite(["determinant"], spec, trials=2, kinds=["arithmetic"])
    assert none == []
    one = run_suite(["determinant"], spec, trials=2, kinds=["inductive"])
    assert [r.check_name for r in one] == ["determinant[inductive]"]


GEOMETRIC = (MeanKind.INDUCTIVE, MeanKind.VARIANT, MeanKind.KARCHER)
JENSEN = (MeanKind.INDUCTIVE, MeanKind.VARIANT)
ALL = tuple(MeanKind)

# check name -> kinds it applies to; None marks kind-independent checks
APPLIES = {
    "monotone": ALL,
    "concavity": ALL,
    "congruence": ALL,
    "self_dual": ALL,
    "determinant": GEOMETRIC,
    "hga": GEOMETRIC,
    "updating": JENSEN,
    "block_regularity": ALL,
    "jensen_contraction": JENSEN,
    "jensen_pair": JENSEN,
    "commuting": ALL,
    "two_var": None,
    "karcher_residual": None,
}


def test_run_suite_fans_each_check_over_exactly_its_kinds():
    assert CHECK_NAMES == tuple(APPLIES)
    spec = GenSpec(dim=2, k=2, seed=12)
    for name, kinds in APPLIES.items():
        got = [r.check_name for r in run_suite([name], spec, trials=1)]
        assert got == ([name] if kinds is None
                       else [f"{name}[{k.value}]" for k in kinds]), name


@pytest.mark.parametrize("name,kind", [
    (name, kind) for name, kinds in APPLIES.items()
    if kinds is not None and not name.startswith("jensen")
    for kind in MeanKind if kind not in kinds
])
def test_checks_reject_inapplicable_kinds(name, kind):
    check = getattr(harness, f"check_{name}")
    with pytest.raises(ValueError, match=f"{name} applies to"):
        check(kind, GenSpec(dim=2, k=2, seed=9), trials=1)
    with pytest.raises(ValueError, match=f"{name} applies to"):
        check(kind.value, GenSpec(dim=2, k=2, seed=9), trials=1)


EMPTY = inspect.Parameter.empty
SWEEP = (("spec", EMPTY), ("trials", 100), ("tol", 1e-8))
KIND_CHECK = (("kind", EMPTY),) + SWEEP

# the public checks' parameter names, in order, with their defaults
SIGNATURES = {
    "check_monotone": KIND_CHECK,
    "check_concavity": KIND_CHECK,
    "check_congruence": KIND_CHECK,
    "check_self_dual": KIND_CHECK,
    "check_determinant": KIND_CHECK,
    "check_hga": KIND_CHECK,
    "check_updating": KIND_CHECK,
    "check_block_regularity": KIND_CHECK + (("block_sizes", None),),
    "check_jensen_contraction": (("F", EMPTY),) + SWEEP,
    "check_jensen_pair": (("F", EMPTY),) + SWEEP,
    "check_commuting": KIND_CHECK,
    "check_two_var": SWEEP,
    "check_karcher_residual": SWEEP,
}


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_public_check_signatures(name):
    check = getattr(harness, name)
    params = inspect.signature(check).parameters.values()
    assert tuple((p.name, p.default) for p in params) == SIGNATURES[name]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert check.__name__ == name
    assert check.__doc__ and check.__doc__.strip()
    assert name in harness.__all__


def test_public_checks_bind_like_their_signatures():
    spec = GenSpec(dim=4, k=2, seed=10)
    by_position = check_block_regularity("variant", spec, 2, 1e-8, (3, 1))
    assert by_position == check_block_regularity(
        kind="variant", spec=spec, trials=2, block_sizes=(3, 1))
    with pytest.raises(TypeError):
        check_monotone("variant", spec, block_sizes=(3, 1))
    with pytest.raises(TypeError):
        check_two_var(spec, kind="variant")


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_trials_take_no_tolerance(name):
    # the trial returns its metric; only the sweep knows tol
    check = getattr(harness, name)
    assert "tol" in inspect.signature(check).parameters
    assert "tol" not in inspect.signature(check.__wrapped__).parameters


def test_tolerance_is_subtracted_exactly_once():
    # rounded subtraction is monotone, so the worst trial minus 1e-8 is
    # bit for bit the worst of the trials minus 1e-8
    spec = GenSpec(dim=3, k=3, seed=5)
    loose = run_suite(CHECK_NAMES, spec, trials=3, tol=0.0)
    tight = run_suite(CHECK_NAMES, spec, trials=3, tol=1e-8)
    assert [r.check_name for r in loose] == [r.check_name for r in tight]
    for a, b in zip(loose, tight):
        both_nan = math.isnan(a.worst_violation) and math.isnan(b.worst_violation)
        assert both_nan or b.worst_violation == a.worst_violation - 1e-8, (a, b)


def test_block_regularity_custom_sizes():
    spec = GenSpec(dim=4, k=2, seed=10)
    rep = check_block_regularity("variant", spec, trials=4, tol=1e-8,
                                 block_sizes=(3, 1))
    assert rep.passed
    # anything but two integers >= 1 summing to dim is named as block_sizes,
    # the default split of dim 1 included
    for sizes, dim in [((2, 1), 4), (3, 4), ((True, True), 2), ((2, 2.0), 4),
                       ((1, 1, 2), 4), ((0, 4), 4), ("22", 4), ({1: 3}, 4), (None, 1)]:
        with pytest.raises(ValueError, match="^block_sizes must be two integers"):
            check_block_regularity("variant", GenSpec(dim=dim, k=2, seed=10),
                                   trials=1, block_sizes=sizes)
    assert (check_block_regularity("variant", spec, trials=4, block_sizes=[3, 1])
            == check_block_regularity("variant", spec, trials=4,
                                      block_sizes=(np.int64(3), 1)) == rep)


def test_jensen_arity_must_match_spec():
    # the map checks its own arity when the trial calls it
    with pytest.raises(ValueError, match="^map has arity 2, got 3 arguments$"):
        check_jensen_contraction(inductive_auxiliary(2),
                                 GenSpec(dim=2, k=3, seed=1), trials=1)
    with pytest.raises(ValueError, match="^map has arity 2, got 3 arguments$"):
        check_jensen_pair(inductive_auxiliary(2),
                          GenSpec(dim=2, k=3, seed=1), trials=1)


@pytest.mark.parametrize("spec", [dict(dim=2, k=2, seed=1), None])
def test_entry_points_name_a_spec_that_is_not_a_genspec(spec):
    type_name = type(spec).__name__
    # each public check, by the name of its first parameter
    heads = {"kind": ("inductive",), "F": (inductive_auxiliary(2),), "spec": ()}
    calls = [functools.partial(getattr(harness, name), *heads[params[0][0]], spec,
                               trials=1)
             for name, params in SIGNATURES.items()]
    calls += [lambda: gen_tuple(spec), lambda: gen_spd(spec),
              lambda: run_suite(["two_var"], spec, trials=1),
              lambda: next(harness.iter_suite(["two_var"], spec, trials=1))]
    for call in calls:
        with pytest.raises(TypeError, match=f"expected GenSpec, got {type_name}$"):
            call()


def test_jensen_checks_gate_the_map_and_what_it_returns():
    spec = GenSpec(dim=2, k=2, seed=1)
    flat = RegularMap(arity=2, fn=lambda t: t.stack[0])
    for check in (check_jensen_contraction, check_jensen_pair):
        with pytest.raises(TypeError, match="expected RegularMap, got function$"):
            check(inductive_auxiliary(2).fn, spec, trials=1)
        with pytest.raises(TypeError, match="expected SymMatrix, got ndarray$"):
            check(flat, spec, trials=1)
        with pytest.raises(ShapeError, match="RegularMap.fn: result has dimension 3, "
                                             "arguments have 2$"):
            check(RegularMap(arity=2, fn=lambda t: SymMatrix(np.eye(3))), spec, trials=1)


def test_suite_rejects_a_bare_string_before_any_check_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(harness._REGISTRY, "two_var",
                        (lambda *args: ran.append(args), None))
    spec = GenSpec(dim=2, k=2, seed=1)
    for kwargs, what in [(dict(suite="two_var"), "suite"),
                         (dict(suite=["two_var"], kinds="inductive"), "kinds")]:
        with pytest.raises(TypeError, match=f"^iter_suite: {what} must be a sequence"):
            run_suite(spec=spec, trials=1, **kwargs)
        with pytest.raises(TypeError, match=f"^iter_suite: {what} must be a sequence"):
            next(harness.iter_suite(spec=spec, trials=1, **kwargs))
    assert ran == []


def test_numpy_integers_give_the_draws_and_reports_of_their_int_twins():
    twin = GenSpec(dim=3, k=2, seed=5)
    spec = GenSpec(dim=np.int64(3), k=np.int32(2), seed=np.uint64(5))
    assert spec == twin
    assert all(type(getattr(spec, name)) is int for name in ("dim", "k", "seed"))
    assert np.array_equal(gen_tuple(spec).stack, gen_tuple(twin).stack)
    reports = run_suite(["hga", "two_var"], spec, trials=np.int64(2))
    assert reports == run_suite(["hga", "two_var"], twin, trials=2)
    assert all(type(r.trials) is int for r in reports)


def test_scalar_mean_oracles():
    rows = np.array([[1.0, 2.0], [4.0, 8.0]])
    assert np.allclose(scalar_mean("inductive", rows), [2.0, 4.0])
    assert np.allclose(scalar_mean("karcher", rows), [2.0, 4.0])
    assert np.allclose(scalar_mean("arithmetic", rows), [2.5, 5.0])
    assert np.allclose(scalar_mean("harmonic", rows), [1.6, 3.2])


@pytest.mark.parametrize("kind", list(MeanKind))
def test_commuting_check_each_kind(kind):
    rep = check_commuting(kind, GenSpec(dim=4, k=3, seed=21), trials=5,
                          tol=1e-10)
    assert rep.passed


def test_monotone_and_self_dual_karcher():
    spec = GenSpec(dim=3, k=3, seed=22)
    assert check_monotone("karcher", spec, trials=3).passed
    assert check_self_dual("karcher", spec, trials=3).passed


def test_karcher_residual_check_scores_a_failed_solve(monkeypatch):
    # a solve that raises ConvergenceError scores its best residual
    spec = GenSpec(dim=4, k=4, seed=23)
    capped = SolverConfig(max_iter=1)
    with pytest.raises(ConvergenceError) as err:
        karcher_mean(gen_tuple(dataclasses.replace(spec, seed=_trial_seed(23, 0))),
                     capped)
    monkeypatch.setattr(harness, "karcher_mean", lambda t: karcher_mean(t, capped))
    rep = check_karcher_residual(spec, trials=1, tol=1e-8)
    assert (rep.failures, rep.witness_seed) == (1, spec.seed)
    assert rep.worst_violation == err.value.residual_norm - 1e-8


def test_karcher_residual_check():
    rep = check_karcher_residual(GenSpec(dim=4, k=4, seed=23), trials=3,
                                 tol=1e-8)
    assert rep.passed
