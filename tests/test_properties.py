"""Property tests: procedures against their oracles on drawn inputs."""

import json
from itertools import chain

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bvmsheaf.balg import ultrafilters  # noqa: E402
from bvmsheaf.bridge import (L, R, StructuredPresheaf,  # noqa: E402
                             _counit, adjunction_witness, mixify,
                             mixing_iff_sheaf, phi_bundle)
from bvmsheaf.bvm import (_class_reps, _families, check_morphism,  # noqa: E402
                          closed_pool, eval_formula, has_mixing, is_full,
                          quotient_model, tarski_quotient)
from bvmsheaf.jsonio import Workspace, model_from_json, model_to_json  # noqa: E402
from bvmsheaf.logic import Exists, parse  # noqa: E402
from bvmsheaf.sheaf import (PresheafMorphism,  # noqa: E402
                            check_presheaf_morphism, is_separated)

from util import (atom_join_R, chain_mixify, class_reps_scan,  # noqa: E402
                  label_L, naturality_scan, one_square_morphism,
                  one_square_pairs, random_model, recursive_eval_bits)

DRAWS = settings(max_examples=100, deadline=None, database=None,
                 derandomize=True)


def _ordered(value):
    """value with every dict, at any depth, as its item list, so that two
    values compare equal only with their dicts in the same order."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    return value


def _fields(record) -> list:
    return [_ordered(getattr(record, name)) for name in record._fields]


@DRAWS
@given(st.randoms(use_true_random=False))
def test_mixify_matches_the_functor_chain_on_drawn_models(rng):
    # the draws of random_model come from hypothesis, so a failure shrinks
    m = random_model(rng, max_atoms=4, max_domain=4)
    (mx, emb), (mx_ref, emb_ref) = mixify(m), chain_mixify(m)
    assert repr((mx, emb)) == repr((mx_ref, emb_ref))
    assert _fields(mx) == _fields(mx_ref)
    assert _fields(emb)[2:] == _fields(emb_ref)[2:]  # i and phi


@DRAWS
@given(st.randoms(use_true_random=False))
def test_l_and_r_match_the_label_and_elem_references(rng):
    """L against its label-based body, and R against the one join per
    entry on L(m) and on L(m) with rel_top thinned (a missing instance is
    not top), field by field with their dict orders."""
    m = random_model(rng, max_atoms=4, max_domain=4)
    lm = L(m)
    assert _fields(lm) == _fields(label_L(m))
    assert _fields(R(lm)) == _fields(atom_join_R(lm))
    thin = StructuredPresheaf(
        lm.base, lm.sections, lm.restrict, lm.alg, lm.sig,
        {k: v for k, v in lm.rel_top.items() if rng.random() < 0.5},
        lm.const_top)
    assert _fields(R(thin)) == _fields(atom_join_R(thin))


@DRAWS
@given(st.randoms(use_true_random=False))
def test_l_is_separated_by_construction(rng):
    """R skips is_separated on L(m), whose representatives at a level are
    apart at some atom below it: the check it skips passes on every drawn
    model."""
    m = random_model(rng, max_atoms=4, max_domain=4)
    assert is_separated(L(m)).passed


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_naturality_on_covers_matches_the_all_pairs_scan(rng):
    """The counit L(R(L(M))) -> L(M) with up to three sections redirected
    within their level, and a morphism whose one failing square is a drawn
    cover: check_presheaf_morphism, on covering pairs, names the pair the
    all-pairs scan names first."""
    m = random_model(rng, max_atoms=4, max_domain=3)
    lm = L(m)
    counit = _counit(lm, R(lm))
    theta = {u: dict(t) for u, t in counit.theta.items()}
    for _ in range(rng.randrange(4)):
        u = rng.choice(list(theta))
        theta[u][rng.choice(list(theta[u]))] = rng.choice(lm.sections[u])
    mor = PresheafMorphism(counit.i, theta, counit.source, counit.target)
    assert check_presheaf_morphism(mor) == naturality_scan(mor)
    pairs = one_square_pairs(counit.i)
    if pairs:
        u, v = rng.choice(pairs)
        lone = one_square_morphism(counit.i, lm, u, v)
        assert check_presheaf_morphism(lone) == naturality_scan(lone) == (u, v)


def _assert_reps_match_the_scan(m) -> None:
    """Every mask's memoized representatives, and every dict the memo
    holds, equal a fresh scan, with the same order."""
    for g in range(1, 1 << m.alg.atom_count):
        assert list(_class_reps(m, g).items()) == list(class_reps_scan(m, g).items())
    for g, rep in m._evaluator.reps.items():
        assert list(rep.items()) == list(class_reps_scan(m, g).items())


@DRAWS
@given(st.randoms(use_true_random=False))
def test_class_reps_memo_matches_the_scan_before_and_after_the_bridge(rng):
    """The per-mask dicts are shared by every caller, so one that changed a
    dict would leave the memo off the scan after a full bridge run: R o L,
    the adjunction witness, mixing <-> sheaf, mixify and its embedding
    check, has_mixing, the quotients at each ultrafilter and phi_bundle."""
    m = random_model(rng, max_atoms=4, max_domain=4)
    _assert_reps_match_the_scan(m)
    rlm = R(L(m))
    adjunction_witness(m)
    mixing_iff_sheaf(m)
    mx, emb = mixify(m)
    check_morphism(emb)
    has_mixing(m)
    for g in ultrafilters(m.alg):
        tarski_quotient(m, g)
        quotient_model(m, g)
    sym = next(iter(m.sig.rel_arity))
    phi_bundle(m, parse(m.sig, f"{sym}({', '.join('x' * m.sig.rel_arity[sym])})"))
    for model in (m, rlm, mx):
        _assert_reps_match_the_scan(model)


@DRAWS
@given(st.randoms(use_true_random=False))
def test_is_full_reads_the_closed_memo_as_it_would_evaluate(rng):
    """is_full(m, 2) gives an equal report, witness covers and Los
    mismatches in the same order, before and after eval_formula has kept
    the value of every pool formula; the memo holds the closed members of
    the key's plan, the pool among them, and each kept value, and each body
    value of the kept column in domain order, is the recursive oracle's."""
    m = random_model(rng, max_atoms=4, max_domain=4)
    fresh = is_full(m, 2)
    pool = closed_pool(m.sig, m.domain, 2)
    for f in pool:
        eval_formula(m, f)
    assert is_full(m, 2) == fresh
    top, memo = m.alg.top.bits, m._evaluator.closed
    assert memo.keys() == {id(f) for f in chain.from_iterable(
        _families(m.sig, m.domain).plan().closed)} >= {id(f) for f in pool}
    for f in pool:
        value, body, kept = memo[id(f)]
        assert kept is f and value == recursive_eval_bits(m, f, {}, top)
        if isinstance(f, Exists):
            assert dict(zip(m.domain, body)) == {
                d: recursive_eval_bits(m, f.body, {f.var: d}, top)
                for d in m.domain}
        else:
            assert body is None


@DRAWS
@given(st.randoms(use_true_random=False))
def test_model_json_round_trip(rng):
    """A model written as JSON text and read back is the same model."""
    m = random_model(rng, max_atoms=4, max_domain=4)
    text = json.dumps(model_to_json(m))
    assert model_from_json(Workspace(), json.loads(text)) == m
