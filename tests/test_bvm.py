"""Boolean valued models: axioms, semantics, quotients, Los, mixing,
products, morphisms."""

import random
from functools import reduce
from itertools import product
from operator import or_

import pytest

from bvmsheaf.balg import Filter, mk_powerset, stone_space
from bvmsheaf.bridge import _phi_bundle, _stone_data
from bvmsheaf.bvm import (BVModel, BVMorphism, ModelError, TarskiModel,
                          UnknownConstantError, _smallest_cover,
                          check_morphism, closed_pool, eval_formula,
                          generalize, has_mixing, is_elementary, is_full,
                          open_pool, product_model, quotient_model,
                          random_model, satisfies, standard_validities,
                          tarski_quotient, ultraproduct, validate)
from bvmsheaf.logic import (And, Eq, Exists, Implies, Or, Rel, Signature, Var,
                            free_vars, parse, substitute)

from util import find_model_isomorphism, recursive_eval_bits

B2 = mk_powerset(["a1"])
B4 = mk_powerset(["a1", "a2"])


def mnm():
    """(B4; {s,t}; [s=t]=0), no relations: the canonical non-mixing model."""
    return BVModel.make(B4, ["s", "t"], sig=Signature.make({}))


def m_r():
    """mnm plus a unary R with [R(s)]=a1, [R(t)]=a2."""
    return BVModel.make(B4, ["s", "t"],
                        rels={"R": {("s",): B4.atom("a1"),
                                    ("t",): B4.atom("a2")}})


def test_validate_mnm_and_m_r():
    for m in (mnm(), m_r()):
        rep = validate(m)
        assert rep.ok and rep.extensional


def test_validate_reflexivity_violation():
    m = m_r()
    m.eq["s", "s"] = B4.atom("a1")
    rep = validate(m)
    assert not rep.ok
    assert any("reflexivity" in v and "s" in v for v in rep.violations)


def test_validate_congruence_violation_cites_tuple():
    m = m_r()
    m.eq["s", "t"] = m.eq["t", "s"] = B4.atom("a1")  # now s~t on a1 but R differs
    rep = validate(m)
    assert not rep.ok
    assert any("congruence" in v and "R" in v for v in rep.violations)


def test_eval_examples():
    m = m_r()
    assert eval_formula(m, parse(m.sig, "E x. R(x)")).is_top
    assert eval_formula(m, parse(m.sig, "A x. R(x)")).is_bottom
    assert eval_formula(m, parse(m.sig, "(R(c_s) | ~R(c_s))")).is_top
    assert eval_formula(m, parse(m.sig, "R(c_s)")) == B4.atom("a1")


def test_eval_unknown_constant():
    m = m_r()
    with pytest.raises(UnknownConstantError) as err:
        eval_formula(m, parse(m.sig, "R(c_zz)"))
    assert "c_zz" in str(err.value)


def test_eval_errors_under_quantifiers():
    m = m_r()
    x = Var("x")
    rows = [
        (parse(m.sig, "E x. R(y)"), None, ModelError, "free variable 'y'"),
        # a bottom conjunct does not hide an unknown constant beside it
        (parse(m.sig, "A x. (~x = x & R(c_zz))"), None, UnknownConstantError,
         "c_zz"),
        # an env id outside the domain names the variable and the id; these
        # two rows raised a bare KeyError of the table key, ('zz',) and
        # ('zz', 's'), before the evaluator checked env ids
        (parse(m.sig, "R(x)"), {"x": "zz"}, ModelError,
         "variable 'x' is bound to 'zz'"),
        (parse(m.sig, "E y. (R(y) | x = y)"), {"x": "zz"}, ModelError,
         "variable 'x' is bound to 'zz'"),
        (Exists("y", And(Eq(x, x), "junk")), {"x": "s"}, TypeError,
         "not a formula: 'junk'"),
    ]
    for f, env, error, message in rows:
        with pytest.raises(error, match=message):
            eval_formula(m, f, env)


def test_quotient_by_trivial_filter_is_isomorphic_copy():
    m = m_r()
    q = quotient_model(m, Filter(B4, B4.top))
    assert validate(q).ok
    assert find_model_isomorphism(m, q) is not None


def test_quotient_nontrivial_collapses():
    m = m_r()
    q = quotient_model(m, Filter(B4, B4.atom("a1")))
    assert validate(q).ok
    assert q.alg.atom_count == 1
    assert len(q.domain) == 2  # [s=t]=0 not in F(a1)


def test_tarski_quotient_examples():
    m = m_r()
    t = tarski_quotient(m, Filter(B4, B4.atom("a1")))
    assert satisfies(t, parse(m.sig, "E x. R(x)"))
    assert satisfies(t, parse(m.sig, "~R(c_t)"))
    assert satisfies(t, parse(m.sig, "R(c_s)"))
    assert satisfies(t, parse(m.sig, "c_s = c_s"))
    assert not satisfies(t, parse(m.sig, "c_s = c_t"))


def test_tarski_quotient_identifies_when_filter_says_so():
    m = mnm()
    m.eq["s", "t"] = m.eq["t", "s"] = B4.atom("a1")
    assert validate(m).ok
    t = tarski_quotient(m, Filter(B4, B4.atom("a1")))
    assert len(t.domain) == 1
    t2 = tarski_quotient(m, Filter(B4, B4.atom("a2")))
    assert len(t2.domain) == 2


def test_is_full_mnm_and_witness_cover():
    rep = is_full(mnm(), 2)
    assert rep.full and rep.procedures_agree

    m = m_r()
    rep = is_full(m, 2)
    assert rep.full and rep.procedures_agree
    covers = dict(rep.witness_covers)
    target = parse(m.sig, "E x1. R(x1)")
    assert covers[target] == ("s", "t")  # both witnesses needed for a1 v a2


def test_is_full_one_element_model_over_b2():
    m = BVModel.make(B2, ["e"], rels={"R": {("e",): B2.top}})
    rep = is_full(m, 2)
    assert rep.full and rep.procedures_agree


def test_has_mixing_mnm_fails_with_smallest_witness():
    rep = has_mixing(mnm())
    assert not rep.passed
    chain, assignment = rep.witness
    assert set(chain) == {"a1", "a2"}
    assert sorted(assignment.values()) == ["s", "t"]


def test_has_mixing_b2_model_passes():
    m = BVModel.make(B2, ["s", "t"], sig=Signature.make({}))
    assert has_mixing(m).passed


def test_has_mixing_max_antichain_cap():
    rep = has_mixing(mnm(), max_antichain=1)
    assert rep.passed  # the failing antichain has size 2, out of the cap


def _graph(nodes, edges):
    return TarskiModel(Signature.make({"R": 2}), tuple(nodes),
                       {"R": frozenset(edges)}, {})


def test_product_model_and_principal_ultraproduct():
    g0 = _graph(["u", "v"], [("u", "v")])
    g1 = _graph(["w", "z"], [("w", "z"), ("z", "w")])
    prod = product_model([g0, g1])
    assert validate(prod).ok
    assert len(prod.domain) == 4
    assert has_mixing(prod).passed
    up0 = ultraproduct([g0, g1], Filter(prod.alg, prod.alg.atom("i0")))
    # projection to factor 0: same size and the same relation pattern
    assert len(up0.domain) == len(g0.domain)
    proj = {d: d.split(".")[0] for d in up0.domain}
    assert {tuple(proj[x] for x in tup) for tup in up0.rels["R"]} == \
        set(g0.rels["R"])


def test_product_model_los_bothways():
    g0 = _graph(["u", "v"], [("u", "v")])
    g1 = _graph(["w", "z"], [("w", "z"), ("z", "w")])
    prod = product_model([g0, g1])
    rep = is_full(prod, 2)
    assert rep.full and rep.procedures_agree


def test_product_signature_mismatch():
    g0 = _graph(["u"], [])
    bad = TarskiModel(Signature.make({"S": 1}), ("x",), {"S": frozenset()}, {})
    with pytest.raises(ModelError):
        product_model([g0, bad])


def test_check_morphism_identity_is_iso_and_elementary():
    m = m_r()
    from bvmsheaf.balg import BAHom
    mor = BVMorphism(m, m, BAHom.identity(B4), {d: d for d in m.domain})
    rep = check_morphism(mor)
    assert rep.is_morphism and rep.is_embedding and rep.is_isomorphism
    assert is_elementary(mor, 2)


def test_collapse_morphism_is_not_embedding():
    m = m_r()
    one = BVModel.make(B4, ["e"], rels={"R": {("e",): B4.top}})
    from bvmsheaf.balg import BAHom
    mor = BVMorphism(m, one, BAHom.identity(B4), {"s": "e", "t": "e"})
    rep = check_morphism(mor)
    assert rep.is_morphism and not rep.is_embedding


def test_substitution_law_on_samples():
    rng = random.Random(11)
    for _ in range(25):
        m = random_model(rng)
        pool = open_pool(m.sig, m.domain, "x")[:40]
        for f in pool:
            for a in m.domain:
                for b in m.domain:
                    lhs = m.eq[a, b] & eval_formula(m, substitute(f, "x", f"c_{a}"))
                    assert lhs <= eval_formula(m, substitute(f, "x", f"c_{b}"))


def test_standard_validities_all_top():
    rng = random.Random(13)
    for _ in range(25):
        m = random_model(rng)
        vals = standard_validities(m)
        assert len(vals) == 10
        for f in vals:
            assert eval_formula(m, f).is_top


def test_every_random_model_is_valid_and_full():
    rng = random.Random(17)
    for _ in range(30):
        m = random_model(rng)
        assert validate(m).ok
        rep = is_full(m, 1)
        assert rep.full and rep.procedures_agree


def test_mixing_implies_full_on_samples():
    rng = random.Random(19)
    seen_mixing = 0
    for _ in range(40):
        m = random_model(rng, max_atoms=2, max_domain=3)
        if has_mixing(m).passed:
            seen_mixing += 1
            assert is_full(m, 2).full
    assert seen_mixing > 0


def test_closed_pool_is_deterministic_and_deduplicated():
    m = m_r()
    p1 = closed_pool(m.sig, m.domain, 2)
    p2 = closed_pool(m.sig, m.domain, 2)
    assert p1 == p2
    assert len(p1) == len(set(p1))


def test_pools_accept_any_iterable_of_elements():
    # a one-shot iterator gave a short closed pool (24 formulas, not 85)
    # before the pools normalised their elements to a tuple at entry
    sig = Signature.make({"R": 1})
    ids = ("d0", "d1")
    for depth in (1, 2):
        expected = closed_pool(sig, ids, depth)
        for elements in (list(ids), ids, iter(ids)):
            assert closed_pool(sig, elements, depth) == expected
    assert len(closed_pool(sig, iter(ids), 2)) == 85
    expected = open_pool(sig, ids, "x")
    for elements in (list(ids), ids, iter(ids)):
        assert open_pool(sig, elements, "x") == expected


def test_pool_cache_hands_out_fresh_lists():
    m = m_r()
    for build in (lambda: closed_pool(m.sig, m.domain, 2),
                  lambda: open_pool(m.sig, m.domain, "x")):
        p1, p2 = build(), build()
        assert p1 == p2 and p1 is not p2
        p1.append(Eq(Var("x"), Var("x")))
        p1.pop(0)
        assert build() == p2


def test_cached_pools_equal_the_uncached_builders():
    from bvmsheaf.bvm import _closed_pool, _open_pool
    rng = random.Random(9)
    for _ in range(12):
        m = random_model(rng)
        ids = tuple(m.domain)
        for depth in (1, 2):
            assert closed_pool(m.sig, m.domain, depth) == \
                list(_closed_pool.__wrapped__(m.sig, ids, depth, 48, 20))
        assert open_pool(m.sig, m.domain, "x") == \
            list(_open_pool.__wrapped__(m.sig, ids, "x", 20))


def test_pools_depend_only_on_signature_and_domain():
    a, b = m_r(), BVModel.make(B2, ["s", "t"], eq={("s", "t"): B2.top},
                               rels={"R": {("s",): B2.top, ("t",): B2.top}})
    assert a.sig == b.sig and a.domain == b.domain and a.alg != b.alg
    assert closed_pool(a.sig, a.domain, 2) == closed_pool(b.sig, b.domain, 2)
    assert open_pool(a.sig, a.domain, "x") == open_pool(b.sig, b.domain, "x")
    assert is_full(a, 2).formulas_checked == is_full(b, 2).formulas_checked


def test_quotient_representatives_are_least_ids():
    # domain deliberately out of id order; the b-class reps must be the
    # lexicographically least member of each class
    m = BVModel.make(B4, ["z", "a"], eq={("z", "a"): B4.top},
                     sig=Signature.make({}))
    q = quotient_model(m, Filter(B4, B4.top))
    assert q.domain == ("a",)


def test_model_needs_nonempty_distinct_domain():
    with pytest.raises(ModelError):
        BVModel.make(B4, [], sig=Signature.make({}))
    with pytest.raises(ModelError):
        BVModel.make(B4, ["s", "s"], sig=Signature.make({}))


def test_product_rejects_dotted_ids():
    g = TarskiModel(Signature.make({"R": 1}), ("u.v",),
                    {"R": frozenset()}, {})
    with pytest.raises(ModelError):
        product_model([g, g])


def test_validities_need_a_relation():
    m = mnm()
    with pytest.raises(ModelError):
        standard_validities(m)


# -- the model's evaluator against the recursive oracle ------------------------

def _oracle_values(m, pool) -> list:
    """(formula, value, body values at each d or None) for each pool formula,
    by the recursive oracle; an E-rooted formula's value is the join of its
    body values, exactly as the oracle computes it."""
    top = m.alg.top.bits
    out = []
    for f in pool:
        if isinstance(f, Exists):
            body = {d: recursive_eval_bits(m, f.body, {f.var: d}, top)
                    for d in m.domain}
            out.append((f, reduce(or_, body.values()), body))
        else:
            out.append((f, recursive_eval_bits(m, f, {}, top), None))
    return out


@pytest.fixture(scope="module")
def oracle_models():
    """The acceptance 200-model sample (seed 2026) and 300 seeded models of
    up to 4 atoms and 4 elements, each with its closed_pool(., 2) valued by
    the recursive oracle."""
    rng = random.Random(2026)
    models = [random_model(rng) for _ in range(200)]
    rng = random.Random(23)
    models += [random_model(rng, 4, 4) for _ in range(300)]
    return [(m, _oracle_values(m, closed_pool(m.sig, m.domain, 2)))
            for m in models]


def test_eval_formula_matches_recursive_oracle(oracle_models):
    """The closed pool, the open pool under every env, and the validity list
    (the pools hold no Or or Implies)."""
    for m, oracle in oracle_models:
        for f, value, _ in oracle:
            assert eval_formula(m, f).bits == value
        top = m.alg.top.bits
        for f in standard_validities(m):
            binary = isinstance(f, (And, Or, Implies))
            for sub in (f, f.lhs, f.rhs) if binary else (f,):
                assert eval_formula(m, sub).bits == \
                    recursive_eval_bits(m, sub, {}, top)
        for f in open_pool(m.sig, m.domain, "x"):
            for d in m.domain:
                env = {"x": d}
                assert eval_formula(m, f, env).bits == \
                    recursive_eval_bits(m, f, env, top)


def test_is_full_covers_match_recursive_oracle(oracle_models):
    """Each E-rooted formula's cover is the smallest cover, by the oracle's
    body values at each d, of the oracle's value; the Los test finds no
    mismatch, so every value is_full used agrees with M/G."""
    for m, oracle in oracle_models:
        rep = is_full(m, 2, [f for f, _, _ in oracle])
        assert rep.full and not rep.los_mismatches
        assert rep.formulas_checked == len(oracle)
        assert rep.witness_covers == tuple(
            (f, _smallest_cover(body, value))
            for f, value, body in oracle if body is not None)


def _bundle_pool(m):
    """One-variable open formulas, the two-variable atoms, and quantified
    one-variable formulas re-generalized from the depth-1 closed pool."""
    x, y = Var("x"), Var("y")
    pool = list(open_pool(m.sig, m.domain, "x"))
    pool.append(Eq(x, y))
    pool.extend(Rel(sym, (x, y)) for sym, arity in m.sig.rel_arity.items()
                if arity == 2)
    for f in closed_pool(m.sig, m.domain, 1)[::29]:
        g = generalize(f, f"c_{m.domain[0]}", "x")
        if "x" in free_vars(g):
            pool.append(g)
    return pool


def test_phi_bundle_matches_recursive_oracle(oracle_models):
    """Every PhiBundle field, from b_phi (the oracle's value of the
    existential closure) and the oracle's tuple values.  The Stone data is
    shared across a model's formulas, as fullness_via_sections shares it;
    phi_bundle builds the same data per call."""
    for m, _ in oracle_models:
        top = m.alg.top.bits
        stone_data = _stone_data(m)
        space_of = {}
        reps = {pt: {a: min(b for b in m.domain if m.eq[b, a].bits >> i & 1)
                     for a in m.domain}
                for i, pt in enumerate(m.alg.atoms)}
        for f in _bundle_pool(m):
            free = tuple(sorted(free_vars(f)))
            closed = f
            for v in free:
                closed = Exists(v, closed)
            b_phi = recursive_eval_bits(m, closed, {}, top)
            values = {tup: recursive_eval_bits(m, f, dict(zip(free, tup)), top)
                      for tup in product(m.domain, repeat=len(free))}
            stalks = {
                pt: tuple(sorted({tuple(reps[pt][t] for t in tup)
                                  for tup, val in values.items()
                                  if val >> i & 1}))
                for i, pt in enumerate(m.alg.atoms) if b_phi >> i & 1}
            n_b = frozenset(stalks)
            if n_b and n_b not in space_of:
                space_of[n_b] = stone_space(m.alg).space.subspace(n_b)
            pb = _phi_bundle(m, f, *stone_data)
            assert (pb.formula, pb.free) == (f, free)
            assert pb.b_phi.bits == b_phi
            assert [(t, v.bits) for t, v in pb.values.items()] == \
                list(values.items())
            assert pb.n_b_phi == n_b
            assert pb.stalks == stalks
            assert pb.a_phi == frozenset(pt for pt in stalks if stalks[pt])
            assert pb.space == space_of.get(n_b)
