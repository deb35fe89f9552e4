"""Boolean valued models: axioms, semantics, quotients, Los, mixing,
products, morphisms."""

import random

import pytest

from bvmsheaf.balg import Filter, mk_powerset
from bvmsheaf.bvm import (BVModel, BVMorphism, ModelError, TarskiModel,
                          UnknownConstantError, check_morphism, closed_pool,
                          eval_formula, has_mixing, is_elementary, is_full,
                          open_pool, product_model, quotient_model,
                          random_model, satisfies, standard_validities,
                          tarski_quotient, ultraproduct, validate)
from bvmsheaf.logic import Signature, parse, substitute

from util import find_model_isomorphism

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
    with pytest.raises(ModelError, match="free variable 'y'"):
        eval_formula(m, parse(m.sig, "E x. R(y)"))
    # a bottom conjunct does not hide an unknown constant beside it
    with pytest.raises(UnknownConstantError):
        eval_formula(m, parse(m.sig, "A x. (~x = x & R(c_zz))"))


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
