"""The L -| R adjunction, mixing <-> sheaf, mixification, E^phi bundles."""

import random

import pytest

from bvmsheaf.balg import BAHom, BoolAlg, Elem, Filter, mk_powerset
from bvmsheaf.bridge import (L, R, adjunction_witness,
                             ext_to_stone, fullness_via_sections,
                             global_sections_of_bundle,
                             mixify, mixing_iff_sheaf, phi_bundle)
from bvmsheaf.bvm import (BVModel, check_morphism, has_mixing, is_elementary,
                          quotient_model, tarski_quotient, validate)
from bvmsheaf.logic import Signature, parse
from bvmsheaf.sheaf import (Bundle, NotSeparatedError, Presheaf, alg_poset,
                            gamma_half, is_separated, lambda1, lift_i_star,
                            sheafify)
from bvmsheaf.topo import FinTop

from util import (_gamma1_structured, _stone_etale, basic_opens,
                  basic_opens_scan, bundle_clauses_scan, chain_mixify,
                  find_model_isomorphism, level_join_R, quotient_L,
                  random_model, random_separated_presheaf, random_subpresheaf,
                  section_sheaf, stalk_at_filter)

B2 = mk_powerset(["a1"])
B4 = mk_powerset(["a1", "a2"])


def mnm():
    return BVModel.make(B4, ["s", "t"], sig=Signature.make({}))


def m_r():
    return BVModel.make(B4, ["s", "t"],
                        rels={"R": {("s",): B4.atom("a1"),
                                    ("t",): B4.atom("a2")}})


def test_l_of_mnm_levels_and_surjective_restrictions():
    lm = L(mnm())
    assert lm.sections["a1∨a2"] == ("s", "t")
    assert lm.sections["a1"] == ("s", "t")
    assert lm.sections["a2"] == ("s", "t")
    for (q, p), table in lm.restrict.items():
        assert set(table.values()) == set(lm.sections[q])
    assert is_separated(lm).passed


def test_l_of_one_element_model_is_singleton():
    one = BVModel.make(B2, ["e"], sig=Signature.make({}))
    lm = L(one)
    assert all(len(lm.sections[p]) == 1 for p in lm.base.elements)


def test_l_stalks_are_tarski_quotient_domains():
    rng = random.Random(41)
    for _ in range(15):
        m = random_model(rng)
        lm = L(m)
        for atom in m.alg.atom_elems():
            g = Filter(m.alg, atom)
            levels = [e.label for e in m.alg.elements()
                      if not e.is_bottom and atom <= e]
            classes = stalk_at_filter(lm, levels)
            stalk_size = len(set(classes.values()))
            assert stalk_size == len(tarski_quotient(m, g).domain)


def test_r_of_l_is_isomorphic_for_extensional():
    for m in (mnm(), m_r()):
        rlm = R(L(m))
        assert validate(rlm).ok
        assert find_model_isomorphism(m, rlm) is not None


def test_r_of_singleton_presheaf():
    one = BVModel.make(B2, ["e"], sig=Signature.make({}))
    r = R(L(one))
    assert len(r.domain) == 1
    assert r.eq[r.domain[0], r.domain[0]].is_top


def test_r_on_b2_presheaf_sizes():
    # on B2+ any presheaf is separated; R gives an extensional model on F(1)
    po = alg_poset(B2)
    for secs in (("f",), ("f", "g")):
        f = Presheaf.make(po, {"a1": secs}, {}, alg=B2)
        r = R(f)
        assert len(r.domain) == len(secs)
        assert r.is_extensional


def test_r_rejects_non_separated():
    po = alg_poset(B4)
    f = Presheaf.make(
        po,
        {"a1": ("x",), "a2": ("y",), "a1∨a2": ("f", "g")},
        {("a1", "a1∨a2"): {"f": "x", "g": "x"},
         ("a2", "a1∨a2"): {"f": "y", "g": "y"}},
        alg=B4)
    with pytest.raises(NotSeparatedError):
        R(f)


def test_adjunction_witness_mnm():
    aw = adjunction_witness(mnm())
    assert aw.triangle_l_ok and aw.triangle_r_ok
    assert aw.unit_is_iso      # mnm is extensional
    assert aw.counit_is_iso    # F = L(M) is level-surjective


def test_adjunction_witness_non_extensional_unit():
    m = BVModel.make(B4, ["s", "t"], eq={("s", "t"): B4.top},
                     sig=Signature.make({}))
    assert validate(m).ok and not m.is_extensional
    aw = adjunction_witness(m)
    assert aw.triangle_l_ok and aw.triangle_r_ok
    # eta is still a boolean isomorphism (it merges only [s=t]=1 pairs),
    # which is exactly why every model is boolean isomorphic to an
    # extensional one; but it is not injective as a function here
    assert aw.unit_is_iso
    assert aw.unit.phi["s"] == aw.unit.phi["t"]
    assert len(aw.unit.target.domain) == 1


def test_adjunction_witness_on_sampled_separated_presheaves():
    rng = random.Random(43)
    for _ in range(10):
        f, m = random_separated_presheaf(rng)
        aw = adjunction_witness(m, f)
        assert aw.triangle_l_ok and aw.triangle_r_ok


def test_adjunction_witness_default_f_is_explicit_l_of_m():
    """The default F reuses L(M), R(L(M)) and the counit at L(M); every
    witness field equals the one computed from an explicit F = L(M)."""
    rng = random.Random(43)
    nonext = BVModel.make(B4, ["s", "t"], eq={("s", "t"): B4.top},
                          sig=Signature.make({}))
    models = [mnm(), m_r(), nonext]
    models += [random_separated_presheaf(rng)[1] for _ in range(10)]
    for m in models:
        assert adjunction_witness(m) == adjunction_witness(m, L(m))


def test_counit_iso_iff_level_surjective():
    rng = random.Random(47)
    seen_not_surjective = 0
    for _ in range(20):
        f, m = random_separated_presheaf(rng)
        top = f.alg.top.label
        surjective = all(
            set(f.res(lev, top, s) for s in f.sections[top])
            == set(f.sections[lev])
            for lev in f.base.elements
        )
        aw = adjunction_witness(m, f)
        assert aw.counit_is_iso == surjective
        seen_not_surjective += not surjective
    assert seen_not_surjective > 0


def test_mixing_iff_sheaf_mnm_and_witness_section():
    rep = mixing_iff_sheaf(mnm())
    assert rep.equivalent
    assert not rep.mixing and not rep.sheaf and not rep.sections_all_induced
    assert rep.witness  # a global section not induced by any element


def test_mixing_iff_sheaf_positive_cases():
    mx, _ = mixify(mnm())
    rep = mixing_iff_sheaf(mx)
    assert rep.equivalent and rep.mixing and rep.sheaf

    from bvmsheaf.bvm import TarskiModel, product_model
    g = TarskiModel(Signature.make({"R": 1}), ("u", "v"),
                    {"R": frozenset({("u",)})}, {})
    prod = product_model([g, g])
    rep = mixing_iff_sheaf(prod)
    assert rep.equivalent and rep.mixing and rep.sheaf


def test_mixify_mnm_is_stalk_product_with_agreement_equalities():
    m = mnm()
    mx, emb = mixify(m)
    assert len(mx.domain) == 4
    assert has_mixing(mx).passed
    assert validate(mx).ok
    # equality = join of the atoms where the component classes agree
    taus = {a.label: tarski_quotient(m, Filter(B4, a)) for a in B4.atom_elems()}
    assert all(len(t.domain) == 2 for t in taus.values())
    for s in mx.domain:
        assert mx.eq[s, s].is_top
    # 4 choice pairs over 2-element stalks: diagonal agreements give one
    # shared atom, antidiagonal none (computed by hand from the stalk table)
    sizes = sorted(len(mx.eq[s, t].atom_labels())
                   for s in mx.domain for t in mx.domain if s != t)
    assert sizes == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1]


def test_mixify_embedding_is_elementary():
    for m in (mnm(), m_r()):
        mx, emb = mixify(m)
        rep = check_morphism(emb)
        assert rep.is_morphism and rep.is_embedding
        assert is_elementary(emb, 2)


def test_mixify_of_mixing_model_is_isomorphic_to_it():
    mx, _ = mixify(mnm())          # mixing, extensional
    mx2, emb2 = mixify(mx)
    assert find_model_isomorphism(mx, mx2) is not None


def test_mixify_over_b2_is_quotient_by_trivial_filter():
    m = BVModel.make(B2, ["s", "t"], sig=Signature.make({}))
    mx, _ = mixify(m)
    q = quotient_model(m, Filter(B2, B2.top))
    assert find_model_isomorphism(mx, q) is not None


def test_mixify_stalk_product_oracle_on_samples():
    rng = random.Random(53)
    for _ in range(8):
        m = random_model(rng, max_atoms=2, max_domain=3)
        mx, _ = mixify(m)
        expected = 1
        for a in m.alg.atom_elems():
            expected *= len(tarski_quotient(m, Filter(m.alg, a)).domain)
        assert len(mx.domain) == expected
        assert has_mixing(mx).passed


def test_mixify_builds_one_ro_algebra(monkeypatch):
    # the functor chain, the oracle of mixify, builds one RO(St(B))
    from bvmsheaf import topo
    builds = []
    init = topo.RoAlgebra.__init__

    def counted(self, space):
        builds.append(space)
        init(self, space)
    monkeypatch.setattr(topo.RoAlgebra, "__init__", counted)
    chain_mixify(random_model(random.Random(1), 3, 3))
    assert len(builds) == 1


def test_mixify_builds_no_ro_algebra_and_no_stone_space(monkeypatch):
    from bvmsheaf import balg, topo
    balg.stone_space.cache_clear()
    builds = []
    ro_init, stone_init = topo.RoAlgebra.__init__, balg.StoneSpace.__init__

    def counted_ro(self, space):
        builds.append(space)
        ro_init(self, space)

    def counted_stone(self, alg):
        builds.append(alg)
        stone_init(self, alg)
    monkeypatch.setattr(topo.RoAlgebra, "__init__", counted_ro)
    monkeypatch.setattr(balg.StoneSpace, "__init__", counted_stone)
    rng = random.Random(1)
    for _ in range(20):
        mixify(random_model(rng, 4, 3))
    assert builds == []


def _relabelled(m: BVModel) -> BVModel:
    """m with atoms a_i renamed b_(n+1-i), so the {a} sort in reverse and
    the mixified algebra's atom order is not the source's, and ids d_i
    renamed e1 followed by i zeros, so a section id's string order is not
    the order of its class tuple ("e1;" sorts after "e10;")."""
    n = m.alg.atom_count
    alg = BoolAlg(tuple(f"b{n - i}" for i in range(n)))
    ids = {d: "e1" + "0" * i for i, d in enumerate(m.domain)}

    def tup(t):
        return tuple(ids[d] for d in t)
    return BVModel(alg, m.sig, tup(m.domain),
                   {tup(pair): Elem(alg, v.bits) for pair, v in m.eq.items()},
                   {sym: {tup(t): Elem(alg, v.bits) for t, v in table.items()}
                    for sym, table in m.rels.items()},
                   {c: ids[d] for c, d in m.consts.items()})


def test_mixify_matches_the_functor_chain():
    """mixify reads the stalk product; R o Gamma1 o Lambda1 o L builds every
    level.  Same repr, model and embedding, on the 64 3-atom-bounded models,
    on them again relabelled (see _relabelled), and on 100 models of
    exactly 4 atoms."""
    rng = random.Random(64)
    models = [random_model(rng, 3, 4) for _ in range(64)]
    models += [_relabelled(m) for m in models]
    rng = random.Random(4)
    while len(models) < 228:
        m = random_model(rng, 4, 4)
        if m.alg.atom_count == 4:
            models.append(m)
    for m in models:
        assert repr(mixify(m)) == repr(chain_mixify(m))


def test_phi_bundle_m_r():
    m = m_r()
    pb = phi_bundle(m, parse(m.sig, "R(x)"))
    assert pb.b_phi.is_top
    assert pb.a_phi == pb.n_b_phi == frozenset({"a1", "a2"})
    assert {pt: len(st) for pt, st in pb.stalks.items()} == {"a1": 1, "a2": 1}
    secs = global_sections_of_bundle(pb)
    assert len(secs) == 1
    assert secs[0] == {"a1": ("s",), "a2": ("t",)}


def test_phi_bundle_empty_when_value_zero():
    m = m_r()
    pb = phi_bundle(m, parse(m.sig, "~(x = x)"))
    assert pb.b_phi.is_bottom
    assert pb.n_b_phi == frozenset() and pb.a_phi == frozenset()
    clauses = pb.clauses(True)
    assert clauses.agree


def test_global_sections_of_bundle_edge_cases():
    # the empty choice over an empty N_{b_phi}, and none over an empty stalk
    m = m_r()
    pb = phi_bundle(m, parse(m.sig, "~(x = x)"))
    assert global_sections_of_bundle(pb) == [{}]
    pb = phi_bundle(m, parse(m.sig, "R(x)"))
    pb.stalks = {**pb.stalks, "a1": ()}
    assert global_sections_of_bundle(pb) == []


def test_phi_bundle_requires_free_variable():
    m = m_r()
    from bvmsheaf.bvm import ModelError
    with pytest.raises(ModelError):
        phi_bundle(m, parse(m.sig, "E x. R(x)"))


def test_fullness_clauses_all_true_on_samples():
    rng = random.Random(59)
    for _ in range(12):
        m = random_model(rng)
        rep = fullness_via_sections(m, 2)
        assert rep.all_agree
        for c in rep.clauses:
            # the row read off the masks is the clauses computed on the bundle
            assert c == bundle_clauses_scan(phi_bundle(m, c.formula),
                                            rep.mixing_checked)
            assert c.finite_cover and c.a_phi_full
            assert c.a_phi_closed and c.has_global_section
            if rep.mixing_checked:
                assert c.product_section is True


def test_a_phi_is_n_b_phi_on_the_fullness_sample():
    """A_phi = N_{b_phi} by construction, which phi_bundle leaves
    unchecked, on every formula of the fullness sample."""
    rng = random.Random(59)
    bundles = 0
    for _ in range(12):
        m = random_model(rng)
        for c in fullness_via_sections(m, 2).clauses:
            pb = phi_bundle(m, c.formula)
            assert pb.a_phi == pb.n_b_phi
            bundles += 1
    assert bundles > 100


def test_product_section_clause_under_mixing():
    mx, _ = mixify(m_r())
    rep = fullness_via_sections(mx, 2)
    assert rep.mixing_checked and rep.all_agree


def test_mixing_iff_sheaf_on_samples_three_ways():
    rng = random.Random(61)
    mixing_count = 0
    for _ in range(15):
        m = random_model(rng, max_atoms=2, max_domain=3)
        rep = mixing_iff_sheaf(m)
        assert rep.equivalent
        mixing_count += rep.mixing
    assert 0 < mixing_count  # sampled both outcomes


def test_ext_to_stone_levels():
    lm = L(mnm())
    ext = ext_to_stone(lm)
    assert set(ext.base.elements) == {"{a1}", "{a2}", "{a1,a2}"}
    assert ext.sections["{a1,a2}"] == lm.sections["a1∨a2"]
    assert ext.sections["{a1}"] == lm.sections["a1"]


def test_phi_bundle_basic_opens_cover_total():
    m = m_r()
    pb = phi_bundle(m, parse(m.sig, "R(x)"))
    basics = basic_opens(pb, m)
    assert basics  # the generating basis is nonempty here
    covered = frozenset().union(*basics.values())
    assert covered == frozenset(pb.total)
    for (tup, c_label), germs in basics.items():
        # each basic is the product section's graph over part of N_c:
        # at most one germ per point, projecting into N_c
        pts = [pt for pt, _ in germs]
        assert len(pts) == len(set(pts))
        assert set(pts) <= set(pb.n_b_phi)


def test_basic_opens_match_the_filter_scan():
    """basic_opens, with the classes at the points of N_{b_phi} built once,
    against the scan building an ultrafilter and its classes for every
    (tuple, c, point), on every formula of the fullness sample."""
    rng = random.Random(59)
    bundles = 0
    for _ in range(12):
        m = random_model(rng)
        for c in fullness_via_sections(m, 2).clauses:
            pb = phi_bundle(m, c.formula)
            assert basic_opens(pb, m) == basic_opens_scan(pb, m)
            bundles += 1
    assert bundles > 100


def test_l_stalk_bijection_respects_equality():
    rng = random.Random(71)
    for _ in range(10):
        m = random_model(rng, max_atoms=2, max_domain=3)
        lm = L(m)
        for atom in m.alg.atom_elems():
            g = Filter(m.alg, atom)
            levels = [e.label for e in m.alg.elements()
                      if not e.is_bottom and atom <= e]
            classes = stalk_at_filter(lm, levels)
            rep_g = {}
            for a in m.domain:
                for b in m.domain:
                    if m.eq[b, a] in g:
                        rep_g[a] = b
                        break
            top = m.alg.top.label
            # the stalk class of a top-level section corresponds exactly to
            # its Tarski class: same class iff [s=t] in G
            for s in lm.sections[top]:
                for t in lm.sections[top]:
                    same_stalk = classes[top, s] == classes[top, t]
                    assert same_stalk == (rep_g[s] == rep_g[t])


def test_r_of_l_is_quotient_by_trivial_filter_in_general():
    # the round trip lands on M/F_1 even for non-extensional M
    rng = random.Random(83)
    seen_non_extensional = 0
    for _ in range(12):
        m = random_model(rng, max_atoms=2, max_domain=3)
        if not m.is_extensional:
            seen_non_extensional += 1
        rlm = R(L(m))
        q = quotient_model(m, Filter(m.alg, m.alg.top))
        assert find_model_isomorphism(q, rlm) is not None
    assert seen_non_extensional > 0


def _assert_same_presheaf(lm, oracle):
    assert (lm.base, lm.alg, lm.sig) == (oracle.base, oracle.alg, oracle.sig)
    assert lm.sections == oracle.sections
    assert lm.restrict == oracle.restrict
    assert lm.rel_top == oracle.rel_top
    assert lm.const_top == oracle.const_top


def _assert_same_model(m, oracle):
    assert (m.alg, m.sig, m.domain) == (oracle.alg, oracle.sig, oracle.domain)
    assert list(m.eq.items()) == list(oracle.eq.items())
    assert m.rels == oracle.rels
    assert m.consts == oracle.consts


@pytest.mark.parametrize("seed,count,max_atoms", [
    (2026, 200, 3),   # the models_200 sample of the acceptance criteria
    (4404, 300, 4),
])
def test_l_and_r_match_quotient_and_level_join_oracles(seed, count, max_atoms):
    rng = random.Random(seed)
    for _ in range(count):
        m = random_model(rng, max_atoms, 4)
        lm = L(m)
        _assert_same_presheaf(lm, quotient_L(m))
        _assert_same_model(R(lm), level_join_R(lm))


def test_r_matches_level_join_oracle_on_separated_presheaves():
    rng = random.Random(4405)
    for _ in range(60):
        f, _ = random_separated_presheaf(rng, max_atoms=4, max_stalk=4)
        _assert_same_model(R(f), level_join_R(f))


def test_r_matches_level_join_oracle_on_gamma1_presheaves():
    # the presheaf the functor chain hands to R: rel_top is a conjunction
    # over points
    rng = random.Random(4406)
    for _ in range(40):
        m = random_model(rng, 3, 3)
        _, e1, _, tarski, germ_class, phi = _stone_etale(m)
        g1 = _gamma1_structured(m, e1, tarski, germ_class, phi)
        rg1 = R(g1)
        _assert_same_model(rg1, level_join_R(g1))
        assert rg1 == mixify(m)[0]


def test_internal_presheaves_pass_the_functoriality_check():
    # L, ext, gamma_half, lift_i_star and the chain's _gamma1_structured
    # build their restrictions from rules or relabelled tables that compose,
    # and sheafify from gamma_half, so none re-runs the check at run time;
    # this test runs it on each output
    rng = random.Random(5)
    for _ in range(40):
        m = random_model(rng, max_atoms=4, max_domain=3)
        lm = L(m)
        stone, e1, _, tarski, germ_class, phi = _stone_etale(m)
        wider = mk_powerset(m.alg.atoms + ("z",))
        i = BAHom.from_dict(m.alg, wider, {**{a: a for a in m.alg.atoms},
                                           "z": m.alg.atoms[-1]})
        ext = ext_to_stone(lm)
        for ps in (lm, ext, gamma_half(Bundle(lambda1(ext, stone.space))),
                   _gamma1_structured(m, e1, tarski, germ_class, phi),
                   lift_i_star(i, lm), sheafify(ext, stone.space)[0]):
            ps._check_functorial()
    for n in range(2, 6):
        points = tuple("pqrst"[:n])
        x = FinTop(points, frozenset(
            frozenset(p for k, p in enumerate(points) if bits >> k & 1)
            for bits in range(2 ** n)))
        full = section_sheaf(x, {p: 2 for p in points})
        for ps in (full, random_subpresheaf(rng, full)):
            sheafify(ps, x)[0]._check_functorial()


def test_bridge_bases_are_built_once(monkeypatch):
    """One L and one R per model or presheaf (so one is_separated per
    presheaf R reads), one class-representative scan per model and mask,
    one St(B) per algebra and one poset per base across R o L, the
    adjunction witness, mixing <-> sheaf and mixify; a second model on the
    same algebra builds no Stone space and no poset.  Posets are counted on
    both paths: the checked constructor and the unchecked one of the
    inclusion posets."""
    from bvmsheaf import balg, bridge, bvm, sheaf, topo
    for cache in (balg.stone_space, topo.opens_poset, sheaf.alg_poset):
        cache.cache_clear()
    l_builds, stone_builds, poset_builds = [], [], []
    r_builds, rep_scans, separated = [], [], []
    build_l, stone_init, poset_check = (bridge._L, balg.StoneSpace.__init__,
                                        topo.FinPoset.__post_init__)
    poset_unchecked = topo.FinPoset._unchecked
    build_r, scan_reps, is_sep = bridge._R, bvm._scan_reps, bridge.is_separated

    def counted_l(m):
        l_builds.append(m)
        return build_l(m)

    def counted_r(f):
        r_builds.append(f)
        return build_r(f)

    def counted_scan(ev, g):
        rep_scans.append((ev, g))
        return scan_reps(ev, g)

    def counted_separated(f):
        separated.append(f)
        return is_sep(f)

    def counted_stone(self, alg):
        stone_builds.append(alg)
        stone_init(self, alg)

    def counted_poset(self):
        poset_builds.append(self.elements)
        poset_check(self)

    def counted_unchecked(elements, down, mask):
        poset_builds.append(elements)
        return poset_unchecked(elements, down, mask)
    monkeypatch.setattr(bridge, "_L", counted_l)
    monkeypatch.setattr(bridge, "_R", counted_r)
    monkeypatch.setattr(bvm, "_scan_reps", counted_scan)
    monkeypatch.setattr(bridge, "is_separated", counted_separated)
    monkeypatch.setattr(balg.StoneSpace, "__init__", counted_stone)
    monkeypatch.setattr(topo.FinPoset, "__post_init__", counted_poset)
    monkeypatch.setattr(topo.FinPoset, "_unchecked", staticmethod(counted_unchecked))

    def run(m):
        R(L(m))
        adjunction_witness(m)
        mixing_iff_sheaf(m)
        mixify(m)

    rng = random.Random(1)
    models = [m for m in (random_model(rng, 3, 3) for _ in range(40))
              if m.alg.atom_count == 3][:2]
    m, m2 = models
    run(m)
    assert sum(built is m for built in l_builds) == 1
    assert stone_builds == [m.alg]
    assert len(poset_builds) == len(set(poset_builds))
    assert L(m) is L(m)
    assert R(L(m)) is R(L(m))
    assert len(r_builds) == 1 and r_builds[0] is L(m)
    assert len(separated) == 1 and separated[0] is L(m)
    scans = [(id(ev), g) for ev, g in rep_scans]
    assert len(scans) == len(set(scans))
    assert {(id(m._evaluator), g) for g in range(1, 8)} <= set(scans)
    _assert_same_presheaf(L(m), quotient_L(m))
    stone_base = topo.opens_poset(balg.stone_space(m.alg).space).elements
    assert stone_base in poset_builds
    del stone_builds[:], poset_builds[:]
    run(m2)
    assert stone_builds == [] and poset_builds == []
    assert len(r_builds) == 2 and r_builds[1] is L(m2)
    scans = [(id(ev), g) for ev, g in rep_scans]
    assert len(scans) == len(set(scans))
