"""Acceptance criteria, one test per criterion, each printing a PASS line
with its elapsed time and enforcing the stated budget.

The 200-model sample is drawn once with the fixed default seed and shared by
the semantics, Los, mixing, sheaf, adjunction, and bundle suites.
"""

import random
import time
from itertools import combinations

import pytest

from bvmsheaf.balg import Filter, mk_powerset, stone_space, ultrafilters
from bvmsheaf.bridge import (L, R, adjunction_witness, fullness_via_sections,
                             mixify, mixing_iff_sheaf)
from bvmsheaf.bvm import (BVModel, eval_formula, has_mixing, is_full,
                          open_pool, random_model, standard_validities,
                          tarski_quotient, validate)
from bvmsheaf.logic import Signature, substitute
from bvmsheaf.sheaf import is_stonean_sheaf, lambda1, sheafify
from bvmsheaf.topo import FinTop, boolean_completion, induced_ro_hom, ro_algebra

from util import (all_continuous_maps, all_homs, all_posets, all_topologies,
                  brute_force_left_adjoint, brute_force_ultrafilters,
                  find_model_isomorphism, find_presheaf_isomorphism,
                  random_separated_presheaf, random_subpresheaf,
                  regularize_pointwise, section_sheaf)

SEED = 2026
N_MODELS = 200


def _banner(num, label, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {num:>2}: {label} ({elapsed:.1f}s)")


_CACHE: dict = {}


@pytest.fixture(scope="module")
def models_200():
    if "models" not in _CACHE:
        rng = random.Random(SEED)
        _CACHE["models"] = [random_model(rng) for _ in range(N_MODELS)]
    return _CACHE["models"]


def _fullness_200(models):
    if "fullness" not in _CACHE:
        _CACHE["fullness"] = [is_full(m, 2) for m in models]
    return _CACHE["fullness"]


def _mixing_200(models):
    if "mixing" not in _CACHE:
        _CACHE["mixing"] = [has_mixing(m) for m in models]
    return _CACHE["mixing"]


def test_criterion_01_stone_duality():
    t0 = time.time()
    for n in range(1, 5):
        alg = mk_powerset([f"a{i+1}" for i in range(n)])
        st = stone_space(alg)
        assert len(ultrafilters(alg)) == alg.atom_count
        if n <= 3:
            assert len(brute_force_ultrafilters(alg)) == alg.atom_count
        seen = set()
        for a in alg.elements():
            na = st.clopen(a)
            seen.add(na)
            assert st.elem_of(na) == a
            for b in alg.elements():
                assert st.clopen(a & b) == na & st.clopen(b)
                assert st.clopen(a | b) == na | st.clopen(b)
            assert st.clopen(~a) == frozenset(st.space.points) - na
        assert seen == set(st.space.opens)  # B ~ CLOP(St(B)) onto
    _banner(1, "Stone duality for algebras with <= 4 atoms", t0, 5)


def test_criterion_02_regularization():
    t0 = time.time()
    spaces3 = all_topologies(("p", "q", "r"))
    assert len(spaces3) == 29          # labeled topologies on 3 points
    rng = random.Random(SEED)
    spaces4_all = all_topologies(("p", "q", "r", "s"))
    assert len(spaces4_all) == 355     # labeled topologies on 4 points
    spaces4 = rng.sample(spaces4_all, 40)
    for x in spaces3 + spaces4:
        pts = list(x.points)
        subsets = [frozenset(p for i, p in enumerate(pts) if m >> i & 1)
                   for m in range(2 ** len(pts))]
        regs = {a: x.regularize(a) for a in subsets}
        for a in subsets:
            assert regs[a] == regularize_pointwise(x, a)   # local characterization
            assert x.regularize(regs[a]) == regs[a]        # idempotent
            for b in subsets:
                if a <= b:
                    assert regs[a] <= regs[b]              # monotone
        for u in x.opens:
            assert u <= regs[frozenset(u)]                 # inflationary on opens
    _banner(2, "regularization laws on 29+40 spaces", t0, 30)


def test_criterion_03_open_map_identity():
    t0 = time.time()
    spaces = (all_topologies(("p",)) + all_topologies(("p", "q"))
              + all_topologies(("p", "q", "r")))
    open_maps = 0
    failures_of_nonopen = 0
    for x in spaces:
        for y in spaces:
            for f in all_continuous_maps(x, y):
                if f.is_open:
                    open_maps += 1
                    for u in y.opens:
                        assert x.regularize(f.preimage(u)) == \
                            f.preimage(y.regularize(u))
                    induced_ro_hom(f)
                else:
                    if any(x.regularize(f.preimage(u))
                           != f.preimage(y.regularize(u)) for u in y.opens):
                        failures_of_nonopen += 1
    assert open_maps > 100
    assert failures_of_nonopen > 0  # recorded non-open counterexamples
    _banner(3, f"Reg/preimage exchange on {open_maps} open maps "
               f"({failures_of_nonopen} non-open counterexamples)", t0, 60)


def test_criterion_04_boolean_completion():
    t0 = time.time()
    posets = []
    for labels in (("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
        posets.extend(all_posets(labels))
    assert len(posets) == 1 + 3 + 19 + 219   # labeled posets by size
    for p in posets:
        ro, e = boolean_completion(p)  # validates the complete-BA laws
        for a in p.elements:
            for b in p.elements:
                if p.le(a, b):
                    assert e[a] <= e[b]
                if not p.compatible(a, b):
                    assert (e[a] & e[b]).is_bottom
        for elem in ro.alg.elements():
            if not elem.is_bottom:
                assert any(e[a] <= elem for a in p.elements)
    _banner(4, f"boolean completion of {len(posets)} posets", t0, 60)


def test_criterion_05_adjoint_pairs():
    t0 = time.time()
    algebras = [mk_powerset([f"a{i+1}" for i in range(n)]) for n in (1, 2, 3)]
    n_homs = 0
    for src in algebras:
        for tgt in algebras:
            for i in all_homs(src, tgt):
                n_homs += 1
                pi = i.left_adjoint
                for c in tgt.elements():
                    assert pi(c) == brute_force_left_adjoint(i, c)  # unique
                    for b in src.elements():
                        assert (c <= i(b)) == (pi(c) <= b)          # Galois
                duals = [i.dual(u) for u in ultrafilters(tgt)]
                for b in src.elements():                            # i = k_{pi*}
                    rebuilt = tgt.from_labels(
                        d.gen.label for d, du in
                        zip(ultrafilters(tgt), duals) if b in du)
                    assert rebuilt == i(b)
    _banner(5, f"Galois + uniqueness + reconstruction on {n_homs} homs", t0, 60)


def test_criterion_06_semantics(models_200):
    from bvmsheaf.bvm import closed_pool, generalize
    from bvmsheaf.logic import free_vars

    t0 = time.time()
    for m in models_200:
        assert validate(m).ok
        # sampled open formulas to quantifier depth <= 3 in one free
        # variable: quantifier-free opens plus re-generalized closures
        pool = open_pool(m.sig, m.domain, "x")[:30]
        deep = []
        for f in closed_pool(m.sig, m.domain, 2)[::37]:
            g = generalize(f, f"c_{m.domain[0]}", "x")
            if "x" in free_vars(g):
                deep.append(g)
        for f in pool + deep[:15]:
            for a in m.domain:
                for b in m.domain:
                    lhs = m.eq[a, b] & eval_formula(m, substitute(f, "x", f"c_{a}"))
                    assert lhs <= eval_formula(m, substitute(f, "x", f"c_{b}"))
        vals = standard_validities(m)
        assert len(vals) == 10
        for f in vals:
            assert eval_formula(m, f).is_top
    _banner(6, f"axioms, substitution law, 10 validities on {N_MODELS} models",
            t0, 120)


def test_criterion_07_los_fullness(models_200):
    t0 = time.time()
    fullness = _fullness_200(models_200)
    for m, rep in zip(models_200, fullness):
        assert rep.full, f"Los failure: {rep.los_mismatches[:1]}"
        assert rep.procedures_agree
        for f, cover in rep.witness_covers:
            assert cover is not None
    _banner(7, f"Los oracle = witness covers on {N_MODELS} models, depth 2",
            t0, 300)


def test_criterion_08_mixing_separation(models_200):
    t0 = time.time()
    fullness_200 = _fullness_200(models_200)
    mixing_200 = _mixing_200(models_200)
    mnm = BVModel.make(mk_powerset(["a1", "a2"]), ["s", "t"],
                       sig=Signature.make({}))
    rep = has_mixing(mnm)
    assert not rep.passed
    assert set(rep.witness[0]) == {"a1", "a2"}
    mx, _ = mixify(mnm)
    assert has_mixing(mx).passed
    exceptions = [
        i for i, (mix, full) in enumerate(zip(mixing_200, fullness_200))
        if mix.passed and not full.full
    ]
    assert exceptions == []
    assert any(mix.passed for mix in mixing_200)
    _banner(8, "mixing fails on MNM (witness a1,a2), passes on its "
               f"mixification; mixing => full on {N_MODELS} models", t0, 120)


def test_criterion_09_mixing_iff_sheaf(models_200):
    t0 = time.time()
    mixing_200 = _mixing_200(models_200)
    for m, mix in zip(models_200, mixing_200):
        rep = mixing_iff_sheaf(m)
        assert rep.mixing == mix.passed
        assert rep.equivalent, (rep.mixing, rep.sheaf, rep.sections_all_induced)
    _banner(9, f"mixing = sheaf(L(M)) = sections-induced on {N_MODELS} models",
            t0, 300)


def test_criterion_10_adjunction(models_200):
    t0 = time.time()
    extensional_seen = 0
    for m in models_200:
        aw = adjunction_witness(m)
        assert aw.triangle_l_ok and aw.triangle_r_ok
        if m.is_extensional:
            extensional_seen += 1
            assert find_model_isomorphism(m, R(L(m))) is not None
    assert extensional_seen > 0
    rng = random.Random(SEED + 1)
    level_surjective_seen = 0
    for _ in range(50):
        f, m = random_separated_presheaf(rng)
        aw = adjunction_witness(m, f)
        assert aw.triangle_l_ok and aw.triangle_r_ok
        top = f.alg.top.label
        surjective = all(
            {f.res(lev, top, s) for s in f.sections[top]} == set(f.sections[lev])
            for lev in f.base.elements)
        if surjective:
            level_surjective_seen += 1
            lrf = L(R(f))
            assert find_presheaf_isomorphism(lrf, f) is not None
    assert level_surjective_seen > 0
    _banner(10, f"triangle identities on {N_MODELS} models + 50 presheaves; "
                "R(L(M)) ~ M, L(R(F)) ~ F on the stated fragments", t0, 300)


def test_criterion_11_sheafification(models_200):
    t0 = time.time()
    disc2 = FinTop(("x", "y"), frozenset(
        frozenset(c) for r in range(3) for c in combinations(("x", "y"), r)))
    disc3 = FinTop(("x", "y", "z"), frozenset(
        frozenset(c) for r in range(4) for c in combinations(("x", "y", "z"), r)))
    rng = random.Random(SEED + 2)
    samples = []
    for _ in range(22):
        samples.append((random_subpresheaf(
            rng, section_sheaf(disc2, {"x": rng.randint(1, 3),
                                       "y": rng.randint(1, 2)})), disc2))
    for _ in range(18):
        samples.append((random_subpresheaf(
            rng, section_sheaf(disc3, {"x": 2, "y": rng.randint(1, 2),
                                       "z": 1})), disc3))
    sier = FinTop(("0", "1"), frozenset({frozenset(), frozenset({"1"}),
                                         frozenset({"0", "1"})}))
    from bvmsheaf.sheaf import Presheaf
    from bvmsheaf.topo import opens_poset
    po = opens_poset(sier)
    for k in range(10):
        n_top, n_low = 1 + k % 2, 1 + (k // 2) % 3
        secs_top = tuple(f"s{i}" for i in range(n_top))
        secs_low = tuple(f"t{i}" for i in range(n_low))
        res = {s: secs_low[(i + k) % n_low] for i, s in enumerate(secs_top)}
        samples.append((Presheaf.make(
            po, {"{0,1}": secs_top, "{1}": secs_low},
            {("{1}", "{0,1}"): res}), sier))
    assert len(samples) == 50
    for ps, x in samples:
        sh, unit = sheafify(ps, x)
        assert is_stonean_sheaf(sh).passed
        x1 = lambda1(ps, x).base
        sh2, _ = sheafify(sh, x1)
        assert find_presheaf_isomorphism(sh, sh2) is not None

    for m in models_200[:12]:
        mx, emb = mixify(m)
        expected = 1
        for a in m.alg.atom_elems():
            expected *= len(tarski_quotient(m, Filter(m.alg, a)).domain)
        assert len(mx.domain) == expected
        def germ_at(section_id: str) -> dict:
            return dict(chunk.split("=", 1) for chunk in section_id.split(";"))
        for s in mx.domain:
            gs = germ_at(s)
            for t in mx.domain:
                gt = germ_at(t)
                agree = mx.alg.from_labels(
                    g for g in mx.alg.atoms if gs[g] == gt[g])
                assert mx.eq[s, t] == agree
        assert has_mixing(mx).passed

    _universal_property_instances()
    _banner(11, "Gamma1.Lambda1 stonean + idempotent on 50 presheaves; "
                "mixify stalk-product oracle; universal property", t0, 300)


def _universal_property_instances():
    """Unique factorization through the unit, fully enumerated on bases with
    <= 2 atoms and <= 3 sections per level (identity algebra component)."""
    from test_sheaf import (DISC2, _all_nat_trans, _all_nat_trans_sh,
                            constant_singleton)
    from bvmsheaf.topo import ro_algebra, subset_label
    rng = random.Random(SEED + 3)
    full = section_sheaf(DISC2, {"x": 2, "y": 1})
    targets = [section_sheaf(DISC2, {"x": 2, "y": 1}),
               section_sheaf(DISC2, {"x": 1, "y": 2}),
               constant_singleton(DISC2)]
    ro = ro_algebra(DISC2)
    for _ in range(2):
        f = random_subpresheaf(rng, full)
        sh, unit = sheafify(f, DISC2)
        sh_levels = {}
        for lev in sh.base.elements:
            atoms = [a for a in ro.atom_subsets if a in lev]
            pts = frozenset().union(*(ro.atom_subsets[a] for a in atoms))
            sh_levels[subset_label(pts)] = lev
        for s in targets:
            for kappa in _all_nat_trans(f, s):
                factors = [
                    kbar for kbar in _all_nat_trans_sh(sh, sh_levels, s)
                    if all(kbar[lev][unit.theta[lev][sec]] == kappa[lev][sec]
                           for lev in f.base.elements
                           for sec in f.sections[lev])
                ]
                assert len(factors) == 1


def test_criterion_12_fullness_via_sections(models_200):
    """Fullness clauses (1)-(4) hold by construction at finite scale: with a
    finite domain every existential is a finite join, so a finite witness
    cover always exists, and A_phi, every point of N_{b_phi} carrying a
    witness, is all of N_{b_phi}, hence closed and the stalks admit a global
    section.  The criterion checks that each clause's own computation
    reaches that verdict."""
    t0 = time.time()
    mixing_200 = _mixing_200(models_200)
    for m, mix in zip(models_200, mixing_200):
        rep = fullness_via_sections(m, 2)
        assert rep.all_agree
        assert rep.mixing_checked == mix.passed
        for c in rep.clauses:
            assert c.finite_cover and c.a_phi_full and c.a_phi_closed \
                and c.has_global_section
            if rep.mixing_checked:
                assert c.product_section is True
    mixed_extra = 0
    for m in models_200[:6]:
        mx, _ = mixify(m)
        rep = fullness_via_sections(mx, 2)
        assert rep.mixing_checked and rep.all_agree
        mixed_extra += 1
    assert mixed_extra == 6
    _banner(12, f"Thm clauses (1)-(4) agree on {N_MODELS} models; clause (5) "
                "on the mixing subsample and 6 mixifications", t0, 300)
