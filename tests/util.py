"""Shared brute-force oracles and exhaustive enumerators for the test suite.

Everything here is deliberately independent of the library's internal
shortcuts: filters are found by scanning all subsets, adjoints by scanning
all elements, spaces and posets by filtering all candidate families.
"""

from itertools import combinations, permutations, product
from random import Random

from bvmsheaf.balg import (AlgebraError, BAHom, BoolAlg, Elem, Filter,
                           stone_space)
from bvmsheaf.bridge import (FullnessClauses, L, R, StructuredPresheaf,
                             ext_to_stone)
from bvmsheaf.bvm import (BVModel, BVMorphism, MixingReport, ModelError,
                          MorphismReport, _atomic, _class_reps,
                          _smallest_cover, _spread, check_morphism,
                          generalize, open_pool, tarski_quotient)
from bvmsheaf.logic import (And, Const, Eq, Exists, Forall, Implies, Not, Or,
                            Rel, Signature, Var)
from bvmsheaf.sheaf import (_MAX_FAILURES, EtaleSpace, NotSeparatedError,
                            Presheaf, PresheafMorphism, SheafError,
                            SheafReport, _choices, _gamma_half, _lambda1,
                            _restrictions, _section_id, alg_poset,
                            check_presheaf_morphism, is_separated,
                            lift_i_star)
from bvmsheaf.topo import (FinPoset, FinTop, TopologyError, clop_algebra,
                           down_topology, is_extremally_disconnected,
                           opens_poset, ro_algebra, subset_label)


def elem_from_label(alg: BoolAlg, label: str) -> Elem:
    """The element of alg named by its label: '0' or a join of atoms."""
    if label == "0":
        return alg.bottom
    return alg.from_labels(label.split("∨"))


def brute_force_filters(alg: BoolAlg):
    """All filters, found as upward-closed meet-closed proper nonempty
    subsets of the algebra; no principality assumption."""
    elems = list(alg.elements())
    out = []
    for mask in range(1, 2 ** len(elems)):
        fam = [e for i, e in enumerate(elems) if mask >> i & 1]
        if alg.bottom in fam:
            continue
        fam_set = {e.bits for e in fam}
        if alg.top.bits not in fam_set:
            continue
        ok = all((a & b).bits in fam_set for a in fam for b in fam) and \
            all(c.bits in fam_set
                for a in fam for c in elems if a <= c)
        if ok:
            out.append(frozenset(fam_set))
    return out


def brute_force_ultrafilters(alg: BoolAlg):
    filters = brute_force_filters(alg)
    return [f for f in filters
            if not any(f < g for g in filters)]


def brute_force_left_adjoint(i, c: Elem) -> Elem:
    """inf of { b : i(b) >= c }, scanned over every source element."""
    candidates = [b for b in i.source.elements() if c <= i(b)]
    return i.source.meet_all(candidates)


def all_homs(src: BoolAlg, tgt: BoolAlg):
    """Every unital homomorphism src -> tgt, via every atom map."""
    out = []
    for images in product(src.atoms, repeat=tgt.atom_count):
        out.append(BAHom.from_dict(
            src, tgt, dict(zip(tgt.atoms, images))))
    return out


def all_topologies(points) -> list:
    """Every topology on the labelled point set, by filtering all families
    of proper nonempty subsets for closure under union and intersection."""
    points = tuple(points)
    n = len(points)
    full = (1 << n) - 1
    proper = [m for m in range(1, full)]
    topologies = []
    for mask in range(1 << len(proper)):
        fam = {0, full}
        for i, m in enumerate(proper):
            if mask >> i & 1:
                fam.add(m)
        ok = True
        for a in fam:
            if not ok:
                break
            for b in fam:
                if (a | b) not in fam or (a & b) not in fam:
                    ok = False
                    break
        if ok:
            topologies.append(frozenset(fam))
    out = []
    for fam in sorted(topologies, key=lambda f: (len(f), sorted(f))):
        opens = frozenset(
            frozenset(p for i, p in enumerate(points) if m >> i & 1)
            for m in fam)
        out.append(FinTop(points, opens))
    return out


def _point_set(points, m: int) -> frozenset:
    return frozenset(p for i, p in enumerate(points) if m >> i & 1)


def preorder_topologies(points) -> list:
    """Every topology on the labelled points, from its specialization
    preorder q <= p iff q lies in U_p: each point's U_p holds the point, and
    q in U_p implies U_q inside U_p (transitivity).  The opens are the
    down-set family, the unions of the U_p.  Shares no code with
    all_topologies' family filter; FinTop checks each family."""
    points = tuple(points)
    n = len(points)
    out = []

    def extend(nbhd: list) -> None:
        k = len(nbhd)
        if k == n:
            unions = {0}
            for u in nbhd:
                unions |= {s | u for s in unions}
            out.append(FinTop(points, frozenset(_point_set(points, m) for m in unions)))
            return
        for u in range(1 << n):
            if u >> k & 1 and all((not u >> j & 1 or v & ~u == 0)
                                  and (not v >> k & 1 or u & ~v == 0)
                                  for j, v in enumerate(nbhd)):
                extend(nbhd + [u])

    extend([])
    return out


def interior_scan(x: FinTop, a) -> frozenset:
    """The union of the opens inside a, by a scan of every open."""
    return frozenset().union(*(u for u in x.opens if u <= frozenset(a)))


def closure_scan(x: FinTop, a) -> frozenset:
    return x.full - interior_scan(x, x.full - frozenset(a))


def regularize_scan(x: FinTop, a) -> frozenset:
    return interior_scan(x, closure_scan(x, a))


def regular_opens(x: FinTop) -> list[frozenset]:
    """The nonempty opens u with Reg(u) = u, in the order of nonempty_opens."""
    return [u for u in x.nonempty_opens() if x.regularize(u) == u]


def clopens(x: FinTop) -> list[frozenset]:
    """The opens whose complement is open, by (size, points)."""
    return [u for u in sorted(x.opens, key=lambda u: (len(u), sorted(u)))
            if x.is_closed(u)]


def is_nowhere_dense(x: FinTop, a) -> bool:
    """a has a closure with empty interior: Reg(a) is empty."""
    return not x.regularize(a)


def is_dense_in(x: FinTop, a, u) -> bool:
    """a is dense in the open set u: every nonempty open subset of u meets
    a, that is, no nonempty open lies inside u - a."""
    a, u = x._check_subset(a), x._check_subset(u)
    return not x._int(u & ~a)


def subspace(x: FinTop, s) -> FinTop:
    s = frozenset(s)
    if not x._check_subset(s):
        raise TopologyError("a subspace needs at least one point")
    return FinTop(tuple(p for p in x.points if p in s),
                  frozenset(u & s for u in x.opens))


def ro_to_subset(ro, e: Elem) -> frozenset:
    """The regular open realized by e: Reg of the union of its atoms."""
    if e.alg != ro.alg:
        raise AlgebraError("element of a different algebra")
    union = 0
    for i, a in enumerate(ro._atoms):
        if e.bits >> i & 1:
            union |= a
    return ro.space._set(ro.space._reg(union))


def ro_from_subset(ro, u) -> Elem:
    u = frozenset(u)
    if not ro.space.is_regular_open(u) and u:
        raise TopologyError(f"{subset_label(u)} is not regular open")
    return Elem(ro.alg, ro._elem_bits(ro.space._check_subset(u)))


def clop_to_subset(clop, e: Elem) -> frozenset:
    return frozenset().union(*(clop.atom_subsets[a] for a in e.atom_labels()))


def clop_from_subset(clop, u) -> Elem:
    u = frozenset(u)
    return clop.alg.from_labels(
        a for a, sub in clop.atom_subsets.items() if sub <= u)


def _minimal_by_size(family: list) -> dict:
    """label -> set of the minimal nonempty members, in (size, points) order."""
    family = sorted((u for u in family if u), key=lambda u: (len(u), sorted(u)))
    return {subset_label(u): u for u in family if not any(v < u for v in family)}


def ro_atoms_scan(x: FinTop) -> dict:
    """The atoms of RO(X): the minimal nonempty opens u with Reg(u) = u,
    Reg taken by the scans."""
    return _minimal_by_size([u for u in x.opens if regularize_scan(x, u) == u])


def clop_atoms_scan(x: FinTop) -> dict:
    """The atoms of CLOP(X): the minimal nonempty opens whose complement is
    open."""
    return _minimal_by_size([u for u in x.opens if x.full - u in x.opens])


def check_space_against_scans(x: FinTop) -> bool:
    """Asserts that interior, closure and Reg of every subset, the RO and
    CLOP atoms with their order, and extremal disconnectedness agree with
    the scans; returns whether x is extremally disconnected."""
    for m in range(1 << len(x.points)):
        a = _point_set(x.points, m)
        assert x.interior(a) == interior_scan(x, a)
        assert x.closure(a) == closure_scan(x, a)
        assert x.regularize(a) == regularize_scan(x, a)
    ro_atoms, clop_atoms = ro_atoms_scan(x), clop_atoms_scan(x)
    assert list(ro_algebra(x).atom_subsets.items()) == list(ro_atoms.items())
    assert list(clop_algebra(x).atom_subsets.items()) == list(clop_atoms.items())
    ed = is_extremally_disconnected(x)
    ros = {u for u in x.opens if regularize_scan(x, u) == u}
    assert ed == (ros == {u for u in x.opens if x.full - u in x.opens})
    return ed


def check_down_topology(p: FinPoset) -> None:
    """down_topology(p), built unchecked, is accepted by FinTop's check and
    has the same interiors as the checked space on its opens."""
    x = down_topology(p)
    y = FinTop(p.elements, x.opens)
    for m in range(1 << len(p.elements)):
        a = _point_set(p.elements, m)
        assert x.interior(a) == y.interior(a)


def sweep_spaces(n: int) -> dict:
    """check_space_against_scans on every topology on n points, and
    check_down_topology on the specialization poset of each T0 one, which
    must give the space back; returns the counts."""
    counts = {"spaces": 0, "posets": 0, "extremally disconnected": 0}
    for x in preorder_topologies("pqrstuvw"[:n]):
        counts["spaces"] += 1
        counts["extremally disconnected"] += check_space_against_scans(x)
        # q <= p iff q lies in every open around p, iff p is in Cl {q}
        leq = frozenset((q, p) for q in x.points for p in closure_scan(x, {q}))
        if all(p == q or (p, q) not in leq for q, p in leq):
            po = FinPoset(x.points, leq)
            check_down_topology(po)
            assert down_topology(po).opens == x.opens
            counts["posets"] += 1
    return counts


def join_all(alg: BoolAlg, elems) -> Elem:
    out = alg.bottom
    for e in elems:
        out = out | e
    return out


def filter_members(filt: Filter) -> list[Elem]:
    return [e for e in filt.alg.elements() if filt.gen <= e]


def presheaf_morphism(i: BAHom, theta: dict, source: Presheaf,
                      target: Presheaf) -> PresheafMorphism:
    """Build and validate a presheaf morphism; a failed naturality square is
    rejected with the offending pair U <= V."""
    mor = PresheafMorphism(i, theta, source, target)
    square = check_presheaf_morphism(mor)
    if square is not None:
        raise SheafError(
            f"naturality square fails at {square[0]} <= {square[1]}")
    return mor


def from_pairs_fixpoint(elements, pairs) -> frozenset:
    """The reflexive-transitive closure of pairs on elements, by the
    quadratic fixpoint over label pairs that FinPoset.from_pairs replaced."""
    rel = {(a, a) for a in elements} | {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def is_topology_pairwise(points, opens) -> bool:
    """Whether the family opens of subsets of points is a topology, by the
    pairwise scan FinTop's constructor replaced: it holds the empty and the
    full set, and the union and the meet of every pair of its members."""
    opens = frozenset(frozenset(u) for u in opens)
    if frozenset() not in opens or frozenset(points) not in opens:
        return False
    return all(u | v in opens and u & v in opens for u in opens for v in opens)


def completion_failures(p: FinPoset, ro, e: dict) -> list[str]:
    """The ways e: P -> RO+ fails to be a dense embedding, pair by pair and
    element by element: order, incompatibility, density of the range.
    boolean_completion gets all three by construction."""
    out = []
    for a in p.elements:
        for b in p.elements:
            if p.le(a, b) and not e[a] <= e[b]:
                out.append(f"not order preserving at {a},{b}")
            if not p.compatible(a, b) and not (e[a] & e[b]).is_bottom:
                out.append(f"not incompatibility preserving at {a},{b}")
    for elem in ro.alg.elements():
        if not elem.is_bottom and not any(e[a] <= elem for a in p.elements):
            out.append(f"range not dense below {elem}")
    return out


def all_posets(labels) -> list:
    """Every partial order on the labelled carrier."""
    labels = tuple(labels)
    n = len(labels)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for mask in range(1 << len(pairs)):
        rel = {(a, a) for a in range(n)}
        for i, p in enumerate(pairs):
            if mask >> i & 1:
                rel.add(p)
        ok = True
        for a, b in pairs:
            if (a, b) in rel and (b, a) in rel:
                ok = False
                break
        if ok:
            for a, b in list(rel):
                if not ok:
                    break
                for c in range(n):
                    if (b, c) in rel and (a, c) not in rel:
                        ok = False
                        break
        if ok:
            out.append(FinPoset(labels, frozenset(
                (labels[a], labels[b]) for a, b in rel)))
    return out


def downset_scan(po: FinPoset) -> frozenset:
    """Every down-closed subset, found by scanning all 2^|P| subsets with le:
    the opens down_topology builds from the principal down sets."""
    out = set()
    for mask in range(1 << len(po.elements)):
        sub = frozenset(e for i, e in enumerate(po.elements) if mask >> i & 1)
        if all(b in sub for a in sub for b in po.elements if po.le(b, a)):
            out.add(sub)
    return frozenset(out)


def is_predense_below(po: FinPoset, family, p: str) -> bool:
    """family is a dense covering of p: every q <= p is compatible with
    some member of the family."""
    family = list(family)
    return all(any(po.compatible(q, r) for r in family) for q in po.down(p))


def poset_sup(po: FinPoset, family):
    """Least upper bound of the family, or None if there is none, by
    scanning every element for upper bounds."""
    family = list(family)
    uppers = [u for u in po.elements if all(po.le(a, u) for a in family)]
    for u in uppers:
        if all(po.le(u, v) for v in uppers):
            return u
    return None


def all_continuous_maps(x: FinTop, y: FinTop):
    """Every continuous point function x -> y."""
    from bvmsheaf.topo import ContMap
    out = []
    for images in product(y.points, repeat=len(x.points)):
        fn = dict(zip(x.points, images))
        try:
            out.append(ContMap.from_dict(x, y, fn))
        except ValueError:
            pass
    return out


def is_ro_base(x: FinTop) -> bool:
    """The regular opens form a base: every open is a union of them."""
    ros = regular_opens(x)
    for u in x.nonempty_opens():
        cover = frozenset().union(*(r for r in ros if r <= u)) \
            if any(r <= u for r in ros) else frozenset()
        if cover != u:
            return False
    return True


def section_sheaf(x: FinTop, stalk_sizes: dict) -> Presheaf:
    """The sheaf of all stalk-choice functions over a DISCRETE space; the
    canonical stonean sheaf used as a sampling seed."""
    from bvmsheaf.sheaf import _section_id
    assert x.is_discrete
    poset = opens_poset(x)
    stalks = {p: [f"{p}.{i}" for i in range(stalk_sizes[p])] for p in x.points}
    sections, restrict = {}, {}
    secs_at = {}
    for u in x.nonempty_opens():
        label = subset_label(u)
        secs = [dict(zip(sorted(u), combo))
                for combo in product(*(stalks[p] for p in sorted(u)))]
        secs_at[label] = {_section_id(s): s for s in secs}
        sections[label] = tuple(sorted(secs_at[label]))
    for u in x.nonempty_opens():
        for v in x.nonempty_opens():
            if u < v:
                lu, lv = subset_label(u), subset_label(v)
                restrict[lu, lv] = {
                    sid: _section_id({p: s[p] for p in u})
                    for sid, s in secs_at[lv].items()
                }
    return Presheaf.make(poset, sections, restrict)


def random_subpresheaf(rng, ps: Presheaf, keep: float = 0.6) -> Presheaf:
    """A restriction-closed random subfamily of a presheaf (separated when
    the input is); every level keeps at least one section."""
    chosen = {p: set() for p in ps.base.elements}
    for p in ps.base.elements:
        for f in ps.sections[p]:
            if rng.random() < keep:
                chosen[p].add(f)
    for p in ps.base.elements:
        if not chosen[p]:
            chosen[p].add(rng.choice(list(ps.sections[p])))
    changed = True
    while changed:
        changed = False
        for p in ps.base.elements:
            for q in ps.base.down(p):
                if q == p:
                    continue
                for f in list(chosen[p]):
                    r = ps.res(q, p, f)
                    if r not in chosen[q]:
                        chosen[q].add(r)
                        changed = True
    sections = {p: tuple(sorted(chosen[p])) for p in ps.base.elements}
    restrict = {}
    for p in ps.base.elements:
        for q in ps.base.down(p):
            if q != p:
                restrict[q, p] = {f: ps.res(q, p, f) for f in sections[p]}
    return Presheaf.make(ps.base, sections, restrict, alg=ps.alg)


def random_model(rng: Random, max_atoms: int = 3,
                 max_domain: int = 4) -> BVModel:
    """A random valid model: random tables repaired to satisfy the equality
    axioms (transitive closure in the algebra) and congruence (saturation)."""
    alg = BoolAlg(tuple(f"a{i+1}" for i in range(rng.randint(1, max_atoms))))
    elems = list(alg.elements())
    dom = tuple(f"d{i}" for i in range(rng.randint(2, max_domain)))
    eq = {}
    for i, a in enumerate(dom):
        eq[a, a] = alg.top
        for b in dom[i + 1:]:
            v = rng.choice(elems)
            eq[a, b] = eq[b, a] = v
    changed = True
    while changed:
        changed = False
        for a in dom:
            for b in dom:
                for c in dom:
                    need = eq[a, b] & eq[b, c]
                    if not need <= eq[a, c]:
                        eq[a, c] = eq[c, a] = eq[a, c] | need
                        changed = True
    n_rels = rng.choice([1, 1, 1, 2])
    arities = {}
    for k in range(n_rels):
        arities["RQ"[k]] = rng.randint(1, 2)
    rels = {}
    for sym, arity in arities.items():
        table = {tup: rng.choice(elems) for tup in product(dom, repeat=arity)}
        changed = True
        while changed:
            changed = False
            for tup in table:
                for other in table:
                    agree = alg.meet_all(eq[s, t] for s, t in zip(tup, other))
                    need = agree & table[tup]
                    if not need <= table[other]:
                        table[other] = table[other] | need
                        changed = True
        rels[sym] = table
    consts = {"k": rng.choice(dom)} if rng.random() < 0.3 else {}
    sig = Signature.make(arities, consts.keys())
    return BVModel(alg, sig, dom, eq, rels, consts)


def random_separated_presheaf(rng, max_atoms: int = 3, max_stalk: int = 3):
    """A random separated presheaf on B+ for a random small algebra, sampled
    as a restriction-closed subfamily of the full choice sheaf."""
    m = random_model(rng, max_atoms=max_atoms, max_domain=max_stalk)
    return random_subpresheaf(rng, L(m)), m


def filter_reps(m: BVModel, filt: Filter) -> dict:
    """The least id of each element's class in M/F, by Filter membership on
    the Elem equality table: sharing no code with bvm's _class_reps."""
    return {a: min(b for b in m.domain if filt.gen <= m.eq[b, a])
            for a in m.domain}


def class_reps_scan(m: BVModel, g: int) -> dict:
    """The least id of each element's class at the mask g, by a fresh scan
    of the evaluator's int equality table: the body of _class_reps before
    its per-mask memo, kept as the memo's oracle."""
    eq, dom = m._evaluator.eq, m.domain
    return {a: min(b for b in dom if eq[b, a] & g == g) for a in dom}


def quotient_L(m):
    """L(M) built level by level by Filter membership on the Elem tables:
    the classes of M/F_b by filter_reps, and a relation instance over
    representatives top in M/F_b iff its value is in F_b.  The construction
    L replaced by the equality bits, kept as its oracle; it calls neither
    _class_reps nor quotient_model."""
    poset = alg_poset(m.alg)
    sections, restrict, rel_top = {}, {}, {}
    reps_at = {}
    for label in poset.elements:
        filt = Filter(m.alg, elem_from_label(m.alg, label))
        rep = reps_at[label] = filter_reps(m, filt)
        sections[label] = tuple(r for r in m.domain if rep[r] == r)
        for sym, table in m.rels.items():
            for tup, val in table.items():
                if all(rep[t] == t for t in tup):
                    rel_top[label, sym, tup] = val in filt
    for la in poset.elements:
        for lb in poset.elements:
            if poset.le(la, lb) and la != lb:
                restrict[la, lb] = {r: reps_at[la][r] for r in sections[lb]}
    top_label = m.alg.top.label
    const_top = {c: reps_at[top_label][t] for c, t in m.consts.items()}
    ps = Presheaf.make(poset, sections, restrict, alg=m.alg)
    return StructuredPresheaf(ps.base, ps.sections, ps.restrict, m.alg,
                              m.sig, rel_top, const_top)


def level_join_R(f):
    """R(F) with every truth value the join over all 2^n - 1 levels where
    the restrictions agree (or rel_top holds): the definition R replaced by
    the atoms, kept as its oracle.  F must be separated on B+."""
    from itertools import product as _product
    from bvmsheaf.bridge import StructuredPresheaf
    from bvmsheaf.bvm import BVModel
    alg = f.alg
    top_label = alg.top.label
    domain = f.sections[top_label]
    levels = [(label, elem_from_label(alg, label)) for label in f.base.elements]
    eq = {}
    for s in domain:
        for t in domain:
            eq[s, t] = join_all(alg, (
                b for label, b in levels
                if f.res(label, top_label, s) == f.res(label, top_label, t)))
    if isinstance(f, StructuredPresheaf) and f.sig is not None:
        sig, rels = f.sig, {}
        for sym, arity in sig.rel_arity.items():
            rels[sym] = {
                tup: join_all(alg, (
                    b for label, b in levels
                    if f.rel_top.get(
                        (label, sym,
                         tuple(f.res(label, top_label, t) for t in tup)),
                        False)))
                for tup in _product(domain, repeat=arity)}
        consts = dict(f.const_top)
    else:
        sig, rels, consts = Signature.make({}, ()), {}, {}
    return BVModel(alg, sig, tuple(domain), eq, rels, consts)


# -- the functor chain R o Gamma1 o Lambda1 o L, kept as the oracle of mixify --

def _stone_etale(m: BVModel):
    """Lambda1 of ext(L(M)) over St(B) as _lambda1's (base, stalks, germ_of),
    with the stalk Tarski models, the germ -> class dictionary needed to
    transport relation structure, and phi: sigma |-> the id of sigma-dot,
    the section of germs of sigma's class at the top.  One RO(St(B)) serves
    Lambda1 and the stalk points."""
    lm = L(m)
    stone = stone_space(m.alg)
    ext = ext_to_stone(lm)
    ro = ro_algebra(stone.space)
    e1 = _lambda1(ext, stone.space, ro)
    base, _, germ_of = e1
    point_of = {label: next(iter(sub)) for label, sub in ro.atom_subsets.items()}
    top_stone = subset_label(frozenset(stone.space.points))
    tarski = {}
    germ_class = {}
    for g_label, stone_pt in point_of.items():
        filt = stone.ultrafilter(stone_pt)
        tarski[g_label] = tarski_quotient(m, filt)
        rep_g = filter_reps(m, filt)
        for sigma in lm.sections[m.alg.top.label]:
            germ = germ_of[top_stone, sigma, g_label]
            germ_class[germ] = rep_g[sigma]
    rep1 = filter_reps(m, Filter(m.alg, m.alg.top))
    pts = sorted(base.points)
    phi = {sigma: _section_id({g: germ_of[top_stone, rep1[sigma], g]
                               for g in pts})
           for sigma in m.domain}
    return stone, e1, point_of, tarski, germ_class, phi


def _gamma1_structured(m: BVModel, e1: tuple, tarski: dict,
                       germ_class: dict, phi: dict) -> StructuredPresheaf:
    """Gamma1 of the bundle as gamma_half computes it, relabelled along the
    isomorphism O(St)+ = B+ for the powerset algebra of the stalk points:
    the table at (q, p) is gamma_half's at the point sets of q and p, so the
    restrictions still compose.  Relation structure is read stalkwise, and
    each constant's top section is phi of its element."""
    base, stalks, _ = e1
    g1, choices = _gamma_half(base, stalks)
    alg = BoolAlg(tuple(sorted(base.points)))
    poset = alg_poset(alg)
    points_of = {w.label: w.atom_labels() for w in alg.elements()
                 if not w.is_bottom}
    stone = {label: subset_label(w) for label, w in points_of.items()}
    sections = {label: g1.sections[stone[label]] for label in poset.elements}
    restrict = {(q, p): g1.restrict[stone[q], stone[p]]
                for p in poset.elements for q in sorted(poset.down(p))}
    rel_top = {}
    for label in poset.elements:
        secs = choices[stone[label]]
        for sym, arity in m.sig.rel_arity.items():
            for tup in product(sections[label], repeat=arity):
                rel_top[label, sym, tup] = all(
                    tuple(germ_class[secs[t][g]] for t in tup)
                    in tarski[g].rels.get(sym, frozenset())
                    for g in points_of[label]
                )
    const_top = {c: phi[t] for c, t in m.consts.items()}
    return StructuredPresheaf(poset, sections, restrict, alg,
                              m.sig, rel_top, const_top)


def chain_mixify(m: BVModel):
    """R o Gamma1 o Lambda1 o L, built functor by functor: Gamma1 holds
    sections and rel_top at all 2^n - 1 levels, of which R reads the atoms.
    The construction bridge.mixify replaced by the stalk product, kept as
    its oracle; the pair it returns has the same repr."""
    _, e1, point_of, tarski, germ_class, phi = _stone_etale(m)
    mx = R(_gamma1_structured(m, e1, tarski, germ_class, phi))
    i = BAHom.from_dict(m.alg, mx.alg,
                        {g: point_of[g] for g in mx.alg.atoms})
    return mx, BVMorphism(m, mx, i, phi)


# -- the label- and Elem-based L, R and check_morphism, kept as references ----

def label_L(m: BVModel) -> StructuredPresheaf:
    """L(m) level by level from each label: the level's mask parsed from
    its label, the relation instances found by filtering every table tuple
    for representatives, and the Elem values compared.  The construction
    bridge._L replaced by the int tables; the same fields in the same dict
    orders, for models whose tables are in product order."""
    poset = alg_poset(m.alg)
    sections, rel_top, reps_at = {}, {}, {}
    for label in poset.elements:
        bb = elem_from_label(m.alg, label).bits
        rep = reps_at[label] = _class_reps(m, bb)
        sections[label] = tuple(r for r in m.domain if rep[r] == r)
        for sym, table in m.rels.items():
            for tup, val in table.items():
                if all(rep[t] == t for t in tup):
                    rel_top[label, sym, tup] = val.bits & bb == bb
    restrict = _restrictions(poset, sections, lambda q, p: reps_at[q].__getitem__)
    const_top = {c: reps_at[m.alg.top.label][t] for c, t in m.consts.items()}
    return StructuredPresheaf(poset, sections, restrict, m.alg,
                              m.sig, rel_top, const_top)


def atom_join_R(f) -> BVModel:
    """R(F) with every value one join over the atoms per table entry, as an
    Elem: the construction bridge.R replaced by grouping F(1) per atom."""
    if f.alg is None:
        raise SheafError("R needs a presheaf on an algebra base")
    rep = is_separated(f)
    if not rep.passed:
        raise NotSeparatedError(
            f"presheaf is not separated: {rep.failures[:1]}")
    alg = f.alg
    top_label = alg.top.label
    domain = f.sections[top_label]
    atoms = [(a.label, a.bits) for a in alg.atom_elems()]
    res = {(a, s): f.res(a, top_label, s) for a, _ in atoms for s in domain}

    def join(holds) -> Elem:
        return Elem(alg, sum(bit for a, bit in atoms if holds(a)))

    eq = {(s, t): join(lambda a: res[a, s] == res[a, t])
          for s in domain for t in domain}
    if isinstance(f, StructuredPresheaf) and f.sig is not None:
        sig = f.sig
        rels = {sym: {tup: join(lambda a: f.rel_top.get(
                          (a, sym, tuple(res[a, t] for t in tup)), False))
                      for tup in product(domain, repeat=arity)}
                for sym, arity in sig.rel_arity.items()}
        consts = dict(f.const_top)
    else:
        sig = Signature.make({}, ())
        rels, consts = {}, {}
    return BVModel(alg, sig, tuple(domain), eq, rels, consts)


def elem_check_morphism(mor: BVMorphism) -> MorphismReport:
    """check_morphism with i applied and compared on Elems, entry by entry,
    and onto-ness tested against every source element: the body the bit
    comparison replaced, with the same checks, violations and errors."""
    m, n, i, phi = mor.source, mor.target, mor.i, mor.phi
    bad = []
    if i.source != m.alg or i.target != n.alg:
        bad.append("algebra map does not connect the model algebras")
        return MorphismReport(False, False, False, tuple(bad))
    if set(phi) != set(m.domain) or not set(phi.values()) <= set(n.domain):
        bad.append("domain map is not total into the target domain")
        return MorphismReport(False, False, False, tuple(bad))
    exact = True
    for c, t in m.consts.items():
        if n.consts.get(c) != phi[t]:
            bad.append(f"constant {c} not preserved")
    for a in m.domain:
        for b in m.domain:
            lhs, rhs = i(m.eq[a, b]), n.eq[phi[a], phi[b]]
            if not lhs <= rhs:
                bad.append(f"equality inequality fails at ({a},{b})")
            elif lhs != rhs:
                exact = False
    for sym, table in m.rels.items():
        for tup, val in table.items():
            lhs = i(val)
            rhs = n.rels[sym][tuple(phi[t] for t in tup)]
            if not lhs <= rhs:
                bad.append(f"relation inequality fails for {sym} at {tup}")
            elif lhs != rhs:
                exact = False
    is_morphism = not bad
    is_embedding = is_morphism and exact
    onto = all(
        any(n.eq[phi[s], t].is_top for s in m.domain) for t in n.domain
    )
    is_iso = is_embedding and mor.i.is_isomorphism and onto
    return MorphismReport(is_morphism, is_embedding, is_iso, tuple(bad))


def random_functorial_presheaf(rng, x: FinTop) -> Presheaf:
    """A random presheaf on O(X)+ for any finite space: a restriction-closed
    random family of choice functions into stalks of 1 or 2 values, divided
    by the identification of up to three random pairs of sections together
    with all their restrictions (so it need not be separated).  Section ids
    are shuffled, so their sorted order is not the construction order."""
    opens = x.nonempty_opens()
    stalk = {p: [f"{p}{i}" for i in range(rng.randint(1, 2))] for p in x.points}

    def cut(f, v):
        return tuple(kv for kv in f if kv[0] in v)

    secs = {}
    for u in opens:
        pts = sorted(u)
        every = [tuple(zip(pts, c)) for c in product(*(stalk[p] for p in pts))]
        secs[u] = {f for f in every if rng.random() < 0.5} or {rng.choice(every)}
    for u in sorted(opens, key=len, reverse=True):
        for v in opens:
            if v < u:
                secs[v] |= {cut(f, v) for f in secs[u]}
    cls = {(u, f): (u, f) for u in opens for f in secs[u]}
    for _ in range(rng.randint(0, 3)):
        u = rng.choice(opens)
        if len(secs[u]) > 1:
            f, g = rng.sample(sorted(secs[u]), 2)
            for v in opens:
                if v <= u:
                    _merge(cls, (v, cut(f, v)), (v, cut(g, v)))
    name, sections, restrict = {}, {}, {}
    for u in opens:
        roots = sorted({_root(cls, (u, f)) for f in secs[u]})
        ids = [f"s{i}" for i in range(len(roots))]
        rng.shuffle(ids)
        name.update(zip(roots, ids))
        rng.shuffle(roots)
        sections[subset_label(u)] = tuple(name[r] for r in roots)
    for u in opens:
        for v in opens:
            if v < u:
                restrict[subset_label(v), subset_label(u)] = {
                    name[_root(cls, (u, f))]: name[_root(cls, (v, cut(f, v)))]
                    for f in secs[u]}
    return Presheaf.make(opens_poset(x), sections, restrict)


# -- the clauses on the bundle, kept as the oracle of the clause rows ----------

def bundle_clauses_scan(pb, with_product_clause: bool) -> FullnessClauses:
    """The four (five under mixing) fullness clauses of a PhiBundle, each by
    its own computation on the bundle: a smallest cover of b_phi by the
    tuple values, A_phi as the points whose class-tuple stalk is nonempty,
    its closedness in the Stone subspace on N_{b_phi}, built here, the
    global sections enumerated as choice functions, and a tuple value above
    b_phi."""
    finite_cover = _smallest_cover(
        {t: pb.values[t].bits for t in sorted(pb.values)},
        pb.b_phi.bits) is not None
    a_phi = frozenset(pt for pt, stalk in pb.stalks.items() if stalk)
    a_phi_full = a_phi == pb.n_b_phi
    space = (subspace(stone_space(pb.b_phi.alg).space, pb.n_b_phi)
             if pb.n_b_phi else None)
    a_phi_closed = space is None or space.is_closed(a_phi)
    product_section = ((not pb.n_b_phi) or any(
        pb.b_phi <= val for val in pb.values.values())
        if with_product_clause else None)
    has_section = bool(_choices(pb.stalks, pb.n_b_phi))
    return FullnessClauses(pb.formula, finite_cover, a_phi_full,
                           a_phi_closed, has_section, product_section)


def basic_opens(pb, m: BVModel) -> dict:
    """E^phi's generating basis: for each witness tuple and each nonzero
    c <= b_phi, the tuple's germs over the points of N_c where the tuple's
    truth value lies in the ultrafilter."""
    reps = [(i, pt, _class_reps(m, 1 << i))
            for i, pt in enumerate(m.alg.atoms) if pb.b_phi.bits >> i & 1]
    out = {}
    for tup in sorted(pb.values):
        v = pb.values[tup].bits
        for c in m.alg.elements():
            if c.is_bottom or not c <= pb.b_phi:
                continue
            germs = frozenset((pt, tuple(rep[t] for t in tup))
                              for i, pt, rep in reps if (c.bits & v) >> i & 1)
            if germs:
                out[tup, c.label] = germs
    return out


def basic_opens_scan(pb, m: BVModel) -> dict:
    """basic_opens with an ultrafilter and its classes built for
    every (tuple, c, point): membership of the tuple's value in G_pt on the
    Elem, classes by filter_reps."""
    out = {}
    for tup in sorted(pb.values):
        for c in m.alg.elements():
            if c.is_bottom or not c <= pb.b_phi:
                continue
            germs = []
            for pt in sorted(c.atom_labels()):
                g = Filter(m.alg, m.alg.atom(pt))
                if pb.values[tup] in g:
                    rep_g = filter_reps(m, g)
                    germs.append((pt, tuple(rep_g[t] for t in tup)))
            if germs:
                out[tup, c.label] = frozenset(germs)
    return out


# -- the sup-covering scan, kept as the oracle of is_topological_sheaf ---------

def _sup_coverings(base: FinPoset, p: str):
    """All sup coverings (join = p) drawn from the elements strictly below p.

    Coverings containing p itself are skipped: any compatible family over
    such a covering contains f_p, every collation is forced to equal f_p,
    and f_p does collate it, so those instances are vacuous for both
    existence and uniqueness."""
    below = sorted(base.down(p) - {p})
    for size in range(1, len(below) + 1):
        for combo in combinations(below, size):
            if poset_sup(base, combo) == p:
                yield combo


def _compatible_families(ps: Presheaf, covering):
    """Backtracking enumeration of compatible families over the covering."""
    levels = list(covering)

    def compatible(i, f, chosen):
        for j in range(i):
            q, g = levels[j], chosen[j]
            for r in ps.base.refinements(levels[i], q):
                if ps.res(r, levels[i], f) != ps.res(r, q, g):
                    return False
        return True

    def extend(i, chosen):
        if i == len(levels):
            yield dict(zip(levels, chosen))
            return
        for f in ps.sections[levels[i]]:
            if compatible(i, f, chosen):
                yield from extend(i + 1, chosen + [f])

    yield from extend(0, [])


def _collations(ps: Presheaf, p: str, family: dict):
    return [f for f in ps.sections[p]
            if all(ps.res(q, p, f) == fq for q, fq in family.items())]


def _sheaf_scan(ps: Presheaf, max_failures: int | None = _MAX_FAILURES) -> SheafReport:
    """Exactly one collation for every compatible family over every sup
    covering, scanned until max_failures failures are found (to the end when
    it is None, which makes separated exact)."""
    failures = []
    separated = True
    for p in ps.base.elements:
        for covering in _sup_coverings(ps.base, p):
            for family in _compatible_families(ps, covering):
                n = len(_collations(ps, p, family))
                if n > 1:
                    separated = False
                    failures.append((p, covering, family, "multiple collations"))
                elif n == 0:
                    failures.append((p, covering, family, "no collation"))
                if max_failures is not None and len(failures) >= max_failures:
                    return SheafReport(False, separated, tuple(failures))
    return SheafReport(not failures, separated, tuple(failures))


def distributive_with_bottom(po: FinPoset) -> bool:
    """The poset with a new bottom (None) added is a distributive lattice:
    every pair has a least upper and a greatest lower bound, found by
    scanning all elements, and a meet (b join c) = (a meet b) join (a meet c)
    for every triple."""
    elems = [None, *po.elements]

    def le(a, b):
        return a is None or (b is not None and po.le(a, b))

    join, meet = {}, {}
    for a, b in product(elems, repeat=2):
        ups = [c for c in elems if le(a, c) and le(b, c)]
        downs = [c for c in elems if le(c, a) and le(c, b)]
        least = [c for c in ups if all(le(c, d) for d in ups)]
        greatest = [c for c in downs if all(le(d, c) for d in downs)]
        if not least or not greatest:
            return False
        join[a, b], meet[a, b] = least[0], greatest[0]
    return all(meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]
               for a, b, c in product(elems, repeat=3))


# -- the pairwise germ construction, kept as the oracle of lambda0/lambda1 ----

def _root(parent: dict, z):
    while parent[z] != z:
        z = parent[z]
    return z


def _merge(parent: dict, a, b) -> None:
    """Union of the classes of a and b, rooted at the smaller root."""
    ra, rb = _root(parent, a), _root(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def pairwise_classes(pairs: list, related) -> dict:
    """Union-find over every pair of members related(a, b), a before b;
    maps each member to its class root, the first member of its class when
    related is an equivalence."""
    parent = {z: z for z in pairs}
    for a, b in combinations(pairs, 2):
        if related(a, b):
            ra, rb = _root(parent, a), _root(parent, b)
            if ra != rb:
                parent[rb] = ra
    return {z: _root(parent, z) for z in pairs}


def stalk_at_filter(ps: Presheaf, levels: list) -> dict:
    """Equivalence classes of sections over a filter of levels: (p, f) ~
    (q, g) iff they agree on some common lower level in the filter.  Returns
    a map (level, section) -> class representative."""
    def related(a, b):
        (p, f), (q, g) = a, b
        return any(ps.base.le(r, p) and ps.base.le(r, q)
                   and ps.res(r, p, f) == ps.res(r, q, g) for r in levels)

    return pairwise_classes([(p, f) for p in levels for f in ps.sections[p]],
                            related)


def check_base_property(e: EtaleSpace) -> None:
    """Pairwise intersections of basics are unions of basics, checked once
    per distinct nonzero meet of two distinct basic masks: a basic met with
    itself is open, and deduping the basics changes neither the set of
    meets nor any union, so the verdict is the pairwise scan's.  lambda0 and
    lambda1 build bases by construction and do not call it."""
    meets = {b1 & b2 for b1, b2 in combinations(e._basic_masks, 2)} - {0}
    if any(e._interior(m) != m for m in meets):
        raise SheafError("basic opens do not form a base")


def _etale_from_classes(base, classes_at: dict, basics_of) -> EtaleSpace:
    """Germs named after their class roots, stalks in sorted root order."""
    total, proj, stalks, germ_of = [], {}, {}, {}
    for point, classes in classes_at.items():
        stalk = [f"{point}:{lev}:{f}" for lev, f in sorted(set(classes.values()))]
        for (lev, f), (lev0, f0) in classes.items():
            germ_of[lev, f, point] = f"{point}:{lev0}:{f0}"
        stalks[point] = tuple(stalk)
        total.extend(stalk)
        proj.update((g, point) for g in stalk)
    e = EtaleSpace(base, tuple(total), proj, basics_of(germ_of), stalks, germ_of)
    check_base_property(e)
    return e


def pairwise_lambda0(ps: Presheaf, x: FinTop) -> EtaleSpace:
    """lambda0 with germs by pairwise point-local agreement over the opens
    around each point: the construction the U_x keys replaced."""
    levels = {u: subset_label(u) for u in x.nonempty_opens()}
    classes_at = {pt: stalk_at_filter(ps, [lev for u, lev in levels.items()
                                          if pt in u])
                  for pt in x.points}

    def basics_of(germ_of):
        return {f"{lev}:{f}": frozenset(germ_of[lev, f, pt] for pt in u)
                for u, lev in levels.items() for f in ps.sections[lev]}

    return _etale_from_classes(x, classes_at, basics_of)


def pairwise_lambda1(ps: Presheaf, x: FinTop) -> EtaleSpace:
    """lambda1 with germs by the pairwise definition: (U, f) ~ (V, g) at the
    RO atom G iff the opens where f and g agree are predense below some
    member of the ultrafilter at G inside U & V.  The construction the
    minimal-open keys replaced."""
    ro = ro_algebra(x)
    levels = {u: subset_label(u) for u in x.nonempty_opens()}
    points = tuple(sorted(ro.atom_subsets))
    classes_at = {}
    for g_label in points:
        g = ro.atom_subsets[g_label]
        in_filter = [u for u in levels if g <= x.regularize(u)]

        def related(a, b):
            (uf, f), (uh, h) = a, b
            meet = uf & uh
            agree = frozenset().union(*(
                v for v in levels if v <= meet
                and ps.res(levels[v], levels[uf], f)
                == ps.res(levels[v], levels[uh], h)))
            return any(u <= meet and is_dense_in(x, agree, u) for u in in_filter)

        classes = pairwise_classes(
            [(u, f) for u in in_filter for f in ps.sections[levels[u]]], related)
        classes_at[g_label] = {(levels[u], f): (levels[r], h)
                               for (u, f), (r, h) in classes.items()}

    base = FinTop(points, frozenset(
        frozenset(c) for r in range(len(points) + 1)
        for c in combinations(points, r)))
    return _etale_from_classes(
        base, classes_at, lambda germ_of: ro_scan_basics(ps, x, ro, germ_of))


def ro_scan_basics(ps: Presheaf, x: FinTop, ro, germ_of: dict) -> dict:
    """The basics of lambda1, in key order, by scanning every element q of
    RO(X) against Reg u at each level u: the scan lambda1's submask walk
    replaced."""
    out = {}
    for u in x.nonempty_opens():
        lev, reg_u = subset_label(u), ro.reg_embed(u)
        for q in ro.alg.elements():
            if not q.is_bottom and q <= reg_u:
                for f in ps.sections[lev]:
                    out[f"{lev}:{f}@{q.label}"] = frozenset(
                        germ_of[lev, f, pt] for pt in q.atom_labels())
    return out


# -- shape checks the constructors no longer run --------------------------------

def ro_joins_match(x: FinTop, ro) -> bool:
    """RO(X) is complete with the joins the algebra computes: for every
    subfamily S of the regular opens, to_subset of the join of S is Reg of
    the union of S.  The distinct (union, join) pairs are collected one
    member at a time, which covers every subfamily."""
    pairs = {(frozenset(), ro.alg.bottom)}
    for u in regular_opens(x):
        e = ro_from_subset(ro, u)
        pairs |= {(v | u, j | e) for v, j in pairs}
    return all(ro_to_subset(ro, j) == x.regularize(v) for v, j in pairs)


def regularize_pointwise(x: FinTop, a) -> frozenset:
    """Reg(a) computed from its local characterization, independently of
    Int(Cl(.)) and of the masks: the union of the nonempty opens U such
    that a n U is dense in U."""
    a = frozenset(a)
    x._check_subset(a)
    out = set()
    for u in x.opens:
        if u and all(v & a for v in x.opens if v and v <= u):
            out |= u
    return frozenset(out)


def generate_topology(points, base) -> FinTop:
    """Smallest topology on the points containing every set in base."""
    pts = frozenset(points)
    family = {frozenset(), pts} | {frozenset(b) for b in base}
    # close under pairwise intersections, then all unions of the result
    while True:
        extra = {u & v for u in family for v in family} - family
        if not extra:
            break
        family |= extra
    while True:
        extra = {u | v for u in family for v in family} - family
        if not extra:
            break
        family |= extra
    return FinTop(tuple(points), frozenset(family))


def check_local_homeo(e: EtaleSpace) -> list[str]:
    """The etale-space core: continuous projection, basics mapping
    homeomorphically onto opens of the base, discrete stalks."""
    problems = []
    for u in e.base.opens:
        pre = frozenset(g for g in e.total if e.proj[g] in u)
        if not e.is_open(pre):
            problems.append(f"projection not continuous at {subset_label(u)}")
    for key, b in e.basics.items():
        image = frozenset(e.proj[g] for g in b)
        if image not in e.base.opens:
            problems.append(f"basic {key} does not project onto an open set")
        if len(image) != len(b):
            problems.append(f"projection not injective on basic {key}")
        for u in e.base.opens:
            if u <= image:
                slice_ = frozenset(g for g in b if e.proj[g] in u)
                if not e.is_open(slice_):
                    problems.append(f"projection not a homeomorphism on {key}")
                    break
    for point, stalk in e.stalks.items():
        stalk = frozenset(stalk)
        for g in stalk:
            isolated = any(b & stalk == {g} for b in e.basics.values())
            if not isolated:
                problems.append(f"stalk at {point} not discrete at {g}")
    return problems


def check_etale(e: EtaleSpace) -> list[str]:
    """The full stonean etale suite: the local homeomorphism core plus the
    separation properties specific to the ultrafilter-indexed space (closed
    stalks, Hausdorff, zero-dimensionality via clopen basics)."""
    problems = check_local_homeo(e)
    total = frozenset(e.total)
    for point, stalk in e.stalks.items():
        if not e.is_open(total - frozenset(stalk)):
            problems.append(f"stalk at {point} not closed")
    for g1, g2 in combinations(e.total, 2):
        if not any(g1 in b1 and g2 in b2 and not b1 & b2
                   for b1 in e.basics.values() for b2 in e.basics.values()):
            problems.append(f"germs {g1}, {g2} not Hausdorff separated")
    for b in e.basics.values():
        if not e.is_open(total - b):
            problems.append("a basic open is not clopen")
            break
    return problems


# -- model validation on Elem operations ------------------------------------------

def elem_validate(m: BVModel):
    """validate(m) with every axiom checked by Elem operations, a fresh top
    and bottom for each pair: the loops validate replaced by int bits, kept
    as its oracle."""
    from bvmsheaf.bvm import ValidationReport, _in_alg
    bad = []
    dom = m.domain
    for a in dom:
        for b in dom:
            if (a, b) not in m.eq:
                bad.append(f"equality table missing ({a},{b})")
            elif not _in_alg(m, m.eq[a, b]):
                bad.append(f"equality entry ({a},{b}) is not an element of {m.alg}")
    for sym, table in m.rels.items():
        for tup, val in table.items():
            if not _in_alg(m, val):
                bad.append(f"relation table {sym} entry {tup} is not an "
                           f"element of {m.alg}")
    if bad:
        return ValidationReport(tuple(bad), False)
    for a in dom:
        if not m.eq[a, a].is_top:
            bad.append(f"reflexivity fails at {a}: [{a}={a}] = {m.eq[a,a].label}")
        for b in dom:
            if m.eq[a, b] != m.eq[b, a]:
                bad.append(f"symmetry fails at ({a},{b})")
            for c in dom:
                if not (m.eq[a, b] & m.eq[b, c]) <= m.eq[a, c]:
                    bad.append(f"transitivity fails at ({a},{b},{c})")
    for sym, arity in m.sig.rel_arity.items():
        table = m.rels.get(sym, {})
        for tup in product(dom, repeat=arity):
            if tup not in table:
                bad.append(f"relation table {sym} missing {tup}")
                continue
            for other in product(dom, repeat=arity):
                agree = m.alg.meet_all(m.eq[s, t] for s, t in zip(tup, other))
                if not (agree & table[tup]) <= table.get(other, m.alg.bottom):
                    bad.append(f"congruence fails for {sym} at {tup} -> {other}")
    for c, target in m.consts.items():
        if target not in dom:
            bad.append(f"constant {c} maps outside the domain: {target}")
    extensional = not bad and m.is_extensional
    return ValidationReport(tuple(bad), extensional)


# -- the mixing search ------------------------------------------------------------

def antichains(alg: BoolAlg, max_size: int | None = None):
    """All antichains of nonzero pairwise-incompatible elements, by size,
    then in combinations order of the elements' bitmasks."""
    if max_size is not None and max_size < 1:
        raise AlgebraError("antichain size cap must be at least 1")
    nonzero = [e for e in alg.elements() if not e.is_bottom]
    top_size = alg.atom_count if max_size is None else min(max_size, alg.atom_count)
    for size in range(1, top_size + 1):
        for combo in combinations(nonzero, size):
            if all((a & b).is_bottom for a, b in combinations(combo, 2)):
                yield combo


def search_mixing(m: BVModel, max_antichain: int | None = None):
    """has_mixing by search: every antichain (size ascending) and every
    assignment of domain elements to its members, on Elem comparisons; the
    first without a mixer is the witness.  The oracle for the stalk-product
    procedure."""
    checked = 0
    for chain in antichains(m.alg, max_antichain):
        checked += 1
        for assignment in product(m.domain, repeat=len(chain)):
            if not _has_mixer(m, chain, assignment):
                witness = (
                    tuple(a.label for a in chain),
                    dict(zip((a.label for a in chain), assignment)),
                )
                return MixingReport(False, witness, checked)
    return MixingReport(True, None, checked)


def _has_mixer(m: BVModel, chain, assignment) -> bool:
    return any(
        all(a <= m.eq[tau, tau_a] for a, tau_a in zip(chain, assignment))
        for tau in m.domain
    )


# -- the closed pool with a final dedupe, kept as the oracle of closed_pool ------

def closed_pool_dedupe(sig: Signature, elements, depth: int,
                       max_nested: int = 48, max_conj_atoms: int = 20) -> list:
    """closed_pool by deduping at the end: every level, its repeated
    E x. x = x included, goes into the pool, and dict.fromkeys removes the
    repeats.  Uncached; the oracle of closed_pool, which puts no repeat in
    the pool."""
    elements = tuple(elements)
    consts = [Const(f"c_{e}") for e in elements]
    closed_atoms = list(dict.fromkeys(_atomic(sig, consts)))
    pool = list(closed_atoms)
    pool.extend(Not(a) for a in closed_atoms)
    prev_quantified = []
    for d in range(1, depth + 1):
        var = f"x{d}"
        level = [Exists(var, f)
                 for f in open_pool(sig, elements, var, max_conj_atoms)]
        nested = []
        for f in _spread(prev_quantified, max_nested):
            for e in elements:
                g = generalize(f, f"c_{e}", var)
                if g != f:
                    nested.append(Exists(var, g))
        level.extend(dict.fromkeys(nested))
        level.append(Exists(var, Eq(Var(var), Var(var))))
        level.append(Forall(var, Eq(Var(var), Var(var))))
        pool.extend(level)
        prev_quantified = level
    return list(dict.fromkeys(pool))


# -- formula evaluation by plain recursion ----------------------------------------

def _resolve(m: BVModel, term, env: dict) -> str:
    if isinstance(term, Var):
        if term.name not in env:
            raise ModelError(f"free variable {term.name!r} in a closed evaluation")
        return env[term.name]
    return m.resolve_constant(term.name)


def recursive_eval_bits(m: BVModel, f, env: dict, top: int) -> int:
    """[f] under env as a bitmask, read straight off the model's Elem tables
    on every visit, each quantifier binding its variable in a fresh env;
    top is the top bitmask.  The oracle for the model's evaluator."""
    if isinstance(f, Rel):
        return m.rels[f.sym][tuple(_resolve(m, t, env) for t in f.args)].bits
    if isinstance(f, Eq):
        return m.eq[_resolve(m, f.lhs, env), _resolve(m, f.rhs, env)].bits
    if isinstance(f, Not):
        return top & ~recursive_eval_bits(m, f.body, env, top)
    if isinstance(f, And):
        return (recursive_eval_bits(m, f.lhs, env, top)
                & recursive_eval_bits(m, f.rhs, env, top))
    if isinstance(f, Or):
        return (recursive_eval_bits(m, f.lhs, env, top)
                | recursive_eval_bits(m, f.rhs, env, top))
    if isinstance(f, Implies):
        return (top & ~recursive_eval_bits(m, f.lhs, env, top)
                | recursive_eval_bits(m, f.rhs, env, top))
    if isinstance(f, Exists):
        out = 0
        for d in m.domain:
            out |= recursive_eval_bits(m, f.body, {**env, f.var: d}, top)
        return out
    if isinstance(f, Forall):
        out = top
        for d in m.domain:
            out &= recursive_eval_bits(m, f.body, {**env, f.var: d}, top)
        return out
    raise TypeError(f"not a formula: {f!r}")


# -- isomorphism searches -------------------------------------------------------

def find_model_isomorphism(m: BVModel, n: BVModel):
    """Search for an isomorphism of boolean valued models; None if there is
    none.  Atom bijections are enumerated outright (few atoms), the domain
    bijection by backtracking with equality-table pruning."""
    if m.alg.atom_count != n.alg.atom_count or len(m.domain) != len(n.domain):
        return None
    if m.sig.rel_arity != n.sig.rel_arity:
        return None

    def extend(i, order, phi, used):
        if len(order) == len(phi):
            mor = BVMorphism(m, n, i, dict(phi))
            return mor if check_morphism(mor).is_isomorphism else None
        a = order[len(phi)]
        for b in n.domain:
            if b in used:
                continue
            if any(i(m.eq[a, a2]) != n.eq[b, phi[a2]] for a2 in phi):
                continue
            if i(m.eq[a, a]) != n.eq[b, b]:
                continue
            phi[a] = b
            used.add(b)
            out = extend(i, order, phi, used)
            if out is not None:
                return out
            del phi[a]
            used.discard(b)
        return None

    for perm in permutations(n.alg.atoms):
        i = BAHom.from_dict(m.alg, n.alg,
                            {p: a for p, a in zip(perm, m.alg.atoms)})
        out = extend(i, list(m.domain), {}, set())
        if out is not None:
            return out
    return None


def find_presheaf_isomorphism(f0: Presheaf, f1: Presheaf):
    """Backtracking search for a base-poset isomorphism together with
    level-wise section bijections commuting with restrictions; None when the
    presheaves are not isomorphic."""
    e0, e1 = f0.base.elements, f1.base.elements
    if len(e0) != len(e1):
        return None
    if sorted(len(f0.sections[p]) for p in e0) != \
            sorted(len(f1.sections[p]) for p in e1):
        return None
    for perm in permutations(e1):
        base_map = dict(zip(e0, perm))
        if any((f0.base.le(a, b)) != (f1.base.le(base_map[a], base_map[b]))
               for a in e0 for b in e0):
            continue
        if any(len(f0.sections[p]) != len(f1.sections[base_map[p]]) for p in e0):
            continue
        assign = _match_sections(f0, f1, base_map)
        if assign is not None:
            return base_map, assign
    return None


def _match_sections(f0: Presheaf, f1: Presheaf, base_map: dict):
    """Level-wise bijections commuting with restrictions, or None."""
    order = sorted(f0.base.elements,
                   key=lambda p: -len(f0.base.down(p)))  # top-down

    def extend(idx, assign):
        if idx == len(order):
            return dict(assign)
        p = order[idx]
        targets = f1.sections[base_map[p]]
        for perm in permutations(targets):
            level_map = dict(zip(f0.sections[p], perm))
            ok = True
            for q, amap in assign.items():
                if f0.base.le(q, p):
                    for f in f0.sections[p]:
                        if amap[f0.res(q, p, f)] != \
                                f1.res(base_map[q], base_map[p], level_map[f]):
                            ok = False
                            break
                elif f0.base.le(p, q):
                    for f in f0.sections[q]:
                        if level_map[f0.res(p, q, f)] != \
                                f1.res(base_map[p], base_map[q], amap[f]):
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                assign[p] = level_map
                out = extend(idx + 1, assign)
                if out is not None:
                    return out
                del assign[p]
        return None

    return extend(0, {})


def failing_squares(mor):
    """The failing pairs U < V of check_presheaf_morphism by the all-pairs
    scan it replaced: pi_i by the brute-force left adjoint, theta checked
    level by level (raising the same SheafError messages), then every pair
    U <= V of target+ tested with FinPoset.le, U and V each in element
    order.  A generator, so the first pair costs no more than the scan."""
    i, src, tgt, theta = mor.i, mor.source, mor.target, mor.theta
    if src.alg != i.source:
        raise SheafError("presheaf does not live on the source algebra")
    base = alg_poset(i.target)
    pi = {u: brute_force_left_adjoint(i, elem_from_label(i.target, u)).label
          for u in base.elements}
    for u in base.elements:
        if u not in theta:
            raise SheafError(f"theta missing at level {u}")
        for f in src.sections[pi[u]]:
            if theta[u].get(f) not in tgt.sections[u]:
                raise SheafError(f"theta at {u} does not map into the target")
    for u in base.elements:
        for v in base.elements:
            if not base.le(u, v) or u == v:
                continue
            if any(theta[u][src.res(pi[u], pi[v], f)] !=
                   tgt.res(u, v, theta[v][f]) for f in src.sections[pi[v]]):
                yield (u, v)


def naturality_scan(mor):
    """check_presheaf_morphism's verdict by the all-pairs scan: the first of
    failing_squares(mor), or None."""
    return next(failing_squares(mor), None)


def mutated_morphisms(seed: int = 18) -> list:
    """Presheaf morphisms (i, theta) over B+ at 1 to 4 atoms.  For each
    pair of algebra sizes, three random homs i and models M on the source
    algebra; for each, four morphisms L(M) -> i_*(L(M)), theta being the
    identity, the identity with one or two sections redirected within their
    level, or the identity with a level dropped or a section sent outside
    the target; then one_square_morphism(i, L(M), u, v) for every pair of
    one_square_pairs(i), each failing at that one square."""
    rng = Random(seed)
    algs = [BoolAlg(tuple(f"a{k + 1}" for k in range(n))) for n in range(1, 5)]
    out = []
    for src, tgt in product(algs, repeat=2):
        for _ in range(3):
            i = rng.choice(all_homs(src, tgt))
            m = random_model(rng, src.atom_count, 3)
            while m.alg != src:
                m = random_model(rng, src.atom_count, 3)
            target = lift_i_star(i, L(m))
            levels = target.base.elements
            wide = [u for u in levels if len(target.sections[u]) > 1]
            for kind in range(4):
                theta = {u: {f: f for f in target.sections[u]} for u in levels}
                for _ in range(kind if kind in (1, 2) and wide else 0):
                    u = rng.choice(wide)
                    f, g = rng.sample(target.sections[u], 2)
                    theta[u][f] = g
                if kind == 3:
                    u = rng.choice(levels)
                    if rng.random() < 0.5:
                        del theta[u]
                    else:
                        theta[u][target.sections[u][0]] = "outside"
                out.append(PresheafMorphism(i, theta, L(m), target))
            out += [one_square_morphism(i, L(m), u, v)
                    for u, v in one_square_pairs(i)]
    return out


def one_square_pairs(i) -> list:
    """The covers u < v of target+ with v = i(pi_i(v)), in element order:
    no level above such a v shares its source level pi_i(v)."""
    out = []
    for v in alg_poset(i.target).elements:
        e = elem_from_label(i.target, v)
        if i(i.left_adjoint(e)) == e:
            atoms = e.atom_labels()
            out += [(i.target.from_labels(set(atoms) - {a}).label, v)
                    for a in atoms if len(atoms) > 1]
    return out


def one_square_morphism(i, ps, u: str, v: str) -> PresheafMorphism:
    """A morphism (i, theta) whose one failing square is the pair (u, v)
    of one_square_pairs(i).  The source is ps with a fresh section "x" at
    a = pi_i(v) that restricts as ps's first section at a does and is the
    restriction of nothing.  The target is i_*(source) with fresh sections
    "y" at v and "z" at u: y restricts as x does, except to z at u, and z
    as x's restriction to u does.  theta is the identity but sends x to y
    at v, so only the square at u < v sees the difference."""
    a = i.left_adjoint(elem_from_label(i.target, v)).label
    sections = {**ps.sections, a: ps.sections[a] + ("x",)}
    restrict = {pair: dict(r) for pair, r in ps.restrict.items()}
    for q in ps.base.down(a):
        restrict[q, a]["x"] = "x" if q == a else restrict[q, a][ps.sections[a][0]]
    source = Presheaf.make(ps.base, sections, restrict, ps.alg)
    lift = lift_i_star(i, source)
    sections = {**lift.sections, v: lift.sections[v] + ("y",),
                u: lift.sections[u] + ("z",)}
    restrict = {pair: dict(r) for pair, r in lift.restrict.items()}
    for q in lift.base.down(v):
        restrict[q, v]["y"] = ("y" if q == v else "z" if q == u
                               else restrict[q, v]["x"])
    x_at_u = lift.res(u, v, "x")
    for q in lift.base.down(u):
        restrict[q, u]["z"] = "z" if q == u else restrict[q, u][x_at_u]
    target = Presheaf.make(lift.base, sections, restrict, i.target)
    theta = {w: {f: f for f in lift.sections[w]} for w in lift.base.elements}
    theta[v]["x"] = "y"
    return PresheafMorphism(i, theta, source, target)


def naturality_outcomes(check) -> list:
    """check's result on each of mutated_morphisms(): the failing pair,
    None, or "error: " and the SheafError message."""
    out = []
    for mor in mutated_morphisms():
        try:
            out.append(check(mor))
        except SheafError as exc:
            out.append(f"error: {exc}")
    return out


def inclusion_scan(members: dict) -> frozenset:
    """The pairs (a, b) with members[a] inside members[b], by the pairwise
    scan of every two members that alg_poset and opens_poset replaced."""
    return frozenset((a, b) for a, s in members.items()
                     for b, t in members.items() if s <= t)
