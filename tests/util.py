"""Shared brute-force oracles and exhaustive enumerators for the test suite.

Everything here is deliberately independent of the library's internal
shortcuts: filters are found by scanning all subsets, adjoints by scanning
all elements, spaces and posets by filtering all candidate families.
"""

from itertools import combinations, permutations, product

from bvmsheaf.balg import BAHom, BoolAlg, Elem
from bvmsheaf.bvm import BVModel, BVMorphism, check_morphism
from bvmsheaf.sheaf import EtaleSpace, Presheaf
from bvmsheaf.topo import (FinPoset, FinTop, opens_poset, ro_algebra,
                           subset_label)


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
    ros = x.regular_opens()
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


def random_separated_presheaf(rng, max_atoms: int = 3, max_stalk: int = 3):
    """A random separated presheaf on B+ for a random small algebra, sampled
    as a restriction-closed subfamily of the full choice sheaf."""
    from bvmsheaf.bvm import random_model
    from bvmsheaf.bridge import L
    m = random_model(rng, max_atoms=max_atoms, max_domain=max_stalk)
    return random_subpresheaf(rng, L(m)), m


def quotient_L(m):
    """L(M) built level by level from the quotient models M/F_b, each over
    its own quotient algebra: the construction L replaced by the equality
    bits, kept as its oracle."""
    from bvmsheaf.balg import Filter
    from bvmsheaf.bridge import StructuredPresheaf
    from bvmsheaf.bvm import _class_reps, quotient_model
    from bvmsheaf.sheaf import alg_poset, elem_from_label
    poset = alg_poset(m.alg)
    sections, restrict, rel_top = {}, {}, {}
    reps_at = {}
    for label in poset.elements:
        filt = Filter(m.alg, elem_from_label(m.alg, label))
        reps_at[label] = _class_reps(m, filt)
        qm = quotient_model(m, filt)
        sections[label] = qm.domain
        for sym, table in qm.rels.items():
            for tup, val in table.items():
                rel_top[label, sym, tup] = val.is_top
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
    from bvmsheaf.logic import Signature
    from bvmsheaf.sheaf import elem_from_label
    alg = f.alg
    top_label = alg.top.label
    domain = f.sections[top_label]
    levels = [(label, elem_from_label(alg, label)) for label in f.base.elements]
    eq = {}
    for s in domain:
        for t in domain:
            eq[s, t] = alg.join_all(
                b for label, b in levels
                if f.res(label, top_label, s) == f.res(label, top_label, t))
    if isinstance(f, StructuredPresheaf) and f.sig is not None:
        sig, rels = f.sig, {}
        for sym, arity in sig.rel_arity.items():
            rels[sym] = {
                tup: alg.join_all(
                    b for label, b in levels
                    if f.rel_top.get(
                        (label, sym,
                         tuple(f.res(label, top_label, t) for t in tup)),
                        False))
                for tup in _product(domain, repeat=arity)}
        consts = dict(f.const_top)
    else:
        sig, rels, consts = Signature.make({}, ()), {}, {}
    return BVModel(alg, sig, tuple(domain), eq, rels, consts)


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
    e.check_base_property()
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
            return any(u <= meet and x.is_dense_in(agree, u) for u in in_filter)

        classes = pairwise_classes(
            [(u, f) for u in in_filter for f in ps.sections[levels[u]]], related)
        classes_at[g_label] = {(levels[u], f): (levels[r], h)
                               for (u, f), (r, h) in classes.items()}

    def basics_of(germ_of):
        out = {}
        for u, lev in levels.items():
            reg_u = ro.reg_embed(u)
            for q in ro.alg.elements():
                if not q.is_bottom and q <= reg_u:
                    for f in ps.sections[lev]:
                        out[f"{lev}:{f}@{q.label}"] = frozenset(
                            germ_of[lev, f, pt] for pt in q.atom_labels())
        return out

    base = FinTop(points, frozenset(
        frozenset(c) for r in range(len(points) + 1)
        for c in combinations(points, r)))
    return _etale_from_classes(base, classes_at, basics_of)


# -- shape checks the constructors no longer run --------------------------------

def ro_joins_match(x: FinTop, ro) -> bool:
    """RO(X) is complete with the joins the algebra computes: for every
    subfamily S of the regular opens, to_subset of the join of S is Reg of
    the union of S.  The distinct (union, join) pairs are collected one
    member at a time, which covers every subfamily."""
    pairs = {(frozenset(), ro.alg.bottom)}
    for u in x.regular_opens():
        e = ro.from_subset(u)
        pairs |= {(v | u, j | e) for v, j in pairs}
    return all(ro.to_subset(j) == x.regularize(v) for v, j in pairs)


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
