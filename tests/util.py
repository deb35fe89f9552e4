"""Shared brute-force oracles and exhaustive enumerators for the test suite.

Everything here is deliberately independent of the library's internal
shortcuts: filters are found by scanning all subsets, adjoints by scanning
all elements, spaces and posets by filtering all candidate families.
"""

from itertools import product

from bvmsheaf.balg import BoolAlg, Elem
from bvmsheaf.sheaf import Presheaf
from bvmsheaf.topo import FinPoset, FinTop


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
    from bvmsheaf.balg import BAHom
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
    from bvmsheaf.topo import opens_poset, subset_label
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
