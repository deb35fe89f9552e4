"""Presheaves on finite posets, sheaf predicates for the dense and sup
Grothendieck topologies, etale spaces of germs, and the stonean
sheafification Gamma1 o Lambda1.

The base of a presheaf is always a FinPoset; topological presheaves live on
the poset of nonempty opens O(X)+, algebra presheaves on B+ (both with
canonical string labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from math import prod

from .balg import BAHom, BoolAlg, Elem
from .topo import FinPoset, FinTop, ro_algebra, subset_label


class SheafError(ValueError):
    pass


class NotSeparatedError(SheafError):
    pass


def alg_poset(alg: BoolAlg) -> FinPoset:
    """B+ as a poset, elements labelled canonically (atom joins)."""
    elems = [e for e in alg.elements() if not e.is_bottom]
    leq = frozenset(
        (a.label, b.label) for a in elems for b in elems if a <= b
    )
    return FinPoset(tuple(e.label for e in elems), leq)


def elem_from_label(alg: BoolAlg, label: str) -> Elem:
    if label == "0":
        return alg.bottom
    return alg.from_labels(label.split("∨"))


@dataclass
class Presheaf:
    """Contravariant set assignment on a finite poset.

    sections maps each base element to a tuple of section ids; restrict maps
    each pair (q, p) with q <= p to a dict F(p) -> F(q).  Functoriality is
    validated exhaustively at construction time via make()."""

    base: FinPoset
    sections: dict
    restrict: dict
    alg: BoolAlg | None = None  # set when the base is B+ for an algebra

    @staticmethod
    def make(base: FinPoset, sections: dict, restrict: dict,
             alg: BoolAlg | None = None) -> "Presheaf":
        sections = {p: tuple(fs) for p, fs in sections.items()}
        restrict = {pair: dict(r) for pair, r in restrict.items()}
        for p in base.elements:
            if p not in sections:
                raise SheafError(f"no section set at level {p}")
            restrict.setdefault((p, p), {f: f for f in sections[p]})
        ps = Presheaf(base, sections, restrict, alg)
        ps._check_functorial()
        return ps

    def res(self, q: str, p: str, f: str) -> str:
        if q == p:
            return f
        return self.restrict[q, p][f]

    def _check_functorial(self):
        for p in self.base.elements:
            for q in self.base.down(p):
                if (q, p) not in self.restrict:
                    raise SheafError(f"missing restriction {q} <= {p}")
                r = self.restrict[q, p]
                for f in self.sections[p]:
                    if f not in r:
                        raise SheafError(
                            f"restriction {q} <= {p} undefined on {f}")
                    if r[f] not in self.sections[q]:
                        raise SheafError(
                            f"restriction {q} <= {p} leaves the sections at {q}")
                if q == p and any(r[f] != f for f in self.sections[p]):
                    raise SheafError(f"identity restriction at {p} is not identity")
        for p in self.base.elements:
            for q in self.base.down(p):
                for r in self.base.down(q):
                    for f in self.sections[p]:
                        via = self.res(r, q, self.res(q, p, f))
                        direct = self.res(r, p, f)
                        if via != direct:
                            raise SheafError(
                                f"composition fails on {r} <= {q} <= {p} at {f}")

    def stalk_at_filter(self, levels: list) -> dict:
        """Equivalence classes of sections over a filter of levels:
        (p, f) ~ (q, g) iff they agree on some common lower level in the
        filter.  Returns a map (level, section) -> class representative."""
        pairs = [(p, f) for p in levels for f in self.sections[p]]
        parent = {x: x for x in pairs}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (p, f), (q, g) in combinations(pairs, 2):
            for r in levels:
                if self.base.le(r, p) and self.base.le(r, q) and \
                        self.res(r, p, f) == self.res(r, q, g):
                    ra, rb = find((p, f)), find((q, g))
                    if ra != rb:
                        parent[rb] = ra
                    break
        return {x: find(x) for x in pairs}


@dataclass(frozen=True)
class SheafReport:
    """passed: no failure anywhere.  separated: no failure with reason
    "multiple collations" anywhere; for is_topological_sheaf the flag covers
    only the levels scanned before the failure list filled.  failures: the
    first few (level, covering, family, reason) quadruples."""

    passed: bool
    separated: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.passed


_MAX_FAILURES = 3  # failures a report lists


def _sup_coverings(base: FinPoset, p: str):
    """All sup coverings (join = p) drawn from the elements strictly below p.

    Coverings containing p itself are skipped: any compatible family over
    such a covering contains f_p, every collation is forced to equal f_p,
    and f_p does collate it, so those instances are vacuous for both
    existence and uniqueness."""
    below = sorted(base.down(p) - {p})
    for size in range(1, len(below) + 1):
        for combo in combinations(below, size):
            if base.sup(combo) == p:
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


def _sheaf_scan(ps: Presheaf) -> SheafReport:
    """Exactly one collation for every compatible family over every sup
    covering, scanned until the failure list is full."""
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
                if len(failures) >= _MAX_FAILURES:
                    return SheafReport(False, separated, tuple(failures))
    return SheafReport(not failures, separated, tuple(failures))


def _minimal_below(base: FinPoset, p: str) -> tuple:
    return tuple(m for m in sorted(base.down(p)) if len(base.down(m)) == 1)


def _dense_test(ps: Presheaf, onto: bool) -> SheafReport:
    """Restrict each F(p) to the product of F(m) over the minimal m <= p:
    two sections with the same restrictions are a "multiple collations"
    failure, and with onto set, a tuple no section restricts to is a "no
    collation" failure.  Injectivity is checked at every level; only the
    failure list is capped."""
    failures = []
    separated = True
    for p in ps.base.elements:
        mins = _minimal_below(ps.base, p)
        if mins == (p,):
            continue
        groups = {}
        for f in ps.sections[p]:
            key = tuple(ps.res(m, p, f) for m in mins)
            groups.setdefault(key, []).append(f)
        for key, fs in groups.items():
            if len(fs) > 1:
                separated = False
                failures.append(
                    (p, mins, dict(zip(mins, key)), "multiple collations"))
        if onto and len(groups) < prod(len(ps.sections[m]) for m in mins):
            missing = (key for key in product(*(ps.sections[m] for m in mins))
                       if key not in groups)
            failures.extend((p, mins, dict(zip(mins, key)), "no collation")
                            for key in islice(missing, _MAX_FAILURES))
    return SheafReport(not failures, separated, tuple(failures[:_MAX_FAILURES]))


def is_separated(ps: Presheaf) -> SheafReport:
    """At most one collation for every compatible family over every dense
    covering, decided as: each F(p) -> prod F(m), over the minimal m <= p,
    is injective.

    On a finite poset q and r are compatible iff some minimal m lies below
    both, so a set S below p is a dense covering iff every minimal m <= p
    lies below a member of S.  Two collations of one family over S thus
    agree on every minimal m <= p, so injectivity makes them equal.
    Conversely two sections of F(p) that agree on those m both collate the
    family they induce on the dense covering of the minimal elements, which
    is compatible because minimal elements have no common refinement."""
    return _dense_test(ps, onto=False)


def is_stonean_sheaf(ps: Presheaf) -> SheafReport:
    """Exactly one collation for the dense Grothendieck topology, decided
    as: each F(p) -> prod F(m), over the minimal m <= p, is bijective.

    Every tuple in the product is a compatible family over the dense
    covering of the minimal elements, so bijectivity is necessary.  It is
    sufficient: a compatible family over a dense covering S of p induces a
    tuple on the minimal m <= p (compatibility makes it well defined), its
    preimage f restricts to each s in S with the same minimal restrictions
    as the family's member at s, and injectivity at s makes them equal."""
    return _dense_test(ps, onto=True)


def is_topological_sheaf(ps: Presheaf) -> SheafReport:
    """Exactly one collation for the sup Grothendieck topology (the base
    must admit the needed suprema, e.g. O(X)+ or B+)."""
    return _sheaf_scan(ps)


# -- etale spaces -------------------------------------------------------------

@dataclass
class EtaleSpace:
    """A finite bundle of germs: total set, projection, and the basic opens
    (with provenance) that generate its topology."""

    base: FinTop
    total: tuple
    proj: dict           # germ -> base point
    basics: dict         # descriptive key -> frozenset of germs
    stalks: dict         # base point -> tuple of germs
    germ_of: dict        # (level, section, base point) -> germ

    def basic_list(self) -> list[frozenset]:
        return list(self.basics.values())

    def is_open(self, s) -> bool:
        s = frozenset(s)
        return s == frozenset().union(
            *(b for b in self.basics.values() if b <= s)) if s else True

    def interior(self, s) -> frozenset:
        s = frozenset(s)
        out = frozenset()
        for b in self.basics.values():
            if b <= s:
                out |= b
        return out

    def closure(self, s) -> frozenset:
        return frozenset(self.total) - self.interior(frozenset(self.total) - frozenset(s))

    def check_base_property(self) -> None:
        """Pairwise intersections of basics are unions of basics."""
        basics = self.basic_list()
        for b1 in basics:
            for b2 in basics:
                meet = b1 & b2
                if meet and not self.is_open(meet):
                    raise SheafError("basic opens do not form a base")


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


def _levels_of_opens(ps: Presheaf, x: FinTop) -> dict:
    """Map each nonempty open of x to the presheaf level labelled by it."""
    out = {}
    for u in x.nonempty_opens():
        label = subset_label(u)
        if label not in ps.sections:
            raise SheafError(f"presheaf has no level for open {label}")
        out[u] = label
    return out


def lambda0(ps: Presheaf, x: FinTop) -> EtaleSpace:
    """The classical etale space of germs by point-local agreement."""
    levels = _levels_of_opens(ps, x)
    total, proj, stalks, germ_of = [], {}, {}, {}
    for point in x.points:
        filt = [levels[u] for u in levels if point in u]
        classes = ps.stalk_at_filter(filt)
        reps = sorted(set(classes.values()))
        stalk = []
        for rep in reps:
            germ = f"{point}:{rep[0]}:{rep[1]}"
            stalk.append(germ)
            for (lev, sec), r in classes.items():
                if r == rep:
                    germ_of[lev, sec, point] = germ
        stalks[point] = tuple(stalk)
        total.extend(stalk)
        for g in stalk:
            proj[g] = point
    basics = {}
    for u, lev in levels.items():
        for f in ps.sections[lev]:
            key = f"{lev}:{f}"
            basics[key] = frozenset(germ_of[lev, f, pt] for pt in u)
    e = EtaleSpace(x, tuple(total), proj, basics, stalks, germ_of)
    e.check_base_property()
    return e


def gamma0(e: EtaleSpace, u) -> list[dict]:
    """All continuous right inverses of the projection over the open set u."""
    u = frozenset(u)
    if not u or u not in e.base.opens:
        raise SheafError(f"{subset_label(u)} is not a nonempty open of the base")
    points = sorted(u)
    sub = e.base.subspace(u)
    out = []
    for combo in product(*(e.stalks[p] for p in points)):
        s = dict(zip(points, combo))
        chosen = frozenset(combo)
        ok = True
        for b in e.basics.values():
            pre = frozenset(p for p in points if s[p] in b)
            if not sub.is_open(pre):
                ok = False
                break
        if ok:
            out.append(s)
    return out


def lambda1(ps: Presheaf, x: FinTop) -> EtaleSpace:
    """The stonean etale space: stalks indexed by ultrafilters on RO(X),
    germs identified by dense agreement below a filter element."""
    levels = _levels_of_opens(ps, x)
    ro = ro_algebra(x)
    opens = list(levels)
    label_of = dict(levels)

    def dense_agree(uf, f, ug, g, inside) -> bool:
        # D_{f,g} predense below `inside` in O(X)
        d = [v for v in opens
             if v <= uf & ug and ps.res(label_of[v], label_of[uf], f)
             == ps.res(label_of[v], label_of[ug], g)]
        return all(
            any(v & w for w in d)
            for v in opens if v and v <= inside
        )

    total, proj, stalks, germ_of, basics = [], {}, {}, {}, {}
    points = tuple(sorted(ro.atom_subsets))
    base = FinTop(points, frozenset(
        frozenset(c) for r in range(len(points) + 1)
        for c in combinations(points, r)))
    for g_label in points:
        g_sub = ro.atom_subsets[g_label]
        in_filter = [u for u in opens if g_sub <= x.regularize(u)]
        pairs = [(u, f) for u in in_filter for f in ps.sections[label_of[u]]]
        parent = {pr: pr for pr in pairs}

        def find(z):
            while parent[z] != z:
                parent[z] = parent[parent[z]]
                z = parent[z]
            return z

        for (uf, f), (ug, g) in combinations(pairs, 2):
            for u in in_filter:
                if u <= uf & ug and dense_agree(uf, f, ug, g, u):
                    ra, rb = find((uf, f)), find((ug, g))
                    if ra != rb:
                        parent[rb] = ra
                    break
        classes = {pr: find(pr) for pr in pairs}
        reps = sorted({(label_of[u], f) for u, f in
                       (classes[pr] for pr in pairs)})
        stalk = []
        for rep in reps:
            germ = f"{g_label}:{rep[0]}:{rep[1]}"
            stalk.append(germ)
            for (u, f), r in classes.items():
                if (label_of[r[0]], r[1]) == rep:
                    germ_of[label_of[u], f, g_label] = germ
        stalks[g_label] = tuple(stalk)
        total.extend(stalk)
        for germ in stalk:
            proj[germ] = g_label
    ro_elems = [e for e in ro.alg.elements() if not e.is_bottom]
    for u in opens:
        reg_u = ro.reg_embed(u)
        for q in ro_elems:
            if not q <= reg_u:
                continue
            q_points = frozenset(q.atom_labels())
            for f in ps.sections[label_of[u]]:
                key = f"{label_of[u]}:{f}@{q.label}"
                basics[key] = frozenset(
                    germ_of[label_of[u], f, pt] for pt in q_points
                )
    e = EtaleSpace(base, tuple(total), proj, basics, stalks, germ_of)
    e.check_base_property()
    return e


@dataclass
class Bundle:
    """An etale space flagged as an extremally disconnected bundle: at finite
    scale the base must be discrete and the projection surjective (dense
    image).  Sections conceptually map into E + {infinity}, but a nowhere
    dense exception set in a finite discrete space is empty, so sections are
    total E-valued choice functions."""

    space: EtaleSpace

    def __post_init__(self):
        if not self.space.base.is_discrete:
            raise SheafError(
                "extremally disconnected bundle needs a discrete base at finite scale")
        if not self.image_dense:
            raise SheafError("projection image is not dense in the base")

    @property
    def image_dense(self) -> bool:
        image = frozenset(self.space.proj.values())
        return self.space.base.is_dense(image)


def gamma1(p: Bundle, u) -> list[dict]:
    """Local sections of the stonean sheaf of the bundle over the open u:
    continuous choices of germs landing in the bundle on a dense open subset
    (all of u at finite scale)."""
    u = frozenset(u)
    if u not in p.space.base.opens or not u:
        raise SheafError(f"{subset_label(u)} is not a nonempty open of the base")
    return gamma0(p.space, u)


def _section_id(s: dict) -> str:
    return ";".join(f"{pt}={s[pt]}" for pt in sorted(s))


def gamma_half(p: Bundle) -> Presheaf:
    """Gamma1 restricted to RO(base)+ (= all nonempty subsets of the discrete
    base), as a presheaf keyed by subset labels."""
    pts = list(p.space.base.points)
    levels, sections, restrict = [], {}, {}
    subsets = [frozenset(c) for r in range(1, len(pts) + 1)
               for c in combinations(sorted(pts), r)]
    secs_by_level = {}
    for sub in subsets:
        label = subset_label(sub)
        levels.append(label)
        secs = gamma1(p, sub)
        secs_by_level[label] = {_section_id(s): s for s in secs}
        sections[label] = tuple(sorted(secs_by_level[label]))
    poset = FinPoset(tuple(levels), frozenset(
        (subset_label(a), subset_label(b))
        for a in subsets for b in subsets if a <= b))
    for a in subsets:
        for b in subsets:
            if a <= b and a != b:
                la, lb = subset_label(a), subset_label(b)
                restrict[la, lb] = {
                    sid: _section_id({pt: s[pt] for pt in a})
                    for sid, s in secs_by_level[lb].items()
                }
    return Presheaf.make(poset, sections, restrict)


@dataclass
class SheafifyUnit:
    """The canonical morphism from a presheaf into its stonean
    sheafification: the Stone embedding of RO(X) into the clopens of its
    Stone space, paired with the per-level section maps f |-> f-dot."""

    i: BAHom      # RO(X) -> RO(St(RO(X))), the atom identification
    theta: dict   # source level label -> {section -> sheafified section id}


def sheafify(ps: Presheaf, x: FinTop):
    """The stonean sheafification Gamma1 o Lambda1 of a presheaf on O(X)+.

    The result is a presheaf on O(St(RO(X)))+ (all nonempty subsets of the
    discrete finite Stone space); the unit sends f in F(U) to the section
    G |-> [f]_G over N_Reg(U)."""
    e = lambda1(ps, x)
    bundle = Bundle(e)
    sheaf = gamma_half(bundle)
    ro = ro_algebra(x)
    stone_ro = BoolAlg(tuple(sorted(e.base.points)))
    i = BAHom.from_dict(ro.alg, stone_ro, {a: a for a in stone_ro.atoms})
    theta = {}
    for u in x.nonempty_opens():
        lev = subset_label(u)
        reg = ro.reg_embed(u)
        target_points = frozenset(reg.atom_labels())
        theta[lev] = {
            f: _section_id({pt: e.germ_of[lev, f, pt] for pt in target_points})
            for f in ps.sections[lev]
        }
    return sheaf, SheafifyUnit(i, theta)


# -- morphisms of presheaves on algebra bases ---------------------------------


def lift_i_star(i: BAHom, ps: Presheaf) -> Presheaf:
    """i_*(F) on target+ via the left adjoint: level U |-> F(pi_i(U))."""
    if ps.alg != i.source:
        raise SheafError("presheaf does not live on the source algebra")
    tgt_poset = alg_poset(i.target)
    sections, restrict = {}, {}
    for u_label in tgt_poset.elements:
        u = elem_from_label(i.target, u_label)
        sections[u_label] = ps.sections[i.left_adjoint(u).label]
    for u_label in tgt_poset.elements:
        u = elem_from_label(i.target, u_label)
        for v_label in tgt_poset.elements:
            v = elem_from_label(i.target, v_label)
            if u <= v and u_label != v_label:
                pu, pv = i.left_adjoint(u).label, i.left_adjoint(v).label
                restrict[u_label, v_label] = {
                    f: ps.res(pu, pv, f) for f in ps.sections[pv]
                }
    return Presheaf.make(tgt_poset, sections, restrict, alg=i.target)


@dataclass
class PresheafMorphism:
    """A morphism (i, Theta): F0 -> F1 between presheaves on algebra bases:
    i is a (complete, automatic at finite scale) homomorphism and Theta a
    natural transformation i_*(F0) -> F1."""

    i: BAHom
    theta: dict  # target level label -> dict section -> section
    source: Presheaf
    target: Presheaf


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


def check_presheaf_morphism(mor: PresheafMorphism):
    """Validate all naturality squares; returns the offending (U, V) pair or
    None when every square commutes."""
    lifted = lift_i_star(mor.i, mor.source)
    tgt = mor.target
    for u_label in lifted.base.elements:
        if u_label not in mor.theta:
            raise SheafError(f"theta missing at level {u_label}")
        for f in lifted.sections[u_label]:
            if mor.theta[u_label].get(f) not in tgt.sections[u_label]:
                raise SheafError(f"theta at {u_label} does not map into the target")
    for u_label in lifted.base.elements:
        for v_label in lifted.base.elements:
            if not lifted.base.le(u_label, v_label) or u_label == v_label:
                continue
            for f in lifted.sections[v_label]:
                down_then_theta = mor.theta[u_label][lifted.res(u_label, v_label, f)]
                theta_then_down = tgt.res(u_label, v_label, mor.theta[v_label][f])
                if down_then_theta != theta_then_down:
                    return (u_label, v_label)
    return None


def find_presheaf_isomorphism(f0: Presheaf, f1: Presheaf):
    """Backtracking search for a base-poset isomorphism together with
    level-wise section bijections commuting with restrictions; None when the
    presheaves are not isomorphic."""
    from itertools import permutations

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
    from itertools import permutations

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
