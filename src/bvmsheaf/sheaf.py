"""Presheaves on finite posets, sheaf predicates for the dense and sup
Grothendieck topologies, etale spaces of germs, and the stonean
sheafification Gamma1 o Lambda1.

The base of a presheaf is always a FinPoset; topological presheaves live on
the poset of nonempty opens O(X)+, algebra presheaves on B+ (both with
canonical string labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice, product
from math import prod

from .balg import BAHom, BoolAlg, Elem
from .topo import FinPoset, FinTop, ro_algebra, subset_label


class SheafError(ValueError):
    pass


class NotSeparatedError(SheafError):
    pass


@lru_cache(maxsize=64)
def alg_poset(alg: BoolAlg) -> FinPoset:
    """B+ as a poset, elements labelled canonically (atom joins).  Built
    once per algebra: both are frozen, so equal algebras share the poset."""
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
    each pair (q, p) with q <= p to a dict F(p) -> F(q).  make() rejects
    duplicate section ids and keys that are not such a pair, and validates
    functoriality exhaustively."""

    base: FinPoset
    sections: dict
    restrict: dict
    alg: BoolAlg | None = None  # set when the base is B+ for an algebra

    @staticmethod
    def make(base: FinPoset, sections: dict, restrict: dict,
             alg: BoolAlg | None = None) -> "Presheaf":
        sections = {p: tuple(fs) for p, fs in sections.items()}
        restrict = {pair: dict(r) for pair, r in restrict.items()}
        for p, fs in sections.items():
            if len(set(fs)) != len(fs):
                raise SheafError(f"duplicate section ids at level {p}")
        for q, p in restrict:
            if not base.le(q, p):
                raise SheafError(
                    f"restriction {q} <= {p} is not a pair q <= p of the base")
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
    (with provenance) that generate its topology.

    Germ sets are computed as int masks.  The germ index and the distinct
    nonzero basic masks are derived from total and basics on first use, so
    a space built from its fields alone works the same.  A set is open iff
    it is the OR of the basics inside it, as on frozensets; dropping
    duplicate and empty basics changes no such union, so every answer is
    unchanged.
    """

    base: FinTop
    total: tuple
    proj: dict           # germ -> base point
    basics: dict         # descriptive key -> frozenset of germs
    stalks: dict         # base point -> tuple of germs
    germ_of: dict        # (level, section, base point) -> germ

    @cached_property
    def _bit(self) -> dict:
        """Germ -> its bit: the germs of total, then any only a basic names."""
        germs = dict.fromkeys(chain(self.total, *self.basics.values()))
        return {g: 1 << i for i, g in enumerate(germs)}

    @cached_property
    def _basic_masks(self) -> tuple:
        return tuple({self._bits(b) for b in self.basics.values()} - {0})

    def _bits(self, s) -> int:
        return sum(self._bit.get(g, 0) for g in set(s))

    def _set(self, m: int) -> frozenset:
        return frozenset(g for g, b in self._bit.items() if b & m)

    def _interior(self, m: int) -> int:
        out = 0
        for b in self._basic_masks:
            if b & m == b:
                out |= b
        return out

    def is_open(self, s) -> bool:
        s = frozenset(s)
        m = self._bits(s)
        # a germ outside the index has no bit, and no basic covers it
        return m.bit_count() == len(s) and self._interior(m) == m

    def interior(self, s) -> frozenset:
        return self._set(self._interior(self._bits(s)))

    def closure(self, s) -> frozenset:
        total = self._bits(self.total)
        return self._set(total & ~self._interior(total & ~self._bits(s)))

    def check_base_property(self) -> None:
        """Pairwise intersections of basics are unions of basics, checked
        once per distinct nonzero meet of two distinct basic masks: a basic
        met with itself is open, and deduping the basics changes neither the
        set of meets nor any union, so the verdict is the pairwise scan's."""
        basics = self._basic_masks
        meets = {b1 & b2 for b1, b2 in combinations(basics, 2)} - {0}
        if any(self._interior(m) != m for m in meets):
            raise SheafError("basic opens do not form a base")


def _levels_of_opens(ps: Presheaf, x: FinTop) -> dict:
    """Map each nonempty open of x to the presheaf level labelled by it."""
    out = {}
    for u in x.nonempty_opens():
        label = subset_label(u)
        if label not in ps.sections:
            raise SheafError(f"presheaf has no level for open {label}")
        out[u] = label
    return out


def _stalk(ps: Presheaf, point: str, levels, key, germ_of: dict) -> tuple:
    """The germs at point of the sections over levels, two sections sharing
    a germ iff key gives them the same value.  Each germ is named after the
    first (level, section) with its key; germ_of is filled in and the stalk
    returned in the order of those names."""
    reps = {}
    for lev in levels:
        for f in ps.sections[lev]:
            lev0, f0 = reps.setdefault(key(lev, f), (lev, f))
            germ_of[lev, f, point] = f"{point}:{lev0}:{f0}"
    return tuple(f"{point}:{lev}:{f}" for lev, f in sorted(reps.values()))


def _etale(base: FinTop, stalks: dict, basics: dict, germ_of: dict) -> EtaleSpace:
    """The etale space with these stalks, germs in stalk order, checked to
    have basics that form a base."""
    total = tuple(chain.from_iterable(stalks.values()))
    proj = {g: point for point, stalk in stalks.items() for g in stalk}
    e = EtaleSpace(base, total, proj, basics, stalks, germ_of)
    e.check_base_property()
    return e


def lambda0(ps: Presheaf, x: FinTop) -> EtaleSpace:
    """The classical etale space of germs by point-local agreement.

    Two sections over opens around x have the same germ at x iff they
    restrict to the same section on U_x, the smallest open around x.  Proof:
    U_x lies inside every open around x, so agreement on some open around x
    restricts to agreement on U_x, and U_x is itself an open around x.  So
    the restriction to U_x is each section's germ key."""
    levels = _levels_of_opens(ps, x)
    stalks, germ_of = {}, {}
    for point in x.points:
        around = [u for u in levels if point in u]
        u_x = levels[min(around, key=len)]
        stalks[point] = _stalk(ps, point, [levels[u] for u in around],
                               lambda lev, f: ps.res(u_x, lev, f), germ_of)
    basics = {}
    for u, lev in levels.items():
        for f in ps.sections[lev]:
            key = f"{lev}:{f}"
            basics[key] = frozenset(germ_of[lev, f, pt] for pt in u)
    return _etale(x, stalks, basics, germ_of)


def gamma0(e: EtaleSpace, u) -> list[dict]:
    """All continuous right inverses of the projection over the open set u.

    A choice is continuous iff the preimage of every basic is open in the
    subspace u, that is, equal to v & u for an open v of the base."""
    u = frozenset(u)
    if not u or u not in e.base.opens:
        raise SheafError(f"{subset_label(u)} is not a nonempty open of the base")
    points = sorted(u)
    um = e.base._check_subset(u)
    sub_opens = {v & um for v in e.base._masks}
    point_bits = [e.base._bit[p] for p in points]
    bit = e._bit
    out = []
    for combo in product(*(e.stalks[p] for p in points)):
        germ_bits = [bit.get(g, 0) for g in combo]
        if all(sum(pb for pb, gb in zip(point_bits, germ_bits) if gb & b) in sub_opens
               for b in e._basic_masks):
            out.append(dict(zip(points, combo)))
    return out


def lambda1(ps: Presheaf, x: FinTop) -> EtaleSpace:
    """The stonean etale space: stalks indexed by ultrafilters on RO(X),
    germs identified by dense agreement below a filter element."""
    return _lambda1(ps, x, ro_algebra(x))


def _lambda1(ps: Presheaf, x: FinTop, ro) -> EtaleSpace:
    """Lambda1 with RO(X) given.

    Let g be an atom of RO(X) and f in F(U), h in F(V) with U and V in the
    ultrafilter at g (g inside Reg U and Reg V).  Every minimal nonempty
    open m inside g lies in U: m meets U, being a nonempty open inside
    Cl U, and m & U = m by minimality.  Then f and h have the same germ at g
    iff f|m = h|m for every such m.  Proof, <=: the union W of those m is
    open and dense in g, so W is in the filter, and the opens where f and h
    agree cover W.  Proof, =>: any W of the filter meets each such m, so it
    contains m by minimality; a family of opens where f and h agree that is
    predense below W has a member meeting m, and that member contains m.
    So the tuple of restrictions to those m is each section's germ key."""
    levels = _levels_of_opens(ps, x)
    mask_of = {u: x._check_subset(u) for u in levels}
    minimal = [u for u in levels if not any(v < u for v in levels)]
    stalks, germ_of, basics = {}, {}, {}
    points = tuple(sorted(ro.atom_subsets))
    base = FinTop(points, frozenset(
        frozenset(c) for r in range(len(points) + 1)
        for c in combinations(points, r)))
    for g_label in points:
        g_mask = x._check_subset(ro.atom_subsets[g_label])
        mins = [levels[m] for m in minimal if mask_of[m] & g_mask == mask_of[m]]
        in_filter = [lev for u, lev in levels.items()
                     if g_mask & x._reg(mask_of[u]) == g_mask]
        stalks[g_label] = _stalk(
            ps, g_label, in_filter,
            lambda lev, f: tuple(ps.res(m, lev, f) for m in mins), germ_of)
    ro_elems = [e for e in ro.alg.elements() if not e.is_bottom]
    for u, lev in levels.items():
        reg_u = ro.reg_embed(u)
        for q in ro_elems:
            if not q <= reg_u:
                continue
            q_points = frozenset(q.atom_labels())
            for f in ps.sections[lev]:
                key = f"{lev}:{f}@{q.label}"
                basics[key] = frozenset(germ_of[lev, f, pt] for pt in q_points)
    return _etale(base, stalks, basics, germ_of)


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
    ro = ro_algebra(x)
    e = _lambda1(ps, x, ro)
    bundle = Bundle(e)
    sheaf = gamma_half(bundle)
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
