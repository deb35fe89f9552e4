"""Presheaves on finite posets, sheaf predicates for the dense and sup
Grothendieck topologies, etale spaces of germs, and the stonean
sheafification Gamma1 o Lambda1.

The base of a presheaf is always a FinPoset; topological presheaves live on
the poset of nonempty opens O(X)+, algebra presheaves on B+ (both with
canonical string labels).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, combinations, islice, product
from math import prod

from .balg import BAHom, BoolAlg, Elem, stone_space
from .record import Record
from .topo import (FinPoset, FinTop, _inclusion_poset, opens_poset, ro_algebra,
                   subset_label)


class SheafError(ValueError):
    pass


class NotSeparatedError(SheafError):
    pass


@lru_cache(maxsize=64)
def alg_poset(alg: BoolAlg) -> FinPoset:
    """B+ as a poset, element k the mask k+1 with its canonical label.  Built
    once per algebra: both are frozen, so equal algebras share the poset."""
    return _inclusion_poset(
        {bits: Elem(alg, bits).label for bits in range(1, len(alg))})


class Presheaf(Record, frozen=False):
    """Contravariant set assignment on a finite poset.

    sections maps each base element to a tuple of section ids; res(q, p, f)
    restricts f in F(p) to q <= p, and restrict maps each such pair to the
    dict F(p) -> F(q).  make(), the entry point for input, reads res off
    the tables; it rejects levels off the base, duplicate section ids, keys
    that are not such a pair and entries off F(p), and checks functoriality
    exhaustively.  This package's constructors give a rule (by_rule),
    unchecked, and restrict is built from it when first read."""

    base: FinPoset
    sections: dict
    restrict: dict
    alg: BoolAlg | None = None  # set when the base is B+ for an algebra
    _separated = False  # set on a presheaf that is separated by construction

    @cached_property
    def restrict(self) -> dict:  # of a presheaf by rule
        return {(q, p): {f: self.res(q, p, f) for f in self.sections[p]}
                for p in self.base.elements for q in sorted(self.base.down(p))}

    @staticmethod
    def make(base: FinPoset, sections: dict, restrict: dict,
             alg: BoolAlg | None = None) -> "Presheaf":
        sections = {p: tuple(fs) for p, fs in sections.items()}
        restrict = {pair: dict(r) for pair, r in restrict.items()}
        for p, fs in sections.items():
            if p not in base._bits:
                raise SheafError(f"section set at {p}, not a level of the base")
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

    @classmethod
    def by_rule(cls, res, base: FinPoset, sections: dict,
                alg: BoolAlg | None = None, **fields) -> "Presheaf":
        """The presheaf restricting by res(q, p, f), a rule that must compose
        and be the identity at q = p; nothing checks it."""
        ps = object.__new__(cls)
        vars(ps).update(base=base, sections=sections, alg=alg, res=res, **fields)
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
                if len(r) != len(self.sections[p]):  # a key off F(p)
                    raise SheafError(f"restriction {q} <= {p} defined on a non-section")
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


class SheafReport(Record):
    """passed: no failure anywhere.  separated: no failure with reason
    "multiple collations" anywhere; all three predicates check every level
    for it, so the flag is exact.  failures: the first few (level, covering,
    family, reason) quadruples."""

    passed: bool
    separated: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.passed


_MAX_FAILURES = 3  # failures a report lists


def _minimal_below(ps: Presheaf):
    """p -> the minimal elements below p, sorted by label: on B+ the atoms
    of p's mask."""
    if ps.alg is None:
        down = ps.base.down
        return lambda p: tuple(m for m in sorted(down(p)) if len(down(m)) == 1)
    bits, atoms = alg_poset(ps.alg)._bits, sorted(
        (a, 1 << i) for i, a in enumerate(ps.alg.atoms))
    return lambda p: tuple(a for a, b in atoms if bits[p] & b)


def _join_irreducibles(base: FinPoset) -> dict:
    """p -> the join-irreducibles j <= p, read off the down masks: j is one
    when the set strictly below it is empty or some element's down set.
    Raises SheafError unless the base plus a bottom is a distributive
    lattice, which (Birkhoff) holds iff p |-> J(p) reflects the order and
    its image is closed under union, so is every nonempty down-set of J."""
    down = base._mask
    lower = set(down.values()) | {0}
    irreducible = sum(1 << i for i, p in enumerate(base.elements)
                      if down[p] & ~(1 << i) in lower)
    j = {p: down[p] & irreducible for p in base.elements}
    image = set(j.values())
    for p, q in product(base.elements, repeat=2):
        if (j[p] & ~j[q] == 0 and down[p] & ~down[q]) or j[p] | j[q] not in image:
            raise SheafError(
                f"base plus a bottom is not a distributive lattice (at {p}, {q})")
    return {p: tuple(base._labels(m)) for p, m in j.items()}


def _restriction_test(ps: Presheaf, gens, onto: bool) -> SheafReport:
    """Restrict each F(p) to its generators gens(p), skipping a level that
    is one of them: two sections with the same restrictions are a "multiple
    collations" failure, and with onto set, a compatible family over gens(p)
    (agreeing on each common refinement) that no section restricts to is a
    "no collation" failure.  Only the failure list is capped, so no family
    is sought once it is full: every failure after the cap is cut."""
    base = ps.base
    failures = []
    separated = True
    for p in base.elements:
        ms = gens(p)
        if p in ms:
            continue
        groups = {}
        for f in ps.sections[p]:
            key = tuple(ps.res(m, p, f) for m in ms)
            groups.setdefault(key, []).append(f)
        for key, fs in groups.items():
            if len(fs) > 1:
                separated = False
                failures.append(
                    (p, ms, dict(zip(ms, key)), "multiple collations"))
        if (onto and len(failures) < _MAX_FAILURES
                and len(groups) < prod(len(ps.sections[m]) for m in ms)):
            meets = [(i, k, base.refinements(a, b))
                     for (i, a), (k, b) in combinations(enumerate(ms), 2)
                     if base.compatible(a, b)]
            missing = (key for key in product(*(ps.sections[m] for m in ms))
                       if key not in groups and all(
                           ps.res(r, ms[i], key[i]) == ps.res(r, ms[k], key[k])
                           for i, k, rs in meets for r in rs))
            failures.extend((p, ms, dict(zip(ms, key)), "no collation")
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
    return _restriction_test(ps, _minimal_below(ps), onto=False)


def is_stonean_sheaf(ps: Presheaf) -> SheafReport:
    """Exactly one collation for the dense Grothendieck topology, decided
    as: each F(p) -> prod F(m), over the minimal m <= p, is bijective.

    Every tuple in the product is a compatible family over the dense
    covering of the minimal elements, so bijectivity is necessary.  It is
    sufficient: a compatible family over a dense covering S of p induces a
    tuple on the minimal m <= p (compatibility makes it well defined), its
    preimage f restricts to each s in S with the same minimal restrictions
    as the family's member at s, and injectivity at s makes them equal."""
    return _restriction_test(ps, _minimal_below(ps), onto=True)


def is_topological_sheaf(ps: Presheaf) -> SheafReport:
    """Exactly one collation for the sup Grothendieck topology, decided as:
    F(p) maps bijectively onto the compatible families over the set J of
    join-irreducibles j < p, at each p not join-irreducible.  The base plus
    a bottom must be a distributive lattice (O(X)+, RO(X)+ and B+ are), or
    SheafError is raised.

    There join-irreducibles are join-prime (Birkhoff): j <= sup S puts j
    below a member of S.  So J is a sup covering of p refining every other,
    and a join-irreducible p has none.  A compatible family over a covering
    S induces one over J (f_s|j for any s >= j); its preimage f and f_s
    agree on the join-irreducibles below s, so f|s = f_s by injectivity at
    s.  Two collations agree on J, so injectivity at p makes them equal:
    separatedness is injectivity at every level."""
    return _restriction_test(ps, _join_irreducibles(ps.base).__getitem__,
                             onto=True)


# -- etale spaces -------------------------------------------------------------

class EtaleSpace(Record, frozen=False):
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


def _levels_of_opens(ps: Presheaf, x: FinTop) -> dict:
    """Map each nonempty open of x to the presheaf level labelled by it."""
    out = {}
    for u in x.nonempty_opens():
        label = subset_label(u)
        if label not in ps.sections:
            raise SheafError(f"presheaf has no level for open {label}")
        out[u] = label
    return out


def _etale(base: FinTop, stalks: dict, basics: dict, germ_of: dict) -> EtaleSpace:
    """The etale space with these stalks, germs in stalk order.  Its basics
    form a base by construction (see lambda0 and lambda1); the test suite
    checks both."""
    total = tuple(chain.from_iterable(stalks.values()))
    proj = {g: point for point, stalk in stalks.items() for g in stalk}
    return EtaleSpace(base, total, proj, basics, stalks, germ_of)


def lambda0(ps: Presheaf, x: FinTop) -> EtaleSpace:
    """The classical etale space of germs by point-local agreement.

    Two sections over opens around x have the same germ at x iff they
    restrict to the same section on U_x, the smallest open around x.  Proof:
    U_x lies inside every open around x, so agreement on some open around x
    restricts to agreement on U_x, and U_x is itself an open around x.  So
    the germ of f in F(u) at x is named x:U_x:f|U_x, and the stalk is F(U_x)
    in sorted order: U_x is the first open around x in size order.

    The basics B(u, f), the germs of f over u, form a base.  If the germs of
    f in F(u) and h in F(v) agree at x, then f|U_x = h|U_x, and the basic of
    that section over U_x lies in both: U_x is inside u and v, and f|U_x has
    f's germ at each y in U_x, since U_y is inside U_x and F composes.  So
    the meet of two basics is the union of such basics, one per point."""
    levels = _levels_of_opens(ps, x)
    stalks, germ_of = {}, {}
    for point in x.points:
        around = [lev for u, lev in levels.items() if point in u]
        u_x = around[0]
        for lev in around:
            for f in ps.sections[lev]:
                germ_of[lev, f, point] = f"{point}:{u_x}:{ps.res(u_x, lev, f)}"
        stalks[point] = tuple(f"{point}:{u_x}:{r}" for r in sorted(ps.sections[u_x]))
    basics = {f"{lev}:{f}": frozenset(germ_of[lev, f, pt] for pt in u)
              for u, lev in levels.items() for f in ps.sections[lev]}
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
    germs identified by dense agreement below a filter element.

    The basics are the germs of f in F(u) over the atoms of each q <= Reg u,
    read off as the submasks of Reg u's atom bits in increasing order, the
    order of ro.alg.elements().  They form a base: each single germ, f's at
    an atom g <= Reg u, is itself a basic, so every set of germs, the meet
    of two basics among them, is a union of basics.  Only this function
    builds them: there are about 3^n for n atoms, and sheafify reads none."""
    ro = ro_algebra(x)
    base, stalks, germ_of = _lambda1(ps, x, ro)
    basics = {}
    for u in x.nonempty_opens():
        lev = subset_label(u)
        reg_u, q_bits = ro.reg_embed(u).bits, 0
        while q_bits := (q_bits - reg_u) & reg_u:  # the next submask up
            q = Elem(ro.alg, q_bits)
            for f in ps.sections[lev]:
                key = f"{lev}:{f}@{q.label}"
                basics[key] = frozenset(germ_of[lev, f, pt] for pt in q.atom_labels())
    return _etale(base, stalks, basics, germ_of)


def _lambda1(ps: Presheaf, x: FinTop, ro) -> tuple[FinTop, dict, dict]:
    """Lambda1's base St(RO(X)), stalks and germ_of, with RO(X) given.

    Let g be an atom of RO(X) and f in F(U), h in F(V) with U and V in the
    ultrafilter at g (g inside Reg U and Reg V).  Every minimal nonempty
    open m inside g lies in U: m meets U, being a nonempty open inside
    Cl U, and m & U = m by minimality.  Then f and h have the same germ at g
    iff f|m = h|m for every such m.  Proof, <=: the union W of those m is
    open and dense in g, so W is in the filter, and the opens where f and h
    agree cover W.  Proof, =>: any W of the filter meets each such m, so it
    contains m by minimality; a family of opens where f and h agree that is
    predense below W has a member meeting m, and that member contains m.
    And g holds exactly one such m: g is Reg m for any minimal m inside it,
    and a second minimal open, disjoint from m, misses Cl m.  So the germ of
    f in F(u) at g is named g:m:f|m, and the stalk is F(m) in sorted order:
    m lies in the filter and inside each of its opens, so it is the first
    of them in size order."""
    levels = _levels_of_opens(ps, x)
    mask_of = {u: x._check_subset(u) for u in levels}
    stalks, germ_of = {}, {}
    base = stone_space(ro.alg).space
    for g_label in base.points:
        g_mask = x._check_subset(ro.atom_subsets[g_label])
        in_filter = [lev for u, lev in levels.items()
                     if g_mask & x._reg(mask_of[u]) == g_mask]
        m = in_filter[0]
        for lev in in_filter:
            for f in ps.sections[lev]:
                germ_of[lev, f, g_label] = f"{g_label}:{m}:{ps.res(m, lev, f)}"
        stalks[g_label] = tuple(f"{g_label}:{m}:{r}" for r in sorted(ps.sections[m]))
    return base, stalks, germ_of


class Bundle(Record, frozen=False):
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
        if not self.space.base.is_dense(frozenset(self.space.proj.values())):
            raise SheafError("projection image is not dense in the base")


def gamma1(p: Bundle, u) -> list[dict]:
    """Local sections of the stonean sheaf of the bundle over the open u:
    continuous choices of germs landing in the bundle on a dense open subset
    (all of u at finite scale).  The base is discrete, so every choice is
    continuous: the sections are the product of the stalks over u."""
    u = frozenset(u)
    if u not in p.space.base.opens or not u:
        raise SheafError(f"{subset_label(u)} is not a nonempty open of the base")
    return _choices(p.space.stalks, u)


def _choices(stalks: dict, u) -> list[dict]:
    """The choice functions of germs over the points of u, in product order."""
    points = sorted(u)
    return [dict(zip(points, combo))
            for combo in product(*(stalks[pt] for pt in points))]


def _section_id(s: dict) -> str:
    return ";".join(f"{pt}={s[pt]}" for pt in sorted(s))


def gamma_half(p: Bundle) -> Presheaf:
    """Gamma1 restricted to RO(base)+ (= all nonempty subsets of the discrete
    base), as a presheaf keyed by subset labels."""
    return _gamma_half(p.space.base, p.space.stalks)


def _gamma_half(x: FinTop, stalks: dict) -> Presheaf:
    """gamma_half of the bundle over the discrete base x with these stalks.
    Restricting a choice function to the points of q composes."""
    points = {subset_label(u): u for u in x.nonempty_opens()}
    choices = {lev: {_section_id(s): s for s in _choices(stalks, u)}
               for lev, u in points.items()}
    sections = {lev: tuple(sorted(secs)) for lev, secs in choices.items()}
    return Presheaf.by_rule(lambda q, lev, sid: _section_id(
        {pt: choices[lev][sid][pt] for pt in points[q]}), opens_poset(x), sections)


class SheafifyUnit(Record, frozen=False):
    """The canonical morphism from a presheaf into its stonean
    sheafification: the identity of RO(X), which is the clopen algebra of the
    discrete finite St(RO(X)), with the per-level section maps f |-> f-dot."""

    i: BAHom      # the identity of RO(X)
    theta: dict   # source level label -> {section -> sheafified section id}


def sheafify(ps: Presheaf, x: FinTop):
    """The stonean sheafification Gamma1 o Lambda1 of a presheaf on O(X)+.

    The result is a presheaf on O(St(RO(X)))+ (all nonempty subsets of the
    discrete finite Stone space); the unit sends f in F(U) to the section
    G |-> [f]_G over N_Reg(U).  Gamma1 reads Lambda1's stalks, not its
    basics, which are not built."""
    ro = ro_algebra(x)
    base, stalks, germ_of = _lambda1(ps, x, ro)
    if not all(stalks.values()):  # Bundle's check, on a discrete base
        raise SheafError("projection image is not dense in the base")
    sheaf = _gamma_half(base, stalks)
    theta = {}
    for u in x.nonempty_opens():
        lev, points = subset_label(u), ro.reg_embed(u).atom_labels()
        theta[lev] = {f: _section_id({pt: germ_of[lev, f, pt] for pt in points})
                      for f in ps.sections[lev]}
    return sheaf, SheafifyUnit(BAHom.identity(ro.alg), theta)


# -- morphisms of presheaves on algebra bases ---------------------------------


def _along(ps: Presheaf, base: FinPoset, pi: dict,
           alg: BoolAlg | None = None) -> Presheaf:
    """F pulled back along the monotone map pi from base to F's base: level
    u is F(pi u), restricted by F's rule at (pi q, pi p), which composes."""
    res = ps.res
    return Presheaf.by_rule(lambda q, p, f: res(pi[q], pi[p], f), base,
                            {u: ps.sections[pi[u]] for u in base.elements}, alg)


def _left_adjoint_levels(i: BAHom, ps: Presheaf) -> tuple[FinPoset, dict]:
    """target+ and its map U |-> pi_i(U) onto the levels of ps, which must
    be a presheaf on source+.  pi_i(U) is the join of the source atoms that
    U's atoms map to, read on masks: element k of B+ is mask k+1."""
    if ps.alg != i.source:
        raise SheafError("presheaf does not live on the source algebra")
    base, labels = alg_poset(i.target), alg_poset(i.source).elements
    pi = [0]
    for v in range(1, len(base.elements) + 1):
        low = v & -v
        pi.append(pi[v ^ low] | i._bits[low.bit_length() - 1][1])
    return base, {u: labels[pi[k] - 1] for k, u in enumerate(base.elements, 1)}


def lift_i_star(i: BAHom, ps: Presheaf) -> Presheaf:
    """i_*(F) on target+ via the left adjoint: level U |-> F(pi_i(U)).
    pi_i is monotone, so F's own restrictions relabelled along it compose."""
    return _along(ps, *_left_adjoint_levels(i, ps), i.target)


class PresheafMorphism(Record, frozen=False):
    """A morphism (i, Theta): F0 -> F1 between presheaves on algebra bases:
    i is a (complete, automatic at finite scale) homomorphism and Theta a
    natural transformation i_*(F0) -> F1."""

    i: BAHom
    theta: dict  # target level label -> dict section -> section
    source: Presheaf
    target: Presheaf


def check_presheaf_morphism(mor: PresheafMorphism):
    """Validate all naturality squares; returns the offending (U, V) pair or
    None when every square commutes.  The squares are read off the source
    along pi_i, with no i_*(F) built.  They are decided on the covering
    pairs (V minus one atom, V) of target+: every U < V is a chain of
    covers, and squares paste along it, since both presheaves compose.
    Only when a cover fails are all pairs walked, U in element order and V
    over the levels strictly above U in element order, so the pair returned
    is the first failing one in that order."""
    base, pi = _left_adjoint_levels(mor.i, mor.source)
    src, tgt, theta = mor.source, mor.target, mor.theta
    for u in base.elements:
        if u not in theta:
            raise SheafError(f"theta missing at level {u}")
        for f in src.sections[pi[u]]:
            if theta[u].get(f) not in tgt.sections[u]:
                raise SheafError(f"theta at {u} does not map into the target")

    def commutes(u: str, v: str) -> bool:
        pu, pv = pi[u], pi[v]
        return all(theta[u][src.res(pu, pv, f)] == tgt.res(u, v, theta[v][f])
                   for f in src.sections[pv])

    levels, n = base.elements, mor.i.target.atom_count
    if all(commutes(levels[(v ^ 1 << k) - 1], levels[v - 1])
           for v in range(1, len(levels) + 1) if v & (v - 1)
           for k in range(n) if v >> k & 1):
        return None
    for k, u in enumerate(levels, 1):  # level u has mask k
        others, s = len(levels) & ~k, 0  # len(levels) is the top mask
        while s := (s - others) & others:  # the next submask up
            if not commutes(u, v := levels[(k | s) - 1]):
                return (u, v)
    return None
