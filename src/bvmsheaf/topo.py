"""Finite topological spaces and posets: regularization, RO/CLOP algebras,
boolean completions, and the homomorphisms induced by open continuous maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balg import AlgebraError, BAHom, BoolAlg, Elem


class TopologyError(ValueError):
    """Raised for ill-formed spaces, posets or maps."""


class NotOpenMapError(TopologyError):
    """A continuous map was required to be open but is not."""

    def __init__(self, witness: frozenset, message: str):
        super().__init__(message)
        self.witness = witness


def subset_label(subset) -> str:
    """Canonical display name of a point set, e.g. '{q,r}'."""
    return "{" + ",".join(sorted(subset)) + "}"


@dataclass(frozen=True)
class FinTop:
    """A finite topological space as an explicit family of open point sets.

    Point sets are computed as int masks, bit i standing for points[i].  The
    point index and the open masks are built once, after the checks, and the
    interior of a mask (the OR of the open masks inside it) is memoized per
    instance; closure, Reg and the density, open and closed tests are read
    off it.  A mask encodes the same set as the frozenset it replaces, so
    every answer is unchanged.  The index and the memo are set with
    object.__setattr__, not as fields, so equality, hashing and repr still
    see only points and opens.
    """

    points: tuple[str, ...]
    opens: frozenset  # of frozenset[str]

    def __post_init__(self):
        if not self.points:
            raise TopologyError("a space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise TopologyError(f"duplicate points: {self.points}")
        pts = frozenset(self.points)
        for u in self.opens:
            if not u <= pts:
                raise TopologyError(f"open set {subset_label(u)} not within points")
        bit = {p: 1 << i for i, p in enumerate(self.points)}
        open_bits = {u: sum(bit[p] for p in u) for u in self.opens}
        masks = frozenset(open_bits.values())
        top = (1 << len(self.points)) - 1
        if 0 not in masks or top not in masks:
            raise TopologyError("opens must contain the empty set and the full set")
        for u, a in open_bits.items():
            for v, b in open_bits.items():
                if a | b not in masks:
                    raise TopologyError(
                        f"opens not closed under union: {subset_label(u)} u {subset_label(v)}"
                    )
                if a & b not in masks:
                    raise TopologyError(
                        f"opens not closed under intersection: {subset_label(u)} n {subset_label(v)}"
                    )
        object.__setattr__(self, "_bit", bit)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_int_memo", {})

    @property
    def full(self) -> frozenset:
        return frozenset(self.points)

    def _check_subset(self, a) -> int:
        """The mask of the point set a; raises for points outside the space."""
        a = frozenset(a)
        try:
            return sum(self._bit[p] for p in a)
        except KeyError:
            raise TopologyError(
                f"{subset_label(a)} is not a subset of the space") from None

    def _set(self, m: int) -> frozenset:
        return frozenset(p for i, p in enumerate(self.points) if m >> i & 1)

    def _int(self, m: int) -> int:
        out = self._int_memo.get(m)
        if out is None:
            out = 0
            for u in self._masks:
                if u & m == u:
                    out |= u
            self._int_memo[m] = out
        return out

    def _cl(self, m: int) -> int:
        return self._top ^ self._int(self._top ^ m)

    def _reg(self, m: int) -> int:
        return self._int(self._cl(m))

    def is_open(self, a) -> bool:
        return self._check_subset(a) in self._masks

    def is_closed(self, a) -> bool:
        return (self._top ^ self._check_subset(a)) in self._masks

    def interior(self, a) -> frozenset:
        """Largest open set inside a."""
        return self._set(self._int(self._check_subset(a)))

    def closure(self, a) -> frozenset:
        """Smallest closed superset of a."""
        return self._set(self._cl(self._check_subset(a)))

    def regularize(self, a) -> frozenset:
        """Reg(a): the interior of the closure of a."""
        return self._set(self._reg(self._check_subset(a)))

    def is_regular_open(self, a) -> bool:
        a = frozenset(a)
        return a in self.opens and self._reg(m := self._check_subset(a)) == m

    def is_dense(self, a) -> bool:
        return self._cl(self._check_subset(a)) == self._top

    def is_nowhere_dense(self, a) -> bool:
        return not self._reg(self._check_subset(a))

    def is_dense_in(self, a, u) -> bool:
        """a is dense in the open set u: every nonempty open subset of u meets
        a, that is, no nonempty open lies inside u - a."""
        a, u = self._check_subset(a), self._check_subset(u)
        return not self._int(u & ~a)

    def nonempty_opens(self) -> list[frozenset]:
        return sorted((u for u in self.opens if u), key=lambda u: (len(u), sorted(u)))

    def regular_opens(self) -> list[frozenset]:
        return [u for u in self.nonempty_opens() if self.regularize(u) == u]

    def clopens(self) -> list[frozenset]:
        return [u for u in sorted(self.opens, key=lambda u: (len(u), sorted(u)))
                if self.is_closed(u)]

    @property
    def is_discrete(self) -> bool:
        return len(self.opens) == 2 ** len(self.points)

    def subspace(self, s) -> "FinTop":
        s = frozenset(s)
        if not self._check_subset(s):
            raise TopologyError("a subspace needs at least one point")
        return FinTop(tuple(p for p in self.points if p in s),
                      frozenset(u & s for u in self.opens))

    def __repr__(self):
        return f"FinTop({len(self.points)} points, {len(self.opens)} opens)"


@dataclass(frozen=True)
class FinPoset:
    """A finite partial order; leq is the full relation, checked exhaustively.

    The down sets and the pairwise common refinements (a bitmask AND of two
    down sets) are tabulated once per instance, right after the checks, so
    down, compatible and refinements are lookups.  The tables are read off
    leq by the same definitions the queries had, and the instance is frozen,
    so every answer is unchanged.
    """

    elements: tuple[str, ...]
    leq: frozenset  # of (str, str) pairs

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise TopologyError(f"duplicate elements: {self.elements}")
        elems = set(self.elements)
        for a, b in self.leq:
            if a not in elems or b not in elems:
                raise TopologyError(f"relation pair ({a},{b}) outside the carrier")
        for a in elems:
            if (a, a) not in self.leq:
                raise TopologyError(f"not reflexive at {a}")
        for a, b in self.leq:
            if a != b and (b, a) in self.leq:
                raise TopologyError(f"not antisymmetric at {a},{b}")
            for c in elems:
                if (b, c) in self.leq and (a, c) not in self.leq:
                    raise TopologyError(f"not transitive at {a},{b},{c}")
        # down set of each element, as a bitmask over the element order
        masks = {a: sum(1 << i for i, b in enumerate(self.elements)
                        if (b, a) in self.leq)
                 for a in self.elements}
        object.__setattr__(self, "_down", {
            a: frozenset(b for i, b in enumerate(self.elements) if m >> i & 1)
            for a, m in masks.items()})
        object.__setattr__(self, "_refinements", {
            (a, b): tuple(s for i, s in enumerate(self.elements)
                          if (masks[a] & masks[b]) >> i & 1)
            for a in self.elements for b in self.elements})

    @staticmethod
    def from_pairs(elements, pairs) -> "FinPoset":
        """Build from generating pairs; the reflexive-transitive closure is
        computed and antisymmetry validated."""
        elements = tuple(elements)
        rel = {(a, a) for a in elements} | {tuple(p) for p in pairs}
        changed = True
        while changed:
            changed = False
            for a, b in list(rel):
                for c, d in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        return FinPoset(elements, frozenset(rel))

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def down(self, a: str) -> frozenset:
        return self._down.get(a, frozenset())

    def compatible(self, a: str, b: str) -> bool:
        """True when a and b have a common refinement."""
        return bool(self._refinements.get((a, b)))

    def refinements(self, a: str, b: str) -> list[str]:
        return list(self._refinements.get((a, b), ()))

    def is_predense_below(self, family, p: str) -> bool:
        """family is a dense covering of p: every q <= p is compatible with
        some member of the family."""
        family = list(family)
        return all(
            any(self.compatible(q, r) for r in family)
            for q in self.down(p)
        )

    def sup(self, family):
        """Least upper bound of the family, or None if there is none."""
        family = list(family)
        uppers = [u for u in self.elements if all(self.le(a, u) for a in family)]
        for u in uppers:
            if all(self.le(u, v) for v in uppers):
                return u
        return None

    def downsets(self) -> list[frozenset]:
        """All down-closed subsets (the opens of the downward topology)."""
        out = []
        elems = list(self.elements)
        for mask in range(2 ** len(elems)):
            sub = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
            if all(self.down(a) <= sub for a in sub):
                out.append(sub)
        return out

    def __repr__(self):
        return f"FinPoset({list(self.elements)})"


def opens_poset(x: FinTop) -> FinPoset:
    """The poset O(X) of nonempty opens under inclusion, labelled canonically."""
    opens = x.nonempty_opens()
    labels = {u: subset_label(u) for u in opens}
    leq = frozenset(
        (labels[u], labels[v]) for u in opens for v in opens if u <= v
    )
    return FinPoset(tuple(labels[u] for u in opens), leq)


def down_topology(p: FinPoset) -> FinTop:
    """The downward topology: opens are exactly the down-sets."""
    return FinTop(p.elements, frozenset(p.downsets()))


class RoAlgebra:
    """The complete boolean algebra RO(X) re-atomized as a powerset algebra.

    Atoms are the minimal nonzero regular opens; atom_subsets keeps the
    bidirectional dictionary between atom labels and concrete point sets.
    RO(X) of a finite space is a complete boolean algebra by construction,
    the join of any family being Reg of its union, so the constructor does
    not re-prove it; the test suite does, on every small topology.
    """

    def __init__(self, space: FinTop):
        self.space = space
        ros = space.regular_opens()
        atoms = [u for u in ros
                 if not any(v < u for v in ros)]
        self.atom_subsets = {subset_label(u): u for u in atoms}
        self.alg = BoolAlg(tuple(sorted(self.atom_subsets)))

    def _atom_masks(self) -> list[int]:
        """Point mask of each atom, in the algebra's bit order."""
        return [self.space._check_subset(self.atom_subsets[a]) for a in self.alg.atoms]

    def _join_mask(self, bits: int, atoms: list[int]) -> int:
        """Point mask of Reg of the union of the atoms in bits."""
        union = 0
        for i, a in enumerate(atoms):
            if bits >> i & 1:
                union |= a
        return self.space._reg(union)

    @staticmethod
    def _elem_bits(m: int, atoms: list[int]) -> int:
        """Element bits of the atoms inside the point mask m."""
        return sum(1 << i for i, a in enumerate(atoms) if a & m == a)

    def to_subset(self, e: Elem) -> frozenset:
        """The regular open realized by e: Reg of the union of its atoms."""
        if e.alg != self.alg:
            raise AlgebraError("element of a different algebra")
        return self.space._set(self._join_mask(e.bits, self._atom_masks()))

    def from_subset(self, u) -> Elem:
        u = frozenset(u)
        if not self.space.is_regular_open(u) and u:
            raise TopologyError(f"{subset_label(u)} is not regular open")
        return Elem(self.alg, self._elem_bits(self.space._check_subset(u), self._atom_masks()))

    def reg_embed(self, u) -> Elem:
        """U |-> Reg(U) as an element, for arbitrary open U."""
        m = self.space._reg(self.space._check_subset(u))
        return Elem(self.alg, self._elem_bits(m, self._atom_masks()))


def ro_algebra(x: FinTop) -> RoAlgebra:
    return RoAlgebra(x)


class ClopAlgebra:
    """CLOP(X) as a powerset algebra over the minimal nonempty clopens.

    Only defined when the clopens separate into atoms, which is automatic:
    minimal nonempty clopens partition the space."""

    def __init__(self, space: FinTop):
        self.space = space
        clps = [u for u in space.clopens() if u]
        atoms = [u for u in clps if not any(v < u for v in clps if v)]
        covered = frozenset().union(*atoms) if atoms else frozenset()
        if covered != space.full:
            raise TopologyError("clopen atoms do not cover the space")
        self.atom_subsets = {subset_label(u): u for u in atoms}
        self.alg = BoolAlg(tuple(sorted(self.atom_subsets)))

    def to_subset(self, e: Elem) -> frozenset:
        return frozenset().union(
            *(self.atom_subsets[a] for a in e.atom_labels())
        ) if not e.is_bottom else frozenset()

    def from_subset(self, u) -> Elem:
        u = frozenset(u)
        return self.alg.from_labels(
            a for a, sub in self.atom_subsets.items() if sub <= u
        )


def clop_algebra(x: FinTop) -> ClopAlgebra:
    return ClopAlgebra(x)


def is_extremally_disconnected(x: FinTop) -> bool:
    """CLOP(X) = RO(X) as set families."""
    clop = {u for u in x.opens if x.is_closed(u)}
    ro = {u for u in x.opens if x.regularize(u) == u}
    return clop == ro


def boolean_completion(p: FinPoset):
    """RO(P, down-topology) with the dense embedding e(p) = Reg(down(p)).

    Returns (RoAlgebra, e) where e maps each poset element to an algebra
    element; the embedding is checked to preserve order and incompatibility
    and to have dense range in RO+.
    """
    space = down_topology(p)
    ro = RoAlgebra(space)
    e = {a: ro.reg_embed(p.down(a)) for a in p.elements}
    for a in p.elements:
        for b in p.elements:
            if p.le(a, b) and not e[a] <= e[b]:
                raise TopologyError(f"completion map not order preserving at {a},{b}")
            if not p.compatible(a, b) and not (e[a] & e[b]).is_bottom:
                raise TopologyError(
                    f"completion map not incompatibility preserving at {a},{b}"
                )
    for elem in ro.alg.elements():
        if not elem.is_bottom and not any(e[a] <= elem for a in p.elements):
            raise TopologyError(f"range of e not dense below {elem}")
    return ro, e


@dataclass(frozen=True)
class ContMap:
    """A continuous point function between finite spaces.

    Continuity (preimages of opens are open) is validated at construction;
    openness is a computed flag."""

    source: FinTop
    target: FinTop
    fn: tuple  # of (source point, target point) pairs

    @staticmethod
    def from_dict(source: FinTop, target: FinTop, fn: dict) -> "ContMap":
        return ContMap(source, target, tuple(sorted(fn.items())))

    def __post_init__(self):
        mapping = dict(self.fn)
        if set(mapping) != set(self.source.points):
            raise TopologyError("map must be total on the source points")
        if not set(mapping.values()) <= set(self.target.points):
            raise TopologyError("map image outside the target points")
        for u in self.target.opens:
            if self.preimage(u) not in self.source.opens:
                raise TopologyError(
                    f"not continuous: preimage of {subset_label(u)} is not open"
                )

    @property
    def mapping(self) -> dict:
        return dict(self.fn)

    def __call__(self, point: str) -> str:
        return self.mapping[point]

    def preimage(self, u) -> frozenset:
        u = frozenset(u)
        return frozenset(p for p, q in self.fn if q in u)

    def image(self, v) -> frozenset:
        mapping = self.mapping
        return frozenset(mapping[p] for p in v)

    @property
    def is_open(self) -> bool:
        return self.open_witness() is None

    def open_witness(self):
        """An open set whose image is not open, or None when the map is open."""
        for v in self.source.nonempty_opens():
            if self.image(v) not in self.target.opens:
                return v
        return None

    def compose(self, other: "ContMap") -> "ContMap":
        if other.target != self.source:
            raise TopologyError("maps do not compose")
        return ContMap.from_dict(
            other.source, self.target,
            {p: self(other(p)) for p in other.source.points},
        )


def induced_ro_hom(f: ContMap) -> BAHom:
    """The complete homomorphism RO(target) -> RO(source) induced by an open
    continuous map via U |-> f^{-1}[U].

    Rejects non-open maps with a witness; also verifies the exchange identity
    Reg(f^{-1}[U]) = f^{-1}[Reg U] on every open U, which is what makes the
    preimage of a regular open regular.
    """
    witness = f.open_witness()
    if witness is not None:
        raise NotOpenMapError(
            witness,
            f"map is not open: image of {subset_label(witness)} "
            f"is {subset_label(f.image(witness))}, not open",
        )
    for u in f.target.opens:
        if f.source.regularize(f.preimage(u)) != f.preimage(f.target.regularize(u)):
            raise TopologyError(
                f"Reg(f^-1[U]) != f^-1[Reg U] at U={subset_label(u)}"
            )
    ro_src, ro_tgt = RoAlgebra(f.source), RoAlgebra(f.target)
    atom_map = {}
    for a_label, a_sub in ro_src.atom_subsets.items():
        hits = [b_label for b_label, b_sub in ro_tgt.atom_subsets.items()
                if f.image(a_sub) <= b_sub]
        if len(hits) != 1:
            raise TopologyError(
                f"preimage homomorphism is not atom-induced at {a_label}"
            )
        atom_map[a_label] = hits[0]
    return BAHom.from_dict(ro_tgt.alg, ro_src.alg, atom_map)
