"""Finite topological spaces and posets: regularization, RO/CLOP algebras,
boolean completions, and the homomorphisms induced by open continuous maps.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import and_

from .balg import BAHom, BoolAlg, Elem
from .record import Record


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


class FinTop(Record):
    """A finite topological space as an explicit family of open point sets.

    The constructor is the one check that the family is a topology.  Point
    sets are computed as int masks, bit i standing for points[i].  The
    point index, the open masks and each point's minimal open neighbourhood
    U_p are built once, after the checks.  The interior of a mask, the OR of
    the U_p inside it (Barmak, LNM 2032, 1.1), and the point set of a mask
    are memoized per instance; closure, Reg and the density, open and closed
    tests are read off the interior.  The derived state is set in the
    instance dict, not as fields, so equality, hashing and repr still see
    only points and opens.
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
        set_of = {sum(map(bit.__getitem__, u)): u for u in self.opens}
        if 0 not in set_of or (1 << len(bit)) - 1 not in set_of:
            raise TopologyError("opens must contain the empty set and the full set")
        # Alexandrov: with U_p the meet of the opens around p, u and u & v
        # are the unions of the U_p for p in them, so the family is a
        # topology iff it holds every union of the U_p: O(|opens| |points|).
        unions, nbhd = {0}, []
        for b in bit.values():
            nbhd.append(u_p := reduce(and_, (a for a in set_of if a & b)))
            unions |= {s | u_p for s in unions}
            if not unions <= set_of.keys():
                m = min(unions - set_of.keys())
                raise TopologyError(
                    "opens not closed under union and intersection: "
                    f"{subset_label(p for p, b in bit.items() if b & m)} missing")
        self._index(bit, set_of, nbhd)

    def _index(self, bit: dict, set_of: dict, nbhd) -> None:
        """The derived state: point -> bit, mask -> open, and the U_p."""
        vars(self).update(_bit=bit, _masks=frozenset(set_of), _nbhd=tuple(nbhd),
                          _top=(1 << len(self.points)) - 1, _int_memo={},
                          _set_memo=set_of)

    @property
    def full(self) -> frozenset:
        return frozenset(self.points)

    def _check_subset(self, a) -> int:
        """The mask of the point set a; raises for points outside the space."""
        a = frozenset(a)
        try:
            return sum(map(self._bit.__getitem__, a))
        except KeyError:
            raise TopologyError(
                f"{subset_label(a)} is not a subset of the space") from None

    def _set(self, m: int) -> frozenset:
        out = self._set_memo.get(m)
        if out is None:
            out = self._set_memo[m] = frozenset(
                p for i, p in enumerate(self.points) if m >> i & 1)
        return out

    def _int(self, m: int) -> int:
        out = self._int_memo.get(m)
        if out is None:
            out = 0
            for u in self._nbhd:
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

    def nonempty_opens(self) -> list[frozenset]:
        return sorted((u for u in self.opens if u), key=_size_order)

    @property
    def is_discrete(self) -> bool:
        return len(self.opens) == 2 ** len(self.points)

    def __repr__(self):
        return f"FinTop({len(self.points)} points, {len(self.opens)} opens)"


class FinPoset(Record):
    """A finite partial order as one mask per element (_bits, inverse _index):
    a <= b iff a's mask lies inside b's; they are compatible iff they meet.

    From input (elements and leq) the masks are the down sets over the
    element order, bit i for elements[i], checked in O(|leq|) mask steps:
    a's bit is in down[a] (reflexive), no a != b has a <= b <= a
    (antisymmetric), down[a] lies inside down[b] for a <= b (transitive).
    An inclusion poset (_unchecked) keeps its members' masks: the algebra
    bits of B+, the point masks of O(X)+.  Down sets, and for the latter
    leq and the element-order masks _mask, are built when first read."""

    elements: tuple[str, ...]
    leq: frozenset  # of (str, str) pairs

    @cached_property
    def leq(self) -> frozenset:  # of an inclusion poset
        return frozenset((a, b) for b in self.elements for a in self.down(b))

    @cached_property
    def _mask(self) -> dict:  # of an inclusion poset
        return {b: sum(1 << i for s, i in self._index.items() if s & ~m == 0)
                for b, m in self._bits.items()}

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise TopologyError(f"duplicate elements: {self.elements}")
        bit = {a: 1 << i for i, a in enumerate(self.elements)}
        mask = dict.fromkeys(self.elements, 0)
        for a, b in self.leq:
            if a not in bit or b not in bit:
                raise TopologyError(f"relation pair ({a},{b}) outside the carrier")
            mask[b] |= bit[a]
        for a in self.elements:
            if not mask[a] & bit[a]:
                raise TopologyError(f"not reflexive at {a}")
        for a, b in self.leq:
            if a != b and mask[a] & bit[b]:
                raise TopologyError(f"not antisymmetric at {a},{b}")
            if mask[a] & ~mask[b]:
                c = self._labels(mask[a] & ~mask[b])[0]
                raise TopologyError(f"not transitive at {c},{a},{b}")
        vars(self).update(_bits=mask, _mask=mask, _down={},
                          _index={m: i for i, m in enumerate(mask.values())})

    @staticmethod
    def _unchecked(elements: tuple, bits: dict, index: dict) -> "FinPoset":
        """The inclusion poset of distinct nonzero masks closed under nonempty
        meets, unchecked: element -> mask (bits) and mask -> place (index)."""
        p = object.__new__(FinPoset)
        vars(p).update(elements=elements, _bits=bits, _index=index, _down={})
        return p

    def _labels(self, m: int) -> list[str]:
        """The elements whose bits are in the mask m, in element order."""
        out = []
        while m:
            low = m & -m
            out.append(self.elements[low.bit_length() - 1])
            m ^= low
        return out

    def _below(self, m: int) -> list[str]:
        """The elements whose masks lie inside m, in element order."""
        return [self.elements[i] for s, i in self._index.items() if s & ~m == 0]

    @staticmethod
    def from_pairs(elements, pairs) -> "FinPoset":
        """Build from generating pairs, closed on down masks (Warshall); the
        first pair with a label outside elements is rejected."""
        elements = tuple(elements)
        index = {a: i for i, a in enumerate(elements)}
        down = [1 << i for i in range(len(elements))]
        for a, b in map(tuple, pairs):
            if a not in index or b not in index:
                raise TopologyError(f"relation pair ({a},{b}) outside the carrier")
            down[index[b]] |= 1 << index[a]
        for k in range(len(elements)):  # close every path through elements[k]
            down = [d | down[k] if d >> k & 1 else d for d in down]
        return FinPoset(elements, frozenset(
            (a, b) for b, d in zip(elements, down)
            for i, a in enumerate(elements) if d >> i & 1))

    def le(self, a: str, b: str) -> bool:  # False off the elements
        bits = self._bits
        return a in bits and b in bits and bits[a] & ~bits[b] == 0

    def down(self, a: str) -> frozenset:
        out = self._down.get(a)
        if out is None:  # off the elements, mask 0, which holds no member
            out = self._down[a] = frozenset(self._below(self._bits.get(a, 0)))
        return out

    def compatible(self, a: str, b: str) -> bool:
        """True when a and b have a common refinement."""
        return bool(self._bits.get(a, 0) & self._bits.get(b, 0))

    def refinements(self, a: str, b: str) -> list[str]:
        return self._below(self._bits.get(a, 0) & self._bits.get(b, 0))

    def __repr__(self):
        return f"FinPoset({list(self.elements)})"


def _inclusion_poset(label: dict) -> FinPoset:
    """The masks of label (member -> name, in element order) under inclusion,
    an order by construction, so unchecked; the test suite checks B+ and
    O(X)+.  The family must be closed under nonempty meets, as they are."""
    return FinPoset._unchecked(tuple(label.values()),
                               {name: m for m, name in label.items()},
                               {m: i for i, m in enumerate(label)})


@lru_cache(maxsize=64)
def opens_poset(x: FinTop) -> FinPoset:
    """The poset O(X) of nonempty opens under inclusion, labelled canonically.
    Built once per space: both are frozen, so equal spaces share the poset."""
    return _inclusion_poset({x._check_subset(u): subset_label(u)
                            for u in x.nonempty_opens()})


def down_topology(p: FinPoset) -> FinTop:
    """The downward topology: opens are exactly the down-sets, the unions
    of the principal down sets, built as in FinTop's Alexandrov check.
    They form a topology with U_a = down(a) by construction, so the space
    is built from them with no check."""
    if not p.elements:
        raise TopologyError("a space needs at least one point")
    unions = {0}
    for m in p._mask.values():
        unions |= {s | m for s in unions}
    set_of = {u: frozenset(p._labels(u)) for u in unions}
    x = object.__new__(FinTop)
    vars(x).update(points=p.elements, opens=frozenset(set_of.values()))
    x._index({a: 1 << i for i, a in enumerate(p.elements)}, set_of, p._mask.values())
    return x


def _size_order(u: frozenset) -> tuple:
    return (len(u), sorted(u))


def _atom_subsets(x: FinTop, family) -> dict:
    """label -> point set of the minimal nonzero masks of a family whose
    minimal members meet its other members only inside them, as the atoms
    of RO(X) and CLOP(X) do, in the order of nonempty_opens.  The masks are
    read by size, each kept iff it meets none kept before."""
    atoms = []
    for m in sorted(family, key=int.bit_count):
        if m and not any(a & m for a in atoms):
            atoms.append(m)
    return {subset_label(u): u for u in sorted(map(x._set, atoms), key=_size_order)}


class RoAlgebra:
    """The complete boolean algebra RO(X) re-atomized as a powerset algebra.

    Atoms are the minimal nonzero regular opens, the minimal Reg(U_p): a
    nonzero regular open r holds Reg(U_p) for each p in r.  atom_subsets
    keeps the bidirectional dictionary between atom labels and point sets.
    RO(X) of a finite space is a complete boolean algebra by construction,
    the join of any family being Reg of its union, so the constructor does
    not re-prove it; the test suite does, on every small topology.
    """

    def __init__(self, space: FinTop):
        self.space = space
        self.atom_subsets = _atom_subsets(space, {space._reg(u) for u in space._nbhd})
        self.alg = BoolAlg(tuple(sorted(self.atom_subsets)))
        # the point mask of each atom, in the algebra's bit order
        self._atoms = [space._check_subset(self.atom_subsets[a])
                       for a in self.alg.atoms]

    def _elem_bits(self, m: int) -> int:
        """Element bits of the atoms inside the point mask m."""
        return sum(1 << i for i, a in enumerate(self._atoms) if a & m == a)

    def reg_embed(self, u) -> Elem:
        """U |-> Reg(U) as an element, for arbitrary open U."""
        m = self.space._reg(self.space._check_subset(u))
        return Elem(self.alg, self._elem_bits(m))


def ro_algebra(x: FinTop) -> RoAlgebra:
    return RoAlgebra(x)


class ClopAlgebra:
    """CLOP(X) as a powerset algebra over the minimal nonempty clopens.

    The minimal nonempty clopens partition the space, as the atoms of any
    finite boolean algebra of sets do, so the cover is not checked here; the
    test suite checks it on every small topology."""

    def __init__(self, space: FinTop):
        self.space = space
        self.atom_subsets = _atom_subsets(space, (
            m for m in space._masks if space._top ^ m in space._masks))
        self.alg = BoolAlg(tuple(sorted(self.atom_subsets)))


def clop_algebra(x: FinTop) -> ClopAlgebra:
    return ClopAlgebra(x)


def is_extremally_disconnected(x: FinTop) -> bool:
    """CLOP(X) = RO(X) as set families: an open is clopen iff it is regular."""
    return all((x._top ^ m in x._masks) == (x._reg(m) == m) for m in x._masks)


def boolean_completion(p: FinPoset):
    """RO(P, down-topology) with the dense embedding e(p) = Reg(down(p)).

    Returns (RoAlgebra, e) where e maps each poset element to an algebra
    element.  e preserves order and incompatibility and has dense range in
    RO+ by construction, as the boolean completion of a poset does (Jech,
    Set Theory, ch. 14): Reg is monotone, disjoint opens have disjoint
    regularizations, and a nonzero regular open holds some down(a).  The
    test suite asserts all three on every poset of at most 4 elements."""
    x = down_topology(p)
    ro = RoAlgebra(x)
    return ro, {a: Elem(ro.alg, ro._elem_bits(x._reg(m))) for a, m in p._mask.items()}


class ContMap(Record):
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

    Rejects non-open maps with a witness.  An open map satisfies
    Reg(f^{-1}[U]) = f^{-1}[Reg U] (the source paper's link between open
    maps and complete homomorphisms), so f^{-1} of the target atoms
    partitions RO(source)'s top and each source atom maps into exactly one
    target atom, read off at any of its points.  The test suite asserts the
    identity on every open map between spaces of at most 3 points."""
    witness = f.open_witness()
    if witness is not None:
        raise NotOpenMapError(
            witness,
            f"map is not open: image of {subset_label(witness)} "
            f"is {subset_label(f.image(witness))}, not open",
        )
    ro_src, ro_tgt = RoAlgebra(f.source), RoAlgebra(f.target)
    atom_at = {pt: b for b, sub in ro_tgt.atom_subsets.items() for pt in sub}
    to = f.mapping
    atom_map = {a: atom_at[to[min(sub)]] for a, sub in ro_src.atom_subsets.items()}
    return BAHom.from_dict(ro_tgt.alg, ro_src.alg, atom_map)
