"""Finite boolean algebras: elements, filters, homomorphisms, Stone duality.

Every algebra is stored as the powerset of a labelled atom set, so meets,
joins and complements are bitmask operations and every filter is principal.
"""

from __future__ import annotations

from functools import lru_cache

from .record import Record

_set = object.__setattr__  # how Elem.__init__ sets its frozen fields


class AlgebraError(ValueError):
    """Raised for ill-formed algebras, elements or homomorphisms."""


class BoolAlg(Record):
    """Powerset algebra over a finite tuple of distinct atom labels.  The
    boolean-algebra laws hold by construction (the operations are &, | and ~
    on bitmasks), so only the labels are checked."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        if not self.atoms:
            raise AlgebraError("an algebra needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise AlgebraError(f"duplicate atom labels: {self.atoms}")
        # the top bitmask, kept as an int (not a field, and no Elem, so no
        # reference cycle) for the range check, ~ and is_top; and the memo
        # bits -> atom labels that Elem.atom_labels fills
        _set(self, "_top", (1 << len(self.atoms)) - 1)
        _set(self, "_labels", {})

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def __len__(self) -> int:
        return 2 ** len(self.atoms)

    def atom_index(self, label: str) -> int:
        try:
            return self.atoms.index(label)
        except ValueError:
            raise AlgebraError(f"unknown atom {label!r} in {self}") from None

    @property
    def bottom(self) -> "Elem":
        return Elem(self, 0)

    @property
    def top(self) -> "Elem":
        return Elem(self, self._top)

    def atom(self, label: str) -> "Elem":
        return Elem(self, 1 << self.atom_index(label))

    def atom_elems(self) -> list["Elem"]:
        return [Elem(self, 1 << i) for i in range(len(self.atoms))]

    def from_labels(self, labels) -> "Elem":
        bits = 0
        for lab in labels:
            bits |= 1 << self.atom_index(lab)
        return Elem(self, bits)

    def elements(self):
        """All 2^n elements, in bitmask order (bottom first, top last)."""
        for bits in range(2 ** len(self.atoms)):
            yield Elem(self, bits)

    def meet_all(self, elems) -> "Elem":
        out = self.top
        for e in elems:
            out = out & e
        return out

    def __repr__(self):
        return f"BoolAlg({list(self.atoms)})"


class Elem(Record):
    """An element of a BoolAlg: a subset of the atom index set, as a bitmask."""

    alg: BoolAlg
    bits: int

    def __init__(self, alg: BoolAlg, bits: int):
        if not 0 <= bits <= alg._top:
            raise AlgebraError(f"bitmask {bits} out of range for {alg}")
        _set(self, "alg", alg)
        _set(self, "bits", bits)

    def _same_algebra(self, other: "Elem") -> None:
        if not isinstance(other, Elem):
            raise TypeError(f"expected Elem, got {type(other).__name__}")
        if self.alg is not other.alg and self.alg != other.alg:
            raise AlgebraError(
                f"elements of different algebras compared: {self.alg} vs {other.alg}"
            )

    def __eq__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        if other.alg is not self.alg:
            self._same_algebra(other)
        return self.bits == other.bits

    def __hash__(self):
        return hash((self.alg, self.bits))

    def __and__(self, other: "Elem") -> "Elem":
        self._same_algebra(other)
        return Elem(self.alg, self.bits & other.bits)

    def __or__(self, other: "Elem") -> "Elem":
        self._same_algebra(other)
        return Elem(self.alg, self.bits | other.bits)

    def __invert__(self) -> "Elem":
        return Elem(self.alg, self.alg._top & ~self.bits)

    def __le__(self, other: "Elem") -> bool:
        if other.__class__ is not Elem or other.alg is not self.alg:
            self._same_algebra(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "Elem") -> bool:
        return self <= other and self.bits != other.bits

    @property
    def is_bottom(self) -> bool:
        return self.bits == 0

    @property
    def is_top(self) -> bool:
        return self.bits == self.alg._top

    @property
    def is_atom(self) -> bool:
        return self.bits != 0 and self.bits & (self.bits - 1) == 0

    def atom_labels(self) -> tuple[str, ...]:
        labels = self.alg._labels.get(self.bits)
        if labels is None:
            labels = self.alg._labels[self.bits] = tuple(
                a for i, a in enumerate(self.alg.atoms) if self.bits >> i & 1)
        return labels

    @property
    def label(self) -> str:
        """Canonical display name: '0' for bottom, else the atom join."""
        if self.bits == 0:
            return "0"
        return "∨".join(self.atom_labels())

    def __repr__(self):
        return f"<{self.label}>"


class Filter(Record):
    """A filter on a finite boolean algebra, stored by its principal generator.

    The filter is { b : b >= gen }; it is an ultrafilter exactly when the
    generator is an atom.  Non-principal filters do not exist at this scale,
    so none can be constructed.
    """

    alg: BoolAlg
    gen: Elem

    def __post_init__(self):
        if self.gen.alg != self.alg:
            raise AlgebraError("filter generator from a different algebra")
        if self.gen.is_bottom:
            raise AlgebraError("a filter generator must be nonzero")

    def __contains__(self, e: Elem) -> bool:
        return self.gen <= e

    @property
    def is_ultrafilter(self) -> bool:
        return self.gen.is_atom

    @property
    def label(self) -> str:
        return f"F({self.gen.label})"

    def __repr__(self):
        return self.label


class BAHom(Record):
    """Unital homomorphism between finite boolean algebras, stored dually.

    atom_map sends each atom label of the target to an atom label of the
    source; the induced map is i(b) = { c in atoms(target) : atom_map(c) in b },
    which is automatically a unital homomorphism.  atom_map is exactly the
    dual function on Stone spaces restricted to principal ultrafilters.
    """

    source: BoolAlg
    target: BoolAlg
    atom_map: tuple[tuple[str, str], ...]  # (target atom, source atom) pairs

    @staticmethod
    def from_dict(source: BoolAlg, target: BoolAlg, atom_map: dict) -> "BAHom":
        return BAHom(source, target, tuple(sorted(atom_map.items())))

    def __post_init__(self):
        mapping = dict(self.atom_map)
        if set(mapping) != set(self.target.atoms):
            raise AlgebraError(
                f"atom_map must be total on target atoms {self.target.atoms}"
            )
        for c, b in mapping.items():
            if b not in self.source.atoms:
                raise AlgebraError(f"atom_map image {b!r} is not a source atom")
        # (target atom bit, bit of its source atom), for __call__
        _set(self, "_bits", tuple((1 << i, 1 << self.source.atoms.index(
            mapping[c])) for i, c in enumerate(self.target.atoms)))

    @property
    def mapping(self) -> dict:
        return dict(self.atom_map)

    def __call__(self, b: Elem) -> Elem:
        if b.alg is not self.source and b.alg != self.source:
            raise AlgebraError("argument is not an element of the source algebra")
        bits = b.bits
        return Elem(self.target, sum(t for t, s in self._bits if bits & s))

    def left_adjoint(self, c: Elem) -> Elem:
        """pi_i(c) = meet of { b : i(b) >= c }; here the atom_map image of c."""
        if c.alg != self.target:
            raise AlgebraError("argument is not an element of the target algebra")
        mapping = self.mapping
        return self.source.from_labels({mapping[a] for a in c.atom_labels()})

    def dual(self, g: Filter) -> Filter:
        """The Stone dual St(target) -> St(source), G |-> i^{-1}[G], read
        off the left adjoint: i(b) >= c iff b >= pi_i(c), so i^{-1}[up c]
        is up pi_i(c)."""
        if g.alg != self.target:
            raise AlgebraError("filter lives on a different algebra")
        return Filter(self.source, self.left_adjoint(g.gen))

    @property
    def is_injective(self) -> bool:
        image = {b for _, b in self.atom_map}
        return image == set(self.source.atoms)

    @property
    def is_isomorphism(self) -> bool:
        return self.is_injective and self.source.atom_count == self.target.atom_count

    def compose(self, other: "BAHom") -> "BAHom":
        """self after other (other: A -> B, self: B -> C gives A -> C)."""
        if other.target != self.source:
            raise AlgebraError("homomorphisms do not compose")
        om, sm = other.mapping, self.mapping
        return BAHom.from_dict(
            other.source, self.target, {c: om[sm[c]] for c in self.target.atoms}
        )

    @staticmethod
    def identity(alg: BoolAlg) -> "BAHom":
        return BAHom.from_dict(alg, alg, {a: a for a in alg.atoms})


def mk_powerset(labels) -> BoolAlg:
    """The powerset algebra on the given (nonempty, distinct) atom labels."""
    return BoolAlg(tuple(labels))


def ultrafilters(alg: BoolAlg) -> list[Filter]:
    """One principal ultrafilter per atom, in atom order."""
    return [Filter(alg, a) for a in alg.atom_elems()]


class StoneSpace:
    """The Stone space of a finite algebra: a discrete space on its atoms.

    Points are labelled by the generating atom of the corresponding principal
    ultrafilter; clopen(b) realizes the basis set N_b = { G : b in G }.
    """

    def __init__(self, alg: BoolAlg):
        from . import topo  # local import: topo depends on balg

        self.alg = alg
        self.points = tuple(alg.atoms)
        self.space = topo.FinTop(self.points, frozenset(
            self.clopen(b) for b in alg.elements()))

    def clopen(self, b: Elem) -> frozenset:
        """N_b as a point set of the space."""
        if b.alg != self.alg:
            raise AlgebraError("element of a different algebra")
        return frozenset(b.atom_labels())

    def ultrafilter(self, point: str) -> Filter:
        return Filter(self.alg, self.alg.atom(point))


@lru_cache(maxsize=64)
def stone_space(alg: BoolAlg) -> StoneSpace:
    """St(alg), built once per algebra: the algebra is frozen and the space
    is never mutated, so equal algebras share it."""
    return StoneSpace(alg)


def quotient(alg: BoolAlg, f: Filter) -> tuple[BoolAlg, BAHom]:
    """B/F as the powerset algebra on the atoms below the generator.

    The projection b |-> b /\\ gen is returned as the homomorphism induced by
    including the surviving atoms; its kernel filter is exactly F, and an
    ultrafilter quotient is the 2-element algebra.
    """
    if f.alg != alg:
        raise AlgebraError("filter lives on a different algebra")
    kept = f.gen.atom_labels()
    quot = BoolAlg(kept)
    proj = BAHom.from_dict(alg, quot, {a: a for a in kept})
    return quot, proj
