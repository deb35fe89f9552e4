"""Independent checks of the library's outputs, on bitmasks.

None of these calls the library: they read plain data (generated specs, or
the labels and tables a library object exposes) and recompute the answer
from the definitions.
"""

from __future__ import annotations

from math import prod


def stalk_classes(n_atoms: int, domain, eq) -> list[dict]:
    """For each atom a, the class index of every element in M/G_a, where
    sigma ~ tau iff atom a lies below [sigma = tau]."""
    out = []
    for a in range(n_atoms):
        cls = {}
        for s in domain:
            cls[s] = next((cls[t] for t in cls if eq[s, t] >> a & 1), len(set(cls.values())))
        out.append(cls)
    return out


def stalk_product_size(n_atoms: int, domain, eq) -> int:
    """|prod_G M/G| over the atom ultrafilters G."""
    return prod(len(set(cls.values())) for cls in stalk_classes(n_atoms, domain, eq))


def mixing(n_atoms: int, domain, eq) -> bool:
    """Mixing holds iff D -> prod_G M/G is onto (finite-scale stalk test)."""
    classes = stalk_classes(n_atoms, domain, eq)
    image = {tuple(cls[s] for cls in classes) for s in domain}
    return len(image) == stalk_product_size(n_atoms, domain, eq)


def label_mask(atoms, labels) -> int:
    index = {a: i for i, a in enumerate(atoms)}
    return sum(1 << index[x] for x in labels)


def eq_masks(model) -> dict:
    """A library model's equality table as bitmasks over its atom labels."""
    atoms = model.alg.atoms
    return {pair: label_mask(atoms, v.atom_labels()) for pair, v in model.eq.items()}


def top_classes(domain, eq, top: int) -> list[str]:
    """The least element of each class of [sigma = tau] = top."""
    return [s for s in domain if not any(eq[s, t] == top for t in domain[:domain.index(s)])]


# -- spaces -------------------------------------------------------------------

def interior(opens, a: int) -> int:
    out = 0
    for u in opens:
        if u & a == u:
            out |= u
    return out


def regularize(opens, full: int, a: int) -> int:
    """Int(Cl(a))."""
    closure = full & ~interior(opens, full & ~a)
    return interior(opens, closure)


def minimal_nonempty(family) -> set:
    fam = [u for u in family if u]
    return {u for u in fam if not any(v != u and v & u == v for v in fam)}


def regular_open_atoms(opens, full: int) -> set:
    return minimal_nonempty(u for u in opens if regularize(opens, full, u) == u)


def clopen_atoms(opens, full: int) -> set:
    opens_set = set(opens)
    return minimal_nonempty(u for u in opens if full & ~u in opens_set)


def mask_of(points, subset) -> int:
    index = {p: i for i, p in enumerate(points)}
    return sum(1 << index[p] for p in subset)


def parse_subset_label(label: str) -> tuple:
    """'{p0,p2}' -> ('p0', 'p2')."""
    inner = label.strip("{}")
    return tuple(inner.split(",")) if inner else ()


def preserves_order_and_incompatibility(down: tuple, images: list[int]) -> bool:
    """images[i] is the completion image of element i, as an atom mask."""
    n = len(down)
    for i in range(n):
        for j in range(n):
            if down[j] >> i & 1 and images[i] & ~images[j]:
                return False
            if not down[i] & down[j] and images[i] & images[j]:
                return False
    return True


def is_finite_sheaf(elements, leq, sections: dict, restrict: dict) -> bool:
    """The finite-scale sheaf test on a presheaf over a poset whose minimal
    elements are the points: F(W) -> prod_{m minimal below W} F(m) is a
    bijection at every level W."""
    below = {w: [v for v in elements if (v, w) in leq] for w in elements}
    minimal = [v for v in elements if below[v] == [v]]
    for w in elements:
        ms = [m for m in minimal if (m, w) in leq]
        size = prod(len(sections[m]) for m in ms)
        image = {tuple(f if m == w else restrict[m, w][f] for m in ms)
                 for f in sections[w]}
        if len(image) != len(sections[w]) or len(image) != size:
            return False
    return True


def preimage(fn: tuple, target_mask: int) -> int:
    return sum(1 << i for i, j in enumerate(fn) if target_mask >> j & 1)
