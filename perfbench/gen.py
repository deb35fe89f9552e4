"""Seeded input generators for the benchmark.

Everything here is plain data (tuples, dicts, ints): no library object is
built until an item runs, so a change to the library cannot change the
inputs.  Truth values are bitmasks over the atom list, point sets are
bitmasks over the point list.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product


def bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def interleave(groups: list[list]) -> list:
    """Merge the groups so that every prefix holds each group in proportion
    to its size (each member sits at its fractional position in its group).
    A time-limited run then sees the same mix whatever its length."""
    keyed = []
    for g, items in enumerate(groups):
        n = len(items)
        keyed.extend(((j + 0.5) / n, g, j, item) for j, item in enumerate(items))
    keyed.sort(key=lambda k: k[:3])
    return [k[3] for k in keyed]


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering of the generated inputs."""
    text = json.dumps(_canon(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _canon(x):
    if isinstance(x, dict):
        return sorted(([_canon(k), _canon(v)] for k, v in x.items()), key=repr)
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((_canon(v) for v in x), key=repr)
    return x


# -- boolean valued models --------------------------------------------------

def model_spec(rng: random.Random, n_atoms: int, n_dom: int, arities: tuple,
               const: bool) -> dict:
    """A random valid model with the given shape, drawn the way the
    acceptance suite draws its sample: uniform truth values for equality
    closed under transitivity, then uniform relation values saturated under
    congruence.  Every valid model over a powerset algebra arises this way."""
    top = (1 << n_atoms) - 1
    dom = tuple(f"d{i}" for i in range(n_dom))
    eq = [[top if i == j else 0 for j in range(n_dom)] for i in range(n_dom)]
    for i in range(n_dom):
        for j in range(i + 1, n_dom):
            eq[i][j] = eq[j][i] = rng.randint(0, top)
    changed = True
    while changed:
        changed = False
        for i in range(n_dom):
            for j in range(n_dom):
                for k in range(n_dom):
                    need = eq[i][j] & eq[j][k]
                    if need & ~eq[i][k]:
                        eq[i][k] = eq[k][i] = eq[i][k] | need
                        changed = True
    rels = {}
    for sym, arity in zip("RQ", arities):
        tuples = list(product(range(n_dom), repeat=arity))
        table = {t: rng.randint(0, top) for t in tuples}
        changed = True
        while changed:
            changed = False
            for t in tuples:
                for u in tuples:
                    agree = top
                    for a, b in zip(t, u):
                        agree &= eq[a][b]
                    need = agree & table[t]
                    if need & ~table[u]:
                        table[u] |= need
                        changed = True
        rels[sym] = {tuple(dom[i] for i in t): v for t, v in table.items()}
    return {
        "atoms": tuple(f"a{i + 1}" for i in range(n_atoms)),
        "domain": dom,
        "eq": {(dom[i], dom[j]): eq[i][j] for i in range(n_dom) for j in range(n_dom)},
        "arities": dict(zip("RQ", arities)),
        "rels": rels,
        "consts": {"k": rng.choice(dom)} if const else {},
    }


# The acceptance suite's shape distribution: one relation three times in
# four, two otherwise, each of arity 1 or 2 with equal odds.  Eight slots
# reproduce it exactly; a round crosses them with every atom and domain size.
_SIGNATURE_SLOTS = ((1,), (1,), (1,), (2,), (2,), (2,), "pair", "pair")


def model_round(rng: random.Random, atom_counts, dom_sizes) -> list[dict]:
    """One stratified round of models: every (atoms, domain size, signature
    slot) cell once, with a constant three times in ten."""
    cells = []
    for n_atoms in atom_counts:
        for n_dom in dom_sizes:
            for slot in _SIGNATURE_SLOTS:
                arities = (rng.randint(1, 2), rng.randint(1, 2)) if slot == "pair" else slot
                cells.append(model_spec(rng, n_atoms, n_dom, arities,
                                        rng.random() < 0.3))
    rng.shuffle(cells)
    return cells


# -- spaces and posets --------------------------------------------------------

def preorders(n: int) -> list[tuple]:
    """Every preorder on range(n), as a tuple of down-set masks
    (down[i] = the j with j <= i)."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for mask in range(1 << len(pairs)):
        down = [1 << i for i in range(n)]
        for k, (a, b) in enumerate(pairs):
            if mask >> k & 1:
                down[b] |= 1 << a
        if all(down[b] | down[a] == down[b]
               for b in range(n) for a in bits(down[b])):
            out.append(tuple(down))
    return out


def is_antisymmetric(down: tuple) -> bool:
    return all(not (down[a] >> b & 1) for b in range(len(down))
               for a in bits(down[b]) if a != b)


def downset_family(down: tuple) -> tuple:
    """All down-closed masks of a preorder: the opens of its topology."""
    n = len(down)
    return tuple(s for s in range(1 << n)
                 if all(down[i] | s == s for i in bits(s)))


def topologies(n: int) -> list[tuple]:
    """Every topology on n points (as sorted open masks); a finite topology
    is exactly the down-set family of its specialization preorder."""
    return sorted({downset_family(d) for d in preorders(n)},
                  key=lambda fam: (len(fam), fam))


def posets(n: int) -> list[tuple]:
    return [d for d in preorders(n) if is_antisymmetric(d)]


def space_spec(prefix: str, n: int, opens: tuple) -> dict:
    return {"points": tuple(f"{prefix}{i}" for i in range(n)), "opens": opens}


def is_open_map(src: dict, tgt: dict, fn: tuple) -> bool:
    """fn (target index per source point) is continuous and open."""
    def image(s):
        out = 0
        for i in bits(s):
            out |= 1 << fn[i]
        return out

    def preimage(t):
        return sum(1 << i for i, j in enumerate(fn) if t >> j & 1)

    src_opens, tgt_opens = set(src["opens"]), set(tgt["opens"])
    return (all(preimage(v) in src_opens for v in tgt["opens"])
            and all(image(u) in tgt_opens for u in src["opens"]))


def stratified_sample(rng: random.Random, items: list, key, count: int) -> list:
    """A seeded sample of about count items, drawn from each class of key
    in proportion to its size, so every seed gets the same mix of classes."""
    classes: dict = {}
    for item in items:
        classes.setdefault(key(item), []).append(item)
    out = []
    for k in sorted(classes):
        group = classes[k]
        out.extend(rng.sample(group, round(count * len(group) / len(items))))
    return out


def open_maps(rng: random.Random, count: int, spaces: list[dict]) -> list[dict]:
    """A seeded sample of open continuous maps between the given spaces;
    constant maps onto one point are allowed like any other."""
    out = []
    while len(out) < count:
        src, tgt = rng.choice(spaces), rng.choice(spaces)
        fn = tuple(rng.randrange(len(tgt["points"])) for _ in src["points"])
        if is_open_map(src, tgt, fn):
            out.append({"source": src, "target": tgt, "fn": fn})
    return out


def presheaf_spec(rng: random.Random, space: dict, stalk: tuple) -> dict:
    """A random presheaf on the nonempty opens: each level holds a random
    set of point-wise choices from the stalks (stalk[p] values at point p),
    some of them tagged twice (so the presheaf need not be separated),
    closed under restriction (restriction forgets the tag)."""
    levels = sorted((u for u in space["opens"] if u), key=lambda u: -bin(u).count("1"))
    chosen = {u: set() for u in levels}
    for u in levels:
        pts = list(bits(u))
        for choice in product(*(range(stalk[p]) for p in pts)):
            if rng.random() < 0.6:
                fam = tuple(zip(pts, choice))
                chosen[u].add((fam, 0))
                if rng.random() < 0.3:
                    chosen[u].add((fam, 1))
        if not chosen[u]:
            chosen[u].add((tuple((p, 0) for p in pts), 0))
    for u in levels:  # largest first, so added sections are restricted too
        for v in levels:
            if v != u and v & u == v:
                for fam, _ in list(chosen[u]):
                    chosen[v].add((tuple(pc for pc in fam if v >> pc[0] & 1), 0))
    ids = {u: {sec: f"s{k}" for k, sec in enumerate(sorted(chosen[u]))} for u in levels}
    restrict = {}
    for u in levels:
        for v in levels:
            if v != u and v & u == v:
                restrict[v, u] = {
                    ids[u][(fam, t)]: ids[v][(tuple(pc for pc in fam if v >> pc[0] & 1), 0)]
                    for fam, t in chosen[u]}
    return {"space": space,
            "sections": {u: tuple(sorted(ids[u].values())) for u in levels},
            "restrict": restrict}
