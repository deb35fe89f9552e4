"""Boolean-valued models: validation, semantics, quotients, fullness and
mixing decision procedures, morphisms, and (ultra)products.

Truth values of closed formulas live in the model's algebra itself: a finite
algebra is complete, so the boolean completion RO(B+) adds nothing and every
model here is automatically well behaved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from operator import and_, or_

from .balg import BAHom, BoolAlg, Elem, Filter, antichains, quotient
from .logic import (And, Const, Eq, Exists, Forall, Formula, Implies, Not,
                    Or, Rel, Signature, Var, free_vars, map_terms)


class ModelError(ValueError):
    pass


class UnknownConstantError(ModelError):
    def __init__(self, name: str):
        super().__init__(f"unknown constant {name!r}")
        self.name = name


@dataclass
class BVModel:
    """A B-valued interpretation: domain, equality table, relation tables,
    constant assignments.  Immutable by convention; operations are pure.
    The evaluator kept on the model reads the tables at the model's first
    evaluation, so they may be changed only before it."""

    alg: BoolAlg
    sig: Signature
    domain: tuple[str, ...]
    eq: dict  # (id, id) -> Elem
    rels: dict  # sym -> { tuple(ids) -> Elem }
    consts: dict  # constant symbol -> id

    @staticmethod
    def make(alg, domain, eq=None, rels=None, consts=None, sig=None) -> "BVModel":
        """Build a model, completing the equality table by reflexivity and
        symmetry; unspecified off-diagonal equalities and unspecified
        relation entries default to bottom."""
        domain = tuple(domain)
        if not domain:
            raise ModelError("a model needs a nonempty domain")
        if len(set(domain)) != len(domain):
            raise ModelError(f"duplicate domain ids: {domain}")
        full_eq = {}
        eq = dict(eq or {})
        for a in domain:
            for b in domain:
                if (a, b) in eq:
                    full_eq[a, b] = eq[a, b]
                elif (b, a) in eq:
                    full_eq[a, b] = eq[b, a]
                elif a == b:
                    full_eq[a, b] = alg.top
                else:
                    full_eq[a, b] = alg.bottom
        rels = {sym: dict(table) for sym, table in (rels or {}).items()}
        if sig is None:
            arities = {}
            for sym, table in rels.items():
                if not table:
                    raise ModelError(f"cannot infer the arity of empty relation {sym}")
                arities[sym] = len(next(iter(table)))
            sig = Signature.make(arities, (consts or {}).keys())
        full_rels = {}
        for sym, arity in sig.rel_arity.items():
            table = rels.get(sym, {})
            full_rels[sym] = {
                tup: table.get(tup, alg.bottom)
                for tup in product(domain, repeat=arity)
            }
        return BVModel(alg, sig, domain, full_eq, full_rels, dict(consts or {}))

    def resolve_constant(self, name: str) -> str:
        if name in self.consts:
            return self.consts[name]
        if name.startswith("c_") and name[2:] in self.domain:
            return name[2:]
        raise UnknownConstantError(name)

    @cached_property
    def _evaluator(self) -> "_Evaluator":
        return _Evaluator(self)

    @property
    def is_extensional(self) -> bool:
        return all(
            not self.eq[a, b].is_top
            for a in self.domain for b in self.domain if a != b
        )


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    extensional: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(m: BVModel) -> ValidationReport:
    """Exhaustively check the defining axioms; every violated instance is
    reported, nothing raises."""
    bad = []
    dom = m.domain
    for a in dom:
        for b in dom:
            if (a, b) not in m.eq:
                bad.append(f"equality table missing ({a},{b})")
    if bad:
        return ValidationReport(tuple(bad), False)
    for a in dom:
        if not m.eq[a, a].is_top:
            bad.append(f"reflexivity fails at {a}: [{a}={a}] = {m.eq[a,a].label}")
        for b in dom:
            if m.eq[a, b] != m.eq[b, a]:
                bad.append(f"symmetry fails at ({a},{b})")
            for c in dom:
                if not (m.eq[a, b] & m.eq[b, c]) <= m.eq[a, c]:
                    bad.append(f"transitivity fails at ({a},{b},{c})")
    for sym, arity in m.sig.rel_arity.items():
        table = m.rels.get(sym, {})
        for tup in product(dom, repeat=arity):
            if tup not in table:
                bad.append(f"relation table {sym} missing {tup}")
                continue
            for other in product(dom, repeat=arity):
                agree = m.alg.meet_all(m.eq[s, t] for s, t in zip(tup, other))
                if not (agree & table[tup]) <= table.get(other, m.alg.bottom):
                    bad.append(f"congruence fails for {sym} at {tup} -> {other}")
    for c, target in m.consts.items():
        if target not in dom:
            bad.append(f"constant {c} maps outside the domain: {target}")
    extensional = not bad and m.is_extensional
    return ValidationReport(tuple(bad), extensional)


def eval_formula(m: BVModel, f: Formula, env: dict | None = None) -> Elem:
    """The boolean truth value of a formula under env (variable -> id):
    meet, join and complement, the quantifiers finite joins and meets over
    the domain, computed on bitmasks by the model's evaluator."""
    return Elem(m.alg, m._evaluator.bits(f, env or {}))


class _Evaluator:
    """[f] as a bitmask, on the model's tables read into ints and its
    constants resolved once.  It keeps no reference to the model, so no
    cycle delays freeing the model."""

    def __init__(self, m: BVModel):
        self.domain, self.top = m.domain, m.alg.top.bits
        self.eq = {pair: v.bits for pair, v in m.eq.items()}
        self.rels = {sym: {tup: v.bits for tup, v in table.items()}
                     for sym, table in m.rels.items()}
        self.consts = {c: m.resolve_constant(c)
                       for c in (*m.consts, *(f"c_{d}" for d in m.domain))}

    def bits(self, f: Formula, env: dict) -> int:
        """Every subformula is evaluated, so a bad term always raises."""
        kind = type(f)
        if kind is Exists or kind is Forall:
            inner, vals = dict(env), []
            for d in self.domain:
                inner[f.var] = d
                vals.append(self.bits(f.body, inner))
            if kind is Exists:
                return reduce(or_, vals, 0)
            return reduce(and_, vals, self.top)
        if kind is And:
            return self.bits(f.lhs, env) & self.bits(f.rhs, env)
        if kind is Eq:
            return self._lookup(self.eq, (f.lhs, f.rhs), env)
        if kind is Rel:
            return self._lookup(self.rels[f.sym], f.args, env)
        if kind is Not:
            return self.top & ~self.bits(f.body, env)
        if kind is Or:
            return self.bits(f.lhs, env) | self.bits(f.rhs, env)
        if kind is Implies:
            return self.top & ~self.bits(f.lhs, env) | self.bits(f.rhs, env)
        raise TypeError(f"not a formula: {f!r}")

    def _lookup(self, table: dict, terms, env: dict) -> int:
        """The table entry at the ids of terms, resolved left to right."""
        key = tuple([self._id(t, env) for t in terms])
        try:
            return table[key]
        except KeyError:
            for t, d in zip(terms, key):
                if isinstance(t, Var) and d not in self.domain:
                    raise ModelError(f"variable {t.name!r} is bound to {d!r}, "
                                     "which is not in the domain") from None
            raise

    def _id(self, t, env: dict) -> str:
        if isinstance(t, Var):
            if t.name not in env:
                raise ModelError(f"free variable {t.name!r} in a closed evaluation")
            return env[t.name]
        if t.name not in self.consts:
            raise UnknownConstantError(t.name)
        return self.consts[t.name]


def quotient_model(m: BVModel, f: Filter) -> BVModel:
    """M/F over B/F: the domain collapses to equivalence classes
    (sigma ~ tau iff [sigma=tau] in F) represented by their least id, and all
    truth values are pushed through the projection b |-> b /\\ gen."""
    qalg, proj = quotient(m.alg, f)
    rep = _class_reps(m, f)
    reps = tuple(r for r in m.domain if rep[r] == r)
    eq = {(a, b): proj(m.eq[a, b]) for a in reps for b in reps}
    rels = {
        sym: {tup: proj(val)
              for tup, val in table.items() if all(rep[t] == t for t in tup)}
        for sym, table in m.rels.items()
    }
    consts = {c: rep[t] for c, t in m.consts.items()}
    return BVModel(qalg, m.sig, reps, eq, rels, consts)


def _class_reps(m: BVModel, f: Filter) -> dict:
    """Class representative for each element: the least id in its class."""
    return {
        a: min(b for b in m.domain if m.eq[b, a] in f)
        for a in m.domain
    }


@dataclass(frozen=True)
class TarskiModel:
    """An ordinary two-valued structure; equality is identity of elements.
    aliases resolve element constants of a model this arose from as a
    quotient (original id -> class representative)."""

    sig: Signature
    domain: tuple[str, ...]
    rels: dict
    consts: dict
    aliases: dict = field(default_factory=dict)

    def resolve_constant(self, name: str) -> str:
        if name in self.consts:
            return self.consts[name]
        if name.startswith("c_"):
            raw = name[2:]
            if raw in self.aliases:
                return self.aliases[raw]
            if raw in self.domain:
                return raw
        raise UnknownConstantError(name)


def tarski_quotient(m: BVModel, g: Filter) -> TarskiModel:
    """M/G for an ultrafilter G, as a Tarski structure.  This is the
    independent oracle used by the Los checks."""
    if not g.is_ultrafilter:
        raise ModelError("tarski_quotient needs an ultrafilter")
    rep = _class_reps(m, g)
    reps = tuple(r for r in m.domain if rep[r] == r)
    rels = {
        sym: frozenset(
            tup for tup, val in table.items()
            if all(rep[t] == t for t in tup) and val in g
        )
        for sym, table in m.rels.items()
    }
    consts = {c: rep[t] for c, t in m.consts.items()}
    return TarskiModel(m.sig, reps, rels, consts, dict(rep))


def satisfies(t: TarskiModel, f: Formula, env: dict | None = None) -> bool:
    env = env or {}

    def term(x):
        if isinstance(x, Var):
            return env[x.name]
        return t.resolve_constant(x.name)

    if isinstance(f, Rel):
        return tuple(term(a) for a in f.args) in t.rels.get(f.sym, frozenset())
    if isinstance(f, Eq):
        return term(f.lhs) == term(f.rhs)
    if isinstance(f, Not):
        return not satisfies(t, f.body, env)
    if isinstance(f, And):
        return satisfies(t, f.lhs, env) and satisfies(t, f.rhs, env)
    if isinstance(f, Or):
        return satisfies(t, f.lhs, env) or satisfies(t, f.rhs, env)
    if isinstance(f, Implies):
        return not satisfies(t, f.lhs, env) or satisfies(t, f.rhs, env)
    if isinstance(f, Exists):
        return any(satisfies(t, f.body, {**env, f.var: d}) for d in t.domain)
    if isinstance(f, Forall):
        return all(satisfies(t, f.body, {**env, f.var: d}) for d in t.domain)
    raise TypeError(f"not a formula: {f!r}")


# -- canonical bounded formula pools ---------------------------------------

def _spread(seq: list, k: int) -> list:
    """Deterministic evenly-strided subsample of at most k items."""
    if len(seq) <= k:
        return list(seq)
    step = len(seq) / k
    return [seq[int(i * step)] for i in range(k)]


def _atomic(sig: Signature, terms: list) -> list[Formula]:
    out = [Eq(a, b) for a in terms for b in terms]
    for sym, arity in sig.rel_arity.items():
        out.extend(Rel(sym, tup) for tup in product(terms, repeat=arity))
    return out


def generalize(f: Formula, const: str, var: str) -> Formula:
    """Replace every occurrence of the constant by a (fresh) variable."""

    def term(t, bound):
        return Var(var) if isinstance(t, Const) and t.name == const else t

    return map_terms(f, term)


def open_pool(sig: Signature, elements, var: str, max_conj_atoms: int = 20):
    """Canonical one-free-variable formulas: the atoms mentioning the
    variable, their negations, and their pairwise conjunctions.  Built once
    per key (sig, tuple(elements), var, max_conj_atoms); each call returns a
    fresh list."""
    return list(_open_pool(sig, tuple(elements), var, max_conj_atoms))


@lru_cache(maxsize=64)
def _open_pool(sig: Signature, elements: tuple, var: str,
               max_conj_atoms: int) -> tuple:
    consts = [Const(f"c_{e}") for e in elements]
    atoms = list(dict.fromkeys(a for a in _atomic(sig, consts + [Var(var)])
                               if var in free_vars(a)))
    conj_base = _spread(atoms, max_conj_atoms)
    pool = list(atoms)
    pool.extend(Not(a) for a in atoms)
    pool.extend(And(a, b) for i, a in enumerate(conj_base)
                for b in conj_base[i + 1:])
    return tuple(dict.fromkeys(pool))


def closed_pool(sig: Signature, elements, depth: int,
                max_nested: int = 48, max_conj_atoms: int = 20):
    """Canonical closed formulas to the given quantifier depth: closed atoms
    and their negations, then per level the existential closures of the open
    pool plus nested quantifications obtained by re-generalizing a strided
    selection of the previous level's quantified formulas.  Built once per
    key (sig, tuple(elements), depth, max_nested, max_conj_atoms); each call
    returns a fresh list."""
    return list(_closed_pool(sig, tuple(elements), depth, max_nested,
                             max_conj_atoms))


@lru_cache(maxsize=64)
def _closed_pool(sig: Signature, elements: tuple, depth: int,
                 max_nested: int, max_conj_atoms: int) -> tuple:
    consts = [Const(f"c_{e}") for e in elements]
    closed_atoms = list(dict.fromkeys(_atomic(sig, consts)))
    pool = list(closed_atoms)
    pool.extend(Not(a) for a in closed_atoms)
    prev_quantified: list[Formula] = []
    for d in range(1, depth + 1):
        var = f"x{d}"
        level = [Exists(var, f)
                 for f in _open_pool(sig, elements, var, max_conj_atoms)]
        nested = []
        for f in _spread(prev_quantified, max_nested):
            for e in elements:
                g = generalize(f, f"c_{e}", var)
                if g != f:
                    nested.append(Exists(var, g))
        level.extend(dict.fromkeys(nested))
        level.append(Exists(var, Eq(Var(var), Var(var))))
        level.append(Forall(var, Eq(Var(var), Var(var))))
        pool.extend(level)
        prev_quantified = level
    return tuple(dict.fromkeys(pool))


# -- fullness (Los) and mixing ----------------------------------------------

@dataclass(frozen=True)
class FullnessReport:
    full: bool
    los_mismatches: tuple
    witness_covers: tuple  # (formula, cover tuple) pairs for E-rooted formulas
    procedures_agree: bool
    formulas_checked: int

    @property
    def ok(self) -> bool:
        return self.full and self.procedures_agree


def is_full(m: BVModel, depth: int = 2, formulas=None) -> FullnessReport:
    """Two independent fullness procedures, compared.

    (a) Los test: for every ultrafilter G and generated closed formula f,
        M/G |= f  iff  [f] in G (the Tarski quotient is the oracle).
    (b) witness covers: for every E-rooted formula, the truth value of the
        existential is attained by a finite (recorded, minimal) set of
        witnesses.

    The equivalence of (a) and (b) is a theorem; the report asserts it on
    the instance.  An E-rooted formula's body is evaluated once at each d:
    the join is its value, and the cover is read off the same values.  Every
    existential is a finite join, so (b) always finds a cover and
    procedures_agree reduces to full; (a) tests the evaluator.
    """
    pool = formulas if formulas is not None else closed_pool(
        m.sig, m.domain, depth)
    values, covers = [], []
    for f in pool:
        if isinstance(f, Exists):
            body = {d: m._evaluator.bits(f.body, {f.var: d}) for d in m.domain}
            value = reduce(or_, body.values(), 0)
            covers.append((f, _smallest_cover(body, value)))
        else:
            value = m._evaluator.bits(f, {})
        values.append((f, value))
    mismatches = []
    for g_atom in m.alg.atom_elems():
        g = Filter(m.alg, g_atom)
        t = tarski_quotient(m, g)
        for f, value in values:
            if satisfies(t, f) != bool(value & g_atom.bits):
                mismatches.append((g.label, f))
    covers_ok = all(cover is not None for _, cover in covers)
    full = not mismatches
    return FullnessReport(full, tuple(mismatches), tuple(covers),
                          full == covers_ok, len(pool))


def _smallest_cover(vals: dict, total: int):
    """The first key combination, smallest first and in key order, whose
    bitmasks join to total; None if there is none."""
    for size in range(len(vals) + 1):
        for combo in combinations(vals, size):
            joined = 0
            for k in combo:
                joined |= vals[k]
            if joined == total:
                return combo
    return None


@dataclass(frozen=True)
class MixingReport:
    passed: bool
    witness: tuple | None  # (antichain labels, assignment dict) on failure
    antichains_checked: int


def has_mixing(m: BVModel, max_antichain: int | None = None) -> MixingReport:
    """Search every antichain (size ascending) and every assignment of
    domain elements to its members for a missing mixer; the first failure is
    the reported witness."""
    checked = 0
    for chain in antichains(m.alg, max_antichain):
        checked += 1
        for assignment in product(m.domain, repeat=len(chain)):
            if not _has_mixer(m, chain, assignment):
                witness = (
                    tuple(a.label for a in chain),
                    dict(zip((a.label for a in chain), assignment)),
                )
                return MixingReport(False, witness, checked)
    return MixingReport(True, None, checked)


def _has_mixer(m: BVModel, chain, assignment) -> bool:
    return any(
        all(a <= m.eq[tau, tau_a] for a, tau_a in zip(chain, assignment))
        for tau in m.domain
    )


# -- products and ultraproducts ----------------------------------------------

def product_model(factors: list[TarskiModel]) -> BVModel:
    """The P(I)-valued model of choice functions over the factors;
    [R(fbar)] is the set of indices where the factors satisfy R."""
    if not factors:
        raise ModelError("a product needs at least one factor")
    sig = factors[0].sig
    if any(t.sig != sig for t in factors):
        raise ModelError("factors must share a signature")
    if any("." in d for t in factors for d in t.domain):
        raise ModelError("factor element ids may not contain '.'")
    alg = BoolAlg(tuple(f"i{k}" for k in range(len(factors))))
    choices = [".".join(tup) for tup in product(*(t.domain for t in factors))]
    parts = {c: c.split(".") for c in choices}
    eq = {
        (f, g): alg.from_labels(
            f"i{k}" for k in range(len(factors)) if parts[f][k] == parts[g][k]
        )
        for f in choices for g in choices
    }
    rels = {}
    for sym, arity in sig.rel_arity.items():
        table = {}
        for tup in product(choices, repeat=arity):
            table[tup] = alg.from_labels(
                f"i{k}" for k, t in enumerate(factors)
                if tuple(parts[f][k] for f in tup) in t.rels.get(sym, frozenset())
            )
        rels[sym] = table
    consts = {
        c: ".".join(t.consts[c] for t in factors)
        for c in factors[0].consts
    }
    return BVModel(alg, sig, tuple(choices), eq, rels, consts)


def ultraproduct(factors: list[TarskiModel], g: Filter) -> TarskiModel:
    return tarski_quotient(product_model(factors), g)


# -- morphisms ----------------------------------------------------------------

@dataclass
class BVMorphism:
    source: BVModel
    target: BVModel
    i: BAHom
    phi: dict  # source domain -> target domain


@dataclass(frozen=True)
class MorphismReport:
    is_morphism: bool
    is_embedding: bool
    is_isomorphism: bool
    violations: tuple


def check_morphism(mor: BVMorphism) -> MorphismReport:
    m, n, i, phi = mor.source, mor.target, mor.i, mor.phi
    bad = []
    if i.source != m.alg or i.target != n.alg:
        bad.append("algebra map does not connect the model algebras")
        return MorphismReport(False, False, False, tuple(bad))
    if set(phi) != set(m.domain) or not set(phi.values()) <= set(n.domain):
        bad.append("domain map is not total into the target domain")
        return MorphismReport(False, False, False, tuple(bad))
    exact = True
    for c, t in m.consts.items():
        if n.consts.get(c) != phi[t]:
            bad.append(f"constant {c} not preserved")
    for a in m.domain:
        for b in m.domain:
            lhs, rhs = i(m.eq[a, b]), n.eq[phi[a], phi[b]]
            if not lhs <= rhs:
                bad.append(f"equality inequality fails at ({a},{b})")
            elif lhs != rhs:
                exact = False
    for sym, table in m.rels.items():
        for tup, val in table.items():
            lhs = i(val)
            rhs = n.rels[sym][tuple(phi[t] for t in tup)]
            if not lhs <= rhs:
                bad.append(f"relation inequality fails for {sym} at {tup}")
            elif lhs != rhs:
                exact = False
    is_morphism = not bad
    is_embedding = is_morphism and exact
    onto = all(
        any(n.eq[phi[s], t].is_top for s in m.domain) for t in n.domain
    )
    is_iso = is_embedding and mor.i.is_isomorphism and onto
    return MorphismReport(is_morphism, is_embedding, is_iso, tuple(bad))


def transport(f: Formula, phi: dict) -> Formula:
    """Rename the element constants of a formula along a domain map."""

    def term(t, bound):
        if isinstance(t, Const) and t.name.startswith("c_") and t.name[2:] in phi:
            return Const(f"c_{phi[t.name[2:]]}")
        return t

    return map_terms(f, term)


def is_elementary(mor: BVMorphism, depth: int = 2) -> bool:
    """i([f]_M) = [f-transported]_N for every generated closed formula."""
    pool = closed_pool(mor.source.sig, mor.source.domain, depth)
    for f in pool:
        lhs = mor.i(eval_formula(mor.source, f))
        rhs = eval_formula(mor.target, transport(f, mor.phi))
        if lhs != rhs:
            return False
    return True


# -- fixed validity list and random models -----------------------------------

def standard_validities(m: BVModel) -> list[Formula]:
    """Ten classical validities instantiated in the model's own signature
    (needs at least one relation symbol); each must evaluate to the top
    truth value."""
    if not m.sig.relations:
        raise ModelError("the validity list needs a relation symbol")
    c0 = Const(f"c_{m.domain[0]}")
    c1 = Const(f"c_{m.domain[-1]}")
    sym, arity = next(iter(m.sig.rel_arity.items()))
    a = Rel(sym, (c0,) * arity)
    b = Rel(sym, (c1,) * arity)
    x, y = Var("x"), Var("y")
    phi_x = Rel(sym, (x,) * arity)
    psi_xy = Eq(x, y)
    return [
        Or(a, Not(a)),
        Not(And(a, Not(a))),
        Implies(a, a),
        Exists("x", Eq(x, x)),
        Forall("x", Eq(x, x)),
        Or(Implies(a, b), Implies(b, a)),
        And(Implies(Not(Exists("x", phi_x)), Forall("x", Not(phi_x))),
            Implies(Forall("x", Not(phi_x)), Not(Exists("x", phi_x)))),
        Implies(Forall("x", phi_x), Rel(sym, (c0,) * arity)),
        Implies(Rel(sym, (c0,) * arity), Exists("x", phi_x)),
        Implies(Exists("x", Forall("y", psi_xy)),
                Forall("y", Exists("x", psi_xy))),
    ]


def random_model(rng: random.Random, max_atoms: int = 3,
                 max_domain: int = 4) -> BVModel:
    """A random valid model: random tables repaired to satisfy the equality
    axioms (transitive closure in the algebra) and congruence (saturation)."""
    alg = BoolAlg(tuple(f"a{i+1}" for i in range(rng.randint(1, max_atoms))))
    elems = list(alg.elements())
    dom = tuple(f"d{i}" for i in range(rng.randint(2, max_domain)))
    eq = {}
    for i, a in enumerate(dom):
        eq[a, a] = alg.top
        for b in dom[i + 1:]:
            v = rng.choice(elems)
            eq[a, b] = eq[b, a] = v
    changed = True
    while changed:
        changed = False
        for a in dom:
            for b in dom:
                for c in dom:
                    need = eq[a, b] & eq[b, c]
                    if not need <= eq[a, c]:
                        eq[a, c] = eq[c, a] = eq[a, c] | need
                        changed = True
    n_rels = rng.choice([1, 1, 1, 2])
    arities = {}
    for k in range(n_rels):
        arities["RQ"[k]] = rng.randint(1, 2)
    rels = {}
    for sym, arity in arities.items():
        table = {tup: rng.choice(elems) for tup in product(dom, repeat=arity)}
        changed = True
        while changed:
            changed = False
            for tup in table:
                for other in table:
                    agree = alg.meet_all(eq[s, t] for s, t in zip(tup, other))
                    need = agree & table[tup]
                    if not need <= table[other]:
                        table[other] = table[other] | need
                        changed = True
        rels[sym] = table
    consts = {"k": rng.choice(dom)} if rng.random() < 0.3 else {}
    sig = Signature.make(arities, consts.keys())
    return BVModel(alg, sig, dom, eq, rels, consts)
