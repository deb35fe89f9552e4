"""Boolean-valued models: validation, semantics, quotients, fullness and
mixing decision procedures, morphisms, and (ultra)products.

Truth values of closed formulas live in the model's algebra itself: a finite
algebra is complete, so the boolean completion RO(B+) adds nothing and every
model here is automatically well behaved.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from math import comb, factorial, prod
from operator import and_, or_

from .balg import AlgebraError, BAHom, BoolAlg, Elem, Filter, quotient
from .logic import (And, Const, Eq, Exists, Forall, Formula, Implies, Not,
                    Or, Rel, Signature, Var, free_vars, map_terms)
from .record import Record, field


class ModelError(ValueError):
    pass


class UnknownConstantError(ModelError):
    def __init__(self, name: str):
        super().__init__(f"unknown constant {name!r}")
        self.name = name


class BVModel(Record, frozen=False):
    """A B-valued interpretation: domain, equality table, relation tables,
    constant assignments.  Immutable by convention; operations are pure.
    The evaluator kept on the model reads the tables at the model's first
    evaluation, L, mixing check or quotient, all of which read its int
    tables, and bridge.L(m) is kept on the model from its first call; so
    the tables may be changed only before the first of these."""

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


class ValidationReport(Record):
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
            elif not _in_alg(m, m.eq[a, b]):
                bad.append(f"equality entry ({a},{b}) is not an element of {m.alg}")
    for sym, table in m.rels.items():
        for tup, val in table.items():
            if not _in_alg(m, val):
                bad.append(f"relation table {sym} entry {tup} is not an "
                           f"element of {m.alg}")
    if bad:
        return ValidationReport(tuple(bad), False)
    # every entry is now an Elem of m.alg: the axioms run on its bits
    eq = {pair: v.bits for pair, v in m.eq.items()}
    top = m.alg.top.bits
    for a in dom:
        if eq[a, a] != top:
            bad.append(f"reflexivity fails at {a}: [{a}={a}] = {m.eq[a,a].label}")
        for b in dom:
            ab = eq[a, b]
            if ab != eq[b, a]:
                bad.append(f"symmetry fails at ({a},{b})")
            for c in dom:
                if ab & eq[b, c] & ~eq[a, c]:
                    bad.append(f"transitivity fails at ({a},{b},{c})")
    for sym, arity in m.sig.rel_arity.items():
        table = {tup: v.bits for tup, v in m.rels.get(sym, {}).items()}
        for tup in product(dom, repeat=arity):
            if tup not in table:
                bad.append(f"relation table {sym} missing {tup}")
                continue
            for other in product(dom, repeat=arity):
                held = table[tup]
                for s, t in zip(tup, other):
                    held &= eq[s, t]
                if held & ~table.get(other, 0):
                    bad.append(f"congruence fails for {sym} at {tup} -> {other}")
    for c, target in m.consts.items():
        if target not in dom:
            bad.append(f"constant {c} maps outside the domain: {target}")
    extensional = not bad and m.is_extensional
    return ValidationReport(tuple(bad), extensional)


def _in_alg(m: BVModel, v) -> bool:
    return isinstance(v, Elem) and (v.alg is m.alg or v.alg == m.alg)


def eval_formula(m: BVModel, f: Formula, env: dict | None = None) -> Elem:
    """The boolean truth value of a formula under env (variable -> id):
    meet, join and complement, the quantifiers finite joins and meets over
    the domain, computed on bitmasks by the model's evaluator.  With no env
    the value of the closed node f is kept in the evaluator's memo under
    id(f): an equal formula that is another object is evaluated again."""
    ev = m._evaluator
    if env:
        return Elem(m.alg, ev.bits(f, env))
    if (hit := ev.closed.get(id(f))) is None:
        hit = ev.closed[id(f)] = (*_closed_value(ev, f, ev.cols), f)
    return Elem(m.alg, hit[0])


def _closed_value(ev: "_Evaluator", f: Formula, cols: dict) -> tuple:
    """([f], column) for a closed f: for an E-rooted f, the body's column as
    _column keeps it in cols, shared, so never mutated; otherwise None."""
    if not isinstance(f, Exists):
        return _EVAL[type(f)](ev, {}, f), None
    col = _column(ev, f.var, f.body, cols)
    return reduce(or_, col, 0), col


def _column(ev: "_Evaluator", var: str, f, cols: dict) -> list:
    """f's values with var bound to each domain element in turn, and nothing
    else bound.  A _COLUMN node combines its children's columns elementwise;
    others run their _EVAL runner per element under one env rebinding var.
    Kept in cols under (id(f), var), with f, so the id is not reused."""
    if (hit := cols.get(key := (id(f), var))) is not None:
        return hit[0]
    if (combine := _COLUMN.get(type(f))) is None:
        run, env, col = _EVAL[type(f)], {}, []
        for d in ev.domain:
            env[var] = d
            col.append(run(ev, env, f))
    elif type(f) is Not:
        col = combine(ev.top, _column(ev, var, f.body, cols))
    else:
        col = combine(ev.top, _column(ev, var, f.lhs, cols),
                      _column(ev, var, f.rhs, cols))
    cols[key] = col, f
    return col


class _Evaluator:
    """[f] as a bitmask, on the model's tables read into ints and its constants
    resolved once; reps holds _class_reps' dict per mask, closed maps id(f) to
    _closed_value's (bits, column) and f per closed formula eval_formula was
    given (f kept, so its id is not reused), cols the columns read for them.
    It holds no reference to the model, so no cycle delays freeing it."""

    def __init__(self, m: BVModel):
        self.domain, self.top, self.reps = m.domain, m.alg.top.bits, {}
        self.closed, self.cols = {}, {}
        self.eq = {pair: v.bits for pair, v in m.eq.items()}
        self.rels = {sym: {tup: v.bits for tup, v in table.items()}
                     for sym, table in m.rels.items()}
        self.consts = {c: m.resolve_constant(c)
                       for c in (*m.consts, *(f"c_{d}" for d in m.domain))}

    def bits(self, f: Formula, env: dict) -> int:
        """Every subformula is evaluated, so a bad term always raises."""
        return _EVAL[type(f)](self, env, f)

    def _lookup(self, sym, terms, env: dict) -> int:
        """The entry of relation sym (equality if None) at the ids of terms,
        resolved left to right: the runners' slow path, naming what is wrong."""
        table = self.eq if sym is None else self.rels.get(sym)
        if table is None:
            raise ModelError(f"unknown relation symbol {sym!r}")
        key = tuple([self._id(t, env) for t in terms])
        if key in table:
            return table[key]
        for t, d in zip(terms, key):
            if isinstance(t, Var) and d not in self.domain:
                raise ModelError(f"variable {t.name!r} is bound to {d!r}, "
                                 "which is not in the domain")
        arity = len(next(iter(table), key))
        if len(key) != arity:
            raise ModelError(f"relation {sym!r} has arity {arity}, "
                             f"given {len(key)} terms")
        raise ModelError(f"no table entry at {key}")

    def _id(self, t, env: dict) -> str:
        if isinstance(t, Var):
            if t.name not in env:
                raise ModelError(f"free variable {t.name!r} in a closed evaluation")
            return env[t.name]
        if t.name not in self.consts:
            raise UnknownConstantError(t.name)
        return self.consts[t.name]


class _EvalRunners(dict):
    """The evaluator's runner run(ev, env, f) per node class."""

    def __missing__(self, kind):
        return _eval_unknown


def _eval_unknown(ev, env, f):
    raise TypeError(f"not a formula: {f!r}")


def _eval_eq(ev, env, f):
    lhs, rhs = f.lhs, f.rhs
    try:
        return ev.eq[env[lhs.name] if type(lhs) is Var else ev.consts[lhs.name],
                     env[rhs.name] if type(rhs) is Var else ev.consts[rhs.name]]
    except KeyError:
        return ev._lookup(None, (lhs, rhs), env)


def _eval_rel(ev, env, f):
    args = f.args
    try:
        if len(args) == 1:  # inline keys: a list comprehension costs a frame
            a, = args
            key = env[a.name] if type(a) is Var else ev.consts[a.name],
        elif len(args) == 2:
            a, b = args
            key = (env[a.name] if type(a) is Var else ev.consts[a.name],
                   env[b.name] if type(b) is Var else ev.consts[b.name])
        else:
            key = tuple([env[t.name] if type(t) is Var else ev.consts[t.name]
                         for t in args])
        return ev.rels[f.sym][key]
    except KeyError:
        return ev._lookup(f.sym, args, env)


def _eval_exists(ev, env, f):
    inner, run, out = dict(env), _EVAL[type(f.body)], 0
    for d in ev.domain:
        inner[f.var] = d
        out |= run(ev, inner, f.body)
    return out


def _eval_forall(ev, env, f):
    inner, run, out = dict(env), _EVAL[type(f.body)], ev.top
    for d in ev.domain:
        inner[f.var] = d
        out &= run(ev, inner, f.body)
    return out


# Both sides of every connective are evaluated, so a bad term always raises.
_EVAL = _EvalRunners({
    Eq: _eval_eq, Rel: _eval_rel, Exists: _eval_exists, Forall: _eval_forall,
    Not: lambda ev, env, f: ev.top & ~_EVAL[type(f.body)](ev, env, f.body),
    And: lambda ev, env, f: (_EVAL[type(f.lhs)](ev, env, f.lhs)
                             & _EVAL[type(f.rhs)](ev, env, f.rhs)),
    Or: lambda ev, env, f: (_EVAL[type(f.lhs)](ev, env, f.lhs)
                            | _EVAL[type(f.rhs)](ev, env, f.rhs)),
    Implies: lambda ev, env, f: (ev.top & ~_EVAL[type(f.lhs)](ev, env, f.lhs)
                                 | _EVAL[type(f.rhs)](ev, env, f.rhs)),
})

# _column's combinators; both sides are built, so a bad term always raises.
_COLUMN = {Not: lambda top, a: [top & ~x for x in a],
           And: lambda top, a, b: list(map(and_, a, b)),
           Or: lambda top, a, b: list(map(or_, a, b)),
           Implies: lambda top, a, b: [top & ~x | y for x, y in zip(a, b)]}


def quotient_model(m: BVModel, f: Filter) -> BVModel:
    """M/F over B/F: the domain collapses to equivalence classes
    (sigma ~ tau iff [sigma=tau] in F) represented by their least id, and all
    truth values are pushed through the projection b |-> b /\\ gen."""
    qalg, proj = quotient(m.alg, f)
    rep = _class_reps(m, f.gen.bits)
    reps = tuple(r for r in m.domain if rep[r] == r)
    eq = {(a, b): proj(m.eq[a, b]) for a in reps for b in reps}
    rels = {
        sym: {tup: proj(val)
              for tup, val in table.items() if all(rep[t] == t for t in tup)}
        for sym, table in m.rels.items()
    }
    consts = {c: rep[t] for c, t in m.consts.items()}
    return BVModel(qalg, m.sig, reps, eq, rels, consts)


def _class_reps(m: BVModel, g: int) -> dict:
    """The least id of each element's class in M/F, for F the filter above
    the mask g: a and b are one class iff g <= [a=b].  Every quotient reads
    its classes here.  Each mask is scanned once per model and its dict kept
    on the evaluator, so the dict is shared: callers must not change it."""
    ev = m._evaluator
    if g not in ev.reps:
        ev.reps[g] = _scan_reps(ev, g)
    return ev.reps[g]


def _scan_reps(ev: _Evaluator, g: int) -> dict:
    eq, dom = ev.eq, ev.domain
    return {a: min(b for b in dom if eq[b, a] & g == g) for a in dom}


class TarskiModel(Record):
    """An ordinary two-valued structure; equality is identity of elements.
    aliases resolve element constants of a model this arose from as a
    quotient (original id -> class representative)."""

    sig: Signature
    domain: tuple[str, ...]
    rels: dict
    consts: dict
    aliases: dict = field(default_factory=dict)

    @cached_property
    def _arity(self) -> dict:
        """The arity of each relation symbol, for satisfies' arity check."""
        return self.sig.rel_arity

    @cached_property
    def _consts(self) -> dict:
        """Every name resolve_constant resolves, with its id, for satisfies'
        atoms; they call resolve_constant, which raises, on a miss."""
        names = (*self.consts, *(f"c_{d}" for d in (*self.aliases, *self.domain)))
        return {c: self.resolve_constant(c) for c in names}

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
    if g.alg != m.alg:
        raise AlgebraError("filter lives on a different algebra")
    if not g.is_ultrafilter:
        raise ModelError("tarski_quotient needs an ultrafilter")
    rep = _class_reps(m, g.gen.bits)
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


_OUTSIDE = object()  # env key of the caller's bindings outside the domain


def satisfies(t: TarskiModel, f: Formula, env: dict | None = None) -> bool:
    """Tarski satisfaction t |= f under env (variable -> id): the oracle the
    Los test holds the evaluator to, sharing no code with it.  Each atomic
    node it visits raises the ModelError eval_formula raises there: an
    unknown relation symbol, a wrong arity, a free variable, an unknown
    constant, or a variable bound to an id outside the domain.  Connectives
    and quantifiers are decided lazily, so a node behind a decided one is
    not visited."""
    env = env or {}
    outside = {v: d for v, d in env.items() if d not in t.domain}
    if outside:  # kept apart, so that an atom using one takes the slow path
        env = {v: d for v, d in env.items() if v not in outside}
        env[_OUTSIDE] = outside
    return _SAT[type(f)](t, env, f)


class _SatRunners(dict):
    """satisfies' runner run(t, env, f) per node class."""

    def __missing__(self, kind):
        return _sat_unknown


def _sat_unknown(t, env, f):
    raise TypeError(f"not a formula: {f!r}")


def _sat_term(t, env, x):
    return env[x.name] if isinstance(x, Var) else t.resolve_constant(x.name)


def _sat_rel(t, env, f):
    args = f.args
    try:
        held = t.rels[f.sym]
        if len(args) == 1:  # inline keys: a list comprehension costs a frame
            a, = args
            key = env[a.name] if type(a) is Var else t._consts[a.name],
        elif len(args) == 2:
            a, b = args
            key = (env[a.name] if type(a) is Var else t._consts[a.name],
                   env[b.name] if type(b) is Var else t._consts[b.name])
        else:
            key = tuple([_sat_term(t, env, a) for a in args])
    except KeyError:
        _sat_fault(t, env, f.sym, args)
    if key in held:
        return True
    if len(key) != t._arity.get(f.sym, len(key)):
        _sat_fault(t, env, f.sym, args)
    return False


def _sat_eq(t, env, f):
    lhs, rhs = f.lhs, f.rhs
    try:
        return ((env[lhs.name] if type(lhs) is Var else t._consts[lhs.name])
                == (env[rhs.name] if type(rhs) is Var else t._consts[rhs.name]))
    except KeyError:
        _sat_fault(t, env, None, (lhs, rhs))


def _sat_fault(t, env, sym, terms):
    """Raise the error of an atomic node of relation sym (equality if None)
    that the runners could not decide, checked in eval_formula's order: the
    symbol, each term left to right, ids outside the domain, the arity."""
    if sym is not None and sym not in t.rels:
        raise ModelError(f"unknown relation symbol {sym!r}")
    outside = env.get(_OUTSIDE, {})
    key = []
    for x in terms:
        if not isinstance(x, Var) or x.name in env:
            key.append(_sat_term(t, env, x))
        elif x.name in outside:
            key.append(outside[x.name])
        else:
            raise ModelError(f"free variable {x.name!r} in a closed evaluation")
    for x, d in zip(terms, key):
        if isinstance(x, Var) and x.name not in env:
            raise ModelError(f"variable {x.name!r} is bound to {d!r}, "
                             "which is not in the domain")
    raise ModelError(f"relation {sym!r} has arity {t._arity[sym]}, "
                     f"given {len(key)} terms")


def _sat_exists(t, env, f):
    inner, run, body = dict(env), _SAT[type(f.body)], f.body
    for d in t.domain:
        inner[f.var] = d
        if run(t, inner, body):
            return True
    return False


def _sat_forall(t, env, f):
    inner, run, body = dict(env), _SAT[type(f.body)], f.body
    for d in t.domain:
        inner[f.var] = d
        if not run(t, inner, body):
            return False
    return True


_SAT = _SatRunners({
    Rel: _sat_rel, Eq: _sat_eq,
    Not: lambda t, env, f: not _SAT[type(f.body)](t, env, f.body),
    And: lambda t, env, f: (_SAT[type(f.lhs)](t, env, f.lhs)
                            and _SAT[type(f.rhs)](t, env, f.rhs)),
    Or: lambda t, env, f: (_SAT[type(f.lhs)](t, env, f.lhs)
                           or _SAT[type(f.rhs)](t, env, f.rhs)),
    Implies: lambda t, env, f: (not _SAT[type(f.lhs)](t, env, f.lhs)
                                or _SAT[type(f.rhs)](t, env, f.rhs)),
    Exists: _sat_exists, Forall: _sat_forall,
})


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


_MAX_CONJ_ATOMS = 20  # atoms an open pool conjoins pairwise, evenly strided
_MAX_NESTED = 48  # quantified formulas a closed pool level re-generalizes


def open_pool(sig: Signature, elements, var: str):
    """Canonical one-free-variable formulas: the atoms mentioning the
    variable, their negations, and the pairwise conjunctions of at most
    _MAX_CONJ_ATOMS of them.  Built once per key (sig, tuple(elements),
    var); each call returns a fresh list."""
    return list(_open_pool(sig, tuple(elements), var))


@lru_cache(maxsize=64)
def _open_pool(sig: Signature, elements: tuple, var: str) -> tuple:
    consts = [Const(f"c_{e}") for e in elements]
    atoms = list(dict.fromkeys(a for a in _atomic(sig, consts + [Var(var)])
                               if var in free_vars(a)))
    conj_base = _spread(atoms, _MAX_CONJ_ATOMS)
    pool = list(atoms)
    pool.extend(Not(a) for a in atoms)
    pool.extend(And(a, b) for i, a in enumerate(conj_base)
                for b in conj_base[i + 1:])
    return tuple(dict.fromkeys(pool))


def closed_pool(sig: Signature, elements, depth: int):
    """Canonical closed formulas to the given quantifier depth: closed atoms
    and their negations, then per level the existential closures of the open
    pool plus nested quantifications obtained by re-generalizing a strided
    selection of at most _MAX_NESTED of the previous level's quantified
    formulas.  Built once per key (sig, tuple(elements), depth); each call
    returns a fresh list."""
    return list(_closed_pool(sig, tuple(elements), depth))


@lru_cache(maxsize=64)
def _closed_pool(sig: Signature, elements: tuple, depth: int) -> tuple:
    consts = [Const(f"c_{e}") for e in elements]
    closed_atoms = list(dict.fromkeys(_atomic(sig, consts)))
    pool = list(closed_atoms)
    pool.extend(Not(a) for a in closed_atoms)
    prev_quantified: list[Formula] = []
    for d in range(1, depth + 1):
        var = f"x{d}"
        level = [Exists(var, f) for f in _open_pool(sig, elements, var)]
        nested = []
        for f in _spread(prev_quantified, _MAX_NESTED):
            for e in elements:
                g = generalize(f, f"c_{e}", var)
                if g != f:
                    nested.append(Exists(var, g))
        level.extend(dict.fromkeys(nested))
        every = Forall(var, Eq(Var(var), Var(var)))
        pool.extend(level)
        pool.append(every)
        # E x. x = x is already in the level, from the open pool's atom
        # x = x; the repeat stays in the level only for the next _spread
        level.extend((Exists(var, Eq(Var(var), Var(var))), every))
        prev_quantified = level
    return tuple(pool)


@lru_cache(maxsize=64)
def _deep_sample(sig: Signature, elements: tuple, depth: int) -> tuple:
    """fullness_via_sections' rows from every 29th depth - 1 closed formula,
    c_<first element> made x: the first 10 with x free.  Built once per key."""
    deep = (generalize(f, f"c_{elements[0]}", "x")
            for f in closed_pool(sig, elements, depth - 1)[::29])
    return tuple([g for g in deep if "x" in free_vars(g)][:10])


# -- fullness (Los) and mixing ----------------------------------------------

class FullnessReport(Record):
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

    The equivalence of (a) and (b) is a theorem, asserted on the instance.
    Every existential is a finite join, so (b) always finds a cover and
    procedures_agree reduces to full; (a) tests the evaluator.  An E-rooted
    body is evaluated as its column, whose join is the value, so a cover is
    found once per distinct column in a dict of this call (covers name m's
    elements).  eval_formula's kept values and columns are read from its
    memo; the rest are evaluated into columns of this call only, so is_full
    stores nothing.  formulas may be any iterable, counted as it is read.
    """
    pool = formulas if formulas is not None else closed_pool(
        m.sig, m.domain, depth)
    ev, values, covers, cols, cover_of = m._evaluator, [], [], {}, {}
    for f in pool:
        value, col = (ev.closed.get(id(f)) or _closed_value(ev, f, cols))[:2]
        if col is not None:
            if (cover := cover_of.get(key := tuple(col))) is None:
                cover = cover_of[key] = _smallest_cover(
                    dict(zip(m.domain, col)), value)
            covers.append((f, cover))
        values.append((f, value))
    mismatches = []
    for g_atom in m.alg.atom_elems():
        t, bit = tarski_quotient(m, g := Filter(m.alg, g_atom)), g_atom.bits
        for f, value in values:
            if _SAT[type(f)](t, {}, f) != bool(value & bit):
                mismatches.append((g.label, f))
    full = not mismatches
    return FullnessReport(full, tuple(mismatches), tuple(covers), full == all(
        cover is not None for _, cover in covers), len(values))


def _smallest_cover(vals: dict, total: int):
    """The first key combination, smallest first and in key order, whose
    bitmasks join to total; None if there is none."""
    for size in range(len(vals) + 1):
        for combo in combinations(vals, size):
            if reduce(or_, map(vals.get, combo), 0) == total:
                return combo
    return None


class MixingReport(Record):
    """has_mixing's verdict on a valid model.  antichains_checked is the
    count the size-then-lex search over antichains would check."""

    passed: bool
    witness: tuple | None  # (antichain labels, assignment dict) on failure
    antichains_checked: int


def has_mixing(m: BVModel, max_antichain: int | None = None) -> MixingReport:
    """Decide mixing on a valid model m by the stalk product: m has mixing
    iff D -> prod_i D/~_i over the atoms i is onto.  Singletons always mix,
    and a failure always has a witness pair (mixing pairwise gives the rest,
    each ~_i being transitive); so a failure scans the disjoint pairs in the
    search's order and names the first without a mixer.  A pass counts every
    antichain of at most the cap: sum_j S(n+1, j+1), j blocks of the atoms
    and one block of the unused ones."""
    if max_antichain is not None and max_antichain < 1:
        raise AlgebraError("antichain size cap must be at least 1")
    n, dom = m.alg.atom_count, m.domain
    cap = n if max_antichain is None else min(max_antichain, n)
    reps = [_class_reps(m, 1 << i) for i in range(n)]
    image = {tuple(rep[d] for rep in reps) for d in dom}
    onto = len(image) == prod(len({r[i] for r in image}) for i in range(n))
    if onto or cap < 2:
        return MixingReport(True, None, sum(
            _stirling2(n + 1, j + 1) for j in range(1, cap + 1)))
    eq, checked = m._evaluator.eq, 2 ** n - 1
    for a, b in combinations(range(1, 2 ** n), 2):
        if a & b:
            continue
        checked += 1
        for s, t in product(dom, repeat=2):
            if not any(eq[x, s] & a == a and eq[x, t] & b == b for x in dom):
                chain = (Elem(m.alg, a).label, Elem(m.alg, b).label)
                return MixingReport(False, (chain, dict(zip(chain, (s, t)))),
                                    checked)
    raise ModelError("has_mixing needs a valid model")


def _stirling2(n: int, k: int) -> int:
    """S(n, k): the partitions of n points into k nonempty blocks."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** n
               for i in range(k + 1)) // factorial(k)


# -- products and ultraproducts ----------------------------------------------

def _atom_tables(alg: BoolAlg, domain: tuple, arity: dict,
                 atoms) -> tuple[dict, dict]:
    """The equality and relation tables over domain, in product order, built
    as bitmasks one atom bit at a time.  atoms yields (bit, cls, holds): cls
    sends each element to its class at the atom, and holds(sym, key) says
    whether sym holds there on the tuple of classes key.  The bit goes into
    each tuple of a key that holds (for equality, sym None, the pairs inside
    a class), and into every entry at once for an atom with one class.  The
    tables share one Elem per distinct mask.  product_model, bridge.R and
    bridge.mixify build their tables here."""
    arity = {None: 2, **arity}
    tables = {sym: dict.fromkeys(product(domain, repeat=k), 0)
              for sym, k in arity.items()}
    every = dict.fromkeys(arity, 0)  # the bits of every entry of a table
    for bit, cls, holds in atoms:
        groups = {}
        for s in domain:
            groups.setdefault(cls[s], []).append(s)
        for sym, values in tables.items():
            for key in product(groups, repeat=arity[sym]):
                if (key[0] == key[1]) if sym is None else holds(sym, key):
                    if len(groups) == 1:
                        every[sym] |= bit
                        continue
                    for tup in product(*map(groups.__getitem__, key)):
                        values[tup] |= bit
    elem = {v: Elem(alg, v) for v in set().union(*(
        map(every[sym].__or__, values.values()) for sym, values in tables.items()))}
    out = {sym: {tup: elem[v | every[sym]] for tup, v in values.items()}
           for sym, values in tables.items()}
    return out.pop(None), out


def product_model(factors: list[TarskiModel]) -> BVModel:
    """The P(I)-valued model of choice functions over the factors;
    [R(fbar)] is the set of indices where the factors satisfy R.  Factor k
    is atom k: a choice's class there is its k-th component, and a tuple of
    components holds iff it is in factor k's relation."""
    if not factors:
        raise ModelError("a product needs at least one factor")
    sig = factors[0].sig
    if any(t.sig != sig for t in factors):
        raise ModelError("factors must share a signature")
    if any("." in d for t in factors for d in t.domain):
        raise ModelError("factor element ids may not contain '.'")
    alg = BoolAlg(tuple(f"i{k}" for k in range(len(factors))))
    parts = {".".join(tup): tup for tup in product(*(t.domain for t in factors))}
    atoms = ((1 << k, {c: tup[k] for c, tup in parts.items()},
              lambda sym, key, rels=t.rels: key in rels.get(sym, ()))
             for k, t in enumerate(factors))
    eq, rels = _atom_tables(alg, tuple(parts), sig.rel_arity, atoms)
    consts = {c: ".".join(t.consts[c] for t in factors) for c in factors[0].consts}
    return BVModel(alg, sig, tuple(parts), eq, rels, consts)


def ultraproduct(factors: list[TarskiModel], g: Filter) -> TarskiModel:
    return tarski_quotient(product_model(factors), g)


# -- morphisms ----------------------------------------------------------------

class BVMorphism(Record, frozen=False):
    source: BVModel
    target: BVModel
    i: BAHom
    phi: dict  # source domain -> target domain


class MorphismReport(Record):
    is_morphism: bool
    is_embedding: bool
    is_isomorphism: bool
    violations: tuple


def check_morphism(mor: BVMorphism) -> MorphismReport:
    """i(x) <= y on every table entry, on bits read once per source mask off
    BAHom._bits; an entry of another algebra raises as i(x) <= y does."""
    m, n, i, phi = mor.source, mor.target, mor.i, mor.phi
    bad = []
    if i.source != m.alg or i.target != n.alg:
        bad.append("algebra map does not connect the model algebras")
        return MorphismReport(False, False, False, tuple(bad))
    if set(phi) != set(m.domain) or not set(phi.values()) <= set(n.domain):
        bad.append("domain map is not total into the target domain")
        return MorphismReport(False, False, False, tuple(bad))
    src, tgt, image = i.source, i.target, {}

    def bits(x, y) -> tuple[int, int]:
        if x.__class__ is Elem and x.alg is src:
            lhs = image.get(x.bits)
            if lhs is None:
                lhs = image[x.bits] = sum(t for t, s in i._bits if x.bits & s)
        else:
            lhs = i(x).bits
        if y.__class__ is not Elem or y.alg is not tgt:
            Elem(tgt, lhs)._same_algebra(y)
        return lhs, y.bits

    exact = True
    for c, t in m.consts.items():
        if n.consts.get(c) != phi[t]:
            bad.append(f"constant {c} not preserved")
    for a, b in product(m.domain, repeat=2):
        lhs, rhs = bits(m.eq[a, b], n.eq[phi[a], phi[b]])
        if lhs & ~rhs:
            bad.append(f"equality inequality fails at ({a},{b})")
        elif lhs != rhs:
            exact = False
    for sym, table in m.rels.items():
        for tup, val in table.items():
            lhs, rhs = bits(val, n.rels[sym][tuple(map(phi.__getitem__, tup))])
            if lhs & ~rhs:
                bad.append(f"relation inequality fails for {sym} at {tup}")
            elif lhs != rhs:
                exact = False
    is_morphism = not bad
    is_embedding = is_morphism and exact
    images = dict.fromkeys(phi.values())
    onto = all(any(n.eq[s, t].is_top for s in images) for t in n.domain)
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


# -- fixed validity list -------------------------------------------------------

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
