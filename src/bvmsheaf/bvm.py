"""Boolean-valued models: validation, semantics, quotients, fullness and
mixing decision procedures, morphisms, and (ultra)products.

Truth values of closed formulas live in the model's algebra itself: a finite
algebra is complete, so the boolean completion RO(B+) adds nothing and every
model here is automatically well behaved.
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, product
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
        hit = ev.value(f)
    return Elem(m.alg, hit[0])


class _Evaluator:
    """[f] as a bitmask, on the model's tables read into ints and its constants
    resolved once; reps holds _class_reps' dict per mask.  closed maps id(f)
    to (bits, body column or None, f) per closed formula: every closed
    family member once the key's plan has run (plan, False if it could not
    run), and each other formula eval_formula was given (f kept, so its id
    is not reused); opened maps id(f) to the table of each open member.
    It holds no reference to the model, so no cycle delays freeing it."""

    def __init__(self, m: BVModel):
        self.domain, self.top, self.reps = m.domain, m.alg.top.bits, {}
        self.key, self.plan, self.closed, self.opened = (m.sig, m.domain), None, {}, {}
        self.eq = {pair: v.bits for pair, v in m.eq.items()}
        self.rels = {sym: {tup: v.bits for tup, v in table.items()}
                     for sym, table in m.rels.items()}
        self.consts = {c: m.resolve_constant(c)
                       for c in (*m.consts, *(f"c_{d}" for d in m.domain))}

    def bits(self, f: Formula, env: dict) -> int:
        """Every subformula is evaluated, so a bad term always raises."""
        return _EVAL[type(f)](self, env, f)

    def value(self, f: Formula, keep: bool = True) -> tuple:
        """(bits, column, f) for a closed f, the column the body's values at
        each element for an E-rooted f (else None): the memo's, filled by
        the key's plan on the first miss; else the runners', kept if keep."""
        if (hit := self.closed.get(id(f))) is None and self.run_plan():
            hit = self.closed.get(id(f))
        if hit is None:
            if type(f) is Exists:
                col = self.tuples(f.body, (f.var,))
                hit = reduce(or_, col, 0), col, f
            else:
                hit = _EVAL[type(f)](self, {}, f), None, f
            if keep:
                self.closed[id(f)] = hit
        return hit

    def table(self, f: Formula) -> list:
        """An open f's values: the plan's table for a family member, else
        the runners' at the tuples for its sorted free variables."""
        if (hit := self.opened.get(id(f))) is None and self.run_plan():
            hit = self.opened.get(id(f))
        return self.tuples(f, tuple(sorted(free_vars(f)))) if hit is None else hit

    def tuples(self, f: Formula, free: tuple) -> list:
        """f's values at the tuples of ids for the variables free, in product
        order, one runner run per tuple under one env that each rebinds."""
        run, env, values = _EVAL[type(f)], {}, []
        for tup in product(self.domain, repeat=len(free)):
            env.update(zip(free, tup))
            values.append(run(self, env, f))
        return values

    def run_plan(self) -> bool:
        """Run the key's plan, if there is one and it is not the one run
        last, and fill both memos for its members; whether it ran.  A table
        without an entry a member reads leaves every formula to the runners,
        which name the fault."""
        plan = _families(*self.key).plan()
        if plan is None or plan is self.plan or self.plan is False:
            return False
        try:
            tables = _run(plan, self)
        except KeyError:
            self.plan = False
            return False
        self.plan, ops, body = plan, plan.ops, plan.a
        for f, s in zip(chain.from_iterable(plan.closed), plan.closed_slots):
            self.closed[id(f)] = (tables[s][0], tables[body[s]]
                                  if ops[s] == _EXISTS else None, f)
        self.opened = {id(f): tables[s] for f, s in zip(
            chain.from_iterable(plan.opened), plan.opened_slots)}
        return True

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
    """Each element is compared with the first member of each class found
    so far (equality is transitive on a valid model), so d x (classes)
    entries are read; a class is named by its least id, met in any order."""
    eq, least, first = ev.eq, {}, {}  # a class's first member -> least id
    for a in ev.domain:
        for r in least:
            if eq[r, a] & g == g:
                break
        else:
            r = a
        first[a] = r
        if a <= least.get(r, a):
            least[r] = a
    return {a: least[r] for a, r in first.items()}


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
    formulas.  Built once per key (sig, tuple(elements)), each depth by
    extending the depth below with the same objects; each call returns a
    fresh list."""
    return list(_families(sig, tuple(elements)).pool(depth))


@lru_cache(maxsize=64)
def _families(sig: Signature, elements: tuple) -> "_Families":
    return _Families(sig, elements)


class _Families:
    """Every formula family bvm generates for one key (sig, elements), each
    built once: the closed pool, each depth's pool a prefix of the next with
    the same objects, the deep samples, fullness_via_sections' x and x, y
    rows and the validity list; and the plan that evaluates them all in
    one pass per model, compiled when first asked for after a family grew.
    The plan covers the pools to depth 2 at least and the families of every
    depth built, so one run serves eval_formula, is_full and the rows."""

    def __init__(self, sig: Signature, elements: tuple):
        self.sig, self.elements = sig, elements
        self.closed, self.ends, self.quantified, self.deep = (), [], [], {}
        self._validities = self._plan = None

    @cached_property
    def open_x(self) -> tuple:
        return _open_pool(self.sig, self.elements, "x")

    @cached_property
    def xy(self) -> tuple:
        x, y = Var("x"), Var("y")
        return (Eq(x, y), *(Rel(sym, (x, y))
                            for sym, k in self.sig.rel_arity.items() if k == 2))

    def pool(self, depth: int) -> tuple:
        while len(self.ends) <= depth:
            self._level(len(self.ends))
        return self.closed[:self.ends[depth]]

    def _level(self, d: int) -> None:
        sig, elements = self.sig, self.elements
        if d == 0:
            atoms = list(dict.fromkeys(_atomic(
                sig, [Const(f"c_{e}") for e in elements])))
            level = atoms + [Not(a) for a in atoms]
        else:
            var = f"x{d}"
            level = [Exists(var, f) for f in _open_pool(sig, elements, var)]
            nested = []
            for f in _spread(self.quantified, _MAX_NESTED):
                for e in elements:
                    g = generalize(f, f"c_{e}", var)
                    if g != f:
                        nested.append(Exists(var, g))
            level.extend(dict.fromkeys(nested))
            every = Forall(var, Eq(Var(var), Var(var)))
            # E x. x = x is already in the level, from the open pool's atom
            # x = x; the repeat is quantified only for the next _spread
            self.quantified = [*level, Exists(var, Eq(Var(var), Var(var))), every]
            level.append(every)
        self.closed += tuple(level)
        self.ends.append(len(self.closed))
        self._plan = None

    def sections(self, depth: int) -> tuple:
        """fullness_via_sections' rows: open_pool(., "x"), and from depth 2
        on the x, y atoms and the deep sample."""
        return self.open_x + (self.xy + self.deep_sample(depth) if depth >= 2 else ())

    def deep_sample(self, depth: int) -> tuple:
        """Every 29th depth - 1 closed formula, c_<first element> made x:
        the first 10 with x free."""
        if depth not in self.deep:
            deep = (generalize(f, f"c_{self.elements[0]}", "x")
                    for f in self.pool(depth - 1)[::29])
            self.deep[depth] = tuple(
                [g for g in deep if "x" in free_vars(g)][:10])
            self._plan = None
        return self.deep[depth]

    def validities(self) -> tuple:
        if self._validities is None:  # built before any plan is compiled
            self._validities = _validities(self.sig, self.elements)
        return self._validities

    def plan(self) -> "_Plan | None":
        """None while no family is built, so that an ad-hoc evaluation
        builds none."""
        if self._plan is None and (self.ends or self._validities):
            depth = max(2, len(self.ends) - 1)
            closed = (self.pool(depth),
                      self.validities() if self.sig.relations else ())
            opened = (self.open_x, self.xy,
                      *(self.deep_sample(d) for d in range(2, depth + 1)))
            self._plan = _compile(closed, opened, len(self.elements))[0]
        return self._plan


# -- plans: α-shared nodes evaluated as tables ---------------------------------
#
# A node's value is its table over its free variables in the order of their
# first free occurrence, read left to right, in product order: so nodes equal
# up to a renaming of variables share one slot and one table.  A connective
# combines its children's tables elementwise, each gathered onto its own
# axes; a quantifier folds its variable's axis.  Generated families quantify
# only variables their bodies mention.

_ATOM, _NOT, _AND, _OR, _IMPLIES, _EXISTS, _FORALL = range(7)
_OP = {Eq: _ATOM, Rel: _ATOM, Not: _NOT, And: _AND, Or: _OR,
       Implies: _IMPLIES, Exists: _EXISTS, Forall: _FORALL}

# The plan's elementwise connectives; both sides are built for every node.
_COMBINE = {_NOT: lambda top, a: [top & ~x for x in a],
            _AND: lambda top, a, b: list(map(and_, a, b)),
            _OR: lambda top, a, b: list(map(or_, a, b)),
            _IMPLIES: lambda top, a, b: [top & ~x | y for x, y in zip(a, b)]}


class _Plan:
    """A key's nodes in topological order as flat int arrays, per slot: ops,
    and a, b, x, y by op.  An atom: a its symbol's index in syms (None for
    equality), b its axis count, x and y the offset and length of its terms
    in args (an axis index, or ~i for the constant consts[i]; equal terms
    are stored once).  A
    connective: a and b its children, x and y the index in gathers of each
    child's map onto its axes (-1 if it has them all, in order).  A
    quantifier: a its body, x the stride of the folded axis in the body's
    table.  closed and opened hold the member families, closed_slots and
    opened_slots their members' slots in order."""

    __slots__ = ("ops", "a", "b", "x", "y", "syms", "consts", "args",
                 "gathers", "closed", "closed_slots", "opened", "opened_slots")


def _compile(closed: tuple, opened: tuple, n: int) -> tuple:
    """The plan of the families closed and opened over n elements, and the
    slot and axes of every node visited, by id (for the test suite).  Equal
    nodes are found by a dict of canonical keys dropped after compiling."""
    plan, cons, seen, rows, args = _Plan(), {}, {}, ([], [], [], [], []), []
    syms, consts, codes, layouts = {}, {}, {}, {}

    def gather(k: int, pos: tuple) -> int:
        return -1 if pos == tuple(range(k)) else layouts.setdefault(
            (k, pos), len(layouts))

    def node(f) -> tuple:
        if (hit := seen.get(id(f))) is not None:
            return hit
        op = _OP[type(f)]
        if op == _ATOM:
            terms = (f.lhs, f.rhs) if type(f) is Eq else f.args
            axes = tuple(dict.fromkeys(t.name for t in terms if type(t) is Var))
            code = tuple(axes.index(t.name) if type(t) is Var
                         else ~consts.setdefault(t.name, len(consts)) for t in terms)
            sym = syms.setdefault(f.sym if type(f) is Rel else None, len(syms))
            if (at := codes.get(code)) is None:
                at = codes[code] = len(args)
                args.extend(code)
            key = (op, sym, len(axes), at, len(code))
        elif op == _NOT:
            sa, axes = node(f.body)
            key = (op, sa, 0, -1, -1)
        elif op < _EXISTS:
            (sa, ax_a), (sb, ax_b) = node(f.lhs), node(f.rhs)
            axes = ax_a + tuple(v for v in ax_b if v not in ax_a)
            key = (op, sa, sb, gather(len(axes), tuple(range(len(ax_a)))),
                   gather(len(axes), tuple(map(axes.index, ax_b))))
        else:
            sa, ax_b = node(f.body)
            i = ax_b.index(f.var)
            axes = ax_b[:i] + ax_b[i + 1:]
            key = (op, sa, 0, n ** (len(ax_b) - 1 - i), -1)
        if (slot := cons.get(key)) is None:
            slot = cons[key] = len(cons)
            for row, v in zip(rows, key):
                row.append(v)
        seen[id(f)] = slot, axes
        return slot, axes

    plan.closed_slots, plan.opened_slots = (array("i", [
        node(f)[0] for f in chain.from_iterable(fams)]) for fams in (closed, opened))
    plan.ops, plan.a, plan.b, plan.x, plan.y, plan.args = (
        array("i", v) for v in (*rows, args))
    plan.syms, plan.consts, plan.closed, plan.opened = (
        tuple(syms), tuple(consts), closed, opened)
    plan.gathers = tuple(array("i", (
        sum(t[p] * n ** (len(pos) - 1 - j) for j, p in enumerate(pos))
        for t in product(range(n), repeat=k))) for k, pos in layouts)
    return plan, seen


def _run(plan: _Plan, ev: _Evaluator) -> list:
    """Every node's table on the model of ev, in slot order."""
    top, dom, n = ev.top, ev.domain, len(ev.domain)
    args, gathers, out = plan.args, plan.gathers, []
    tables = [ev.eq if sym is None else ev.rels[sym] for sym in plan.syms]
    ids = [ev.consts[c] for c in plan.consts]
    for op, a, b, x, y in zip(plan.ops, plan.a, plan.b, plan.x, plan.y):
        if op == _ATOM:
            table = tables[a]
            terms = [t if t >= 0 else ids[~t] for t in args[x:x + y]]
            if b == 0:
                out.append([table[tuple(terms)]])
            else:
                out.append([table[tuple([row[t] if type(t) is int else t
                                         for t in terms])]
                            for row in product(dom, repeat=b)])
        elif op >= _EXISTS:
            out.append(_fold(out[a], n, x, or_ if op == _EXISTS else and_))
        elif op == _NOT:
            out.append(_COMBINE[op](top, out[a]))
        else:
            lhs, rhs = out[a], out[b]
            if x >= 0:
                lhs = list(map(lhs.__getitem__, gathers[x]))
            if y >= 0:
                rhs = list(map(rhs.__getitem__, gathers[y]))
            out.append(_COMBINE[op](top, lhs, rhs))
    return out


def _fold(body: list, n: int, stride: int, join) -> list:
    """The join over one axis of a table, the axis's stride given."""
    if stride == 1:
        return [reduce(join, body[h:h + n]) for h in range(0, len(body), n)]
    out = []
    for h in range(0, len(body), n * stride):
        acc = body[h:h + stride]
        for k in range(h + stride, h + n * stride, stride):
            acc = list(map(join, acc, body[k:k + stride]))
        out.extend(acc)
    return out


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
    elements).  A family member's value and column are read from the
    evaluator's memo, which the key's plan fills on the first miss; any
    other formula is run by the runners and not kept.  formulas may be any
    iterable, counted as it is read.
    """
    pool = formulas if formulas is not None else closed_pool(
        m.sig, m.domain, depth)
    ev, values, covers, cover_of = m._evaluator, [], [], {}
    for f in pool:
        value, col, _ = ev.value(f, keep=False)
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
    truth value.  Built once per key (sig, domain)."""
    if not m.sig.relations:
        raise ModelError("the validity list needs a relation symbol")
    return list(_families(m.sig, m.domain).validities())


def _validities(sig: Signature, elements: tuple) -> tuple:
    c0 = Const(f"c_{elements[0]}")
    c1 = Const(f"c_{elements[-1]}")
    sym, arity = next(iter(sig.rel_arity.items()))
    a = Rel(sym, (c0,) * arity)
    b = Rel(sym, (c1,) * arity)
    x, y = Var("x"), Var("y")
    phi_x = Rel(sym, (x,) * arity)
    psi_xy = Eq(x, y)
    return (
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
    )
