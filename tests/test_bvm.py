"""Boolean valued models: axioms, semantics, quotients, Los, mixing,
products, morphisms."""

import gc
import random
import weakref
from collections import Counter
from functools import reduce
from itertools import product
from operator import and_, or_

import pytest

from bvmsheaf.balg import AlgebraError, Filter, mk_powerset
from bvmsheaf.bridge import (_tuple_values, fullness_via_sections, mixify,
                             phi_bundle)
from bvmsheaf.bvm import (_COLUMN, _EVAL, _SAT, BVModel, BVMorphism,
                          MixingReport, ModelError, TarskiModel,
                          UnknownConstantError, _closed_value, _column,
                          _smallest_cover, check_morphism, closed_pool,
                          eval_formula, generalize, has_mixing, is_elementary,
                          is_full, open_pool, product_model, quotient_model,
                          satisfies, standard_validities,
                          tarski_quotient, ultraproduct, validate)
from bvmsheaf.logic import (And, Const, Eq, Exists, Forall, Implies, Not, Or,
                            Rel, Signature, Var, free_vars, parse, substitute)

from util import (bundle_clauses_scan, closed_pool_dedupe,
                  closed_value_per_element, elem_check_morphism,
                  elem_validate, find_model_isomorphism, random_model,
                  recursive_eval_bits, search_mixing, tuple_values_per_tuple,
                  witness_covers_per_formula)

B2 = mk_powerset(["a1"])
B4 = mk_powerset(["a1", "a2"])


def mnm():
    """(B4; {s,t}; [s=t]=0), no relations: the canonical non-mixing model."""
    return BVModel.make(B4, ["s", "t"], sig=Signature.make({}))


def m_r():
    """mnm plus a unary R with [R(s)]=a1, [R(t)]=a2."""
    return BVModel.make(B4, ["s", "t"],
                        rels={"R": {("s",): B4.atom("a1"),
                                    ("t",): B4.atom("a2")}})


def test_validate_mnm_and_m_r():
    for m in (mnm(), m_r()):
        rep = validate(m)
        assert rep.ok and rep.extensional


def test_validate_reflexivity_violation():
    m = m_r()
    m.eq["s", "s"] = B4.atom("a1")
    rep = validate(m)
    assert not rep.ok
    assert any("reflexivity" in v and "s" in v for v in rep.violations)


def test_validate_congruence_violation_cites_tuple():
    m = m_r()
    m.eq["s", "t"] = m.eq["t", "s"] = B4.atom("a1")  # now s~t on a1 but R differs
    rep = validate(m)
    assert not rep.ok
    assert any("congruence" in v and "R" in v for v in rep.violations)


def test_validate_reports_entries_of_another_algebra():
    b8 = mk_powerset(["b1", "b2", "b3"])
    m = BVModel.make(B4, ["s", "t"], eq={("s", "t"): b8.atom("b1")})
    rep = validate(m)
    assert not rep.ok and not rep.extensional
    assert rep.violations == (
        "equality entry (s,t) is not an element of BoolAlg(['a1', 'a2'])",
        "equality entry (t,s) is not an element of BoolAlg(['a1', 'a2'])")
    m = m_r()
    m.rels["R"]["t",] = b8.atom("b2")
    m.rels["R"]["s",] = 1
    assert validate(m).violations == tuple(
        f"relation table R entry ('{d}',) is not an element of "
        "BoolAlg(['a1', 'a2'])" for d in "st")


def test_eval_examples():
    m = m_r()
    assert eval_formula(m, parse(m.sig, "E x. R(x)")).is_top
    assert eval_formula(m, parse(m.sig, "A x. R(x)")).is_bottom
    assert eval_formula(m, parse(m.sig, "(R(c_s) | ~R(c_s))")).is_top
    assert eval_formula(m, parse(m.sig, "R(c_s)")) == B4.atom("a1")


def test_eval_unknown_constant():
    m = m_r()
    with pytest.raises(UnknownConstantError) as err:
        eval_formula(m, parse(m.sig, "R(c_zz)"))
    assert "c_zz" in str(err.value)


def _error_rows(sig):
    """(formula, env, error, message, reached) rows: eval_formula raises
    error matching message, and so does satisfies when reached is set (it
    decides connectives lazily, so it never visits an atom behind a decided
    one)."""
    x = Var("x")
    return [
        (parse(sig, "E x. R(y)"), None, ModelError, "free variable 'y'", True),
        # a bottom conjunct does not hide an unknown constant beside it
        (parse(sig, "A x. (~x = x & R(c_zz))"), None, UnknownConstantError,
         "c_zz", False),
        # an env id outside the domain names the variable and the id; these
        # two rows raised a bare KeyError of the table key, ('zz',) and
        # ('zz', 's'), before the evaluator checked env ids
        (parse(sig, "R(x)"), {"x": "zz"}, ModelError,
         "variable 'x' is bound to 'zz'", True),
        (parse(sig, "E y. (R(y) | x = y)"), {"x": "zz"}, ModelError,
         "variable 'x' is bound to 'zz'", False),
        (Exists("y", And(Eq(x, x), "junk")), {"x": "s"}, TypeError,
         "not a formula: 'junk'", True),
        # an unknown relation symbol and a wrong arity on a hand-built AST
        # (the parser rejects both) raised a bare KeyError, ('Q') and
        # ('s', 's'), before the evaluator named them
        (Rel("Q", (Const("c_s"),)), None, ModelError,
         "unknown relation symbol 'Q'", True),
        (Exists("x", Rel("R", (x, x))), None, ModelError,
         "relation 'R' has arity 1, given 2 terms", True),
        # satisfies returned False on the three rows above (Q, R(x, x) and
        # R(x) at zz) and raised a bare KeyError('y') on the next one
        (parse(sig, "R(y)"), None, ModelError, "free variable 'y'", True),
        # the symbol is named before the terms, then the terms left to right
        (Rel("Q", (Const("c_zz"),)), None, ModelError,
         "unknown relation symbol 'Q'", True),
        (Rel("R", (x, Const("c_zz"))), {"x": "zz"}, UnknownConstantError,
         "c_zz", True),
        (Rel("R", (Var("y"), x)), {"x": "zz"}, ModelError,
         "free variable 'y'", True),
        (Eq(x, Const("c_s")), {"x": "zz"}, ModelError,
         "variable 'x' is bound to 'zz'", True),
        (Exists("x", Eq(x, Var("y"))), None, ModelError,
         "free variable 'y'", True),
        # both walkers build the keys of arity 1 and 2 inline and longer
        # ones in a loop: a ternary atom, and an unknown symbol at arity 2
        (Exists("x", Rel("R", (x, Const("c_t"), x))), None, ModelError,
         "relation 'R' has arity 1, given 3 terms", True),
        (Rel("Q", (x, Const("c_s"))), {"x": "s"}, ModelError,
         "unknown relation symbol 'Q'", True),
    ]


def test_eval_errors_under_quantifiers():
    m = m_r()
    for f, env, error, message, _ in _error_rows(m.sig):
        with pytest.raises(error, match=message):
            eval_formula(m, f, env)


@pytest.mark.parametrize("arities", [{}, {"R": 1}],
                         ids=["no-relations", "unary"])
@pytest.mark.parametrize("quotient", [quotient_model, tarski_quotient])
def test_quotients_reject_a_filter_on_another_algebra(quotient, arities):
    """The class kernel reads only the filter's mask, so each quotient checks
    the filter's algebra itself; with no relation symbol nothing else
    would."""
    m = BVModel.make(B4, ("s", "t"), eq={("s", "t"): B4.atom("a1")},
                     sig=Signature.make(arities, ()))
    other = mk_powerset(["b1"])
    with pytest.raises(AlgebraError, match="filter lives on a different algebra"):
        quotient(m, Filter(other, other.atom("b1")))


def test_satisfies_raises_the_evaluators_errors():
    m = m_r()
    t = tarski_quotient(m, Filter(B4, B4.atom("a1")))
    for f, env, error, message, reached in _error_rows(m.sig):
        if reached:
            with pytest.raises(error, match=message):
                satisfies(t, f, env)
        else:
            satisfies(t, f, env)
    # a variable bound outside the domain is shadowed by a quantifier
    assert satisfies(t, parse(m.sig, "E x. R(x)"), {"x": "zz"})


def test_los_check_catches_a_fault_in_either_walker(monkeypatch):
    """The evaluator and satisfies dispatch through separate runner tables,
    so breaking one runner of either side alone makes is_full report
    mismatches on a model that passes: the connective Not, in the
    evaluator's runner table and in its column table, and each quantifier
    skipping the last domain element.  The closed pool holds no
    universal with a body that can fail, so the formulas checked add the
    universal closures of the open pool."""
    m = m_r()
    pool = closed_pool(m.sig, m.domain, 2)
    pool += [Forall("x", f) for f in open_pool(m.sig, m.domain, "x")]
    assert is_full(m, formulas=pool).full

    def eval_not_drops_a1(ev, env, f):
        return ev.top & ~ev.bits(f.body, env) & ~1

    def column_not_drops_a1(top, col):
        return [top & ~v & ~1 for v in col]

    def sat_not_ignored(t, env, f):
        return _SAT[type(f.body)](t, env, f.body)

    def eval_skips_last(join, start):
        def run(ev, env, f):
            inner, out = dict(env), ev.top if start else 0
            for d in ev.domain[:-1]:
                inner[f.var] = d
                out = join(out, ev.bits(f.body, inner))
            return out
        return run

    def sat_skips_last(decide):
        return lambda t, env, f: decide(
            _SAT[type(f.body)](t, {**env, f.var: d}, f.body)
            for d in t.domain[:-1])

    # is_full evaluates an E-rooted formula's body itself, so the evaluator's
    # Exists runner is caught on the nested existentials of depth 2
    for table, kind, runner, caught in (
            (_EVAL, Not, eval_not_drops_a1, "~R(c_t)"),
            (_COLUMN, Not, column_not_drops_a1, "E x1. ~R(x1)"),
            (_SAT, Not, sat_not_ignored, "~R(c_t)"),
            (_SAT, Exists, sat_skips_last(any), "E x1. c_t = x1"),
            (_EVAL, Exists, eval_skips_last(or_, False),
             "E x2. E x1. (x2 = x1 & c_t = x1)"),
            (_SAT, Forall, sat_skips_last(all), "A x. R(x)"),
            (_EVAL, Forall, eval_skips_last(and_, True), "A x. R(x)")):
        with monkeypatch.context() as patch:
            patch.setitem(table, kind, runner)
            report = is_full(m, formulas=pool)
        assert not report.full and report.los_mismatches
        assert ("F(a1)", parse(m.sig, caught)) in report.los_mismatches
    assert is_full(m, formulas=pool).full


def test_satisfies_resolves_quotient_aliases_as_resolve_constant():
    """In M/G a non-representative t names its class through c_t; satisfies'
    constant table resolves c_t, the model constant k and every element
    constant as resolve_constant does."""
    m = BVModel.make(B4, ["s", "t", "u"], eq={("s", "t"): B4.atom("a1")},
                     rels={"R": {("s",): B4.atom("a1"), ("t",): B4.atom("a1"),
                                 ("u",): B4.atom("a2")}},
                     consts={"k": "t"})
    assert validate(m).ok and is_full(m).full
    x = Var("x")
    for atom, rep_t in (("a1", "s"), ("a2", "t")):
        t = tarski_quotient(m, Filter(B4, B4.atom(atom)))
        assert t.resolve_constant("c_t") == t._consts["c_t"] == rep_t
        assert t.resolve_constant("k") == t._consts["k"] == rep_t
        assert satisfies(t, Eq(Const("c_t"), Const("c_s"))) == (atom == "a1")
        for name in ("k", "c_s", "c_t", "c_u"):
            assert satisfies(t, Eq(Const(name), x),
                             {"x": t.resolve_constant(name)})
        with pytest.raises(UnknownConstantError, match="c_zz"):
            satisfies(t, Eq(Const("c_zz"), Const("c_s")))


def ternary_model() -> BVModel:
    """Three atoms, domain s, t, u with [s=t] = a1 and [t=u] = a2, a unary R,
    a ternary T and a constant k.  At each atom a relation holds of a tuple
    by a predicate of the tuple's classes there, so the model is valid."""
    alg = mk_powerset(["a1", "a2", "a3"])
    dom = ("s", "t", "u")
    rep = ({"s": "s", "t": "s", "u": "u"}, {"s": "s", "t": "t", "u": "t"},
           {d: d for d in dom})
    t_holds = (lambda c: len(set(c)) == 2, lambda c: c[0] == "s",
               lambda c: c in {("s", "t", "u"), ("u", "u", "s")})

    def value(holds, tup):
        return alg.from_labels(a for i, a in enumerate(alg.atoms)
                               if holds[i](tuple(rep[i][d] for d in tup)))
    rels = {"R": {(d,): value([lambda c: c == ("s",)] * 3, (d,)) for d in dom},
            "T": {tup: value(t_holds, tup)
                  for tup in product(dom, repeat=3)}}
    eq = {("s", "t"): alg.atom("a1"), ("t", "u"): alg.atom("a2")}
    return BVModel.make(alg, dom, eq=eq, rels=rels, consts={"k": "u"})


def test_walkers_on_a_ternary_relation():
    """The arity-3 paths of both walkers: eval_formula against the recursive
    oracle on the closed pool and on the open pool under every env, and the
    Los test, which runs satisfies on the same pool."""
    m = ternary_model()
    assert validate(m).ok and m.sig.rel_arity == {"R": 1, "T": 3}
    top = m.alg.top.bits
    pool = closed_pool(m.sig, m.domain, 2)
    assert sum("sym='T'" in repr(f) for f in pool) > 100
    for f in pool:
        assert eval_formula(m, f).bits == recursive_eval_bits(m, f, {}, top)
    for f in open_pool(m.sig, m.domain, "x"):
        for d in m.domain:
            assert eval_formula(m, f, {"x": d}).bits == \
                recursive_eval_bits(m, f, {"x": d}, top)
    rep = is_full(m, 2)
    assert rep.full and rep.formulas_checked == len(pool)


def test_no_runner_writes_into_its_env():
    """is_full and the clause rows hand the runners one env that they rebind
    per value, so no runner of either walker may write into the env it is
    given.  Every runner runs on the closed and open pools and the validity
    list (which binds x and holds Or and Implies) of M_R and the ternary
    model, under {} and under {"x": d}; satisfies on each Tarski quotient."""
    kinds = set()
    for m in (m_r(), ternary_model()):
        closed = closed_pool(m.sig, m.domain, 2) + standard_validities(m)
        opened = open_pool(m.sig, m.domain, "x")
        walkers = [(_EVAL, m._evaluator, m.domain)]
        for atom in m.alg.atom_elems():
            t = tarski_quotient(m, Filter(m.alg, atom))
            walkers.append((_SAT, t, t.domain))
        for table, walker, ids in walkers:
            runs = [({}, closed)] + [({"x": d}, closed + opened) for d in ids]
            for env, pool in runs:
                for f in pool:
                    kinds.add(type(f))
                    before = dict(env)
                    table[type(f)](walker, env, f)
                    assert env == before, (table is _SAT, f)
    assert kinds == set(_EVAL) == set(_SAT)


def test_quotient_by_trivial_filter_is_isomorphic_copy():
    m = m_r()
    q = quotient_model(m, Filter(B4, B4.top))
    assert validate(q).ok
    assert find_model_isomorphism(m, q) is not None


def test_quotient_nontrivial_collapses():
    m = m_r()
    q = quotient_model(m, Filter(B4, B4.atom("a1")))
    assert validate(q).ok
    assert q.alg.atom_count == 1
    assert len(q.domain) == 2  # [s=t]=0 not in F(a1)


def test_tarski_quotient_examples():
    m = m_r()
    t = tarski_quotient(m, Filter(B4, B4.atom("a1")))
    assert satisfies(t, parse(m.sig, "E x. R(x)"))
    assert satisfies(t, parse(m.sig, "~R(c_t)"))
    assert satisfies(t, parse(m.sig, "R(c_s)"))
    assert satisfies(t, parse(m.sig, "c_s = c_s"))
    assert not satisfies(t, parse(m.sig, "c_s = c_t"))


def test_tarski_quotient_identifies_when_filter_says_so():
    m = mnm()
    m.eq["s", "t"] = m.eq["t", "s"] = B4.atom("a1")
    assert validate(m).ok
    t = tarski_quotient(m, Filter(B4, B4.atom("a1")))
    assert len(t.domain) == 1
    t2 = tarski_quotient(m, Filter(B4, B4.atom("a2")))
    assert len(t2.domain) == 2


def test_is_full_mnm_and_witness_cover():
    rep = is_full(mnm(), 2)
    assert rep.full and rep.procedures_agree

    m = m_r()
    rep = is_full(m, 2)
    assert rep.full and rep.procedures_agree
    covers = dict(rep.witness_covers)
    target = parse(m.sig, "E x1. R(x1)")
    assert covers[target] == ("s", "t")  # both witnesses needed for a1 v a2


def test_is_full_one_element_model_over_b2():
    m = BVModel.make(B2, ["e"], rels={"R": {("e",): B2.top}})
    rep = is_full(m, 2)
    assert rep.full and rep.procedures_agree


def test_is_full_accepts_any_iterable_of_formulas():
    """A generator or an iterator over the pool gives the list's report,
    formulas_checked counting the formulas it yielded."""
    m = m_r()
    pool = closed_pool(m.sig, m.domain, 2)
    rep = is_full(m, formulas=pool)
    assert rep.formulas_checked == len(pool)
    assert is_full(m, formulas=(f for f in pool)) == rep
    assert is_full(m, formulas=iter(pool)) == rep
    assert is_full(m, formulas=iter(())).formulas_checked == 0


def _count_runner_calls(monkeypatch) -> Counter:
    """Wrap every runner of the evaluator's table with a count of its calls
    per node class."""
    calls = Counter()
    for kind, run in list(_EVAL.items()):
        def counted(ev, env, f, run=run, kind=kind):
            calls[kind] += 1
            return run(ev, env, f)
        monkeypatch.setitem(_EVAL, kind, counted)
    return calls


def test_is_full_reads_the_values_eval_formula_kept(monkeypatch):
    """After eval_formula over the closed pool, is_full(m, 2) runs no
    evaluator runner: every value and body value comes from the memo."""
    m = m_r()
    values = [eval_formula(m, f) for f in closed_pool(m.sig, m.domain, 2)]
    calls = _count_runner_calls(monkeypatch)
    assert is_full(m, 2).full and not calls
    assert [eval_formula(m, f) for f in closed_pool(m.sig, m.domain, 2)] \
        == values and not calls


def test_is_full_keeps_nothing(monkeypatch):
    """On a fresh model two is_full calls run the same number of runners,
    more than none: is_full leaves no value behind for the next call."""
    m = m_r()
    calls = _count_runner_calls(monkeypatch)
    first = is_full(m, 2)
    counted = sum(calls.values())
    calls.clear()
    assert is_full(m, 2) == first
    assert sum(calls.values()) == counted > 0
    assert not m._evaluator.closed


def test_the_closed_memo_is_keyed_by_node_identity(monkeypatch):
    """A formula equal to a memoized one but another object is evaluated
    again, and so is an equal formula handed to is_full."""
    m = m_r()
    f, g = (Exists("x", Rel("R", (Var("x"),))) for _ in range(2))
    assert f == g and f is not g
    value = eval_formula(m, f)
    calls = _count_runner_calls(monkeypatch)
    assert eval_formula(m, f) == value and not calls
    assert eval_formula(m, g) == value and calls[Rel] == len(m.domain)
    calls.clear()
    assert is_full(m, formulas=[Exists("x", Rel("R", (Var("x"),)))]).full
    assert calls[Rel] == len(m.domain)


def test_the_memos_hold_no_reference_to_the_model():
    """With the collector off only reference counts free the model, so it
    is gone right after del once eval_formula and is_full have filled and
    read the evaluator's memos, the columns among them: nothing there refers
    back to it."""
    m = m_r()
    for f in closed_pool(m.sig, m.domain, 2):
        eval_formula(m, f)
    assert is_full(m, 2).full and m._evaluator.closed and m._evaluator.cols
    ref, enabled = weakref.ref(m), gc.isenabled()
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_is_full_and_the_clause_rows_leave_the_columns_alone():
    """is_full and fullness_via_sections keep their columns in a dict of
    their own call: the evaluator's column memo holds the same entries
    before and after each, empty on a fresh model and filled by
    eval_formula."""
    m = m_r()
    assert is_full(m, 2).full and fullness_via_sections(m, 2).all_agree
    assert not m._evaluator.cols and not m._evaluator.closed
    for f in closed_pool(m.sig, m.domain, 1):
        eval_formula(m, f)
    before = dict(m._evaluator.cols)
    assert before
    assert is_full(m, 2).full and fullness_via_sections(m, 2).all_agree
    assert m._evaluator.cols == before


def _renamed(m, prefix: str) -> BVModel:
    """m with each domain id d renamed prefix + d, its tables and constants
    carried along: the same columns, whose covers name other elements."""
    r = {d: prefix + d for d in m.domain}
    return BVModel(m.alg, m.sig, tuple(r.values()),
                   {(r[a], r[b]): v for (a, b), v in m.eq.items()},
                   {sym: {tuple(map(r.get, tup)): v for tup, v in t.items()}
                    for sym, t in m.rels.items()},
                   {c: r[d] for c, d in m.consts.items()})


def _repeating_columns(pool):
    """Each formula of pool and, after each E-rooted one, the same object
    again and E x. (body | body), another object with the same column."""
    for f in pool:
        yield f
        if isinstance(f, Exists):
            yield f
            yield Exists(f.var, Or(f.body, f.body))


def test_witness_covers_match_the_per_formula_covers():
    """is_full's witness covers, found once per distinct column, equal
    _smallest_cover on each formula's per-element body dict, entry by entry:
    on the depth-2 and depth-3 closed pools of seeded random models, fresh
    and after eval_formula kept the pools' values, on a formulas iterable
    that repeats columns, and on a renamed copy of each model, whose
    columns are the model's but whose covers name other elements."""
    rng, shared = random.Random(28), 0
    for _ in range(40):
        m = random_model(rng, 4, 4)
        pools = {d: closed_pool(m.sig, m.domain, d) for d in (2, 3)}
        want = {d: witness_covers_per_formula(m, pool)
                for d, pool in pools.items()}
        repeated = list(_repeating_columns(pools[2]))
        want_repeated = witness_covers_per_formula(m, repeated)
        for kept in (False, True):
            if kept:
                for f in (*pools[2], *pools[3]):
                    eval_formula(m, f)
            for d in pools:
                assert is_full(m, d).witness_covers == want[d]
            rep = is_full(m, formulas=_repeating_columns(pools[2]))
            assert rep.witness_covers == want_repeated
            assert rep.formulas_checked == len(repeated)
        shared += len(want[3]) - len({tuple(m._evaluator.closed[id(f)][1])
                                      for f, _ in want[3]})
        u = _renamed(m, "u")
        assert is_full(u, 2).witness_covers == witness_covers_per_formula(
            u, closed_pool(u.sig, u.domain, 2))
    assert shared > 10000


def _column_pools(m):
    """The closed formulas (closed_pool(m, 2), the validity list, and the
    E-closures of Or and Implies bodies, which the pools lack), the
    one-variable formulas (the open pool, those bodies, and the bodies of
    the validity list's quantifiers) and the two-variable ones."""
    x, y = Var("x"), Var("y")
    opened = open_pool(m.sig, m.domain, "x")
    atoms = [f for f in opened if isinstance(f, (Eq, Rel))][:6]
    mixed = [Or(a, Not(b)) for a in atoms for b in atoms[:2]]
    mixed += [Implies(a, b) for a in atoms[:3] for b in atoms]
    closed = closed_pool(m.sig, m.domain, 2) + standard_validities(m)
    closed += [Exists("x", f) for f in mixed]
    one = opened + mixed + [f.body for f in closed
                            if isinstance(f, (Exists, Forall))
                            and free_vars(f.body) == {"x"}]
    two = [Eq(x, y), And(Eq(x, y), Not(atoms[0])),
           Or(Implies(Eq(y, x), atoms[1]), Exists("x", Eq(x, y)))]
    two += [Rel(sym, (x, y)) for sym, a in m.sig.rel_arity.items() if a == 2]
    return closed, one, two


def _as_body_dict(m, hit: tuple) -> tuple:
    """(value, column) as the per-element loop's (value, body dict)."""
    value, col = hit
    return value, None if col is None else dict(zip(m.domain, col))


def test_columns_match_the_per_element_loops():
    """On seeded random models of 1-4 atoms and 2-4 elements, every closed
    formula's value and E-rooted body column, read off columns shared across
    the pool (eval_formula's memo, and a dict per pass), equal the
    per-element loop's value and body dict, the column in domain order; so
    do _tuple_values for one and two free variables, in the same order."""
    rng = random.Random(27)
    kinds = set()
    for _ in range(40):
        m = random_model(rng, 4, 4)
        closed, one, two = _column_pools(m)
        cols = {}
        for f in closed:
            want = closed_value_per_element(m, f)
            got = _closed_value(m._evaluator, f, cols)
            assert _as_body_dict(m, got) == want
            assert eval_formula(m, f).bits == want[0]
            assert _as_body_dict(m, m._evaluator.closed[id(f)][:2]) == want
        for free, pool in ((("x",), one), (("x", "y"), two)):
            for f in pool:
                want = tuple_values_per_tuple(m, f, free)
                assert list(want) == list(product(m.domain, repeat=len(free)))
                assert _tuple_values(m, f, free, cols) == list(want.values())
        kinds.update(type(f) for _, f in cols.values())
    assert {Not, And, Or, Implies, Eq, Rel, Exists} <= kinds


def test_a_column_is_kept_per_variable():
    """The column memo is keyed by the node and the bound variable: R(x)'s
    column under x is no answer for R(x) under y, which has x free."""
    m = m_r()
    ev, cols, f = m._evaluator, {}, parse(m.sig, "R(x)")
    assert _column(ev, "x", f, cols) == [1, 2]
    with pytest.raises(ModelError, match="free variable 'x'"):
        _column(ev, "y", f, cols)
    assert [key[1] for key in cols] == ["x"]


def _outcome(run, *args):
    """What run(*args) returned, or the type and message of what it raised."""
    try:
        return "returned", run(*args)
    except (ModelError, TypeError) as err:
        return type(err), str(err)


def test_columns_raise_as_the_per_element_loops():
    """Each eval error row, as a closed formula and as a formula of x or of
    x and y: _closed_value and _tuple_values raise the per-element loop's
    exception, type and message, or return its values."""
    m = m_r()
    raised = 0
    for f, _, _, _, _ in _error_rows(m.sig):
        want = _outcome(closed_value_per_element, m, f)
        assert _outcome(_closed_value, m._evaluator, f, {}) == want
        raised += want[0] != "returned"
        for free in (("x",), ("x", "y")):
            want = _outcome(lambda: list(tuple_values_per_tuple(
                m, f, free).values()))
            assert _outcome(_tuple_values, m, f, free, {}) == want
            raised += want[0] != "returned"
    assert raised > 20


def test_has_mixing_mnm_fails_with_smallest_witness():
    rep = has_mixing(mnm())
    assert not rep.passed
    chain, assignment = rep.witness
    assert set(chain) == {"a1", "a2"}
    assert sorted(assignment.values()) == ["s", "t"]


def test_has_mixing_b2_model_passes():
    m = BVModel.make(B2, ["s", "t"], sig=Signature.make({}))
    assert has_mixing(m).passed


def test_has_mixing_max_antichain_cap():
    rep = has_mixing(mnm(), max_antichain=1)
    assert rep.passed  # the failing antichain has size 2, out of the cap
    assert rep.antichains_checked == 3
    with pytest.raises(AlgebraError, match="at least 1"):
        has_mixing(mnm(), max_antichain=0)


BELL = (1, 1, 2, 5, 15, 52, 203, 877)  # Bell(0..7): partitions of k points


def test_has_mixing_matches_the_antichain_search():
    """The stalk-product procedure against the search over every antichain
    and assignment: the same verdict, witness and count under every cap,
    and an uncapped pass counts every antichain, Bell(n+1) - 1 of them."""
    rng = random.Random(2026)
    kinds = set()
    for _ in range(300):
        m = random_model(rng, 4, 4)
        for cap in (None, 1, 2, 3):
            rep = has_mixing(m, cap)
            assert rep == search_mixing(m, cap), (m, cap)
            kinds.add((cap, rep.passed))
            if cap is None and rep.passed:
                assert rep.antichains_checked == BELL[m.alg.atom_count + 1] - 1
    assert kinds == {(None, True), (None, False), (1, True), (2, True),
                     (2, False), (3, True), (3, False)}


def test_six_atom_mixification_passes_with_every_antichain_counted():
    rng = random.Random(1)
    m = random_model(rng, 6, 4)
    while m.alg.atom_count != 6 or len(m.domain) != 4:
        m = random_model(rng, 6, 4)
    assert not has_mixing(m).passed
    assert has_mixing(mixify(m)[0]) == MixingReport(True, None, 876)


def _graph(nodes, edges):
    return TarskiModel(Signature.make({"R": 2}), tuple(nodes),
                       {"R": frozenset(edges)}, {})


def test_product_model_and_principal_ultraproduct():
    g0 = _graph(["u", "v"], [("u", "v")])
    g1 = _graph(["w", "z"], [("w", "z"), ("z", "w")])
    prod = product_model([g0, g1])
    assert validate(prod).ok
    assert len(prod.domain) == 4
    assert has_mixing(prod).passed
    up0 = ultraproduct([g0, g1], Filter(prod.alg, prod.alg.atom("i0")))
    # projection to factor 0: same size and the same relation pattern
    assert len(up0.domain) == len(g0.domain)
    proj = {d: d.split(".")[0] for d in up0.domain}
    assert {tuple(proj[x] for x in tup) for tup in up0.rels["R"]} == \
        set(g0.rels["R"])


def test_product_model_los_bothways():
    g0 = _graph(["u", "v"], [("u", "v")])
    g1 = _graph(["w", "z"], [("w", "z"), ("z", "w")])
    prod = product_model([g0, g1])
    rep = is_full(prod, 2)
    assert rep.full and rep.procedures_agree


def test_product_signature_mismatch():
    g0 = _graph(["u"], [])
    bad = TarskiModel(Signature.make({"S": 1}), ("x",), {"S": frozenset()}, {})
    with pytest.raises(ModelError):
        product_model([g0, bad])


def test_check_morphism_identity_is_iso_and_elementary():
    m = m_r()
    from bvmsheaf.balg import BAHom
    mor = BVMorphism(m, m, BAHom.identity(B4), {d: d for d in m.domain})
    rep = check_morphism(mor)
    assert rep.is_morphism and rep.is_embedding and rep.is_isomorphism
    assert is_elementary(mor, 2)


def test_collapse_morphism_is_not_embedding():
    m = m_r()
    one = BVModel.make(B4, ["e"], rels={"R": {("e",): B4.top}})
    from bvmsheaf.balg import BAHom
    mor = BVMorphism(m, one, BAHom.identity(B4), {"s": "e", "t": "e"})
    rep = check_morphism(mor)
    assert rep.is_morphism and not rep.is_embedding


def test_check_morphism_matches_the_elem_reference():
    """check_morphism, on bits, against the Elem-based body it replaced, on
    morphisms failing each way: an equality inequality, a relation
    inequality, an unpreserved constant, an embedding that is not exact and
    a map that is not onto each give the same report, with the violations
    in the same order; an entry of another algebra, in the source or the
    target, raises the same AlgebraError."""
    from bvmsheaf.balg import BAHom, BoolAlg, Elem
    a1, a2, top = B4.atom("a1"), B4.atom("a2"), B4.top
    rels = {"R": {("s",): a1, ("t",): a2}}

    def model(eq=None, rel=None, consts=None, domain=("s", "t")):
        return BVModel.make(B4, domain, eq or {}, rel or rels,
                            consts or {"c": "s"},
                            Signature.make({"R": 1}, ("c",)))

    def report(source, target, phi=None):
        mor = BVMorphism(source, target, BAHom.identity(B4),
                         phi or {"s": "s", "t": "t"})
        return check_morphism(mor), elem_check_morphism(mor)

    cases = {
        "equality": report(model({("s", "t"): a1}), model()),
        "relation": report(model(), model(rel={"R": {("s",): B4.bottom,
                                                     ("t",): top}})),
        "constant": report(model(), model(consts={"c": "t"})),
        "inexact": report(model(), model({("s", "t"): a1})),
        "not onto": report(model(), model(domain=("s", "t", "u"))),
        "iso": report(model(), model()),
    }
    for fast, reference in cases.values():
        assert fast == reference
    assert cases["equality"][0].violations == (
        "equality inequality fails at (s,t)", "equality inequality fails at (t,s)")
    assert cases["relation"][0].violations == (
        "relation inequality fails for R at ('s',)",)
    assert cases["constant"][0].violations == ("constant c not preserved",)
    verdicts = {k: (r.is_morphism, r.is_embedding, r.is_isomorphism)
                for k, (r, _) in cases.items()}
    assert verdicts == {"equality": (False, False, False),
                        "relation": (False, False, False),
                        "constant": (False, False, False),
                        "inexact": (True, False, False),
                        "not onto": (True, True, False),
                        "iso": (True, True, True)}
    # homs that move bits: the swap of B4's atoms, and B4 into B8
    swap = BAHom.from_dict(B4, B4, {"a1": "a2", "a2": "a1"})
    b8 = mk_powerset(["a1", "a2", "a3"])
    into = BAHom.from_dict(B4, b8, {"a1": "a1", "a2": "a2", "a3": "a2"})
    source = model({("s", "t"): a1})

    def image(i, m):
        return BVModel(i.target, m.sig, m.domain,
                       {k: i(v) for k, v in m.eq.items()},
                       {sym: {t: i(v) for t, v in table.items()}
                        for sym, table in m.rels.items()}, m.consts)

    moved = [BVMorphism(source, target, i, {"s": "s", "t": "t"})
             for i, target in ((swap, source), (swap, image(swap, source)),
                               (into, image(into, source)))]
    reports = [check_morphism(mor) for mor in moved]
    assert reports == [elem_check_morphism(mor) for mor in moved]
    assert [(r.is_morphism, r.is_embedding, r.is_isomorphism)
            for r in reports] == [(False, False, False), (True, True, True),
                                  (True, True, False)]
    alien = BoolAlg(("z1", "z2"))
    for side in ("source", "target"):
        source, target = model(), model()
        bad = source if side == "source" else target
        bad.eq["t", "s"] = Elem(alien, 0)
        mor = BVMorphism(source, target, BAHom.identity(B4),
                         {"s": "s", "t": "t"})
        messages = []
        for check in (check_morphism, elem_check_morphism):
            with pytest.raises(AlgebraError) as err:
                check(mor)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    # random models: the unit and the mixify embedding, and each with one
    # target entry raised to top or lowered to bottom
    rng = random.Random(23)
    for _ in range(40):
        m = random_model(rng, 3, 3)
        _, emb = mixify(m)
        for mor in (emb, BVMorphism(m, m, BAHom.identity(m.alg),
                                    {d: d for d in m.domain})):
            n = mor.target
            for pair in list(n.eq)[:3]:
                for bits in (0, n.alg._top):
                    eq = {**n.eq, pair: Elem(n.alg, bits)}
                    mut = BVMorphism(m, BVModel(n.alg, n.sig, n.domain, eq,
                                                n.rels, n.consts), mor.i, mor.phi)
                    assert check_morphism(mut) == elem_check_morphism(mut)
            assert check_morphism(mor) == elem_check_morphism(mor)


def test_substitution_law_on_samples():
    rng = random.Random(11)
    for _ in range(25):
        m = random_model(rng)
        pool = open_pool(m.sig, m.domain, "x")[:40]
        for f in pool:
            for a in m.domain:
                for b in m.domain:
                    lhs = m.eq[a, b] & eval_formula(m, substitute(f, "x", f"c_{a}"))
                    assert lhs <= eval_formula(m, substitute(f, "x", f"c_{b}"))


def test_standard_validities_all_top():
    rng = random.Random(13)
    for _ in range(25):
        m = random_model(rng)
        vals = standard_validities(m)
        assert len(vals) == 10
        for f in vals:
            assert eval_formula(m, f).is_top


def test_every_random_model_is_valid_and_full():
    rng = random.Random(17)
    for _ in range(30):
        m = random_model(rng)
        assert validate(m).ok
        rep = is_full(m, 1)
        assert rep.full and rep.procedures_agree


def test_mixing_implies_full_on_samples():
    rng = random.Random(19)
    seen_mixing = 0
    for _ in range(40):
        m = random_model(rng, max_atoms=2, max_domain=3)
        if has_mixing(m).passed:
            seen_mixing += 1
            assert is_full(m, 2).full
    assert seen_mixing > 0


def test_closed_pool_is_deterministic_and_deduplicated():
    m = m_r()
    p1 = closed_pool(m.sig, m.domain, 2)
    p2 = closed_pool(m.sig, m.domain, 2)
    assert p1 == p2
    assert len(p1) == len(set(p1))


def test_pools_accept_any_iterable_of_elements():
    # a one-shot iterator gave a short closed pool (24 formulas, not 85)
    # before the pools normalised their elements to a tuple at entry
    sig = Signature.make({"R": 1})
    ids = ("d0", "d1")
    for depth in (1, 2):
        expected = closed_pool(sig, ids, depth)
        for elements in (list(ids), ids, iter(ids)):
            assert closed_pool(sig, elements, depth) == expected
    assert len(closed_pool(sig, iter(ids), 2)) == 85
    expected = open_pool(sig, ids, "x")
    for elements in (list(ids), ids, iter(ids)):
        assert open_pool(sig, elements, "x") == expected


def test_pool_cache_hands_out_fresh_lists():
    m = m_r()
    for build in (lambda: closed_pool(m.sig, m.domain, 2),
                  lambda: open_pool(m.sig, m.domain, "x")):
        p1, p2 = build(), build()
        assert p1 == p2 and p1 is not p2
        p1.append(Eq(Var("x"), Var("x")))
        p1.pop(0)
        assert build() == p2


def test_cached_pools_equal_the_uncached_builders():
    """The cached pools against the uncached builders, and the closed pool,
    built with no final dedupe, against the builder that dedupes."""
    from bvmsheaf.bvm import _closed_pool, _open_pool
    rng = random.Random(9)
    for _ in range(12):
        m = random_model(rng)
        ids = tuple(m.domain)
        for depth in (0, 1, 2, 3):
            pool = closed_pool(m.sig, m.domain, depth)
            assert pool == list(_closed_pool.__wrapped__(m.sig, ids, depth))
            assert pool == closed_pool_dedupe(m.sig, m.domain, depth)
        assert open_pool(m.sig, m.domain, "x") == \
            list(_open_pool.__wrapped__(m.sig, ids, "x"))


def test_pools_depend_only_on_signature_and_domain():
    a, b = m_r(), BVModel.make(B2, ["s", "t"], eq={("s", "t"): B2.top},
                               rels={"R": {("s",): B2.top, ("t",): B2.top}})
    assert a.sig == b.sig and a.domain == b.domain and a.alg != b.alg
    assert closed_pool(a.sig, a.domain, 2) == closed_pool(b.sig, b.domain, 2)
    assert open_pool(a.sig, a.domain, "x") == open_pool(b.sig, b.domain, "x")
    assert is_full(a, 2).formulas_checked == is_full(b, 2).formulas_checked


def test_quotient_representatives_are_least_ids():
    # domain deliberately out of id order; the b-class reps must be the
    # lexicographically least member of each class
    m = BVModel.make(B4, ["z", "a"], eq={("z", "a"): B4.top},
                     sig=Signature.make({}))
    q = quotient_model(m, Filter(B4, B4.top))
    assert q.domain == ("a",)


def test_model_needs_nonempty_distinct_domain():
    with pytest.raises(ModelError):
        BVModel.make(B4, [], sig=Signature.make({}))
    with pytest.raises(ModelError):
        BVModel.make(B4, ["s", "s"], sig=Signature.make({}))


def test_product_rejects_dotted_ids():
    g = TarskiModel(Signature.make({"R": 1}), ("u.v",),
                    {"R": frozenset()}, {})
    with pytest.raises(ModelError):
        product_model([g, g])


def test_validities_need_a_relation():
    m = mnm()
    with pytest.raises(ModelError):
        standard_validities(m)


# -- the model's evaluator against the recursive oracle ------------------------

def _oracle_values(m, pool) -> list:
    """(formula, value, body values at each d or None) for each pool formula,
    by the recursive oracle; an E-rooted formula's value is the join of its
    body values, exactly as the oracle computes it."""
    top = m.alg.top.bits
    out = []
    for f in pool:
        if isinstance(f, Exists):
            body = {d: recursive_eval_bits(m, f.body, {f.var: d}, top)
                    for d in m.domain}
            out.append((f, reduce(or_, body.values()), body))
        else:
            out.append((f, recursive_eval_bits(m, f, {}, top), None))
    return out


@pytest.fixture(scope="module")
def oracle_models():
    """The acceptance 200-model sample (seed 2026) and 300 seeded models of
    up to 4 atoms and 4 elements, each with its closed_pool(., 2) valued by
    the recursive oracle."""
    rng = random.Random(2026)
    models = [random_model(rng) for _ in range(200)]
    rng = random.Random(23)
    models += [random_model(rng, 4, 4) for _ in range(300)]
    return [(m, _oracle_values(m, closed_pool(m.sig, m.domain, 2)))
            for m in models]


def test_eval_formula_matches_recursive_oracle(oracle_models):
    """The closed pool, the open pool under every env, the validity list
    (the pools hold no Or or Implies), and A x. E x. P(x..), whose inner
    quantifier rebinds the variable the outer one bound."""
    for m, oracle in oracle_models:
        for f, value, _ in oracle:
            assert eval_formula(m, f).bits == value
        top = m.alg.top.bits
        for f in standard_validities(m):
            binary = isinstance(f, (And, Or, Implies))
            for sub in (f, f.lhs, f.rhs) if binary else (f,):
                assert eval_formula(m, sub).bits == \
                    recursive_eval_bits(m, sub, {}, top)
        shadowed = Forall("x", Exists("x", _p_of_x(m)))
        assert eval_formula(m, shadowed).bits == \
            recursive_eval_bits(m, shadowed, {}, top)
        for f in open_pool(m.sig, m.domain, "x"):
            for d in m.domain:
                env = {"x": d}
                assert eval_formula(m, f, env).bits == \
                    recursive_eval_bits(m, f, env, top)


def test_is_full_covers_match_recursive_oracle(oracle_models):
    """Each E-rooted formula's cover is the smallest cover, by the oracle's
    body values at each d, of the oracle's value; the Los test finds no
    mismatch, so every value is_full used agrees with M/G."""
    for m, oracle in oracle_models:
        rep = is_full(m, 2, [f for f, _, _ in oracle])
        assert rep.full and not rep.los_mismatches
        assert rep.formulas_checked == len(oracle)
        assert rep.witness_covers == tuple(
            (f, _smallest_cover(body, value))
            for f, value, body in oracle if body is not None)


def _p_of_x(m):
    """The model's first relation symbol with every argument x, as
    standard_validities builds it."""
    sym, arity = next(iter(m.sig.rel_arity.items()))
    return Rel(sym, (Var("x"),) * arity)


def _bundle_pool(m):
    """One-variable open formulas, the two-variable atoms, quantified
    one-variable formulas re-generalized from the depth-1 closed pool, and
    x both free and bound."""
    x, y = Var("x"), Var("y")
    pool = list(open_pool(m.sig, m.domain, "x"))
    pool.append(And(_p_of_x(m), Exists("x", Not(_p_of_x(m)))))
    pool.append(Eq(x, y))
    pool.extend(Rel(sym, (x, y)) for sym, arity in m.sig.rel_arity.items()
                if arity == 2)
    for f in closed_pool(m.sig, m.domain, 1)[::29]:
        g = generalize(f, f"c_{m.domain[0]}", "x")
        if "x" in free_vars(g):
            pool.append(g)
    return pool


def test_phi_bundle_matches_recursive_oracle(oracle_models):
    """Every PhiBundle field, from b_phi (the oracle's value of the
    existential closure) and the oracle's tuple values."""
    for m, _ in oracle_models:
        top = m.alg.top.bits
        reps = {pt: {a: min(b for b in m.domain if m.eq[b, a].bits >> i & 1)
                     for a in m.domain}
                for i, pt in enumerate(m.alg.atoms)}
        for f in _bundle_pool(m):
            free = tuple(sorted(free_vars(f)))
            closed = f
            for v in free:
                closed = Exists(v, closed)
            b_phi = recursive_eval_bits(m, closed, {}, top)
            values = {tup: recursive_eval_bits(m, f, dict(zip(free, tup)), top)
                      for tup in product(m.domain, repeat=len(free))}
            stalks = {
                pt: tuple(sorted({tuple(reps[pt][t] for t in tup)
                                  for tup, val in values.items()
                                  if val >> i & 1}))
                for i, pt in enumerate(m.alg.atoms) if b_phi >> i & 1}
            n_b = frozenset(stalks)
            pb = phi_bundle(m, f)
            assert (pb.formula, pb.free) == (f, free)
            assert pb.b_phi.bits == b_phi
            assert [(t, v.bits) for t, v in pb.values.items()] == \
                list(values.items())
            assert pb.n_b_phi == n_b
            assert pb.stalks == stalks
            assert pb.a_phi == frozenset(pt for pt in stalks if stalks[pt])


def test_clause_rows_match_the_bundle_scan(oracle_models):
    """Each clause row fullness_via_sections reads off the bitmasks, field by
    field, against the clauses computed on the formula's bundle; on the
    mixifications the product clause is on."""
    fields = ("formula", "finite_cover", "a_phi_full", "a_phi_closed",
              "has_global_section", "product_section")
    rows = 0
    for m, _ in oracle_models:
        for model in (m, mixify(m)[0]):
            rep = fullness_via_sections(model, 2)
            assert rep.mixing_checked or model is m
            for c in rep.clauses:
                scan = bundle_clauses_scan(phi_bundle(model, c.formula),
                                           rep.mixing_checked)
                assert [getattr(c, k) for k in fields] == \
                    [getattr(scan, k) for k in fields]
                rows += 1
    assert rows > 10000


def _broken_copies(m, rng):
    """Copies of m with one table entry changed, removed or replaced by an
    entry of another algebra, or a constant sent outside the domain."""
    elems = list(m.alg.elements())
    other = mk_powerset(["z1"]).top
    dom = m.domain

    def copy():
        return BVModel(m.alg, m.sig, dom, dict(m.eq),
                       {sym: dict(t) for sym, t in m.rels.items()},
                       dict(m.consts))
    sym = next(iter(m.sig.rel_arity))
    out = []
    for _ in range(3):
        a, b = rng.choice(dom), rng.choice(dom)
        c = copy()
        c.eq[a, b] = rng.choice(elems)          # reflexivity, symmetry, transitivity
        out.append(c)
        c = copy()
        c.eq[a, b] = c.eq[b, a] = rng.choice(elems)
        out.append(c)
        c = copy()
        tup = rng.choice(list(c.rels[sym]))
        c.rels[sym][tup] = rng.choice(elems)    # congruence
        out.append(c)
    c = copy()
    del c.rels[sym][rng.choice(list(c.rels[sym]))]
    out.append(c)
    c = copy()
    del c.eq[rng.choice(dom), rng.choice(dom)]
    out.append(c)
    c = copy()
    c.rels[sym][rng.choice(list(c.rels[sym]))] = other
    out.append(c)
    c = copy()
    c.consts["k"] = "zz"
    out.append(c)
    return out


def test_validate_on_bits_matches_the_elem_oracle(oracle_models):
    """Byte-identical reports, in the same order, on the 500-model sample
    and on hand-broken copies of its first 100 models."""
    rng = random.Random(31)
    kinds = set()
    for k, (m, _) in enumerate(oracle_models):
        assert validate(m) == elem_validate(m)
        if k >= 100:
            continue
        for c in _broken_copies(m, rng):
            rep = validate(c)
            assert rep == elem_validate(c)
            kinds.update(v.split()[0] for v in rep.violations)
    assert kinds == {"reflexivity", "symmetry", "transitivity", "congruence",
                     "relation", "equality", "constant"}
