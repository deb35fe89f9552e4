"""Formula grammar: parsing, printing, round trips, error positions."""

import random

import pytest

from bvmsheaf.logic import (And, ArityMismatchError, Const, Eq, Exists,
                            Forall, Implies, Not, Or, ParseError, Rel,
                            Signature, UnknownSymbolError, Var,
                            check_wellformed, free_vars, parse,
                            print_formula, substitute)

SIG = Signature.make({"R": 2, "Q": 2, "P": 1}, {"k"})
SIG_R1 = Signature.make({"R": 1})
SIG_R2 = Signature.make({"R": 2})


def test_parse_spec_examples():
    f = parse(SIG_R2, "E x. R(x, c_tau)")
    assert f == Exists("x", Rel("R", (Var("x"), Const("c_tau"))))
    g = parse(SIG_R1, "(R(c_s) & ~(c_s = c_t))")
    assert g == And(Rel("R", (Const("c_s"),)),
                    Not(Eq(Const("c_s"), Const("c_t"))))
    h = parse(SIG, "E x. (P(x) | Q(x,x))")
    assert h == Exists("x", Or(Rel("P", (Var("x"),)),
                               Rel("Q", (Var("x"), Var("x")))))


def test_whitespace_insensitive():
    assert parse(SIG, "  P(k)  ") == parse(SIG, "P(k)")
    assert parse(SIG, "E x .\tP( x )") == parse(SIG, "E x. P(x)")
    assert parse(SIG, "( P(k) & P(k) )\n") == parse(SIG, "(P(k)&P(k))")


def test_parse_connectives_and_quantifiers():
    assert parse(SIG, "A y. (P(y) -> P(y))") == \
        Forall("y", Implies(Rel("P", (Var("y"),)), Rel("P", (Var("y"),))))
    assert parse(SIG, "~~P(k)") == Not(Not(Rel("P", (Const("k"),))))
    assert parse(SIG, "x = y") == Eq(Var("x"), Var("y"))


def test_declared_constant_vs_variable():
    f = parse(SIG, "P(k)")
    assert f == Rel("P", (Const("k"),))
    g = parse(SIG, "P(z)")
    assert g == Rel("P", (Var("z"),))


_MALFORMED = [
    "",
    "R(",
    "R(x,)",
    "(P(x) & )",
    "E . P(x)",
    "x =",
    "= x",
    "~",
    "(P(x) | P(x)",
    "E x P(x)",
    "P(x))",
    "(P(x) P(x))",
    "P(x) & P(x)",
    "E E. P(x)",
    "A k. P(k)",
    "R x, y)",
    "(P(x) <- P(x))",
    "E x",
    "(P(k)",
    "E",
]

# one input ending early at each place the parser can meet the end
_END_OF_INPUT = {
    "~": "expected a formula, found end of input (at position 1)",
    "R(": "expected a term, found end of input (at position 2)",
    "(P(k)": "expected a binary connective, found end of input (at position 5)",
    "E x": "expected '.', found end of input (at position 3)",
    "E": "expected a variable, found end of input (at position 1)",
}


@pytest.mark.parametrize("text", _MALFORMED)
def test_malformed_inputs_raise_with_position(text):
    with pytest.raises(ParseError) as err:
        parse(SIG, text)
    assert isinstance(err.value.position, int)
    assert err.value.position >= 0
    assert "None" not in str(err.value)
    if text in _END_OF_INPUT:
        assert str(err.value) == _END_OF_INPUT[text]


def test_unknown_symbol_and_arity_are_distinct_errors():
    with pytest.raises(UnknownSymbolError):
        parse(SIG, "S(x)")
    with pytest.raises(ArityMismatchError):
        parse(SIG, "R(x, y, z)")
    with pytest.raises(ArityMismatchError):
        parse(SIG, "P(x, y)")


def test_free_vars_and_substitute():
    f = parse(SIG_R2, "E x. R(x, y)")
    assert free_vars(f) == {"y"}
    g = parse(SIG_R1, "R(x)")
    assert substitute(g, "x", "c_s") == parse(SIG_R1, "R(c_s)")
    closed = parse(SIG_R1, "E x. R(x)")
    assert substitute(closed, "x", "c_s") == closed
    # substitution only touches free occurrences
    h = parse(SIG_R2, "(R(x, x) & E x. R(x, x))")
    out = substitute(h, "x", "c_s")
    assert out == parse(SIG_R2, "(R(c_s, c_s) & E x. R(x, x))")


def _random_formula(rng, sig, vars_in_scope, depth):
    arities = dict(sig.relations)
    terms = [Var(v) for v in vars_in_scope] + \
        [Const(c) for c in sig.constants] + \
        [Const(f"c_e{rng.randint(0, 2)}")]
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Eq(rng.choice(terms), rng.choice(terms))
        sym = rng.choice(sorted(arities))
        return Rel(sym, tuple(rng.choice(terms)
                              for _ in range(arities[sym])))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_formula(rng, sig, vars_in_scope, depth - 1))
    if kind in (1, 2, 3):
        node = (And, Or, Implies)[kind - 1]
        return node(_random_formula(rng, sig, vars_in_scope, depth - 1),
                    _random_formula(rng, sig, vars_in_scope, depth - 1))
    var = f"v{len(vars_in_scope)}"
    node = Exists if kind == 4 else Forall
    return node(var, _random_formula(rng, sig, vars_in_scope + [var],
                                     depth - 1))


def test_print_parse_roundtrip_thousand_random_asts():
    rng = random.Random(20260809)
    for _ in range(1200):
        f = _random_formula(rng, SIG, ["x0"], rng.randint(0, 5))
        check_wellformed(SIG, f)
        assert parse(SIG, print_formula(f)) == f


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature.make({"E": 1})
    with pytest.raises(ValueError):
        Signature.make({"R": 0})
    with pytest.raises(ValueError):
        Signature.make({"R": 1}, {"R"})
    with pytest.raises(ValueError):
        Signature.make({"=": 2})
