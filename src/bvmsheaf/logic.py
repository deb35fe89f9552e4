"""Relational first-order signatures, formula ASTs, and the text grammar.

Grammar (whitespace insensitive, binary connectives fully parenthesized):

    formula ::= R "(" term {"," term} ")"
              | term "=" term
              | "~" formula
              | "(" formula "&" formula ")"
              | "(" formula "|" formula ")"
              | "(" formula "->" formula ")"
              | "(" formula ")"
              | "E" var "." formula
              | "A" var "." formula
    term    ::= var | const

"E" and "A" are reserved words.  An identifier is a constant when it is
declared in the signature or has the element-constant shape `c_<id>`;
any other identifier in term position is a variable.
"""

from __future__ import annotations

import re

from .record import Record

RESERVED = {"E", "A"}


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FormulaSyntaxError(ParseError):
    pass


class UnknownSymbolError(ParseError):
    pass


class ArityMismatchError(ParseError):
    pass


class Signature(Record):
    """Relation symbols with arities plus declared constant symbols."""

    relations: tuple[tuple[str, int], ...]
    constants: frozenset[str] = frozenset()

    @staticmethod
    def make(relations: dict | None = None, constants=()) -> "Signature":
        rels = tuple(sorted((relations or {}).items()))
        return Signature(rels, frozenset(constants))

    def __post_init__(self):
        seen = set()
        for sym, arity in self.relations:
            if arity < 1:
                raise ValueError(f"relation {sym} must have arity >= 1")
            if sym in seen or sym in RESERVED or sym == "=":
                raise ValueError(f"bad or duplicate relation symbol {sym!r}")
            seen.add(sym)
        for c in self.constants:
            if c in seen or c in RESERVED or c == "=":
                raise ValueError(f"bad or duplicate constant symbol {c!r}")
            seen.add(c)

    @property
    def rel_arity(self) -> dict:
        return dict(self.relations)

    def is_constant(self, name: str) -> bool:
        return name in self.constants or name.startswith("c_")


class Var(Record):
    name: str


class Const(Record):
    name: str


Term = Var | Const


class Rel(Record):
    sym: str
    args: tuple


class Eq(Record):
    lhs: Term
    rhs: Term


class Not(Record):
    body: "Formula"


class And(Record):
    lhs: "Formula"
    rhs: "Formula"


class Or(Record):
    lhs: "Formula"
    rhs: "Formula"


class Implies(Record):
    lhs: "Formula"
    rhs: "Formula"


class Exists(Record):
    var: str
    body: "Formula"


class Forall(Record):
    var: str
    body: "Formula"


Formula = Rel | Eq | Not | And | Or | Implies | Exists | Forall

_TOKEN = re.compile(r"\s*(->|[()=,.~&|]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].isspace():
                break
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


def _shown(tok) -> str:
    """A token as an error message names it; None is the end sentinel."""
    return "end of input" if tok is None else repr(tok)


class _Parser:
    def __init__(self, sig: Signature, text: str):
        self.sig = sig
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, want: str):
        tok, pos = self.advance()
        if tok != want:
            raise FormulaSyntaxError(f"expected {want!r}, found {_shown(tok)}", pos)
        return pos

    def term(self) -> Term:
        tok, pos = self.advance()
        if tok is None or not tok[0].isalpha() and tok[0] != "_":
            raise FormulaSyntaxError(f"expected a term, found {_shown(tok)}", pos)
        if tok in RESERVED:
            raise FormulaSyntaxError(f"{tok!r} is reserved", pos)
        if self.sig.is_constant(tok):
            return Const(tok)
        if tok in self.sig.rel_arity:
            raise FormulaSyntaxError(f"relation symbol {tok!r} used as a term", pos)
        return Var(tok)

    def formula(self) -> Formula:
        tok, pos = self.peek()
        if tok == "~":
            self.advance()
            return Not(self.formula())
        if tok == "(":
            self.advance()
            lhs = self.formula()
            op, op_pos = self.advance()
            if op == ")":  # redundant grouping parentheses
                return lhs
            if op not in ("&", "|", "->"):
                raise FormulaSyntaxError(
                    f"expected a binary connective, found {_shown(op)}", op_pos
                )
            rhs = self.formula()
            self.expect(")")
            node = {"&": And, "|": Or, "->": Implies}[op]
            return node(lhs, rhs)
        if tok in RESERVED:
            self.advance()
            var, var_pos = self.advance()
            if var is None or not var[0].isalpha() and var[0] != "_":
                raise FormulaSyntaxError(f"expected a variable, found {_shown(var)}", var_pos)
            if var in RESERVED or self.sig.is_constant(var) or var in self.sig.rel_arity:
                raise FormulaSyntaxError(f"{var!r} cannot be a bound variable", var_pos)
            self.expect(".")
            body = self.formula()
            return (Exists if tok == "E" else Forall)(var, body)
        if tok is not None and (tok[0].isalpha() or tok[0] == "_"):
            nxt, _ = self.tokens[self.idx + 1]
            if nxt == "(":
                return self.relation()
            lhs = self.term()
            self.expect("=")
            rhs = self.term()
            return Eq(lhs, rhs)
        raise FormulaSyntaxError(f"expected a formula, found {_shown(tok)}", pos)

    def relation(self) -> Rel:
        sym, pos = self.advance()
        arities = self.sig.rel_arity
        if sym not in arities:
            raise UnknownSymbolError(f"unknown relation symbol {sym!r}", pos)
        self.expect("(")
        args = [self.term()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.term())
        self.expect(")")
        if len(args) != arities[sym]:
            raise ArityMismatchError(
                f"{sym} expects {arities[sym]} arguments, got {len(args)}", pos
            )
        return Rel(sym, tuple(args))


def parse(sig: Signature, text: str) -> Formula:
    """Parse a formula; parse(print_formula(f)) == f for every AST f."""
    parser = _Parser(sig, text)
    out = parser.formula()
    tok, pos = parser.peek()
    if tok is not None:
        raise FormulaSyntaxError(f"trailing input {tok!r}", pos)
    return out


def print_formula(f: Formula) -> str:
    if isinstance(f, Rel):
        return f"{f.sym}({','.join(t.name for t in f.args)})"
    if isinstance(f, Eq):
        return f"{f.lhs.name} = {f.rhs.name}"
    if isinstance(f, Not):
        return f"~{print_formula(f.body)}"
    if isinstance(f, And):
        return f"({print_formula(f.lhs)} & {print_formula(f.rhs)})"
    if isinstance(f, Or):
        return f"({print_formula(f.lhs)} | {print_formula(f.rhs)})"
    if isinstance(f, Implies):
        return f"({print_formula(f.lhs)} -> {print_formula(f.rhs)})"
    if isinstance(f, Exists):
        return f"E {f.var}. {print_formula(f.body)}"
    if isinstance(f, Forall):
        return f"A {f.var}. {print_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Rel):
        return frozenset(t.name for t in f.args if isinstance(t, Var))
    if isinstance(f, Eq):
        return frozenset(t.name for t in (f.lhs, f.rhs) if isinstance(t, Var))
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def map_terms(f: Formula, fn, bound: frozenset = frozenset()) -> Formula:
    """Rebuild f with every term t replaced by fn(t, bound), where bound is
    the set of variables bound by the quantifiers enclosing that occurrence."""
    if isinstance(f, Rel):
        return Rel(f.sym, tuple(fn(t, bound) for t in f.args))
    if isinstance(f, Eq):
        return Eq(fn(f.lhs, bound), fn(f.rhs, bound))
    if isinstance(f, Not):
        return Not(map_terms(f.body, fn, bound))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(map_terms(f.lhs, fn, bound), map_terms(f.rhs, fn, bound))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, map_terms(f.body, fn, bound | {f.var}))
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, var: str, const: str) -> Formula:
    """Replace the free occurrences of var by the constant; constants cannot
    be captured, so no renaming is ever needed."""

    def sub_term(t: Term, bound: frozenset) -> Term:
        if isinstance(t, Var) and t.name == var and var not in bound:
            return Const(const)
        return t

    return map_terms(f, sub_term)


def check_wellformed(sig: Signature, f: Formula) -> None:
    """Validate a programmatically built AST against the signature."""
    arities = sig.rel_arity
    if isinstance(f, Rel):
        if f.sym not in arities:
            raise UnknownSymbolError(f"unknown relation symbol {f.sym!r}", 0)
        if len(f.args) != arities[f.sym]:
            raise ArityMismatchError(
                f"{f.sym} expects {arities[f.sym]} arguments, got {len(f.args)}", 0
            )
    elif isinstance(f, Eq):
        pass
    elif isinstance(f, Not):
        check_wellformed(sig, f.body)
    elif isinstance(f, (And, Or, Implies)):
        check_wellformed(sig, f.lhs)
        check_wellformed(sig, f.rhs)
    elif isinstance(f, (Exists, Forall)):
        check_wellformed(sig, f.body)
    else:
        raise TypeError(f"not a formula: {f!r}")
