"""Surface syntax for problems.

    problem     := "minimization" params? vars objective constraints?
    params      := "!params" pdecl ("," pdecl)*
    pdecl       := ident (":" ("nonneg" | "pos" | "nonpos" | "neg"))?
    vars        := "!vars" ident+
    objective   := "!objective" expr
    constraints := "!constraints" constraint ("," constraint)*
    constraint  := expr ("<=" | "<" | "=" | ">=" | ">") expr

Expression precedence, loosest first: "+ -", "* /", unary "-", "^" (integer
literal exponent only), then atom application ident(expr) for exp, log, sqrt
and abs.  Whitespace is insignificant, "#" starts a line comment, numeric
literals are decimals with an optional exponent part, and a literal past the
float range is an error.  Files use the .opt extension by convention.

The printer is deterministic: declaration order preserved, one constraint per
line, minimal parentheses.  Printing then reparsing reproduces the same tree.
"""

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .problem import (
    ATOM_ARITY,
    SIGN_ATTRS,
    Call,
    ConifyError,
    Const,
    Constraint,
    Expr,
    Param,
    ParamDecl,
    Problem,
    Var,
)

# Atoms callable from the surface syntax.
CALLABLE_ATOMS = ("exp", "log", "sqrt", "abs")

# Each binary operator's atom and precedence level, loosest first.  Unary
# minus binds at _UNARY, "^" at _POW, and a literal, name, call or
# parenthesised expression at _PRIMARY.  The parser's precedence loop and the
# printer's parentheses both read this table.
_BINARY = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2)}
_UNARY, _POW, _PRIMARY = 3, 4, 5
_SYMBOL = {atom: op for op, (atom, _) in _BINARY.items()}
_LEVEL = {**dict(_BINARY.values()), "neg": _UNARY, "pow": _POW}


@dataclass(frozen=True)
class ParseIssue:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class DslError(ConifyError):
    def __init__(self, issues: list[ParseIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


class Token(NamedTuple):
    kind: str  # "ident" | "number" | "op" | "cmp" | "kw" | "eof"
    text: str
    pos: int  # offset in the source text


_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r\n]+|\#[^\n]*)
  | (?P<kw>!(?:params|vars|objective|constraints)\b)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<cmp><=|>=|<|>|=)
  | (?P<op>[-+*/^(),:])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _error(text: str, pos: int, message: str) -> DslError:
    """A DslError at offset pos, where every character is one column."""
    col = pos - text.rfind("\n", 0, pos)
    return DslError([ParseIssue(text.count("\n", 0, pos) + 1, col, message)])


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {lexeme!r}")
        if kind != "skip":
            toks.append(Token("kw" if lexeme == "minimization" else kind, lexeme, m.start()))
    toks.append(Token("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, variables=(), params=()):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.variables: list[str] = list(variables)
        self.params: list[ParamDecl] = list(params)

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is text (an op, cmp or kw text)."""
        if self.peek().text == text:
            self.i += 1
            return True
        return False

    def fail(self, tok: Token, msg: str) -> DslError:
        return _error(self.text, tok.pos, msg)

    def expected(self, what: str, tok: Token) -> DslError:
        return self.fail(tok, f"expected {what}, found {tok.text or 'end of input'!r}")

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            raise self.expected(repr(text or kind), t)
        return t

    def end(self, what: str) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise self.fail(t, f"unexpected {t.text!r} after {what}")

    def comma_list(self, item, out: list) -> list:
        """item() ("," item())*, each appended to out as it is parsed."""
        out.append(item())
        while self.accept(","):
            out.append(item())
        return out

    def number(self, tok: Token) -> float:
        v = float(tok.text)
        if not math.isfinite(v):
            raise self.fail(tok, f"number {tok.text!r} is past the float range")
        return v

    # --- declarations -----------------------------------------------------

    def parse_problem(self) -> Problem:
        self.expect("kw", "minimization")
        if self.accept("!params"):
            self.comma_list(self.parse_pdecl, self.params)
        self.expect("kw", "!vars")
        first = self.expect("ident")
        self.variables.append(first.text)
        while self.peek().kind == "ident":
            self.variables.append(self.next().text)
        names = self.variables + [d.name for d in self.params]
        if len(set(names)) < len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise self.fail(first, f"name {dup!r} declared more than once")
        self.expect("kw", "!objective")
        objective = self.parse_expr()
        constraints = self.comma_list(self.parse_constraint, []) if self.accept("!constraints") else []
        self.end("problem")
        return Problem(tuple(self.variables), tuple(self.params), objective, tuple(constraints))

    def parse_pdecl(self) -> ParamDecl:
        name = self.expect("ident")
        sign = "none"
        if self.accept(":"):
            attr = self.expect("ident")
            if attr.text == "none" or attr.text not in SIGN_ATTRS:  # "none" is the unwritten default
                raise self.fail(attr, f"unknown sign attribute {attr.text!r}")
            sign = attr.text
        if any(d.name == name.text for d in self.params):
            raise self.fail(name, f"parameter {name.text!r} declared more than once")
        return ParamDecl(name.text, sign)

    # --- constraints and expressions ---------------------------------------

    def parse_constraint(self) -> Constraint:
        lhs = self.parse_expr()
        t = self.next()
        if t.kind != "cmp":
            raise self.expected("a comparator", t)
        return Constraint(lhs, t.text, self.parse_expr())

    def parse_expr(self, level: int = 1) -> Expr:
        """An expression whose binary operators all bind at level or tighter;
        each is left-associative."""
        e = self.parse_unary()
        while (op := _BINARY.get(self.peek().text)) and op[1] >= level:
            self.next()
            e = Call(op[0], (e, self.parse_expr(op[1] + 1)))
        return e

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            inner = self.parse_unary()
            return Const(-inner.value) if isinstance(inner, Const) else Call("neg", (inner,))
        base = self.parse_primary()
        if not self.accept("^"):
            return base
        t = self.next()
        if t.kind != "number" or not t.text.isdigit():
            raise self.fail(t, "exponent must be an integer literal")
        k = self.number(t)
        if k < 1:
            raise self.fail(t, "exponent must be at least 1")
        return Call("pow", (base, Const(k)))

    def parse_primary(self) -> Expr:
        t = self.next()
        if t.kind == "number":
            return Const(self.number(t))
        if t.text == "(":
            e = self.parse_expr()
            self.expect("op", ")")
            return e
        if t.kind != "ident":
            raise self.expected("an expression", t)
        if self.accept("("):
            if t.text not in CALLABLE_ATOMS:
                raise self.fail(t, f"unknown atom {t.text!r}")
            args = self.comma_list(self.parse_expr, [])
            self.expect("op", ")")
            if len(args) != ATOM_ARITY[t.text]:
                raise self.fail(t, f"{t.text} expects {ATOM_ARITY[t.text]} argument(s), got {len(args)}")
            return Call(t.text, tuple(args))
        if t.text in self.variables:
            return Var(t.text)
        if any(d.name == t.text for d in self.params):
            return Param(t.text)
        raise self.fail(t, f"unknown identifier {t.text!r}")


def parse(text: str) -> Problem:
    return _Parser(text).parse_problem()


def _parse_in(text: str, p: Problem, rule, what: str):
    """rule's parse of all of text, against p's declarations."""
    parser = _Parser(text, p.variables, p.params)
    result = rule(parser)
    parser.end(what)
    return result


def parse_expr_in(text: str, p: Problem) -> Expr:
    """Parse a bare expression against a problem's declarations."""
    return _parse_in(text, p, _Parser.parse_expr, "expression")


def parse_constraint_in(text: str, p: Problem) -> Constraint:
    return _parse_in(text, p, _Parser.parse_constraint, "constraint")


# --- printing ---------------------------------------------------------------


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _PRIMARY if e.value >= 0 else _UNARY
    return _LEVEL.get(e.atom, _PRIMARY) if isinstance(e, Call) else _PRIMARY


def _wrap(e: Expr, level: int) -> str:
    """e printed as an operand that must bind at level or tighter."""
    return f"({print_expr(e)})" if _prec(e) < level else print_expr(e)


def print_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return _num(e.value)
    if isinstance(e, (Var, Param)):
        return e.name
    assert isinstance(e, Call)
    a = e.args
    if e.atom in _SYMBOL:
        # left-associative: a right operand at the same level keeps its parentheses
        level = _LEVEL[e.atom]
        return f"{_wrap(a[0], level)} {_SYMBOL[e.atom]} {_wrap(a[1], level + 1)}"
    if e.atom == "neg":
        return f"-{_wrap(a[0], _UNARY)}"
    if e.atom == "pow":
        return f"{_wrap(a[0], _PRIMARY)} ^ {int(a[1].value)}"
    return f"{e.atom}({print_expr(a[0])})"


def print_constraint(c: Constraint) -> str:
    return f"{print_expr(c.lhs)} {c.op} {print_expr(c.rhs)}"


def print_problem(p: Problem) -> str:
    lines = ["minimization"]
    if p.params:
        decls = ", ".join(d.name if d.sign == "none" else f"{d.name}: {d.sign}" for d in p.params)
        lines.append(f"  !params {decls}")
    lines.append(f"  !vars {' '.join(p.variables)}")
    lines.append(f"  !objective {print_expr(p.objective)}")
    if p.constraints:
        lines.append("  !constraints")
        for i, c in enumerate(p.constraints):
            comma = "," if i + 1 < len(p.constraints) else ""
            lines.append(f"    {print_constraint(c)}{comma}")
    return "\n".join(lines) + "\n"
