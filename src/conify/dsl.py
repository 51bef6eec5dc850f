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
literals are decimals with an optional exponent part.  Files use the .opt
extension by convention.

The printer is deterministic: declaration order preserved, one constraint per
line, minimal parentheses.  Printing then reparsing reproduces the same tree.
"""

import re
from dataclasses import dataclass

from .problem import (
    ATOM_ARITY,
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


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "op" | "cmp" | "kw" | "eof"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<kw>!(?:params|vars|objective|constraints)\b)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<cmp><=|>=|<|>|=)
  | (?P<op>[-+*/^(),:])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError([ParseIssue(line, col, f"unexpected character {text[pos]!r}")])
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            if kind == "ident" and lexeme == "minimization":
                kind = "kw"
            toks.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.variables: list[str] = []
        self.params: list[ParamDecl] = []

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, tok: Token, msg: str) -> "DslError":
        return DslError([ParseIssue(tok.line, tok.col, msg)])

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            got = t.text or "end of input"
            raise self.fail(t, f"expected {want!r}, found {got!r}")
        return self.next()

    # --- declarations -----------------------------------------------------

    def parse_problem(self) -> Problem:
        self.expect("kw", "minimization")
        if self.peek().kind == "kw" and self.peek().text == "!params":
            self.next()
            self.params.append(self.parse_pdecl())
            while self.peek().kind == "op" and self.peek().text == ",":
                self.next()
                self.params.append(self.parse_pdecl())
        self.expect("kw", "!vars")
        first = self.expect("ident")
        self.variables.append(first.text)
        while self.peek().kind == "ident":
            self.variables.append(self.next().text)
        self._check_distinct(first)
        self.expect("kw", "!objective")
        objective = self.parse_expr()
        constraints: list[Constraint] = []
        if self.peek().kind == "kw" and self.peek().text == "!constraints":
            self.next()
            constraints.append(self.parse_constraint())
            while self.peek().kind == "op" and self.peek().text == ",":
                self.next()
                constraints.append(self.parse_constraint())
        t = self.peek()
        if t.kind != "eof":
            raise self.fail(t, f"unexpected {t.text!r} after problem")
        return Problem(tuple(self.variables), tuple(self.params), objective, tuple(constraints))

    def _check_distinct(self, at: Token) -> None:
        names = self.variables + [d.name for d in self.params]
        seen: set = set()
        for n in names:
            if n in seen:
                raise self.fail(at, f"name {n!r} declared more than once")
            seen.add(n)

    def parse_pdecl(self) -> ParamDecl:
        name = self.expect("ident")
        sign = "none"
        if self.peek().kind == "op" and self.peek().text == ":":
            self.next()
            attr = self.expect("ident")
            if attr.text not in ("nonneg", "pos", "nonpos", "neg"):
                raise self.fail(attr, f"unknown sign attribute {attr.text!r}")
            sign = attr.text
        if any(d.name == name.text for d in self.params):
            raise self.fail(name, f"parameter {name.text!r} declared more than once")
        return ParamDecl(name.text, sign)

    # --- constraints and expressions ---------------------------------------

    def parse_constraint(self) -> Constraint:
        lhs = self.parse_expr()
        t = self.peek()
        if t.kind != "cmp":
            raise self.fail(t, f"expected a comparator, found {t.text or 'end of input'!r}")
        self.next()
        rhs = self.parse_expr()
        return Constraint(lhs, t.text, rhs)

    def parse_expr(self) -> Expr:
        return self.parse_sum()

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.parse_term()
            e = Call("add" if op == "+" else "sub", (e, rhs))
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.parse_unary()
            e = Call("mul" if op == "*" else "div", (e, rhs))
        return e

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            inner = self.parse_unary()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Call("neg", (inner,))
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            t = self.peek()
            if t.kind != "number" or not re.fullmatch(r"\d+", t.text):
                raise self.fail(t, "exponent must be an integer literal")
            self.next()
            k = int(t.text)
            if k < 1:
                raise self.fail(t, "exponent must be at least 1")
            return Call("pow", (base, Const(float(k))))
        return base

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return Const(float(t.text))
        if t.kind == "op" and t.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect("op", ")")
            return e
        if t.kind == "ident":
            self.next()
            if self.peek().kind == "op" and self.peek().text == "(":
                if t.text not in CALLABLE_ATOMS:
                    raise self.fail(t, f"unknown atom {t.text!r}")
                self.next()
                args = [self.parse_expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.next()
                    args.append(self.parse_expr())
                self.expect("op", ")")
                if len(args) != ATOM_ARITY[t.text]:
                    raise self.fail(
                        t, f"{t.text} expects {ATOM_ARITY[t.text]} argument(s), got {len(args)}"
                    )
                return Call(t.text, tuple(args))
            if t.text in self.variables:
                return Var(t.text)
            if any(d.name == t.text for d in self.params):
                return Param(t.text)
            raise self.fail(t, f"unknown identifier {t.text!r}")
        raise self.fail(t, f"expected an expression, found {t.text or 'end of input'!r}")


def parse(text: str) -> Problem:
    return _Parser(_tokenize(text)).parse_problem()


def parse_expr_in(text: str, p: Problem) -> Expr:
    """Parse a bare expression against a problem's declarations."""
    parser = _Parser(_tokenize(text))
    parser.variables = list(p.variables)
    parser.params = [d for d in p.params]
    e = parser.parse_expr()
    t = parser.peek()
    if t.kind != "eof":
        raise parser.fail(t, f"unexpected {t.text!r} after expression")
    return e


def parse_constraint_in(text: str, p: Problem) -> Constraint:
    parser = _Parser(_tokenize(text))
    parser.variables = list(p.variables)
    parser.params = [d for d in p.params]
    c = parser.parse_constraint()
    t = parser.peek()
    if t.kind != "eof":
        raise parser.fail(t, f"unexpected {t.text!r} after constraint")
    return c


# --- printing ---------------------------------------------------------------

_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_PRIMARY = 1, 2, 3, 4, 5


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _LEVEL_PRIMARY if e.value >= 0 else _LEVEL_UNARY
    if isinstance(e, (Var, Param)):
        return _LEVEL_PRIMARY
    assert isinstance(e, Call)
    return {
        "add": _LEVEL_SUM,
        "sub": _LEVEL_SUM,
        "mul": _LEVEL_TERM,
        "div": _LEVEL_TERM,
        "neg": _LEVEL_UNARY,
        "pow": _LEVEL_POW,
    }.get(e.atom, _LEVEL_PRIMARY)


def _wrap(e: Expr, level: int, right_of_same: bool = False) -> str:
    text = print_expr(e)
    p = _prec(e)
    if p < level or (right_of_same and p == level):
        return f"({text})"
    return text


def print_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return _num(e.value)
    if isinstance(e, (Var, Param)):
        return e.name
    assert isinstance(e, Call)
    a = e.args
    if e.atom in ("add", "sub"):
        op = "+" if e.atom == "add" else "-"
        return f"{_wrap(a[0], _LEVEL_SUM)} {op} {_wrap(a[1], _LEVEL_SUM, right_of_same=True)}"
    if e.atom in ("mul", "div"):
        op = "*" if e.atom == "mul" else "/"
        return f"{_wrap(a[0], _LEVEL_TERM)} {op} {_wrap(a[1], _LEVEL_TERM, right_of_same=True)}"
    if e.atom == "neg":
        return f"-{_wrap(a[0], _LEVEL_UNARY)}"
    if e.atom == "pow":
        return f"{_wrap(a[0], _LEVEL_PRIMARY)} ^ {_num(a[1].value)}"
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
