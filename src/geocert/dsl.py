"""Expression DSL: a small arithmetic grammar over atoms, variables, constants.

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := NUMBER | IDENT | IDENT "(" args ")" | "(" expr ")" | "-" factor

"*" only scales a scalar subexpression by a constant.  Products of two
non-constant factors (and any product involving a matrix-valued factor) are
rejected at parse time: no composition rule can certify them, and the trace
times negated log-determinant counterexample shows the failure is real, not
a gap in the rules.  The unicode minus sign is accepted as "-".
"""

from __future__ import annotations

import re

import numpy as np

from .errors import GeocertError, ParseError, UnknownAtomError
from .expr import (
    EXPR_KINDS,
    Add,
    AtomApply,
    ConstMatrix,
    ConstScalar,
    Expression,
    MaxOf,
    Mul,
    ParamRef,
    Variable,
    apply_atom,
    lookup_atom,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[()+\-*,]))"
)

PRODUCT_REJECTION = (
    "products are not DGCP-representable: geodesic convexity is not preserved "
    "under products (midpoint value -32 exceeds the chord value -128 for "
    "tr(X) * -logdet(X) between scaled identities)"
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    normalized = text.replace("−", "-")
    while pos < len(normalized):
        nl = normalized.count("\n", line_start, pos)
        if nl:
            line += nl
            line_start = normalized.rfind("\n", 0, pos) + 1
        m = _TOKEN_RE.match(normalized, pos)
        if not m or m.end() == pos:
            rest = normalized[pos:].lstrip()
            if not rest:
                break
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {rest[0]!r}", line, col)
        col = m.start(m.lastgroup) - line_start + 1
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), line, col))
        pos = m.end()
    tokens.append(_Token("end", "", line, len(normalized) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, env: dict):
        if not text or not text.strip():
            raise ParseError("empty expression")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.env = env

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                         tok.line, tok.column)

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def located(self, parse):
        """The token ``parse()`` starts at, with its result."""
        return self.peek(), parse()

    # expr := term (("+" | "-") term)*
    def expr(self):
        terms = [self.located(self.term)]
        weights = [1.0]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            terms.append(self.located(self.term))
            weights.append(1.0 if op.text == "+" else -1.0)
        if len(terms) == 1:
            return terms[0][1]
        return Add(tuple(self._as_scalar_expr(*t) for t in terms), tuple(weights))

    # term := factor ("*" factor)*
    def term(self):
        start = self.peek()
        factors = [self.factor()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        weight = 1.0
        others = []
        for f in factors:
            if isinstance(f, ConstScalar):
                weight *= f.value
            else:
                others.append(f)
        if not others:
            return ConstScalar(weight)
        if len(others) > 1:
            self.fail(PRODUCT_REJECTION, start)
        inner = others[0]
        if isinstance(inner, ParamRef) or not isinstance(inner, Expression) or inner.kind != "scalar":
            self.fail(
                "only scalar subexpressions can be scaled; matrix factors are not "
                "DGCP-representable", start,
            )
        return Add((inner,), (weight,))

    # factor := NUMBER | IDENT | IDENT "(" args ")" | "(" expr ")" | "-" factor
    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, ConstScalar):
                return ConstScalar(-inner.value)
            if isinstance(inner, ParamRef) or inner.kind != "scalar":
                self.fail("negation applies to scalar subexpressions", tok)
            return Add((inner,), (-1.0,))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "number":
            self.advance()
            return ConstScalar(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            return self.resolve(tok)
        self.fail(f"unexpected token {tok.text or 'end of input'!r}", tok)

    def resolve(self, tok: _Token):
        name = tok.text
        entry = self.env.get(name)
        if entry is None:
            self.fail(f"unknown identifier '{name}'", tok)
        if isinstance(entry, Variable):
            return entry
        value = np.asarray(entry, dtype=float)
        if value.ndim == 2 and value.shape[0] == value.shape[1]:
            return ConstMatrix(value, name=name)
        return ParamRef(name=name, value=value)

    def call(self, name_tok: _Token):
        name = name_tok.text
        self.expect("(")
        items = [self.located(self.argument)]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            items.append(self.located(self.argument))
        self.expect(")")
        if name == "max":
            return MaxOf(tuple(self._as_scalar_expr(*i) for i in items))
        try:
            lookup_atom(name)
        except UnknownAtomError:
            self.fail(f"unknown atom '{name}'", name_tok)
        try:
            return apply_atom(name, [item for _, item in items])
        except GeocertError as exc:
            self.fail(f"in call to '{name}': {exc}", name_tok)

    def argument(self):
        return self.expr()

    def _as_scalar_expr(self, tok: _Token, item):
        """``item``, unless it is not scalar: then the error points at ``tok``, its first token."""
        if isinstance(item, ParamRef):
            self.fail(f"vector constant '{item.name}' cannot appear in arithmetic", tok)
        if item.kind != "scalar":
            self.fail("matrix-valued subexpressions cannot be combined arithmetically; "
                      "route matrix sums through positive_affine", tok)
        return item


def parse_dsl(text: str, env: dict) -> Expression:
    """Parse objective text against an environment of variables and constants.

    ``env`` maps identifiers to ``Variable`` instances or to constant arrays
    (square matrices become matrix constants; vectors and non-square arrays
    bind only in atom parameter slots).  The result is scalar-valued.
    """
    parser = _Parser(text, env)
    out = parser.expr()
    end = parser.peek()
    if end.kind != "end":
        parser.fail(f"unexpected trailing input {end.text!r}", end)
    if isinstance(out, ParamRef):
        raise ParseError(f"'{out.name}' is a parameter constant, not an objective")
    if out.kind != "scalar":
        raise ParseError("objective must be scalar-valued")
    return out


def _fmt_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def unparse(e: Expression) -> str:
    """Render an expression back to DSL text; parse(unparse(parse(s))) is stable."""
    return _unparse(e, top=True)


def _unparse(e: Expression, top: bool = False) -> str:
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, ConstScalar):
        return _fmt_number(e.value)
    if isinstance(e, ConstMatrix):
        if e.name:
            return e.name
        raise GeocertError("cannot render an unnamed matrix constant")
    if isinstance(e, Add):
        parts = []
        for i, (w, t) in enumerate(zip(e.weights, e.terms)):
            body = _wrap(t)
            # A lone term keeps its "1 *": without it the text parses to the term itself.
            if w == 1.0 and len(e.terms) > 1:
                parts.append(body if i == 0 else f"+ {body}")
            elif w == -1.0:
                parts.append(f"-{body}" if i == 0 else f"- {body}")
            else:
                scaled = f"{_fmt_number(w)} * {body}"
                parts.append(scaled if i == 0 else f"+ {scaled}")
        return " ".join(parts)
    if isinstance(e, MaxOf):
        return "max(" + ", ".join(_unparse(o) for o in e.options) + ")"
    if isinstance(e, AtomApply):
        rendered = []
        args = iter(e.args)
        params = iter(zip(e.params, e.param_labels))
        for kind in e.sig.positions:
            if kind in EXPR_KINDS:
                rendered.append(_unparse(next(args)))
            else:
                value, label = next(params)
                if label:
                    rendered.append(label)
                elif isinstance(value, (int, float)):
                    rendered.append(_fmt_number(value))
                else:
                    raise GeocertError(
                        f"cannot render an unnamed array parameter of '{e.sig.id}'"
                    )
        return f"{e.sig.id}(" + ", ".join(rendered) + ")"
    if isinstance(e, Mul):
        raise GeocertError("products have no DSL form")
    raise GeocertError(f"cannot render node {type(e).__name__}")


def _wrap(e: Expression) -> str:
    text = _unparse(e)
    if isinstance(e, Add):
        return f"({text})"
    return text
