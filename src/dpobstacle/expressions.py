"""A tiny arithmetic expression grammar for config files.

Grammar (infix, usual precedence, ``^`` is right-associative power)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := ("+" | "-") unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | IDENT | FUNC "(" expr ("," expr)* ")" | "(" expr ")"

Identifiers are restricted to the spatial coordinates ``x`` and ``y``;
the only functions are ``abs``, ``min``, ``max``, ``exp``, ``sin``
(``min``/``max`` take exactly two arguments, the rest one).  Compiled
expressions evaluate vectorized over numpy arrays.  :func:`require_coordinates`
rejects an expression that uses a coordinate the mesh lacks (``y`` in 1D).
Every failure, an expression nested deeper than Python's recursion limit
included, raises :class:`~dpobstacle.errors.EvaluationError`.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import EvaluationError

__all__ = ["Expression", "compile_expression", "require_coordinates"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {
    "abs": (1, np.abs),
    "exp": (1, np.exp),
    "sin": (1, np.sin),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

_VARIABLES = ("x", "y")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise EvaluationError(f"unrecognized input near {rest[:10]!r} in {text!r}")
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.variables = set()  # the coordinates the text uses

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise EvaluationError(f"expected {op!r} in {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek() != ("end", None):
            raise EvaluationError(f"trailing input in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.next()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.next()
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.next()
            node = self.unary()
            return node if op == "+" else ("neg", node)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            rhs = self.unary()  # right-associative
            node = ("pow", node, rhs)
        return node

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return ("const", val)
        if kind == "ident":
            if val in _FUNCTIONS:
                nargs, _ = _FUNCTIONS[val]
                self.expect_op("(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != nargs:
                    raise EvaluationError(
                        f"{val} takes {nargs} argument(s), got {len(args)} in {self.text!r}"
                    )
                return ("call", val, args)
            if val in _VARIABLES:
                self.variables.add(val)
                return ("var", val)
            raise EvaluationError(f"unknown identifier {val!r} in {self.text!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise EvaluationError(f"unexpected token in {self.text!r}")


def _evaluate(node, env):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "neg":
        return -_evaluate(node[1], env)
    if tag == "call":
        _, fn = _FUNCTIONS[node[1]]
        return fn(*[_evaluate(a, env) for a in node[2]])
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if tag == "add":
        return a + b
    if tag == "sub":
        return a - b
    if tag == "mul":
        return a * b
    if tag == "div":
        return np.divide(a, b)
    if tag == "pow":
        return np.power(a, b)
    raise AssertionError(tag)


class Expression:
    """A compiled arithmetic expression over the coordinates ``x`` (and ``y``)."""

    def __init__(self, text):
        self.text = text.strip()
        parser = _Parser(self.text)
        try:
            self.ast = parser.parse()
        except RecursionError:
            raise self._too_deep() from None
        self.variables = frozenset(parser.variables)

    def _too_deep(self):
        return EvaluationError(
            f"expression of {len(self.text)} characters is nested too deeply")

    def __call__(self, x, y=None):
        env = {"x": np.asarray(x, dtype=float)}
        if y is not None:
            env["y"] = np.asarray(y, dtype=float)
        elif "y" in self.variables:
            raise EvaluationError(
                f"expression {self.text!r} uses y but only one coordinate was supplied"
            )
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                out = _evaluate(self.ast, env)
            except FloatingPointError as exc:
                raise EvaluationError(f"evaluating {self.text!r}: {exc}") from exc
            except RecursionError:
                raise self._too_deep() from None
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(env["x"])).copy()

    def __repr__(self):
        return f"Expression({self.text!r})"

    def __eq__(self, other):
        return isinstance(other, Expression) and self.text == other.text

    def __hash__(self):
        return hash(self.text)


def compile_expression(text):
    """Parse ``text`` and return an :class:`Expression` (raises EvaluationError)."""
    return Expression(text)


def require_coordinates(expr, dim):
    """``expr`` itself if it uses only the coordinates of a ``dim``-D mesh
    (``x``, plus ``y`` in 2D); raises EvaluationError otherwise."""
    extra = expr.variables - set(_VARIABLES[:dim])
    if extra:
        raise EvaluationError(
            f"variable(s) {sorted(extra)} not available on a {dim}D mesh"
        )
    return expr
