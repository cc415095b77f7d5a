"""A small expression language over indices and their formal combinations.

Grammar (EBNF)::

    expr     := ["-"] term (("+" | "-") term)* ;
    term     := factor ("#" factor)*  |  rational "*" factor ;
    factor   := literal
              | "rep(" int "," int ")"
              | "dual(" expr ")"
              | "hast(" int "," expr ")"
              | "ohno(" int "," expr ")"
              | "(" expr ")" ;
    literal  := "(" int ("," int)* ")"  |  "()" ;
    rational := int  |  int "/" int ;

``#`` is the interleaving product, ``rep(a, l)`` the index ``({a}^l)``,
``dual`` elementwise duality, ``hast(k, e)`` the position-sum product, and
``ohno(m, e)`` the order-``m`` shifted-sum family.  A parenthesised group
whose inside consists purely of integers and commas is a literal index;
anything containing an operator or function is a grouped subexpression
(so ``(2)`` is the index, ``((2))`` a grouped index, ``(2 + (3))`` a sum).

The leading ``-`` and the ``()`` empty-index literal exist so that the
canonical text of any combination parses back to itself; ``expand_text``
additionally accepts ``"0"`` for the zero combination.

Errors raise :class:`ExprError` carrying a 1-based line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ohno.indices import (
    EMPTY,
    Index,
    IndexCombination,
    dual_linear,
    hast,
    repeat,
    sha,
)
from ohno.sums import ohno_sum_symbolic

__all__ = [
    "ExprError",
    "MAX_INT_LITERAL",
    "expand",
    "expand_text",
    "parse",
]

#: Upper bound for integer literals; keeps accidental huge inputs from
#: exploding combinatorial expansions.
MAX_INT_LITERAL = 10**6


class ExprError(ValueError):
    """A parse or expansion error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# -- tokens -------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # INT IDENT LPAREN RPAREN COMMA HASH PLUS MINUS STAR SLASH EOF
    value: Union[int, str, None]
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start_col = col
            j = i
            while j < n and text[j].isdigit():
                j += 1
            value = int(text[i:j])
            if value > MAX_INT_LITERAL:
                raise ExprError(f"integer literal too large (limit {MAX_INT_LITERAL})", line, start_col)
            tokens.append(_Token("INT", value, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            start_col = col
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        simple = {
            "(": "LPAREN",
            ")": "RPAREN",
            ",": "COMMA",
            "#": "HASH",
            "+": "PLUS",
            "-": "MINUS",
            "*": "STAR",
            "/": "SLASH",
        }
        if ch in simple:
            tokens.append(_Token(simple[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", None, line, col))
    return tokens


# -- abstract syntax ----------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    line: int
    col: int


@dataclass(frozen=True)
class Literal(_Node):
    entries: tuple[int, ...]


@dataclass(frozen=True)
class Rep(_Node):
    entry: int
    count: int


@dataclass(frozen=True)
class Dual(_Node):
    child: "_Node"


@dataclass(frozen=True)
class Hast(_Node):
    amount: int
    child: "_Node"


@dataclass(frozen=True)
class OhnoSum(_Node):
    order: int
    child: "_Node"


@dataclass(frozen=True)
class Sha(_Node):
    left: "_Node"
    right: "_Node"


@dataclass(frozen=True)
class Scale(_Node):
    coefficient: Fraction
    child: "_Node"


@dataclass(frozen=True)
class Sum(_Node):
    #: (sign, term) pairs with sign +1 or -1; the first sign may be -1 only
    #: for a leading unary minus.
    terms: tuple[tuple[int, "_Node"], ...]


# -- parsing ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprError(f"expected {what}", tok.line, tok.col)
        return self.advance()

    # expr := ["-"] term (("+"|"-") term)*
    def parse_expr(self) -> _Node:
        first = self.peek()
        sign = 1
        if first.kind == "MINUS":
            self.advance()
            sign = -1
        terms = [(sign, self.parse_term())]
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            terms.append((1 if op.kind == "PLUS" else -1, self.parse_term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(first.line, first.col, tuple(terms))

    # term := factor ("#" factor)* | rational "*" factor
    def parse_term(self) -> _Node:
        tok = self.peek()
        if tok.kind == "INT":
            coefficient = self.parse_rational()
            self.expect("STAR", "'*' after a rational coefficient")
            child = self.parse_factor()
            return Scale(tok.line, tok.col, coefficient, child)
        node = self.parse_factor()
        while self.peek().kind == "HASH":
            op = self.advance()
            right = self.parse_factor()
            node = Sha(op.line, op.col, node, right)
        return node

    def parse_rational(self) -> Fraction:
        numerator = self.expect("INT", "an integer").value
        if self.peek().kind == "SLASH":
            self.advance()
            denominator_tok = self.expect("INT", "an integer denominator")
            if denominator_tok.value == 0:
                raise ExprError("zero denominator", denominator_tok.line, denominator_tok.col)
            return Fraction(numerator, denominator_tok.value)
        return Fraction(numerator)

    def parse_factor(self) -> _Node:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.parse_call()
        if tok.kind == "LPAREN":
            if self._paren_is_literal():
                return self.parse_literal()
            self.advance()
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            return inner
        raise ExprError("expected an index, a function call, or '('", tok.line, tok.col)

    def _paren_is_literal(self) -> bool:
        """True when the group starting at the current '(' holds only
        integers and commas up to its closing ')'."""
        j = self.i + 1
        while True:
            tok = self.tokens[j]
            if tok.kind == "RPAREN":
                return True
            if tok.kind not in ("INT", "COMMA"):
                return False  # operators, nesting, or EOF: a grouped expression
            j += 1

    def parse_literal(self) -> _Node:
        open_tok = self.expect("LPAREN", "'('")
        if self.peek().kind == "RPAREN":
            self.advance()
            return Literal(open_tok.line, open_tok.col, ())
        entries = [self.expect("INT", "an integer entry").value]
        while self.peek().kind == "COMMA":
            self.advance()
            entries.append(self.expect("INT", "an integer entry").value)
        self.expect("RPAREN", "')' closing the index")
        return Literal(open_tok.line, open_tok.col, tuple(entries))

    def parse_call(self) -> _Node:
        name_tok = self.advance()
        name = name_tok.value
        if name not in ("rep", "dual", "hast", "ohno"):
            raise ExprError(
                f"unknown function {name!r}; known functions: rep, dual, hast, ohno",
                name_tok.line,
                name_tok.col,
            )
        self.expect("LPAREN", f"'(' after {name}")
        if name == "rep":
            entry = self.expect("INT", "an integer entry").value
            self.expect("COMMA", "','")
            count = self.expect("INT", "an integer repetition count").value
            self.expect("RPAREN", "')'")
            return Rep(name_tok.line, name_tok.col, entry, count)
        if name == "dual":
            child = self.parse_expr()
            self.expect("RPAREN", "')'")
            return Dual(name_tok.line, name_tok.col, child)
        amount = self.expect("INT", "an integer first argument").value
        self.expect("COMMA", "','")
        child = self.parse_expr()
        self.expect("RPAREN", "')'")
        if name == "hast":
            return Hast(name_tok.line, name_tok.col, amount, child)
        return OhnoSum(name_tok.line, name_tok.col, amount, child)


def parse(text: str) -> _Node:
    """Parse expression text into an AST; raise :class:`ExprError` on failure."""
    if not isinstance(text, str):
        raise ValueError(f"expected expression text, got {text!r}")
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ExprError("unexpected trailing input", trailing.line, trailing.col)
    return node


# -- expansion ----------------------------------------------------------------


def expand(node: _Node) -> IndexCombination:
    """Evaluate an AST to an exact combination.

    Domain errors from the algebra layer (non-admissible duals, empty-index
    position sums, bad entries) are re-raised as :class:`ExprError` at the
    offending node's position.
    """

    def guard(action, n: _Node) -> IndexCombination:
        try:
            return action()
        except ExprError:
            raise
        except ValueError as exc:
            raise ExprError(str(exc), n.line, n.col) from None

    if isinstance(node, Literal):
        if not node.entries:
            return IndexCombination.from_index(EMPTY)
        return guard(lambda: IndexCombination.from_index(Index(node.entries)), node)
    if isinstance(node, Rep):
        return guard(lambda: IndexCombination.from_index(repeat(node.entry, node.count)), node)
    if isinstance(node, Dual):
        child = expand(node.child)
        return guard(lambda: dual_linear(child), node)
    if isinstance(node, Hast):
        child = expand(node.child)
        return guard(lambda: hast(node.amount, child), node)
    if isinstance(node, OhnoSum):
        child = expand(node.child)
        return guard(lambda: ohno_sum_symbolic(child, node.order), node)
    if isinstance(node, Sha):
        left = expand(node.left)
        right = expand(node.right)
        return guard(lambda: sha(left, right), node)
    if isinstance(node, Scale):
        child = expand(node.child)
        return node.coefficient * child
    if isinstance(node, Sum):
        total = IndexCombination.zero()
        for sign, term in node.terms:
            piece = expand(term)
            total = total + piece if sign > 0 else total - piece
        return total
    raise ValueError(f"unknown expression node {node!r}")


def expand_text(text: str) -> IndexCombination:
    """Parse and expand in one step; ``"0"`` denotes the zero combination."""
    if isinstance(text, str) and text.strip() == "0":
        return IndexCombination.zero()
    return expand(parse(text))
