"""A small expression language over indices and their formal combinations.

The grammar, with the meaning of each form, is :data:`GRAMMAR`; the command
line prints it under ``--help``.  The leading ``-`` and the ``()``
empty-index literal exist so that the canonical text of any combination
parses back to itself; ``expand_text`` additionally accepts ``"0"`` for the
zero combination.

Each parse method returns the deferred expansion of what it read, a
zero-argument callable, and ``expand_text`` runs it only once the whole text
has parsed: a syntax error anywhere is reported before a domain error (a
non-admissible dual, a zero entry) anywhere else.

Errors raise :class:`ExprError` carrying a 1-based line and column.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable

from ohno.indices import Index, IndexCombination, dual_linear, hast, repeat, sha
from ohno.sums import ohno_sum_symbolic

__all__ = ["ExprError", "GRAMMAR", "MAX_INT_LITERAL", "MAX_NESTING", "expand_text"]

GRAMMAR = """\
expression grammar:
  expr     := ["-"] term (("+" | "-") term)*
  term     := factor ("#" factor)* | rational "*" factor
  factor   := literal | "rep(" int "," int ")" | "dual(" expr ")"
            | "hast(" int "," expr ")" | "ohno(" int "," expr ")" | "(" expr ")"
  literal  := "(" int ("," int)* ")" | "()"
  rational := int | int "/" int

notes:
  (2,3)       the index with entries 2, 3;  ()  is the empty index
  rep(a, l)   the index ({a}^l), the entry a repeated l times
  e1 # e2     interleaving (shuffle-of-entries) product
  dual(e)     elementwise dual of every index in e
  hast(k, e)  add k to one entry, summed over all positions
  ohno(m, e)  order-m shifted-sum family of e
  3/2 * e     scale one factor by a rational
  0           on its own, the zero combination
  A parenthesised group containing only integers and commas is an index
  literal; anything with operators inside is a grouped subexpression:
  (2) is an index, ((2)) a grouped index, ((2) + (3)) a sum.
"""

#: Upper bound for each integer literal.  It bounds no expansion:
#: ``ohno(50, rep(2, 50))`` is accepted and has C(99, 49) terms.
MAX_INT_LITERAL = 10**6

#: Upper bound for the levels of ``(`` open at once, function calls
#: included; keeps the parser's recursion far from the interpreter's limit.
#: Both limits are checked while tokenizing, before the grammar.
MAX_NESTING = 100

_FUNCTIONS = ("rep", "dual", "hast", "ohno")

# ``\d`` is exactly the decimal digits ``int`` accepts; ``[^\W\d_]`` is the
# letters plus the numerals that are no decimal digit (such as ``²``), which
# ``_tokenize`` rejects.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d_]+)|(?P<op>[(),#+\-*/])|\s+|(?P<bad>.)")

_Expansion = Callable[[], IndexCombination]


class ExprError(ValueError):
    """A parse or expansion error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _error(text: str, message: str, at: int) -> ExprError:
    """An :class:`ExprError` at character offset ``at`` of ``text``."""
    return ExprError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """``(kind, value, offset)`` triples, closed by an ``end`` token.  The
    kind of an operator is the operator itself."""
    tokens: list[tuple[str, object, int]] = []
    depth = 0
    for match in _TOKEN.finditer(text):
        kind, word, at = match.lastgroup, match.group(), match.start()
        if kind == "name" and not word.isalpha():
            kind = "bad"
            at += next(i for i, ch in enumerate(word) if not ch.isalpha())
        if kind == "bad":
            raise _error(text, f"unexpected character {text[at]!r}", at)
        if kind == "int":
            value = int(word)
            if value > MAX_INT_LITERAL:
                raise _error(text, f"integer literal too large (limit {MAX_INT_LITERAL})", at)
            tokens.append(("int", value, at))
        elif kind is not None:
            depth += (word == "(") - (word == ")")
            if depth > MAX_NESTING:
                raise _error(text, f"nesting too deep (limit {MAX_NESTING} levels of '(')", at)
            tokens.append((word if kind == "op" else kind, word, at))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self) -> tuple[str, object, int]:
        token = self.tokens[self.i]
        if token[0] != "end":
            self.i += 1
        return token

    def expect(self, kind: str, what: str) -> tuple[str, object, int]:
        if self.peek() != kind:
            raise _error(self.text, f"expected {what}", self.tokens[self.i][2])
        return self.take()

    def guarded(self, at: int, action: _Expansion) -> _Expansion:
        """Defer ``action``, reporting a domain error it raises at offset ``at``."""

        def run() -> IndexCombination:
            try:
                return action()
            except ExprError:
                raise
            except ValueError as exc:
                raise _error(self.text, str(exc), at) from None

        return run

    # expr := ["-"] term (("+" | "-") term)*
    def expr(self) -> _Expansion:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        terms = [(sign, self.term())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1 and sign == 1:
            return terms[0][1]

        def total() -> IndexCombination:
            out = IndexCombination.zero()
            for sign, term in terms:
                out = out + term() if sign > 0 else out - term()
            return out

        return total

    # term := factor ("#" factor)* | rational "*" factor
    def term(self) -> _Expansion:
        if self.peek() == "int":
            coefficient = self.rational()
            self.expect("*", "'*' after a rational coefficient")
            factor = self.factor()
            return lambda: coefficient * factor()
        first, steps = self.factor(), []
        while self.peek() == "#":
            steps.append((self.take()[2], self.factor()))
        if not steps:
            return first

        def product() -> IndexCombination:
            # A loop, not nested closures: a long chain needs no deep stack.
            out = first()
            for at, right in steps:
                out = self.guarded(at, lambda: sha(out, right()))()
            return out

        return product

    # rational := int | int "/" int
    def rational(self) -> Fraction:
        numerator = self.take()[1]
        if self.peek() != "/":
            return Fraction(numerator)
        self.take()
        _, denominator, at = self.expect("int", "an integer denominator")
        if denominator == 0:
            raise _error(self.text, "zero denominator", at)
        return Fraction(numerator, denominator)

    def factor(self) -> _Expansion:
        kind, _, at = self.tokens[self.i]
        if kind == "name":
            return self.call()
        if kind != "(":
            raise _error(self.text, "expected an index, a function call, or '('", at)
        if self.literal_follows():
            return self.literal()
        self.take()
        inner = self.expr()
        self.expect(")", "')'")
        return inner

    def literal_follows(self) -> bool:
        """True when the group opening at the current '(' holds only integers
        and commas up to its closing ')'."""
        j = self.i + 1
        while self.tokens[j][0] in ("int", ","):
            j += 1
        return self.tokens[j][0] == ")"

    # literal := "(" int ("," int)* ")" | "()"
    def literal(self) -> _Expansion:
        at = self.take()[2]
        entries = []
        if self.peek() != ")":
            entries.append(self.expect("int", "an integer entry")[1])
            while self.peek() == ",":
                self.take()
                entries.append(self.expect("int", "an integer entry")[1])
        self.expect(")", "')' closing the index")
        return self.guarded(at, lambda: IndexCombination.from_index(Index(entries)))

    def call(self) -> _Expansion:
        _, name, at = self.take()
        if name not in _FUNCTIONS:
            raise _error(self.text, f"unknown function {name!r}; known functions: {', '.join(_FUNCTIONS)}", at)
        self.expect("(", f"'(' after {name}")
        if name == "rep":
            entry = self.expect("int", "an integer entry")[1]
            self.expect(",", "','")
            count = self.expect("int", "an integer repetition count")[1]
            self.expect(")", "')'")
            return self.guarded(at, lambda: IndexCombination.from_index(repeat(entry, count)))
        if name == "dual":
            child = self.expr()
            self.expect(")", "')'")
            return self.guarded(at, lambda: dual_linear(child()))
        amount = self.expect("int", "an integer first argument")[1]
        self.expect(",", "','")
        child = self.expr()
        self.expect(")", "')'")
        if name == "hast":
            return self.guarded(at, lambda: hast(amount, child()))
        return self.guarded(at, lambda: ohno_sum_symbolic(child(), amount))


def expand_text(text: str) -> IndexCombination:
    """Expand expression text to an exact combination; ``"0"`` denotes the
    zero combination.  Raise :class:`ExprError` for a syntax or domain error."""
    if not isinstance(text, str):
        raise ValueError(f"expected expression text, got {text!r}")
    if text.strip() == "0":
        return IndexCombination.zero()
    parser = _Parser(text)
    expansion = parser.expr()
    if parser.peek() != "end":
        raise _error(text, "unexpected trailing input", parser.tokens[parser.i][2])
    return expansion()
