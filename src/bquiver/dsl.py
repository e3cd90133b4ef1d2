"""The input language: a field, one quiver, named ideals, optional settings.

A document looks like::

    # comments run to the end of the line
    field GF(2)
    quiver {
      vertices 1, 2, 3
      arrow a: 1 -> 2
      arrow b: 1 -> 2
      arrow c: 2 -> 3
    }
    ideal I { c*a }
    ideal J { c*a - c*b }
    tree { a, c }
    budget search_max_nodes = 100000

Products are read right to left: the term ``c*a`` is the path that traverses
``a`` first and ``c`` second.  Coefficients are integers or fractions
(``2*c*a``, ``1/2*c*a``); over GF(p) they are reduced mod p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field

from .fields import Field, GF, QQ, is_prime
from .linalg import _add_multiple
from .pathalg import IdealData, _render
from .quiver import Quiver, QuiverError, SpanningTree


class InputError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrowsym>->)
  | (?P<name>[A-Za-z0-9_]+)
  | (?P<sym>[{}(),;:*+\-=/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # name | sym | arrowsym | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise InputError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


@dataclass
class InputDocument:
    field: Field
    quiver: Quiver
    ideal_generators: dict[str, list[dict]]
    ideal_order: list[str]
    tree_arrows: tuple[str, ...] | None = None
    budget_settings: dict[str, int] = dataclass_field(default_factory=dict)
    _ideals: dict[str, IdealData] = dataclass_field(default_factory=dict)

    def ideal(self, name: str) -> IdealData:
        if name not in self.ideal_generators:
            raise InputError(f"unknown ideal {name!r}")
        if name not in self._ideals:
            self.quiver.require_valid()
            self._ideals[name] = IdealData(self.quiver, self.field, self.ideal_generators[name])
        return self._ideals[name]

    def spanning_tree(self, base: str | None = None) -> SpanningTree:
        base = base or self.quiver.vertices[0]
        try:
            return self.quiver.spanning_tree(base, preferred=self.tree_arrows)
        except QuiverError as exc:
            raise InputError(str(exc)) from exc


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise InputError(message, tok.line, tok.column)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def expect_name(self) -> Token:
        tok = self.next()
        if tok.kind != "name":
            self.fail(f"expected a name, found {tok.text!r}", tok)
        return tok

    # ---------- grammar ----------

    def parse(self) -> InputDocument:
        field = self.parse_field_decl()
        quiver = self.parse_quiver_decl()
        doc = InputDocument(field, quiver, {}, [])
        while self.peek().text == "ideal":
            name, gens = self.parse_ideal_decl(doc)
            if name in doc.ideal_generators:
                self.fail(f"ideal {name!r} declared twice")
            doc.ideal_generators[name] = gens
            doc.ideal_order.append(name)
        while self.peek().text in ("tree", "budget"):
            self.parse_setting(doc)
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r}", tok)
        return doc

    def parse_field_decl(self) -> Field:
        self.expect("field")
        tok = self.expect_name()
        if tok.text == "QQ":
            return QQ
        if tok.text == "GF":
            self.expect("(")
            p_tok = self.expect_name()
            if not p_tok.text.isdigit():
                self.fail("expected a prime number", p_tok)
            p = int(p_tok.text)
            if not is_prime(p):
                self.fail(f"{p} is not prime", p_tok)
            self.expect(")")
            return GF(p)
        self.fail(f"unknown field {tok.text!r}", tok)

    def parse_quiver_decl(self) -> Quiver:
        self.expect("quiver")
        self.expect("{")
        self.expect("vertices")
        vertices = [self.expect_name().text]
        while self.peek().text == ",":
            self.next()
            vertices.append(self.expect_name().text)
        arrows = []
        first = self.peek()
        while self.peek().text == "arrow":
            self.next()
            name = self.expect_name().text
            self.expect(":")
            src = self.expect_name().text
            self.expect("->")
            tgt = self.expect_name().text
            arrows.append((name, src, tgt))
        if not arrows:
            self.fail("a quiver needs at least one arrow declaration", first)
        self.expect("}")
        try:
            return Quiver(vertices, arrows)
        except QuiverError as exc:
            self.fail(str(exc), first)

    def parse_ideal_decl(self, doc: InputDocument) -> tuple[str, list[dict]]:
        self.expect("ideal")
        name = self.expect_name().text
        self.expect("{")
        if self.peek().text == "}":  # an empty body is the zero ideal
            self.next()
            return name, []
        gens = [self.parse_relation(doc)]
        while self.peek().text == ";":
            self.next()
            gens.append(self.parse_relation(doc))
        self.expect("}")
        return name, gens

    def parse_relation(self, doc: InputDocument) -> dict:
        f = doc.field
        elem: dict = {}
        _add_multiple(f, elem, f.one, self.parse_term(doc, negative=False))
        while self.peek().text in ("+", "-"):
            sign = self.next().text
            _add_multiple(f, elem, f.one, self.parse_term(doc, negative=sign == "-"))
        return elem

    def parse_term(self, doc: InputDocument, negative: bool) -> dict:
        f = doc.field
        coeff = f.one
        tok = self.peek()
        if tok.text == "-":
            self.next()
            negative = not negative
            tok = self.peek()
        if tok.kind == "name" and tok.text.isdigit():
            num_tok = self.next()
            value = int(num_tok.text)
            if self.peek().text == "/":
                self.next()
                den_tok = self.expect_name()
                if not den_tok.text.isdigit():
                    self.fail("expected a denominator", den_tok)
                # map both into the field first: a zero denominator there must not cancel
                den = f.coerce(int(den_tok.text))
                if f.is_zero(den):
                    self.fail(f"denominator {den_tok.text} is zero in {f!r}", den_tok)
                coeff = f.div(f.coerce(value), den)
            else:
                coeff = f.coerce(value)
            self.expect("*")
        if negative:
            coeff = f.neg(coeff)
        names = [self._arrow_name(doc)]
        while self.peek().text == "*":
            self.next()
            names.append(self._arrow_name(doc))
        # the written product is right-to-left, so traversal order reverses
        try:
            path = doc.quiver.path(tuple(reversed(names)))
        except QuiverError as exc:
            self.fail(str(exc), self.tokens[self.pos - 1])
        return {path: coeff}

    def _arrow_name(self, doc: InputDocument) -> str:
        tok = self.expect_name()
        if tok.text not in doc.quiver.arrow_by_name:
            self.fail(f"unknown arrow {tok.text!r}", tok)
        return tok.text

    def parse_setting(self, doc: InputDocument):
        tok = self.next()
        if tok.text == "tree":
            self.expect("{")
            names = [self.expect_name().text]
            while self.peek().text == ",":
                self.next()
                names.append(self.expect_name().text)
            self.expect("}")
            for n in names:
                if n not in doc.quiver.arrow_by_name:
                    self.fail(f"unknown arrow {n!r} in tree", tok)
            doc.tree_arrows = tuple(names)
        else:
            key = self.expect_name().text
            self.expect("=")
            value_tok = self.expect_name()
            if not value_tok.text.isdigit():
                self.fail("budget values are integers", value_tok)
            doc.budget_settings[key] = int(value_tok.text)


def parse_input(text: str) -> InputDocument:
    return _Parser(text).parse()


def render_document(doc: InputDocument) -> str:
    """Canonical text rendering; parsing it back gives an equal document."""
    f = doc.field
    lines = [f"field {f!r}"]
    lines.append("quiver {")
    lines.append("  vertices " + ", ".join(doc.quiver.vertices))
    for name in doc.quiver.arrow_names:
        a = doc.quiver.arrow(name)
        lines.append(f"  arrow {a.name}: {a.source} -> {a.target}")
    lines.append("}")
    for name in doc.ideal_order:
        # a zero generator renders as zero times an arrow (it was written
        # with one), which parses back to a zero generator
        gens = doc.ideal_generators[name]
        rels = [_render(doc.quiver, f, g) if g else f"0*{doc.quiver.arrow_names[0]}" for g in gens]
        lines.append(f"ideal {name} {{ " + " ; ".join(rels) + " }")
    if doc.tree_arrows:
        lines.append("tree { " + ", ".join(doc.tree_arrows) + " }")
    for key in sorted(doc.budget_settings):
        lines.append(f"budget {key} = {doc.budget_settings[key]}")
    return "\n".join(lines) + "\n"
