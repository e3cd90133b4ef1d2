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

Tokens are plain strings, found by one ``findall`` of a regex with no
groups: a comment, ``->``, a name (ASCII letters, digits and ``_``; a number
is a name of digits) or any other single character that is not a space,
tab, carriage return or newline.  Comments are dropped, and an empty string
marks the end.  A token's first character classifies it: a name, one of the
symbols ``{}(),;:*+-=/`` (``-`` also starts ``->``), or a bad character.
The parser keeps only an index into that list and accepts no bad character,
so a document that holds one always reaches an error.  Offsets are computed
only then, by rescanning the text: the first bad character is the error if
there is one (as if tokenizing had stopped there), else the token the parser
named.  Lines and columns are 1-based, and a tab or a carriage return is one
column.
"""

from __future__ import annotations

import re

from .fields import Field, GF, QQ, is_prime
from .pathalg import IdealData, _render
from .quiver import Quiver, QuiverError, SpanningTree


class InputError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"#[^\n]*|->|[A-Za-z0-9_]+|[^ \t\r\n]")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_SYMBOL_START = frozenset("{}(),;:*+-=/")


def _tokenize(text: str) -> list[str]:
    tokens = [t for t in _TOKEN_RE.findall(text) if t[0] != "#"]
    tokens.append("")
    return tokens


def _is_number(token: str) -> bool:
    """A name made of digits (``isdigit`` alone also takes other scripts' digits)."""
    return token[:1] in _NAME_START and token.isdigit()


def _line_column(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _input_error(text: str, message: str, index: int) -> InputError:
    """The error for token ``index`` of ``_tokenize(text)``, positioned by
    one rescan of the text; the first bad character, if any, comes first."""
    offset = len(text)  # the end marker's
    k = 0
    for m in _TOKEN_RE.finditer(text):
        token = m.group()
        first = token[0]
        if first == "#":
            continue
        if first not in _NAME_START and first not in _SYMBOL_START:
            return InputError(f"unexpected character {token!r}", *_line_column(text, m.start()))
        if k == index:
            offset = m.start()
        k += 1
    return InputError(message, *_line_column(text, offset))


class InputDocument:
    """A parsed document.  The parser adds the ideals, in declaration
    order, and the ``tree`` and ``budget`` settings as it reads them."""

    def __init__(self, field: Field, quiver: Quiver, ideal_generators: dict[str, list[dict]]):
        self.field = field
        self.quiver = quiver
        self.ideal_generators = ideal_generators
        self.tree_arrows: tuple[str, ...] | None = None
        self.search_max_nodes: int | None = None

    def ideal(self, name: str) -> IdealData:
        if name not in self.ideal_generators:
            raise InputError(f"unknown ideal {name!r}")
        self.quiver.require_valid()
        return IdealData(self.quiver, self.field, self.ideal_generators[name])

    def spanning_tree(self, base: str | None = None) -> SpanningTree:
        base = self.quiver.vertices[0] if base is None else base
        try:
            return self.quiver.spanning_tree(base, preferred=self.tree_arrows)
        except QuiverError as exc:
            raise InputError(str(exc)) from exc


class _Parser:
    """Recursive descent over the token strings; ``pos`` is the index of the
    next token, and every error names the index of the token it is about."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, index: int):
        raise _input_error(self.text, message, index)

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            self.fail(f"expected {text!r}, found {tok!r}", self.pos - 1)

    def expect_name(self) -> str:
        tok = self.next()
        if tok[:1] not in _NAME_START:
            self.fail(f"expected a name, found {tok!r}", self.pos - 1)
        return tok

    # ---------- grammar ----------

    def parse(self) -> InputDocument:
        field = self.parse_field_decl()
        quiver = self.parse_quiver_decl()
        doc = InputDocument(field, quiver, {})
        while self.peek() == "ideal":
            name, gens = self.parse_ideal_decl(doc)
            doc.ideal_generators[name] = gens
        while self.peek() in ("tree", "budget"):
            self.parse_setting(doc)
        if self.peek():
            self.fail(f"unexpected {self.peek()!r}", self.pos)
        return doc

    def parse_field_decl(self) -> Field:
        self.expect("field")
        name = self.expect_name()
        if name == "QQ":
            return QQ
        if name == "GF":
            self.expect("(")
            p_text = self.expect_name()
            if not p_text.isdigit():
                self.fail("expected a prime number", self.pos - 1)
            p = int(p_text)
            if not is_prime(p):
                self.fail(f"{p} is not prime", self.pos - 1)
            self.expect(")")
            return GF(p)
        self.fail(f"unknown field {name!r}", self.pos - 1)

    def parse_quiver_decl(self) -> Quiver:
        self.expect("quiver")
        self.expect("{")
        self.expect("vertices")
        vertices = [self.expect_name()]
        while self.peek() == ",":
            self.next()
            vertex = self.expect_name()
            if vertex in vertices:
                self.fail("duplicate vertex names", self.pos - 1)
            vertices.append(vertex)
        arrows = {}
        while self.peek() == "arrow":
            self.next()
            name = self.expect_name()
            if name in arrows:
                self.fail(f"duplicate arrow name {name!r}", self.pos - 1)
            self.expect(":")
            src = self._endpoint(name, vertices)
            self.expect("->")
            arrows[name] = (name, src, self._endpoint(name, vertices))
        if not arrows:
            self.fail("a quiver needs at least one arrow declaration", self.pos)
        self.expect("}")
        return Quiver(vertices, arrows.values())

    def _endpoint(self, arrow: str, vertices: list[str]) -> str:
        vertex = self.expect_name()
        if vertex not in vertices:
            self.fail(f"arrow {arrow!r} has an unknown endpoint", self.pos - 1)
        return vertex

    def parse_ideal_decl(self, doc: InputDocument) -> tuple[str, list[dict]]:
        self.expect("ideal")
        name = self.expect_name()
        if name in doc.ideal_generators:
            self.fail(f"ideal {name!r} declared twice", self.pos - 1)
        self.expect("{")
        if self.peek() == "}":  # an empty body is the zero ideal
            self.next()
            return name, []
        gens = [self.parse_relation(doc)]
        while self.peek() == ";":
            self.next()
            gens.append(self.parse_relation(doc))
        self.expect("}")
        return name, gens

    def parse_relation(self, doc: InputDocument) -> dict:
        f = doc.field
        elem: dict = {}
        f.add_multiple(elem, f.one, self.parse_term(doc, negative=False))
        while self.peek() in ("+", "-"):
            sign = self.next()
            f.add_multiple(elem, f.one, self.parse_term(doc, negative=sign == "-"))
        return elem

    def parse_term(self, doc: InputDocument, negative: bool) -> dict:
        f = doc.field
        coeff = f.one
        if self.peek() == "-":
            self.next()
            negative = not negative
        if _is_number(self.peek()):
            value = int(self.next())
            if self.peek() == "/":
                self.next()
                den_text = self.expect_name()
                if not den_text.isdigit():
                    self.fail("expected a denominator", self.pos - 1)
                # map both into the field first: a zero denominator there must not cancel
                den = f.coerce(int(den_text))
                if f.is_zero(den):
                    self.fail(f"denominator {den_text} is zero in {f!r}", self.pos - 1)
                coeff = f.div(f.coerce(value), den)
            else:
                coeff = f.coerce(value)
            self.expect("*")
        if negative:
            coeff = f.neg(coeff)
        names = [self._arrow_name(doc)]
        while self.peek() == "*":
            self.next()
            names.append(self._arrow_name(doc))
        # the written product is right-to-left, so traversal order reverses
        try:
            path = doc.quiver.path(tuple(reversed(names)))
        except QuiverError as exc:
            self.fail(str(exc), self.pos - 1)
        return {path: coeff}

    def _arrow_name(self, doc: InputDocument) -> str:
        name = self.expect_name()
        if name not in doc.quiver.arrow_by_name:
            self.fail(f"unknown arrow {name!r}", self.pos - 1)
        return name

    def parse_setting(self, doc: InputDocument):
        keyword = self.pos
        if self.next() == "tree":
            if doc.tree_arrows is not None:
                self.fail("tree declared twice", keyword)
            self.expect("{")
            first = self.pos
            self.expect_name()
            while self.peek() == ",":
                self.next()
                self.expect_name()
            self.expect("}")
            names = self.tokens[first:self.pos - 1:2]  # the names between the commas
            for k, name in enumerate(names):
                if name not in doc.quiver.arrow_by_name:
                    self.fail(f"unknown arrow {name!r} in tree", first + 2 * k)
                if name in names[:k]:
                    self.fail(f"duplicate arrow {name!r} in tree", first + 2 * k)
            doc.tree_arrows = tuple(names)
        else:
            key = self.expect_name()
            if key != "search_max_nodes":
                self.fail(f"unknown budget keys {[key]}", self.pos - 1)
            if doc.search_max_nodes is not None:
                self.fail("budget search_max_nodes declared twice", keyword)
            self.expect("=")
            value = self.next()
            if not _is_number(value):
                self.fail("budget values are nonnegative integers", self.pos - 1)
            doc.search_max_nodes = int(value)


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
    for name, gens in doc.ideal_generators.items():
        # a zero generator renders as zero times an arrow (it was written
        # with one), which parses back to a zero generator
        rels = [_render(doc.quiver, f, g) if g else f"0*{doc.quiver.arrow_names[0]}" for g in gens]
        lines.append(f"ideal {name} {{ " + " ; ".join(rels) + " }")
    if doc.tree_arrows:
        lines.append("tree { " + ", ".join(doc.tree_arrows) + " }")
    if doc.search_max_nodes is not None:
        lines.append(f"budget search_max_nodes = {doc.search_max_nodes}")
    return "\n".join(lines) + "\n"
