"""Parsers for the poset / map / connection / quantale text formats.

One directive per line, tokens whitespace-separated, '#' starts a comment,
parsing is case-sensitive.  A file may declare any number of posets, maps,
connections and quantales; later blocks may reference earlier posets by
name.  Connections are validated against the weakening law at parse time.

A header directive closes the open block and opens one; a line directive
adds to the open block of the kind that owns it.  A directive's shape is its
usage text: ``<...>`` is one token, named for what it must name, other words
are literal, and ``...`` takes any number of tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import NotUTF8, OrdbenchError, ParseError, UnreadableFile
from .lattice import MAX_ELEMENTS, FiniteLattice, MonotoneMap, build_poset
from .connection import Connection, find_weakening_violation
from .quantale import Quantale, build_quantale

# Input bounds, checked before any table is built.  A poset block may declare
# as many elements as the one bound on every poset, lattice.MAX_ELEMENTS,
# which is also the most divisors `quantale --zn` accepts; a file of that
# size with a full quantale table is a few MB.  Building and checking a poset
# of n elements scans n**3 triples, checking a connection between posets of n
# and m elements n*m*max(n, m), and checking a quantale over n elements n**3.
# The blocks of each of these kinds in one file may sum to at most
# MAX_ELEMENTS**3 triples: one block of the largest size.
MAX_FILE_BYTES = 16 << 20


@dataclass
class Document:
    posets: dict[str, FiniteLattice] = field(default_factory=dict)
    maps: dict[str, MonotoneMap] = field(default_factory=dict)
    connections: dict[str, Connection] = field(default_factory=dict)
    quantales: dict[str, Quantale] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)  # (kind, name)


# header directive -> (Document field, word of the duplicate-name error, shape)
_HEADERS = {
    "poset": ("posets", "poset", "<name>"),
    "map": ("maps", "map", "<name> <sourcePoset> <targetPoset>"),
    "conn": ("connections", "connection", "<name> <sourcePoset> <targetPoset>"),
    "quantale": ("quantales", "quantale", "<name> over <posetName>"),
}
# line directive -> (kind of the block that owns it, shape)
_LINES = {
    "elem": ("poset", "<label> ..."),
    "le": ("poset", "<labelA> <labelB>"),
    "send": ("map", "<sourceLabel> <targetLabel>"),
    "rel": ("conn", "<sourceLabel> <targetLabel>"),
    "mul": ("quantale", "<labelA> <labelB> <labelC>"),
}
_POSET_TOKENS = {"<sourcePoset>", "<targetPoset>", "<posetName>"}
# header -> the element triples its block's check scans, from the posets it names
_TRIPLES = {
    "conn": lambda src, dst: src.size * dst.size * max(src.size, dst.size),
    "quantale": lambda base: base.size**3,
}
# label placeholder -> (which of the header's posets it names, error word);
# in a poset block it names one of the block's own labels
_LABEL_TOKENS = {
    "<labelA>": (0, "label"), "<labelB>": (0, "label"), "<labelC>": (0, "label"),
    "<sourceLabel>": (0, "source label"), "<targetLabel>": (-1, "target label"),
}


@dataclass
class _Block:
    kind: str
    name: str
    line: int
    posets: tuple[FiniteLattice, ...]  # the posets its header names, in order
    labels: list[str] = field(default_factory=list)  # poset: its elements
    pairs: list[tuple[str, str]] = field(default_factory=list)  # poset: le; conn: rel
    values: dict = field(default_factory=dict)  # map: x -> f(x); quantale: (a, b) -> a*b


class _Parser:
    def __init__(self, filename: str):
        self.filename = filename
        self.doc = Document()
        self.block = None
        self.triples = Counter()  # per kind, element triples summed over its blocks so far

    def fail(self, line: int, message: str):
        raise ParseError(self.filename, line, message)

    def count(self, block: _Block, triples: int):
        """Add a block's element triples to its kind's sum, which may not pass MAX_ELEMENTS**3."""
        self.triples[block.kind] += triples
        if self.triples[block.kind] > MAX_ELEMENTS**3:
            self.fail(
                block.line,
                f"{_HEADERS[block.kind][1]} {block.name!r} takes the file past "
                f"{MAX_ELEMENTS}^3 element triples",
            )

    def feed(self, lineno: int, tokens: list[str]):
        head, args = tokens[0], tokens[1:]
        if head in _HEADERS:
            self.finish()
            field_name, word, shape = _HEADERS[head]
        elif head in _LINES:
            kind, shape = _LINES[head]
            if self.block is None or self.block.kind != kind:
                self.fail(lineno, f"{head} outside a {kind} block")
        else:
            self.fail(lineno, f"unknown directive {head!r}")
        words = shape.split()
        if words[-1] != "..." and (
            len(args) != len(words)
            or any(w != a for w, a in zip(words, args) if not w.startswith("<"))
        ):
            self.fail(lineno, f"usage: {head} {shape}")
        if head in _HEADERS:
            if args[0] in getattr(self.doc, field_name):
                self.fail(lineno, f"duplicate {word} name {args[0]!r}")
            for w, a in zip(words, args):
                if w in _POSET_TOKENS and a not in self.doc.posets:
                    self.fail(lineno, f"unknown poset {a!r}")
            posets = tuple(self.doc.posets[a] for w, a in zip(words, args) if w in _POSET_TOKENS)
            self.block = _Block(head, args[0], lineno, posets)
            if head in _TRIPLES:
                self.count(self.block, _TRIPLES[head](*posets))
            return
        block = self.block
        for w, a in zip(words, args):
            if w in _LABEL_TOKENS:
                at, word = _LABEL_TOKENS[w]
                if a not in (block.posets[at].labels if block.posets else block.labels):
                    self.fail(lineno, f"unknown {word} {a!r}")
        if head == "elem":
            if len(block.labels) + len(args) > MAX_ELEMENTS:
                self.fail(
                    block.line, f"poset {block.name!r} has more than {MAX_ELEMENTS} elements"
                )
            for lab in args:
                if lab in block.labels:
                    self.fail(lineno, f"duplicate label {lab!r}")
                block.labels.append(lab)
        elif head == "send":
            src, dst = block.posets
            x = src.index(args[0])
            if x in block.values:
                self.fail(lineno, f"duplicate send for {args[0]!r}")
            block.values[x] = dst.index(args[1])
        elif head == "mul":
            base = block.posets[0]
            a, b, c = map(base.index, args)
            for key in ((a, b), (b, a)):  # symmetric closure
                if block.values.get(key, c) != c:
                    self.fail(
                        lineno,
                        f"conflicting product {args[0]}*{args[1]}: "
                        f"{base.labels[block.values[key]]} vs {args[2]}",
                    )
                block.values[key] = c
        else:  # le, rel
            block.pairs.append((args[0], args[1]))

    def finish(self):
        block, self.block = self.block, None
        if block is None:
            return
        name, lineno = block.name, block.line
        if block.kind == "poset":
            if not block.labels:
                self.fail(lineno, f"poset {name!r} has no elements")
            self.count(block, len(block.labels) ** 3)
            try:
                built = build_poset(name, block.labels, block.pairs)
            except OrdbenchError as exc:
                self.fail(lineno, str(exc))
        elif block.kind == "map":
            src, dst = block.posets
            missing = [lab for x, lab in enumerate(src.labels) if x not in block.values]
            if missing:
                self.fail(lineno, f"map {name!r} missing send for {missing[0]!r}")
            try:
                built = MonotoneMap(src, dst, tuple(block.values[x] for x in range(src.size)))
            except OrdbenchError as exc:
                self.fail(lineno, f"map {name!r} is not monotone: {exc}")
        elif block.kind == "conn":
            src, dst = block.posets
            pairs = set(block.pairs)
            rel = tuple(tuple((a, b) in pairs for b in dst.labels) for a in src.labels)
            violation = find_weakening_violation(src, dst, rel)
            if violation is not None:
                a, b, c, d = violation
                self.fail(
                    lineno,
                    f"connection {name!r} violates weakening: "
                    f"{src.labels[a]} <= {src.labels[b]} rel {dst.labels[c]} <= {dst.labels[d]} "
                    f"requires rel {src.labels[a]} {dst.labels[d]}",
                )
            built = Connection(src, dst, rel)
        else:
            base, n = block.posets[0], block.posets[0].size
            missing = [(a, b) for a in range(n) for b in range(n) if (a, b) not in block.values]
            if missing:
                a, b = (base.labels[x] for x in missing[0])
                self.fail(lineno, f"quantale {name!r} missing product {a}*{b}")
            table = tuple(tuple(block.values[a, b] for b in range(n)) for a in range(n))
            try:
                built = build_quantale(base, table)
            except OrdbenchError as exc:
                self.fail(lineno, f"quantale {name!r} invalid: {exc}")
        getattr(self.doc, _HEADERS[block.kind][0])[name] = built
        self.doc.order.append((block.kind, name))


def parse_text(text: str, filename: str = "<string>") -> Document:
    parser = _Parser(filename)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parser.feed(lineno, line.split())
    parser.finish()
    return parser.doc


def parse_file(path) -> Document:
    """Parse a file of at most MAX_FILE_BYTES bytes of UTF-8 text."""
    path = Path(path)
    try:
        with path.open("rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise UnreadableFile(f"{path}: cannot read: {exc.strerror or exc}") from None
    if len(data) > MAX_FILE_BYTES:
        raise UnreadableFile(f"{path}: longer than {MAX_FILE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUTF8(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return parse_text(text, str(path))
