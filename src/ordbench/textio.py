"""Parsers for the poset / map / connection / quantale text formats.

One directive per line, tokens whitespace-separated, '#' starts a comment,
parsing is case-sensitive.  A file may declare any number of posets, maps,
connections and quantales; later blocks may reference earlier posets by
name.  Connections are validated against the weakening law at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import OrdbenchError, ParseError
from .lattice import FiniteLattice, MonotoneMap, build_poset
from .connection import Connection, find_weakening_violation
from .quantale import Quantale, build_quantale


@dataclass
class Document:
    posets: dict[str, FiniteLattice] = field(default_factory=dict)
    maps: dict[str, MonotoneMap] = field(default_factory=dict)
    connections: dict[str, Connection] = field(default_factory=dict)
    quantales: dict[str, Quantale] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)  # (kind, name)


class _Parser:
    def __init__(self, filename: str):
        self.filename = filename
        self.doc = Document()
        self.block = None  # (kind, name, start_line, payload)

    def fail(self, line: int, message: str):
        raise ParseError(self.filename, line, message)

    def poset(self, name: str, line: int) -> FiniteLattice:
        if name not in self.doc.posets:
            self.fail(line, f"unknown poset {name!r}")
        return self.doc.posets[name]

    def feed(self, lineno: int, tokens: list[str]):
        head = tokens[0]
        if head in ("poset", "map", "conn", "quantale"):
            self.finish()
        if head == "poset":
            if len(tokens) != 2:
                self.fail(lineno, "usage: poset <name>")
            if tokens[1] in self.doc.posets:
                self.fail(lineno, f"duplicate poset name {tokens[1]!r}")
            self.block = ("poset", tokens[1], lineno, {"labels": [], "le": []})
        elif head == "elem":
            if self.block is None or self.block[0] != "poset":
                self.fail(lineno, "elem outside a poset block")
            labels = self.block[3]["labels"]
            for lab in tokens[1:]:
                if lab in labels:
                    self.fail(lineno, f"duplicate label {lab!r}")
                labels.append(lab)
        elif head == "le":
            if self.block is None or self.block[0] != "poset":
                self.fail(lineno, "le outside a poset block")
            if len(tokens) != 3:
                self.fail(lineno, "usage: le <labelA> <labelB>")
            labels = self.block[3]["labels"]
            for lab in tokens[1:]:
                if lab not in labels:
                    self.fail(lineno, f"unknown label {lab!r}")
            self.block[3]["le"].append((tokens[1], tokens[2]))
        elif head == "map":
            if len(tokens) != 4:
                self.fail(lineno, "usage: map <name> <sourcePoset> <targetPoset>")
            if tokens[1] in self.doc.maps:
                self.fail(lineno, f"duplicate map name {tokens[1]!r}")
            src = self.poset(tokens[2], lineno)
            dst = self.poset(tokens[3], lineno)
            self.block = ("map", tokens[1], lineno, {"src": src, "dst": dst, "sends": {}})
        elif head == "send":
            if self.block is None or self.block[0] != "map":
                self.fail(lineno, "send outside a map block")
            if len(tokens) != 3:
                self.fail(lineno, "usage: send <sourceLabel> <targetLabel>")
            payload = self.block[3]
            src, dst = payload["src"], payload["dst"]
            if tokens[1] not in src.labels:
                self.fail(lineno, f"unknown source label {tokens[1]!r}")
            if tokens[2] not in dst.labels:
                self.fail(lineno, f"unknown target label {tokens[2]!r}")
            if tokens[1] in payload["sends"]:
                self.fail(lineno, f"duplicate send for {tokens[1]!r}")
            payload["sends"][tokens[1]] = tokens[2]
        elif head == "conn":
            if len(tokens) != 4:
                self.fail(lineno, "usage: conn <name> <sourcePoset> <targetPoset>")
            if tokens[1] in self.doc.connections:
                self.fail(lineno, f"duplicate connection name {tokens[1]!r}")
            src = self.poset(tokens[2], lineno)
            dst = self.poset(tokens[3], lineno)
            self.block = ("conn", tokens[1], lineno, {"src": src, "dst": dst, "pairs": []})
        elif head == "rel":
            if self.block is None or self.block[0] != "conn":
                self.fail(lineno, "rel outside a conn block")
            if len(tokens) != 3:
                self.fail(lineno, "usage: rel <sourceLabel> <targetLabel>")
            payload = self.block[3]
            if tokens[1] not in payload["src"].labels:
                self.fail(lineno, f"unknown source label {tokens[1]!r}")
            if tokens[2] not in payload["dst"].labels:
                self.fail(lineno, f"unknown target label {tokens[2]!r}")
            payload["pairs"].append((tokens[1], tokens[2]))
        elif head == "quantale":
            if len(tokens) != 4 or tokens[2] != "over":
                self.fail(lineno, "usage: quantale <name> over <posetName>")
            if tokens[1] in self.doc.quantales:
                self.fail(lineno, f"duplicate quantale name {tokens[1]!r}")
            base = self.poset(tokens[3], lineno)
            self.block = ("quantale", tokens[1], lineno, {"base": base, "mul": {}})
        elif head == "mul":
            if self.block is None or self.block[0] != "quantale":
                self.fail(lineno, "mul outside a quantale block")
            if len(tokens) != 4:
                self.fail(lineno, "usage: mul <labelA> <labelB> <labelC>")
            base = self.block[3]["base"]
            for lab in tokens[1:]:
                if lab not in base.labels:
                    self.fail(lineno, f"unknown label {lab!r}")
            a, b, c = (base.index(lab) for lab in tokens[1:])
            mul = self.block[3]["mul"]
            for key in ((a, b), (b, a)):  # symmetric closure
                if key in mul and mul[key] != c:
                    self.fail(
                        lineno,
                        f"conflicting product {tokens[1]}*{tokens[2]}: "
                        f"{base.labels[mul[key]]} vs {tokens[3]}",
                    )
                mul[key] = c
        else:
            self.fail(lineno, f"unknown directive {head!r}")

    def finish(self):
        if self.block is None:
            return
        kind, name, lineno, payload = self.block
        self.block = None
        if kind == "poset":
            try:
                built = build_poset(name, payload["labels"], payload["le"])
            except OrdbenchError as exc:
                self.fail(lineno, str(exc))
            self.doc.posets[name] = built
        elif kind == "map":
            src, dst = payload["src"], payload["dst"]
            missing = [lab for lab in src.labels if lab not in payload["sends"]]
            if missing:
                self.fail(lineno, f"map {name!r} missing send for {missing[0]!r}")
            values = tuple(dst.index(payload["sends"][lab]) for lab in src.labels)
            try:
                built = MonotoneMap(src, dst, values)
            except OrdbenchError as exc:
                self.fail(lineno, f"map {name!r} is not monotone: {exc}")
            self.doc.maps[name] = built
        elif kind == "conn":
            src, dst = payload["src"], payload["dst"]
            rel = [[False] * dst.size for _ in range(src.size)]
            for a_lab, b_lab in payload["pairs"]:
                rel[src.index(a_lab)][dst.index(b_lab)] = True
            rel = tuple(tuple(row) for row in rel)
            violation = find_weakening_violation(src, dst, rel)
            if violation is not None:
                a, b, c, d = violation
                self.fail(
                    lineno,
                    f"connection {name!r} violates weakening: "
                    f"{src.labels[a]} <= {src.labels[b]} rel {dst.labels[c]} <= {dst.labels[d]} "
                    f"requires rel {src.labels[a]} {dst.labels[d]}",
                )
            self.doc.connections[name] = Connection(src, dst, rel)
        elif kind == "quantale":
            base = payload["base"]
            mul = payload["mul"]
            table = []
            for a in range(base.size):
                row = []
                for b in range(base.size):
                    if (a, b) not in mul:
                        self.fail(
                            lineno,
                            f"quantale {name!r} missing product "
                            f"{base.labels[a]}*{base.labels[b]}",
                        )
                    row.append(mul[(a, b)])
                table.append(tuple(row))
            try:
                built = build_quantale(base, tuple(table))
            except OrdbenchError as exc:
                self.fail(lineno, f"quantale {name!r} invalid: {exc}")
            self.doc.quantales[name] = built
        self.doc.order.append((kind, name))


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
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OrdbenchError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise OrdbenchError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return parse_text(text, str(path))
