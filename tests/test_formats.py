import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    MissingBlock,
    NotUTF8,
    OrdbenchError,
    ParseError,
    UnreadableFile,
    parse_file,
    parse_text,
)
from ordbench.cli import _blocks
from ordbench.quantale import MAX_DIVISORS
from ordbench.textio import MAX_ELEMENTS, MAX_FILE_BYTES

DATA = Path(__file__).parent / "data"


def test_parse_poset_and_connection():
    doc = parse_file(DATA / "idC3.conn")
    assert list(doc.posets) == ["C3"]
    C3 = doc.posets["C3"]
    assert C3.is_lattice and C3.size == 3
    assert C3.leq[0][2]  # closure of le 0 1, le 1 2
    conn = doc.connections["idC3"]
    assert conn.rel == C3.leq
    assert doc.order == [("poset", "C3"), ("conn", "idC3")]


def test_parse_zoo_document():
    doc = parse_file(DATA / "zoo.txt")
    assert set(doc.posets) == {"C2", "V"}
    assert not doc.posets["V"].is_lattice  # no top
    assert doc.maps["drop"].values == (0, 0)
    assert doc.connections["idC2"].rel == doc.posets["C2"].leq
    q = doc.quantales["QC2"]
    assert q.unit == 1 and q.is_integral  # mul closed symmetrically


def test_duplicate_le_lines_are_idempotent():
    doc = parse_text("poset P\nelem a b\nle a b\nle a b\n")
    assert doc.posets["P"].leq[0][1]


def test_comments_and_blank_lines():
    doc = parse_text("# heading\n\nposet P # trailing\nelem x\n")
    assert doc.posets["P"].size == 1


def test_cycle_becomes_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_file(DATA / "bad_cycle.poset")
    assert "cycle" in str(exc.value)
    assert exc.value.line == 1  # reported at the poset header


def test_weakening_violation_names_quadruple():
    with pytest.raises(ParseError) as exc:
        parse_file(DATA / "bad_conn.conn")
    msg = str(exc.value)
    assert "weakening" in msg and "requires rel" in msg


def test_unknown_directive():
    with pytest.raises(ParseError) as exc:
        parse_text("posett P\n")
    assert "unknown directive" in str(exc.value)


def test_elem_outside_block():
    with pytest.raises(ParseError):
        parse_text("elem a\n")


def test_duplicate_labels():
    with pytest.raises(ParseError) as exc:
        parse_text("poset P\nelem a a\n")
    assert "duplicate label" in str(exc.value)


def test_le_unknown_label():
    with pytest.raises(ParseError) as exc:
        parse_text("poset P\nelem a\nle a b\n")
    assert exc.value.line == 3


def test_map_missing_send():
    text = "poset P\nelem a b\nle a b\nmap f P P\nsend a a\n"
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert "missing send" in str(exc.value)


def test_map_not_monotone():
    text = "poset P\nelem a b\nle a b\nmap f P P\nsend a b\nsend b a\n"
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert "not monotone" in str(exc.value)


def test_map_duplicate_send():
    text = "poset P\nelem a b\nle a b\nmap f P P\nsend a a\nsend a b\n"
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert "duplicate send" in str(exc.value)


def test_quantale_missing_product():
    text = "poset P\nelem a b\nle a b\nquantale Q over P\nmul a a a\n"
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert "missing product" in str(exc.value)


def test_quantale_conflicting_product():
    text = (
        "poset P\nelem a b\nle a b\n"
        "quantale Q over P\nmul a b a\nmul b a b\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert "conflicting product" in str(exc.value)


def test_quantale_axiom_failure_is_parse_error(tmp_path):
    # meet on the diamond is not join-preserving
    text = (
        "poset M3\nelem bot a b c top\n"
        "le bot a\nle bot b\nle bot c\nle a top\nle b top\nle c top\n"
        "quantale Q over M3\n"
        "mul bot bot bot\nmul bot a bot\nmul bot b bot\nmul bot c bot\nmul bot top bot\n"
        "mul a a a\nmul a b bot\nmul a c bot\nmul a top a\n"
        "mul b b b\nmul b c bot\nmul b top b\n"
        "mul c c c\nmul c top c\n"
        "mul top top top\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert "invalid" in str(exc.value)


def test_parse_frame_quantale():
    doc = parse_file(DATA / "frame3.q")
    q = doc.quantales["FrameF3"]
    assert q.lattice.name == "F3"
    assert q.mult == q.lattice.meet
    assert q.is_integral


def test_unknown_poset_reference():
    with pytest.raises(ParseError) as exc:
        parse_text("conn c P P\n")
    assert "unknown poset" in str(exc.value)


DIRECTIVE_TOKENS = (
    "poset", "elem", "le", "map", "send", "conn", "rel", "quantale", "mul", "over", "#",
)
LABEL_TOKENS = ("a", "b", "c", "0", "1", "P", "Q")
directive_lines = st.lists(
    st.lists(st.sampled_from(DIRECTIVE_TOKENS + LABEL_TOKENS), min_size=1, max_size=5),
    max_size=14,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(directive_lines)
def test_random_directive_soup_raises_only_ordbench_errors(lines):
    text = "\n".join(" ".join(tokens) for tokens in lines)
    try:
        parse_text(text)
    except OrdbenchError:
        pass


P_AB = "poset P\nelem a b\nle a b\n"
M3_BAD_QUANTALE = (
    "poset M3\nelem bot a b c top\n"
    "le bot a\nle bot b\nle bot c\nle a top\nle b top\nle c top\n"
    "quantale Q over M3\n"
    "mul bot bot bot\nmul bot a bot\nmul bot b bot\nmul bot c bot\nmul bot top bot\n"
    "mul a a a\nmul a b bot\nmul a c bot\nmul a top a\n"
    "mul b b b\nmul b c bot\nmul b top b\nmul c c c\nmul c top c\nmul top top top\n"
)

# One document per error site of the parser, with its exact line and message;
# the last rows pin which rule wins when a line breaks several.
PARSE_ERRORS = [
    # usage
    ("poset\n", 1, "usage: poset <name>"),
    (P_AB + "le a\n", 4, "usage: le <labelA> <labelB>"),
    (P_AB + "map f P\n", 4, "usage: map <name> <sourcePoset> <targetPoset>"),
    (P_AB + "map f P P\nsend a\n", 5, "usage: send <sourceLabel> <targetLabel>"),
    (P_AB + "conn c P\n", 4, "usage: conn <name> <sourcePoset> <targetPoset>"),
    (P_AB + "conn c P P\nrel a a a\n", 5, "usage: rel <sourceLabel> <targetLabel>"),
    (P_AB + "quantale Q on P\n", 4, "usage: quantale <name> over <posetName>"),
    (P_AB + "quantale Q over\n", 4, "usage: quantale <name> over <posetName>"),
    (P_AB + "quantale Q over P\nmul a a\n", 5, "usage: mul <labelA> <labelB> <labelC>"),
    # owning block
    ("elem a\n", 1, "elem outside a poset block"),
    (P_AB + "map f P P\nle a a\n", 5, "le outside a poset block"),
    (P_AB + "send a a\n", 4, "send outside a map block"),
    (P_AB + "rel a a\n", 4, "rel outside a conn block"),
    (P_AB + "map f P P\nsend a a\nsend b b\nmul a a a\n", 7, "mul outside a quantale block"),
    # duplicate names
    (P_AB + "poset P\n", 4, "duplicate poset name 'P'"),
    (P_AB + "map f P P\nsend a a\nsend b b\nmap f P P\n", 7, "duplicate map name 'f'"),
    (P_AB + "conn c P P\nconn c P P\n", 5, "duplicate connection name 'c'"),
    (
        "poset P\nelem a\nquantale Q over P\nmul a a a\nquantale Q over P\n",
        5,
        "duplicate quantale name 'Q'",
    ),
    # poset references and label membership
    ("conn c P P\n", 1, "unknown poset 'P'"),
    (P_AB + "map f P R\n", 4, "unknown poset 'R'"),
    (P_AB + "quantale Q over R\n", 4, "unknown poset 'R'"),
    (P_AB + "le a c\n", 4, "unknown label 'c'"),
    (P_AB + "quantale Q over P\nmul a c a\n", 5, "unknown label 'c'"),
    (P_AB + "map f P P\nsend c a\n", 5, "unknown source label 'c'"),
    (P_AB + "conn c P P\nrel c a\n", 5, "unknown source label 'c'"),
    (P_AB + "map f P P\nsend a c\n", 5, "unknown target label 'c'"),
    (P_AB + "conn c P P\nrel a c\n", 5, "unknown target label 'c'"),
    # rules of a single directive
    ("poset P\nelem a b\nelem c a\n", 3, "duplicate label 'a'"),
    (P_AB + "map f P P\nsend a a\nsend a b\n", 6, "duplicate send for 'a'"),
    (P_AB + "quantale Q over P\nmul a b a\nmul b a b\n", 6, "conflicting product b*a: a vs b"),
    ("posett P\n", 1, "unknown directive 'posett'"),
    # building a block, reported at its header
    ("poset E\n", 1, "poset 'E' has no elements"),
    ("poset P\nelem a\nposet E\nelem\nconn c E E\n", 3, "poset 'E' has no elements"),
    ("poset P\nelem a b\nle a b\nle b a\n", 1, "P: elements 'a' and 'b' lie on a cycle"),
    (P_AB + "map f P P\nsend a a\n", 4, "map 'f' missing send for 'b'"),
    (
        P_AB + "map f P P\nsend a b\nsend b a\n",
        4,
        "map 'f' is not monotone: a <= b but b !<= a",
    ),
    (
        P_AB + "conn c P P\nrel b a\n",
        4,
        "connection 'c' violates weakening: b <= b rel a <= b requires rel b b",
    ),
    (P_AB + "quantale Q over P\nmul a a a\n", 4, "quantale 'Q' missing product a*b"),
    (M3_BAD_QUANTALE, 9, "quantale 'Q' invalid: a*(b v c) = a but (a*b) v (a*c) = bot"),
    # precedence
    ("send a\n", 1, "send outside a map block"),
    ("map f P\n", 1, "usage: map <name> <sourcePoset> <targetPoset>"),
    (P_AB + "le c\n", 4, "usage: le <labelA> <labelB>"),
    (P_AB + "map f P P\nmap f P P\n", 4, "map 'f' missing send for 'a'"),
    ("poset P\nelem a b\nle a b\nle b a\nposet\n", 1, "P: elements 'a' and 'b' lie on a cycle"),
]


@pytest.mark.parametrize("text, line, message", PARSE_ERRORS)
def test_parse_errors_pin_line_and_message(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert (exc.value.line, exc.value.message) == (line, message)
    assert str(exc.value) == f"<string>:{line}: {message}"


def test_input_errors_are_typed(tmp_path):
    latin1 = tmp_path / "latin1.poset"
    latin1.write_bytes(b"poset C2 \xe9 b\n")
    frame = DATA / "frame3.q"
    cases = [
        (UnreadableFile, f"{tmp_path / 'missing.conn'}: cannot read: No such file or directory",
         lambda: parse_file(tmp_path / "missing.conn")),
        (UnreadableFile, f"{tmp_path}: cannot read: Is a directory", lambda: parse_file(tmp_path)),
        (NotUTF8, f"{latin1}: not UTF-8 text at byte 9", lambda: parse_file(latin1)),
        (MissingBlock, f"{frame}: no conn block", lambda: _blocks(parse_file(frame), "conn", frame)),
    ]
    for cls, message, call in cases:
        with pytest.raises(OrdbenchError) as info:
            call()
        assert type(info.value) is cls
        assert str(info.value) == message


def antichain(n):
    return "poset A\n" + "".join(f"elem a{i}\n" for i in range(n))


def test_poset_blocks_hold_at_most_the_divisor_bound():
    # an antichain keeps the closure and the order checks fast
    assert MAX_ELEMENTS == MAX_DIVISORS == 240
    assert parse_text(antichain(MAX_ELEMENTS)).posets["A"].size == MAX_ELEMENTS
    with pytest.raises(ParseError) as info:
        parse_text(antichain(MAX_ELEMENTS + 1))
    assert (info.value.line, info.value.message) == (1, "poset 'A' has more than 240 elements")


def test_files_hold_at_most_one_largest_block_of_triples():
    # n**3 summed over a file's poset blocks is bounded by MAX_ELEMENTS**3:
    # 239**3 + 55**3 fits within 240**3, and 239**3 + 56**3 does not
    def second(n):
        return "poset B\nelem " + " ".join(f"b{i}" for i in range(n)) + "\n"

    assert parse_text(antichain(MAX_ELEMENTS - 1) + second(55)).posets["B"].size == 55
    for text, line in (
        (antichain(MAX_ELEMENTS - 1) + second(56), MAX_ELEMENTS + 1),
        (antichain(MAX_ELEMENTS) + second(1), MAX_ELEMENTS + 2),
    ):
        with pytest.raises(ParseError) as info:
            parse_text(text)
        assert (info.value.line, info.value.message) == (
            line, "poset 'B' takes the file past 240^3 element triples",
        )


def chain(n):
    return (
        "poset C\nelem " + " ".join(f"c{i}" for i in range(n)) + "\n"
        + "".join(f"le c{i} c{i + 1}\n" for i in range(n - 1))
    )


def test_files_hold_at_most_one_largest_connection_block():
    # a connection between posets of n and m elements counts n*m*max(n, m)
    # triples, checked at its header: the second is refused before its rel line
    one = antichain(MAX_ELEMENTS) + "conn a A A\n"
    assert parse_text(one).connections["a"].rel[0] == (False,) * MAX_ELEMENTS
    with pytest.raises(ParseError) as info:
        parse_text(one + "conn b A A\nrel a0 nowhere\n")
    assert (info.value.line, info.value.message) == (
        MAX_ELEMENTS + 3, "connection 'b' takes the file past 240^3 element triples",
    )
    # 200*100*200 = 4e6 triples each: three fit within 240**3, a fourth does not
    text = antichain(200) + "poset B\nelem " + " ".join(f"b{i}" for i in range(100)) + "\n"
    for i, (src, dst) in enumerate(("AB", "BA", "AB", "BA")):
        text += f"conn k{i} {src} {dst}\n"
    with pytest.raises(ParseError) as info:
        parse_text(text)
    assert (info.value.line, info.value.message) == (
        207, "connection 'k3' takes the file past 240^3 element triples",
    )
    assert len(parse_text(text.rsplit("conn", 1)[0]).connections) == 3


def test_files_hold_at_most_one_largest_quantale_block():
    # the second quantale over the largest chain is refused at its header,
    # after the first one, min on the chain, is built
    n = MAX_ELEMENTS
    text = chain(n) + "quantale Q over C\n"
    text += "".join(f"mul c{a} c{b} c{a}\n" for a in range(n) for b in range(a, n))
    text += "quantale R over C\n"
    with pytest.raises(ParseError) as info:
        parse_text(text)
    assert (info.value.line, info.value.message) == (
        len(text.splitlines()), "quantale 'R' takes the file past 240^3 element triples",
    )


def test_files_hold_at_most_the_byte_bound(tmp_path):
    path = tmp_path / "long.txt"
    path.write_bytes(b"#" * MAX_FILE_BYTES)
    assert parse_file(path).order == []
    path.write_bytes(b"#" * (MAX_FILE_BYTES + 1))
    devices = [Path("/dev/zero")] if os.path.exists("/dev/zero") else []
    for endless in [path] + devices:
        with pytest.raises(UnreadableFile) as info:
            parse_file(endless)
        assert str(info.value) == f"{endless}: longer than {MAX_FILE_BYTES} bytes"
