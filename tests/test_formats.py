from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import OrdbenchError, ParseError, parse_file, parse_text

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
