from pathlib import Path

from ordbench.cli import run

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_zoo(capsys):
    code, out, _ = invoke(capsys, "check", str(DATA / "zoo.txt"))
    assert code == 0
    assert out.splitlines() == [
        "poset C2: elements=2 lattice=yes bounded=yes modular=yes distributive=yes",
        "poset V: elements=3 lattice=no bounded=no modular=no distributive=no",
        "map drop: C2 -> C2 monotone=yes",
        "conn idC2: C2 -> C2 connection=yes",
        "quantale QC2: over=C2 unit=1 integral=yes",
    ]


def test_check_parse_error(capsys):
    code, out, err = invoke(capsys, "check", str(DATA / "bad_cycle.poset"))
    assert code == 2
    assert "cycle" in err


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "laws", str(tmp_path / "missing.conn"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing.conn: cannot read" in err
    assert len(err.splitlines()) == 1


def test_directory_is_an_input_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "check", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "cannot read" in err
    assert len(err.splitlines()) == 1


def test_non_utf8_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.poset"
    path.write_bytes(b"poset C2 \xe9 b\n")
    for verb in ("check", "adjoints", "laws", "quantale"):
        code, out, err = invoke(capsys, verb, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "not UTF-8" in err
        assert len(err.splitlines()) == 1


def test_adjoints_identity(capsys):
    code, out, _ = invoke(capsys, "adjoints", str(DATA / "idC3.conn"))
    assert code == 0
    assert out.splitlines() == [
        "conn idC3: C3 -> C3",
        "left: 0->0 1->1 2->2",
        "right: 0->0 1->1 2->2",
    ]


def test_adjoints_mulm(capsys):
    code, out, _ = invoke(capsys, "adjoints", str(DATA / "mulm.conn"))
    assert code == 0
    assert out.splitlines() == [
        "conn mulm: F3 -> F3",
        "left: bot->bot m->m top->m",
        "right: bot->bot m->top top->top",
    ]


def test_laws_single_law(capsys):
    code, out, _ = invoke(capsys, "laws", str(DATA / "idC3.conn"), "--law", "LF0")
    assert code == 0
    assert out.splitlines() == [
        "conn idC3: C3 -> C3",
        "LF0 holds",
    ]


def test_laws_default_all_applicable(capsys):
    code, out, _ = invoke(capsys, "laws", str(DATA / "idC3.conn"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conn idC3: C3 -> C3"
    assert len(lines) == 19  # header + all 18 laws applicable on a bounded lattice
    assert all(line.endswith("holds") for line in lines[1:])


def test_laws_failing_connection_exits_1(capsys):
    code, out, _ = invoke(capsys, "laws", str(DATA / "mulm.conn"))
    assert code == 1
    assert "RM0 fails witness: x=m lhs=top rhs=m" in out.splitlines()
    assert "RF0 fails witness: a=m c=bot lhs=m rhs=top" in out.splitlines()


def test_laws_unknown_law(capsys):
    code, _, err = invoke(capsys, "laws", str(DATA / "idC3.conn"), "--law", "ZZ1")
    assert code == 2
    assert "unknown law" in err


def test_verify_composition_suite(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "composition", "--catalog")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("suite composition: lattices=")
    assert lines[0].endswith("disagreements=0")
    assert lines[-1] == "result: pass"


def test_verify_lm_suite(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "lm", "--catalog")
    assert code == 0
    assert out.splitlines()[-1] == "result: pass"


def test_verify_is_deterministic(capsys):
    code1, out1, _ = invoke(capsys, "verify", "--suite", "derivations")
    code2, out2, _ = invoke(capsys, "verify", "--suite", "derivations")
    assert (code1, out1) == (code2, out2)


def test_quantale_zn12(capsys):
    code, out, _ = invoke(capsys, "quantale", "--zn", "12", "--principal")
    assert code == 0
    assert out.splitlines() == [
        "quantale Zn12: elements=6 unit=(1) integral=yes",
        "elem (1): principal=yes weak-principal=yes",
        "elem (2): principal=yes weak-principal=yes",
        "elem (3): principal=yes weak-principal=yes",
        "elem (4): principal=yes weak-principal=yes",
        "elem (6): principal=yes weak-principal=yes",
        "elem (12): principal=yes weak-principal=yes",
    ]


def test_quantale_frame_file(capsys):
    code, out, _ = invoke(capsys, "quantale", str(DATA / "frame3.q"), "--principal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantale FrameF3: elements=3 unit=top integral=yes"
    assert "elem m: principal=no weak-principal=no" in lines
    assert "  principal-ii fails witness: a=m b=bot lhs=m rhs=top" in lines
    assert "  RM0 fails witness: x=m lhs=top rhs=m" in lines


def test_quantale_invalid_modulus(capsys):
    code, _, err = invoke(capsys, "quantale", "--zn", "1", "--principal")
    assert code == 2
    assert "modulus" in err


def test_search_not_found(capsys):
    code, out, _ = invoke(capsys, "search", "--predicate", "LM0 & !LM1", "--max-size", "4")
    assert code == 0
    assert out.startswith("not found (")
    assert out.rstrip().endswith("cases)")


def test_search_rejects_max_size_below_one(capsys):
    for size in ("0", "-1"):
        code, out, err = invoke(capsys, "search", "--predicate", "LM0", "--max-size", size)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_search_bad_predicate(capsys):
    code, _, err = invoke(capsys, "search", "--predicate", "LM0 &", "--max-size", "4")
    assert code == 2
    assert "predicate" in err or "unexpected" in err


def test_search_with_generated_lattices(capsys):
    code, out, _ = invoke(
        capsys,
        "search", "--predicate", "LM0 & !LM1", "--max-size", "4", "--all-lattices",
    )
    assert code == 0
    assert out.startswith("not found (")


def test_unknown_verb(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


def test_missing_arguments(capsys):
    code, _, _ = invoke(capsys, "search", "--predicate", "LM0")
    assert code == 2
