import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import LAW_IDS
from ordbench.cli import run
from ordbench.quantale import MAX_DIVISORS
from ordbench.textio import MAX_ELEMENTS, MAX_FILE_BYTES

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


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


def test_adjoints_without_conn_block_is_an_input_error(capsys):
    code, out, err = invoke(capsys, "adjoints", str(DATA / "frame3.q"))
    assert (code, out, err) == (2, "", f"error: {DATA / 'frame3.q'}: no conn block\n")


def test_laws_without_conn_block_is_an_input_error(capsys):
    code, out, err = invoke(capsys, "laws", str(DATA / "frame3.q"))
    assert (code, out, err) == (2, "", f"error: {DATA / 'frame3.q'}: no conn block\n")


def test_quantale_without_quantale_block_is_an_input_error(capsys):
    code, out, err = invoke(capsys, "quantale", str(DATA / "idC3.conn"), "--principal")
    assert (code, out, err) == (2, "", f"error: {DATA / 'idC3.conn'}: no quantale block\n")


def test_check_without_any_block_is_an_input_error(capsys, tmp_path):
    empty, comment = tmp_path / "empty.txt", tmp_path / "comment.txt"
    empty.write_text("")
    comment.write_text("# a comment and a blank line\n\n")
    for path in (empty, comment):
        assert invoke(capsys, "check", str(path)) == (2, "", f"error: {path}: no block\n")


# check's report on every file in tests/data: (exit status, stdout, stderr)
CHECK_DATA = {
    "absent.conn": (0, (
        "poset C2: elements=2 lattice=yes bounded=yes modular=yes distributive=yes\n"
        "poset V: elements=3 lattice=no bounded=no modular=no distributive=no\n"
        "conn up: V -> C2 connection=yes\n"
        "conn down: C2 -> V connection=yes\n"
    ), ""),
    "bad_conn.conn": (2, "", (
        "error: {path}:5: connection 'broken' violates weakening: "
        "1 <= 1 rel 0 <= 1 requires rel 1 1\n"
    )),
    "bad_cycle.poset": (2, "", "error: {path}:1: loop: elements '0' and '1' lie on a cycle\n"),
    "frame3.q": (0, (
        "poset F3: elements=3 lattice=yes bounded=yes modular=yes distributive=yes\n"
        "quantale FrameF3: over=F3 unit=top integral=yes\n"
    ), ""),
    "idC3.conn": (0, (
        "poset C3: elements=3 lattice=yes bounded=yes modular=yes distributive=yes\n"
        "conn idC3: C3 -> C3 connection=yes\n"
    ), ""),
    "mulm.conn": (0, (
        "poset F3: elements=3 lattice=yes bounded=yes modular=yes distributive=yes\n"
        "conn mulm: F3 -> F3 connection=yes\n"
    ), ""),
    "zoo.txt": (0, (
        "poset C2: elements=2 lattice=yes bounded=yes modular=yes distributive=yes\n"
        "poset V: elements=3 lattice=no bounded=no modular=no distributive=no\n"
        "map drop: C2 -> C2 monotone=yes\n"
        "conn idC2: C2 -> C2 connection=yes\n"
        "quantale QC2: over=C2 unit=1 integral=yes\n"
    ), ""),
}


def test_check_every_data_file(capsys):
    assert sorted(CHECK_DATA) == sorted(p.name for p in DATA.iterdir())
    for name, (code, out, err) in CHECK_DATA.items():
        path = DATA / name
        assert invoke(capsys, "check", str(path)) == (code, out, err.format(path=path)), name


def test_check_bounds_the_work_of_a_whole_file(capsys, tmp_path):
    """One largest poset block fits the file's n**3 budget; a second one exits 2 at once."""
    antichain = "".join(f"elem a{i}\n" for i in range(MAX_ELEMENTS))
    one, two = tmp_path / "one.poset", tmp_path / "two.poset"
    one.write_text("poset A\n" + antichain)
    two.write_text("poset A\n" + antichain + "poset B\n" + antichain)
    code, out, err = invoke(capsys, "check", str(one))
    assert (code, err) == (0, "")
    assert out.startswith(f"poset A: elements={MAX_ELEMENTS} lattice=no")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "check", str(two))
    assert time.perf_counter() - start < 0.5
    line = MAX_ELEMENTS + 2
    message = f"{two}:{line}: poset 'B' takes the file past {MAX_ELEMENTS}^3 element triples"
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_absent_adjoints_file(capsys):
    # up: V -> C2 has a left adjoint but no right one (column 1 is all of V,
    # which has no top); down: C2 -> V has a right adjoint but no left one
    # (row 1 is empty, no element's up-set)
    path = str(DATA / "absent.conn")
    assert invoke(capsys, "adjoints", path) == (0, (
        "conn up: V -> C2\nleft: bot->0 a->1 b->1\nright: absent\n"
        "conn down: C2 -> V\nleft: absent\nright: bot->0 a->0 b->0\n"
    ), "")
    assert invoke(capsys, "laws", path) == (1, (
        "conn up: V -> C2\nLF1 holds\nLF2 holds\n"
        "conn down: C2 -> V\n"
        "RF1 fails witness: c=bot b=1 lhs=1 rhs=absent\n"
        "RF2 fails witness: c=bot d=bot b=1 lhs=1 rhs=absent\n"
    ), "")


def test_inputs_beyond_the_bounds_are_input_errors(capsys, tmp_path):
    # one elem line declaring 20,000 labels is rejected before the order
    # table is built, and an endless file before it is read to its end
    wide = tmp_path / "wide.poset"
    wide.write_text("poset A\nelem " + " ".join(f"a{i}" for i in range(20000)) + "\n")
    message = f"{wide}:1: poset 'A' has more than {MAX_DIVISORS} elements"
    assert invoke(capsys, "check", str(wide)) == (2, "", f"error: {message}\n")
    if os.path.exists("/dev/zero"):
        message = f"/dev/zero: longer than {MAX_FILE_BYTES} bytes"
        assert invoke(capsys, "check", "/dev/zero") == (2, "", f"error: {message}\n")


def run_child(argv, stdout, unbuffered):
    """ordbench in a child interpreter writing to ``stdout``: (exit status, stderr lines).

    A buffered child, the default, fails its writes when its buffer fills and
    at the final flush; an unbuffered one (PYTHONUNBUFFERED) at every print.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.run(
        [sys.executable, "-m", "ordbench.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=120,
    )
    return child.returncode, child.stderr.decode().splitlines()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_write_failure_on_a_full_device_exits_2(unbuffered):
    # buffered, the whole report fits stdout's buffer and fails at the flush
    with open("/dev/full", "wb") as full:
        code, err = run_child(["quantale", "--zn", "12", "--principal"], full, unbuffered)
    assert (code, err) == (2, ["error: cannot write output: No space left on device"])


@pytest.mark.parametrize("unbuffered", [False, True])
def test_write_failure_on_a_closed_pipe_exits_2(tmp_path, unbuffered):
    # buffered, 30 KB of report fill the buffer, so a print fails before the end
    path = tmp_path / "many.poset"
    path.write_text("".join(f"poset P{i}\nelem a\n" for i in range(400)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = run_child(["check", str(path)], write_end, unbuffered)
    finally:
        os.close(write_end)
    assert (code, err) == (2, ["error: cannot write output: Broken pipe"])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_write_failure_in_process_leaves_no_descriptor_open(monkeypatch, capsys):
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert run(["quantale", "--zn", "12", "--principal"]) == 2
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err == "error: cannot write output: Broken pipe\n" * 3


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


def test_empty_poset_block_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "empty.conn"
    path.write_text("poset E\nconn c E E\n")
    for verb in ("check", "adjoints", "laws"):
        code, out, err = invoke(capsys, verb, str(path))
        assert (code, out, err) == (2, "", f"error: {path}:1: poset 'E' has no elements\n")


def test_laws_without_adjoints_lists_requested_laws_only(capsys, tmp_path):
    # rel 0 1 alone on C2: row 1 is empty and column 0 is empty, so neither adjoint exists
    path = tmp_path / "noadj.conn"
    path.write_text("poset C2\nelem 0 1\nle 0 1\nconn c C2 C2\nrel 0 1\n")
    assert invoke(capsys, "laws", str(path)) == (0, "conn c: C2 -> C2\n", "")
    code, out, err = invoke(capsys, "laws", str(path), "--law", "LF1")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "conn c: C2 -> C2",
        "LF1 skipped reason: connection has no adjoint maps",
    ]


def test_one_sided_file_connections(capsys, tmp_path):
    # top relates everything to 1: f = const 1, no right adjoint; bot relates
    # only 0 to both elements: g = const 0, no left adjoint
    path = tmp_path / "onesided.conn"
    path.write_text(
        "poset C2\nelem 0 1\nle 0 1\n"
        "conn top C2 C2\nrel 0 1\nrel 1 1\nconn bot C2 C2\nrel 0 0\nrel 0 1\n"
    )
    assert invoke(capsys, "laws", str(path)) == (1, (
        "conn top: C2 -> C2\n"
        "LF1 fails witness: b=0 c=0 lhs=0 rhs=absent\n"
        "LF2 fails witness: a=0 b=0 c=0 lhs=0 rhs=absent\n"
        "conn bot: C2 -> C2\n"
        "RF1 fails witness: c=0 b=1 lhs=1 rhs=absent\n"
        "RF2 fails witness: c=0 d=0 b=1 lhs=1 rhs=absent\n"
    ), "")
    assert invoke(capsys, "laws", str(path), "--law", "LM0", "--law", "RF1") == (1, (
        "conn top: C2 -> C2\n"
        "LM0 skipped reason: right adjoint absent\n"
        "RF1 skipped reason: right adjoint absent\n"
        "conn bot: C2 -> C2\n"
        "LM0 skipped reason: left adjoint absent\n"
        "RF1 fails witness: c=0 b=1 lhs=1 rhs=absent\n"
    ), "")
    assert invoke(capsys, "adjoints", str(path)) == (0, (
        "conn top: C2 -> C2\nleft: 0->1 1->1\nright: absent\n"
        "conn bot: C2 -> C2\nleft: absent\nright: 0->0 1->0\n"
    ), "")


def test_laws_failing_connection_exits_1(capsys):
    code, out, _ = invoke(capsys, "laws", str(DATA / "mulm.conn"))
    assert code == 1
    assert "RM0 fails witness: x=m lhs=top rhs=m" in out.splitlines()
    assert "RF0 fails witness: a=m c=bot lhs=m rhs=top" in out.splitlines()


def test_laws_unknown_law(capsys):
    code, out, err = invoke(capsys, "laws", str(DATA / "idC3.conn"), "--law", "ZZ1")
    assert (code, out, err) == (2, "", "error: unknown law 'ZZ1'\n")


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


def test_quantale_zn_beyond_the_bounds_is_an_input_error(capsys):
    # a prime above 10^12, and 2^5 * 3^2 * 5 * 7 * 11 * 13 with 288 divisors
    for n in ("1000000000039", "1441440"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "quantale", "--zn", n, "--principal")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


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


def test_search_size_bound_with_generated_lattices(capsys):
    for size in ("7", "8"):
        code, out, err = invoke(
            capsys, "search", "--predicate", "LM0", "--max-size", size, "--all-lattices"
        )
        assert (code, out, err) == (
            2, "", "error: search is bounded to generated lattices of size 1 to 6\n"
        )
    code, out, err = invoke(capsys, "search", "--predicate", "LM0 & !LM0", "--max-size", "8")
    assert (code, err) == (0, "")
    assert out.startswith("not found (")


def test_search_bad_predicate(capsys):
    code, _, err = invoke(capsys, "search", "--predicate", "LM0 &", "--max-size", "4")
    assert code == 2
    assert "predicate" in err or "unexpected" in err
    code, out, err = invoke(capsys, "search", "--predicate", "LM0 & ZZ1", "--max-size", "4")
    assert (code, out, err) == (2, "", "error: unknown law 'ZZ1' in predicate\n")


def test_search_rejects_predicates_too_deep_to_evaluate(capsys):
    for predicate in ("(" * 250 + "LM0" + ")" * 250, "!" * 1000 + "LM0", " & ".join(["LM0"] * 1500)):
        code, out, err = invoke(capsys, "search", "--predicate", predicate, "--max-size", "4")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "more than 200" in err and len(err.splitlines()) == 1


def test_search_modular_all_lattices_finds_no_counterexample(capsys):
    code, out, err = invoke(
        capsys,
        "search", "--predicate", "LM0 & RM0 & !(LF0 & RF0)", "--max-size", "6",
        "--modular", "--all-lattices",
    )
    assert (code, out, err) == (0, "not found (24522 cases)\n", "")


def test_search_found_line_lists_every_law(capsys):
    # the short-circuit reads LM0 alone; the found line decides RM0 too
    code, out, err = invoke(capsys, "search", "--predicate", "LM0|RM0", "--max-size", "1")
    assert (code, out, err) == (
        0, "found P=C1 Q=C1 left=(0) right=(0) LM0=holds RM0=holds\n", ""
    )


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


FUZZ_PATHS = [str(p) for p in sorted(DATA.iterdir())] + [str(DATA / "missing.conn"), str(DATA)]
paths = st.sampled_from(FUZZ_PATHS)
law_tokens = st.one_of(st.sampled_from(LAW_IDS), st.text(alphabet="LMRF0123x", max_size=4))
file_argv = st.one_of(
    st.tuples(st.sampled_from(["check", "adjoints"]), paths).map(list),
    st.tuples(paths, st.lists(law_tokens, max_size=3)).map(
        lambda t: ["laws", t[0]] + [arg for law in t[1] for arg in ("--law", law)]
    ),
    st.tuples(paths, st.booleans()).map(
        lambda t: ["quantale", t[0]] + (["--principal"] if t[1] else [])
    ),
)
bounded_argv = st.one_of(
    # both reject their number before doing any work: never draw a large --zn
    st.integers(max_value=1, min_value=-3).map(lambda n: ["quantale", "--zn", str(n)]),
    st.tuples(
        st.sampled_from(["LM0", "LM0 & !LF0", "RM0 |", "ZZ9"]),
        st.one_of(st.integers(max_value=0, min_value=-3), st.integers(min_value=9, max_value=99)),
    ).map(lambda t: ["search", "--predicate", t[0], "--max-size", str(t[1])]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(file_argv, bounded_argv))
def test_random_argv_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") or "usage:" in err.getvalue()
