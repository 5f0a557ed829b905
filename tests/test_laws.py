import gc
import hashlib
import itertools
from dataclasses import replace
from pathlib import Path

import pytest

from ordbench import (
    LAW_IDS,
    AdjointConnection,
    Connection,
    MonotoneMap,
    OrdbenchError,
    PredicateSyntaxError,
    Quantale,
    SizeBoundExceeded,
    UnknownLaw,
    UnknownSuite,
    build_poset,
    catalog,
    element_connection,
    eval_law,
    find_left_adjoint,
    find_right_adjoint,
    from_leq,
    monotone_maps,
    parse_file,
    parse_predicate,
    run_suite,
    search_counterexample,
    zn_ideal_quantale,
)
from ordbench import laws
from ordbench.lattice import MAX_ELEMENTS
from ordbench.laws import LAW_TABLE, THEOREMS
from ordbench.posetgen import generated_lattices

from oracles import (
    base_failures,
    case_scan,
    catalog_named,
    chain_failures,
    compose_adjoint,
    composition_failures,
    connection_of_monotone_left,
    derivation_failures,
    eager_search,
    enumerate_adjoint_connections,
    left_adjoint_connection,
    make_adjoint,
    monotone_map_objects,
    modularity_failures,
    modularity_forms,
    operands,
    opposite,
    recheck_witness,
    relation,
    restrict_left_cells,
    right_adjoint_connection,
)

DATA = Path(__file__).parent / "data"


def identity_adjoint(L):
    return make_adjoint(Connection(L, L, L.leq))


@pytest.fixture(scope="module")
def mul_by_m(f3):
    """Multiplication by the middle element of the 3-chain frame: f(x)=x^m."""
    f = MonotoneMap(f3, f3, (0, 1, 1))
    ac = make_adjoint(connection_of_monotone_left(f))
    assert ac.right.values == (0, 2, 2)  # residuals by m
    return ac


def test_identity_satisfies_every_law(n5):
    ac = identity_adjoint(n5)
    for law_id in LAW_IDS:
        report = eval_law(law_id, ac)
        assert report.skipped is None
        assert report.holds is True


def test_c3_to_c2_collapse_lm0(c2, c3):
    f = MonotoneMap(c3, c2, (0, 0, 1))
    ac = make_adjoint(connection_of_monotone_left(f))
    report = eval_law("LM0", ac)
    assert report.holds is True


def test_mul_by_m_laws(mul_by_m):
    assert eval_law("LM0", mul_by_m).holds is True
    assert eval_law("LF0", mul_by_m).holds is True
    assert eval_law("LF1", mul_by_m).holds is True
    assert eval_law("LF2", mul_by_m).holds is True

    rm0 = eval_law("RM0", mul_by_m)
    assert rm0.holds is False
    assert rm0.witness.assignment == (("x", "m"),)
    assert rm0.witness.lhs_label == "top" and rm0.witness.rhs_label == "m"

    rf0 = eval_law("RF0", mul_by_m)
    assert rf0.holds is False
    assert rf0.witness.assignment == (("a", "m"), ("c", "bot"))
    assert rf0.witness.lhs_label == "m" and rf0.witness.rhs_label == "top"


def test_mul_by_m_theorem_vectors(mul_by_m):
    expected = {"lm": True, "rm": False, "rm045": False, "lm045": True, "lf": True, "rf": False}
    for theorem, holds in expected.items():
        _, chain = THEOREMS[theorem]
        assert [eval_law(law_id, mul_by_m).holds for law_id in chain] == [holds] * len(chain)
        assert chain_failures(theorem, mul_by_m) == []


def test_unknown_law_rejected(n5):
    with pytest.raises(ValueError):
        eval_law("XX9", identity_adjoint(n5))


def test_one_sided_law_evaluation(c2, c3):
    f = MonotoneMap(c2, c3, (0, 2))
    one_sided = AdjointConnection(f, None)
    assert eval_law("LF1", one_sided).holds is not None
    assert eval_law("LF2", one_sided).holds is not None
    assert eval_law("LM1", one_sided).skipped == "right adjoint absent"
    assert eval_law("RF1", one_sided).skipped == "right adjoint absent"
    # the lf chain is decided on a left connection; every law of the rf chain is skipped
    assert [eval_law(law_id, one_sided).skipped for law_id in THEOREMS["lf"][1]] == [
        None, None, "right adjoint absent",
    ]
    assert [eval_law(law_id, one_sided).skipped for law_id in THEOREMS["rf"][1]] == [
        "right adjoint absent",
    ] * 3


def test_structure_skips_on_unbounded_poset():
    antichain = build_poset("A2", ["x", "y"], [])
    ac = make_adjoint(Connection(antichain, antichain, antichain.leq))
    assert eval_law("LM0", ac).skipped == "P has no top"
    assert eval_law("RM0", ac).skipped == "Q has no bottom"
    assert eval_law("LF0", ac).skipped == "P lacks binary meets"
    assert eval_law("RF0", ac).skipped == "P lacks binary joins"
    # LM1..LM3 quantify only over existing bounds and still hold
    for law_id in ("LM1", "LM2", "LM3", "RM1", "RM2", "RM3", "LF1", "LF2", "RF1", "RF2"):
        assert eval_law(law_id, ac).holds is True


@pytest.mark.parametrize("theorem, structure, alone", [
    ("rm045", ("joinsP", "botQ"), "RM0"),
    ("lm045", ("topP", "meetsQ"), "LM0"),
])
def test_chain_needs_no_hypotheses_of_its_own(theorem, structure, alone, bare_posets):
    """A pair missing the structure two laws of the chain need leaves at most the
    third unskipped, with or without each adjoint, so the chain cannot disagree."""
    corpus = catalog() + list(generated_lattices(4)) + list(bare_posets)
    missed, unskipped = 0, set()
    for P, Q in itertools.product(corpus, repeat=2):
        if laws._missing_structure(structure, P, Q) is not None:
            missed += 1
            for adjoints in ((True, True), (True, False), (False, True)):
                decided = [
                    law_id for law_id in THEOREMS[theorem][1]
                    if laws._missing_structure(LAW_TABLE[law_id].requires, P, Q, *adjoints) is None
                ]
                assert len(decided) <= 1, (P.name, Q.name, adjoints)
                unskipped.update(decided)
    assert (missed, unskipped) == (135, {alone})  # of 21 * 21 ordered pairs


def test_witnesses_are_reproducible():
    corpus = [catalog_named(n) for n in ("C2", "C3", "B2", "N5")]
    seen = 0
    for P in corpus:
        for Q in corpus:
            for ac in enumerate_adjoint_connections(P, Q):
                for law_id in LAW_IDS:
                    report = eval_law(law_id, ac)
                    if report.holds is False:
                        seen += 1
                        ok, lhs, rhs = recheck_witness(law_id, ac, report.witness)
                        assert not ok
                        assert lhs == report.witness.lhs and rhs == report.witness.rhs
    assert seen > 0


def _one_sided_connections(P, Q):
    """Every left connection P -> Q, then every right connection P -> Q."""
    for f in monotone_map_objects(P, Q):
        yield left_adjoint_connection(f)
    for g in monotone_map_objects(Q, P):
        yield right_adjoint_connection(g)


def test_law_reports_are_pinned():
    """Every law's report line on a fixed corpus, frozen as one sha256.

    The corpus covers bounded lattices and posets lacking a top, a bottom,
    meets or joins, and both one-sided and two-sided connections, so the
    digest pins verdicts, witness strings and skip reasons alike.
    """
    corpus = [L for L in catalog() if L.size <= 5] + [
        build_poset("A2", ["x", "y"], []),
        build_poset("V3", ["o", "x", "y"], [("o", "x"), ("o", "y")]),
        build_poset("L3", ["x", "y", "t"], [("x", "t"), ("y", "t")]),
    ]
    digest = hashlib.sha256()
    connections = lines = 0
    for P in corpus:
        for Q in corpus:
            for ac in _one_sided_connections(P, Q):
                connections += 1
                left = ac.left.values if ac.left else None
                right = ac.right.values if ac.right else None
                for law_id in LAW_IDS:
                    lines += 1
                    line = eval_law(law_id, ac).line()
                    digest.update(f"{P.name} {Q.name} {left} {right} {line}\n".encode())
    assert (connections, lines) == (5542, 99756)
    assert digest.hexdigest() == "8f9fcdb12fc9ace9bf28d8d5f3b52b75b82fdf140fffa39a331203462de7d8af"


def _kernel_corpus():
    """The connections the law kernels are checked on against the case scan."""
    lattices = catalog() + list(generated_lattices(5))
    for P in lattices:
        for Q in lattices:
            yield from enumerate_adjoint_connections(P, Q)
    small = [L for L in catalog() if L.size <= 4]
    for P in small:
        for Q in small:
            yield from _one_sided_connections(P, Q)
    quantales = [zn_ideal_quantale(n) for n in [*range(2, 61), 360]]
    quantales += parse_file(DATA / "frame3.q").quantales.values()
    for q in quantales:
        for e in range(q.lattice.size):
            yield element_connection(q, e)


def test_law_kernels_match_case_scan():
    """Each law's kernel finds the failure that checking every case in order finds.

    Over every adjoint connection among the catalog and the generated
    lattices of size <= 5, every left and right connection among catalog
    lattices of size <= 4 (some lack one adjoint), and every element
    connection of Z/n for n = 2..60 and 360 and of the frame file: the
    verdict, the witness indices and both sides agree with the oracle.
    """
    evaluated = failed = 0
    for ac in _kernel_corpus():
        for law_id in LAW_IDS:
            report = eval_law(law_id, ac)
            if report.skipped is not None:
                continue
            evaluated += 1
            expected = case_scan(law_id, ac)
            if expected is None:
                assert report.holds is True, (law_id, ac)
                continue
            failed += 1
            w = report.witness
            assert report.holds is False and (w.indices, w.lhs, w.rhs) == expected, (law_id, ac)
    assert (evaluated, failed) == (196486, 126303)


def _same_lf0_rf0_verdict(ac):
    """Assert that eval_law's LF0 and RF0 agree with the case scan on ac; return how many fail."""
    failures = 0
    for law_id in ("LF0", "RF0"):
        report, expected = eval_law(law_id, ac), case_scan(law_id, ac)
        if expected is None:
            assert report.holds is True, (law_id, ac)
        else:
            failures += 1
            w = report.witness
            assert report.holds is False and (w.indices, w.lhs, w.rhs) == expected, (law_id, ac)
    return failures


def test_lf0_and_rf0_kernels_at_the_size_bound(n5):
    """Byte rows hold indices up to 239: at 240 elements the kernels agree with the case scan.

    Every element of Z/720720 is principal.  On the 240-chain, whose meet
    is a quantale, RF0 fails for each element but the bounds, and LF0 on
    the opposite connection.  On the non-modular N5 both fail often.
    """
    z = zn_ideal_quantale(720720)
    assert z.lattice.size == MAX_ELEMENTS == 240
    for e in (0, 1, 2, 119, 238, 239):
        assert _same_lf0_rf0_verdict(element_connection(z, e)) == 0
    n = MAX_ELEMENTS
    leq = [[i <= j for j in range(n)] for i in range(n)]
    chain = from_leq("C240", [str(i) for i in range(n)], leq)
    frame = Quantale(chain, chain.meet, chain.top)
    for e in (1, 120, 238):
        ac = element_connection(frame, e)
        f, g = ac.left.values, ac.right.values
        D = chain.op
        opposite_ac = AdjointConnection(MonotoneMap(D, D, g), MonotoneMap(D, D, f))
        assert _same_lf0_rf0_verdict(ac) == _same_lf0_rf0_verdict(opposite_ac) == 1
        assert eval_law("RF0", ac).witness.rhs == eval_law("LF0", opposite_ac).witness.rhs == 239
    connections = enumerate_adjoint_connections(n5, n5)
    assert (len(connections), sum(map(_same_lf0_rf0_verdict, connections))) == (43, 66)


def test_law_kernels_yield_every_failure_in_case_order():
    """Each kernel yields every failing case of its law, in ascending order of its variables.

    Over every adjoint connection among the catalog lattices of size <= 5
    and the generated lattices of size <= 4, for every law not skipped on
    it: the cases and both sides are those the case-by-case check of the
    base law finds, and a right-hand law runs its base law's kernel on the
    opposite connection.
    """
    for law_id in LAW_IDS:
        if law_id.startswith("R"):
            assert LAW_TABLE[law_id].failures is LAW_TABLE["L" + law_id[1:]].failures, law_id
    lattices = [L for L in catalog() if L.size <= 5] + list(generated_lattices(4))
    evaluated = failed = 0
    for P, Q in itertools.product(lattices, repeat=2):
        decided = [
            LAW_TABLE[law_id] for law_id in LAW_IDS
            if laws._missing_structure(LAW_TABLE[law_id].requires, P, Q) is None
        ]
        for ac in enumerate_adjoint_connections(P, Q):
            for law in decided:
                evaluated += 1
                found = list(law.failures(*operands(law, ac)))
                assert found == base_failures(law.id, ac), (law.id, ac)
                failed += bool(found)
    assert (evaluated, failed) == (27918, 13122)


def test_right_laws_are_left_laws_on_the_opposite_connection():
    """RMk/RFk on ac agree with LMk/LFk on the opposite built from dual posets."""
    corpus = [L for L in catalog() if L.size <= 4]
    pairs = [(f"R{law[1:]}", f"L{law[1:]}") for law in LAW_IDS if law.startswith("R")]
    checks = 0
    for P in corpus:
        for Q in corpus:
            for ac in _one_sided_connections(P, Q):
                conn = opposite(relation(ac))
                op = AdjointConnection(find_left_adjoint(conn), find_right_adjoint(conn))
                for right_law, left_law in pairs:
                    r, l = eval_law(right_law, ac), eval_law(left_law, op)
                    assert (r.holds, r.skipped is None) == (l.holds, l.skipped is None)
                    checks += 1
    assert checks == 8370


def test_lf2_matches_lm1_of_actual_restriction(c3, b2, mul_by_m):
    def lm1_of_restriction(ac):
        # independent route: restrict cell by cell and re-check the image
        # down-closure there, in the order of f(anchor)-down
        Q, f = ac.target, ac.left.values
        for anchor in range(ac.source.size):
            _, left, _ = restrict_left_cells(ac, anchor)
            dn_q = [y for y in range(Q.size) if Q.leq[y][f[anchor]]]
            image = set(left)
            for b in left:
                for c in range(len(dn_q)):
                    if Q.leq[dn_q[c]][dn_q[b]] and c not in image:
                        return False
        return True

    cases = enumerate_adjoint_connections(c3, b2) + enumerate_adjoint_connections(b2, c3)
    cases.append(mul_by_m)
    checked = 0
    for ac in cases:
        assert eval_law("LF2", ac).holds == lm1_of_restriction(ac)
        checked += 1
    assert checked > 10


def test_theorem_suites_on_small_corpus():
    corpus = [catalog_named(n) for n in ("C2", "C3", "B2", "M3", "N5")]
    for name in ("lm", "rm", "rm045", "lm045", "lf", "rf", "derivations"):
        result = run_suite(name, corpus)
        assert result.disagreements == 0, result.details[:3]
        assert result.cases > 0


def test_derivations_on_identity(m3):
    assert derivation_failures(identity_adjoint(m3)) == []


def test_derivations_vacuous_when_rf0_fails(mul_by_m):
    assert [eval_law(law_id, mul_by_m).holds for law_id in ("RF0", "LF0", "LM0")] == [
        False, True, True,
    ]
    assert derivation_failures(mul_by_m) == []


def test_modularity_refinements_on_b2_pairs(b2):
    for ac in enumerate_adjoint_connections(b2, b2):
        assert modularity_failures(ac) == []


def test_modularity_refinements_skip_semantics(n5, c3):
    # Q = N5 not modular: the RM0<=>RF0 biconditional is not asserted
    assert [name for name, _, _ in modularity_forms(c3, n5)] == ["LM0<=>LF0[P modular]"]
    assert [name for name, _, _ in modularity_forms(n5, n5)] == []


def test_lf_side_modularity_refinement_admits_counterexample(b2, c3):
    """The literal "P modular => LM0 iff LF0" fails on a real connection.

    f sends the diamond onto the 3-chain as 00 -> 0, 01 -> 1, 10 -> 2,
    11 -> 2, with right adjoint g = (00, 01, 11).  LM0 holds, but LF0 fails
    at b=10, c=1: c ^ f(b) = 1 while f(g(c) ^ b) = f(00) = 0, even though
    both lattices are distributive.  RM0 fails too, so the restated
    refinement (P modular and RM0 => LM0 iff LF0) is not contradicted.
    The dual case is test_one_sided_modularity_refinements_admit_counterexamples.
    """
    f = MonotoneMap(b2, c3, (0, 1, 2, 2))
    ac = make_adjoint(connection_of_monotone_left(f))
    assert ac.right.values == (0, 1, 3)
    assert eval_law("LM0", ac).holds is True
    lf0 = eval_law("LF0", ac)
    assert lf0.holds is False
    assert lf0.witness.render() == "b=10 c=1 lhs=1 rhs=0"
    assert eval_law("RM0", ac).holds is False
    assert b2.is_modular
    assert modularity_failures(ac) == [
        "P=B2 Q=C3 left=(0, 1, 2, 2) right=(0, 1, 3) LM0<=>LF0[P modular]: LM0=True LF0=False",
    ]


def test_one_sided_modularity_refinements_admit_counterexamples(c3, b2):
    """The literal "Q modular => RM0 iff RF0" fails on a real connection.

    f embeds the 3-chain into the diamond as bot < 01 < top; RM0 holds
    (g(f(x)) = x) but RF0 fails at a=1, c=10 even though both lattices are
    distributive.  LM0 fails too, so the restated refinement (Q modular and
    LM0 => RM0 iff RF0) is not contradicted.  The dual case is
    test_lf_side_modularity_refinement_admits_counterexample; the conjunction
    form (both laws, both lattices modular) survives, see
    test_conjunction_and_split_refinements_hold.
    """
    f = MonotoneMap(c3, b2, (0, 1, 3))
    ac = make_adjoint(connection_of_monotone_left(f))
    assert eval_law("RM0", ac).holds is True
    assert eval_law("RF0", ac).holds is False
    assert eval_law("LM0", ac).holds is False
    assert b2.is_modular
    assert modularity_failures(ac) == [
        "P=C3 Q=B2 left=(0, 1, 3) right=(0, 1, 0, 2) RM0<=>RF0[Q modular]: RM0=True RF0=False",
    ]


def test_conjunction_and_split_refinements_hold():
    """Computed over the whole catalog: the conjunction form has no violations.

    Also the split forms with both modular-connection laws as hypotheses:
    P modular and LM0 and RM0 imply LF0; Q modular and LM0 and RM0 imply RF0.
    """
    corpus = [catalog_named(n) for n in ("C2", "C3", "C4", "B2", "M3", "N5", "Div12", "F3")]
    for P in corpus:
        for Q in corpus:
            for ac in enumerate_adjoint_connections(P, Q):
                lm0 = eval_law("LM0", ac).holds
                rm0 = eval_law("RM0", ac).holds
                lf0 = eval_law("LF0", ac).holds
                rf0 = eval_law("RF0", ac).holds
                if P.is_modular and Q.is_modular:
                    assert (lm0 and rm0) == (lf0 and rf0)
                if P.is_modular and lm0 and rm0:
                    assert lf0
                if Q.is_modular and lm0 and rm0:
                    assert rf0


def test_composition_stability_identity(c3):
    ident = identity_adjoint(c3)
    for law_id in ("LF0", "RF0"):
        assert eval_law(law_id, compose_adjoint(ident, ident)).holds is True
        assert composition_failures(ident, ident, law_id) == []


def test_composition_stability_vacuous(mul_by_m, f3):
    ident = identity_adjoint(f3)
    assert eval_law("RF0", mul_by_m).holds is False
    assert composition_failures(mul_by_m, ident, "RF0") == []


def test_composition_stability_small_exhaustive():
    corpus = [catalog_named(n) for n in ("C2", "C3", "B2")]
    for P in corpus:
        for Q in corpus:
            for S in corpus:
                for r in enumerate_adjoint_connections(P, Q):
                    for s in enumerate_adjoint_connections(Q, S):
                        for law_id in ("LF0", "RF0"):
                            assert composition_failures(r, s, law_id) == []


def test_predicate_parser():
    pred = parse_predicate("LM0 & !(LF0 & RF0)")
    assert pred.laws == ("LM0", "LF0", "RF0")
    assert pred.evaluate({"LM0": True, "LF0": True, "RF0": False})
    assert not pred.evaluate({"LM0": True, "LF0": True, "RF0": True})
    assert not pred.evaluate({"LM0": False, "LF0": False, "RF0": False})
    # precedence: ! binds tighter than &, & tighter than |
    pred2 = parse_predicate("LM0 | LM1 & !LM2")
    assert pred2.evaluate({"LM0": False, "LM1": True, "LM2": False})
    assert not pred2.evaluate({"LM0": False, "LM1": True, "LM2": True})


def test_law_errors_are_typed(n5):
    ac = identity_adjoint(n5)
    cases = [
        (UnknownLaw, "unknown law 'ZZ1'", lambda: eval_law("ZZ1", ac)),
        (UnknownLaw, "unknown law 'ZZ1'", lambda: recheck_witness("ZZ1", ac, None)),
        (UnknownLaw, "unknown law 'NOPE' in predicate", lambda: parse_predicate("NOPE")),
        (PredicateSyntaxError, "bad character '$'", lambda: parse_predicate("LM0 $")),
        (PredicateSyntaxError, "unexpected end", lambda: parse_predicate("LM0 &")),
        (PredicateSyntaxError, "expected ')', found 'LM1'", lambda: parse_predicate("(LM0 LM1")),
        (PredicateSyntaxError, "trailing tokens", lambda: parse_predicate("LM0 LM1")),
        # an operator or ')' where a law or '(' belongs
        (PredicateSyntaxError, "expected a law or '(', found ')'", lambda: parse_predicate("LM0 & )")),
        (PredicateSyntaxError, "expected a law or '(', found '|'", lambda: parse_predicate("|LM0")),
        (PredicateSyntaxError, "expected a law or '(', found '&'", lambda: parse_predicate("LM0 && RM0")),
        (PredicateSyntaxError, "expected a law or '(', found ')'", lambda: parse_predicate(")")),
        # Each of these would overflow the stack in parsing or in evaluation.
        (PredicateSyntaxError, "more than 200", lambda: parse_predicate("(" * 250 + "LM0" + ")" * 250)),
        (PredicateSyntaxError, "more than 200", lambda: parse_predicate("!" * 1000 + "LM0")),
        (PredicateSyntaxError, "more than 200", lambda: parse_predicate(" & ".join(["LM0"] * 1500))),
        (PredicateSyntaxError, "201 tokens", lambda: parse_predicate("!" * 200 + "LM0")),
        (UnknownSuite, "unknown suite 'nope'", lambda: run_suite("nope", [n5])),
    ]
    for cls, message, call in cases:
        with pytest.raises(OrdbenchError) as info:
            call()
        assert type(info.value) is cls and isinstance(info.value, ValueError)
        assert message in str(info.value)


def test_predicates_of_200_tokens_parse_and_evaluate():
    deepest = {
        "(" * 99 + "LM0" + ")" * 99: True,
        "!" * 199 + "LM0": False,
        " & ".join(["LM0"] * 100): True,
    }
    for text, value in deepest.items():
        pred = parse_predicate(text)
        assert pred.laws == ("LM0",)
        assert pred.evaluate({"LM0": True}) is value


def test_predicate_parser_errors():
    with pytest.raises(ValueError):
        parse_predicate("LM0 &")
    with pytest.raises(ValueError):
        parse_predicate("NOPE")
    with pytest.raises(ValueError):
        parse_predicate("LM0 LM1")
    with pytest.raises(ValueError):
        parse_predicate("(LM0")


def test_search_theorem_backed_not_found():
    result = search_counterexample("LM0 & !LM1", 4)
    assert result.found is None
    assert result.cases > 0
    again = search_counterexample("LM0 & !LM1", 4)
    assert again == result  # deterministic


def test_search_size_bound():
    with pytest.raises(SizeBoundExceeded):
        search_counterexample("LM0", 9)
    for size in (0, -1):
        with pytest.raises(SizeBoundExceeded):
            search_counterexample("LM0", size)


def test_search_modular_only_not_found():
    result = search_counterexample("LM0 & RM0 & !(LF0 & RF0)", 6, modular_only=True)
    assert result.found is None


def _live_adjoint_connections():
    gc.collect()
    return sum(isinstance(o, AdjointConnection) for o in gc.get_objects())


def test_search_streams_its_pairs():
    """search holds one pair's connections at a time and fills no cache."""
    before, cached = _live_adjoint_connections(), laws._adjoint_connections.cache_info().currsize
    result = search_counterexample("LM0 & RM0 & !(LF0 & RF0)", 5, modular_only=True, include_generated=True)
    assert result.render() == "not found (3524 cases)"
    assert _live_adjoint_connections() == before
    assert laws._adjoint_connections.cache_info().currsize == cached


def test_enumeration_returns_fresh_lists_and_suites_repeat(b2, m3):
    first, second = enumerate_adjoint_connections(b2, m3), enumerate_adjoint_connections(b2, m3)
    assert first == second and first is not second
    assert run_suite("lm", catalog()) == run_suite("lm", catalog())


def test_search_finds_recorded_witness_with_pentagon():
    # computed once with this tool and frozen: the first witness in catalog
    # order pairs the 3-chain with the pentagon
    result = search_counterexample("LM0 & RM0 & !(LF0 & RF0)", 6)
    assert result.found is not None
    assert (result.found.p_name, result.found.q_name) == ("C3", "N5")
    assert result.found.left_values == (0, 1, 3)
    assert dict(result.found.laws) == {"LM0": True, "RM0": True, "LF0": True, "RF0": False}


# The spellings of theorem 7c (LM0 & RM0 iff LF0 & RF0 between modular
# lattices) that the benchmark's search workload draws from.
SPELLINGS_7C = (
    "LM0 & RM0 & !(LF0 & RF0)",
    "RF0 & LF0 & !(RM0 & LM0)",
    "LF0 & RF0 & !(LM0 & RM0)",
    "!(LF0 & RF0) & LM0 & RM0",
    "(LM0 & RM0) & (!LF0 | !RF0)",
    "(RF0 & LF0) & (!LM0 | !RM0)",
    "RM0 & LM0 & !(RF0 & LF0)",
    "!(!LM0 | !RM0) & !(LF0 & RF0)",
)


def _assert_search_matches_eager(predicate, size, **flags):
    lazy, eager = search_counterexample(predicate, size, **flags), eager_search(predicate, size, **flags)
    assert (lazy.render(), lazy.cases) == (eager.render(), eager.cases), (predicate, size, flags)
    assert lazy == eager


@pytest.mark.parametrize("predicate", SPELLINGS_7C)
def test_search_matches_eager_oracle_on_7c(predicate):
    for size in (4, 5):
        for modular_only in (False, True):
            for include_generated in (False, True):
                _assert_search_matches_eager(
                    predicate, size, modular_only=modular_only, include_generated=include_generated
                )


def test_search_matches_eager_oracle_on_short_circuits():
    for predicate in ("LM0 | RM0", "!LM0", "LM0 & !LM1"):
        for size in range(1, 6):
            _assert_search_matches_eager(predicate, size)
    _assert_search_matches_eager("LM0 & RM0 & !(LF0 & RF0)", 6)


def test_search_decides_only_the_laws_it_reads(monkeypatch):
    """Decisions are counted at the kernel layer, which eval_law also goes through."""
    calls, hypotheses, reports = [], [], []
    decide, missing, report = laws._failures, laws._missing_structure, laws.eval_law
    walked = []
    tables = laws._adjoint_tables

    def recording_tables(P, Q):
        walked.append((P, Q))
        return tables(P, Q)

    def counting_failures(law, *connection):
        calls.append(law.id)
        return decide(law, *connection)

    def counting_missing_structure(requires, P, Q, *adjoints):
        hypotheses.append((P, Q))
        return missing(requires, P, Q, *adjoints)

    def counting_eval_law(law_id, ac):
        reports.append(law_id)
        return report(law_id, ac)

    monkeypatch.setattr(laws, "_failures", counting_failures)
    monkeypatch.setattr(laws, "_missing_structure", counting_missing_structure)
    monkeypatch.setattr(laws, "eval_law", counting_eval_law)
    monkeypatch.setattr(laws, "_adjoint_tables", recording_tables)
    result = search_counterexample(
        "LM0 & RM0 & !(LF0 & RF0)", 4, modular_only=True, include_generated=True
    )
    assert result.render() == "not found (766 cases)"
    assert len(calls) == 1889  # deciding all 4 laws on every case makes 3064
    assert reports == []  # each law is decided by its kernel, with no report
    # search checks no hypothesis: it walks the 12 modular bounded lattices,
    # on which no law is skipped
    assert hypotheses == []
    assert len(walked) == 12 * 12
    assert all(laws._skip_bits(P, Q) == 0 for P, Q in walked)
    calls.clear()
    result = search_counterexample("LM0 | RM0", 1)
    # the predicate reads LM0 only; the found line decides RM0 as well
    assert result.render() == "found P=C1 Q=C1 left=(0) right=(0) LM0=holds RM0=holds"
    assert calls == ["LM0", "RM0"]


def _lf0_rf0_verdicts(record, corpus):
    """(verdicts read, verdicts unlike eval_law's) of LF0 and RF0 from one record type."""
    checked = mismatched = 0
    for P, Q in itertools.product(corpus, repeat=2):
        for ac in enumerate_adjoint_connections(P, Q):
            verdicts = record(P, Q, ac.left.values, ac.right.values)
            for law_id in ("LF0", "RF0"):
                report = eval_law(law_id, ac)
                if report.skipped is None:
                    checked += 1
                    mismatched += verdicts[law_id] != report.holds
    return checked, mismatched


def test_search_verdicts_of_lf0_and_rf0_match_eval_law(monkeypatch):
    """Deciding LF0/RF0 by their top-row law first changes no verdict.

    Only the search's record reads the top-row laws: with LM0 and RM0 made
    to fail everywhere, the suites' record still decides LF0 and RF0 as
    eval_law does, and the search's no longer does.
    """
    corpus = [L for L in catalog() if L.is_lattice and L.is_bounded and L.size <= 5]
    corpus += generated_lattices(4)
    checked, mismatched = _lf0_rf0_verdicts(laws._SearchVerdicts, corpus)
    assert checked > 1000 and mismatched == 0
    for law_id in ("LM0", "RM0"):
        failing = replace(LAW_TABLE[law_id], failures=lambda P, Q, f, g: iter([((0,), 0, None)]))
        monkeypatch.setitem(LAW_TABLE, law_id, failing)
    assert _lf0_rf0_verdicts(laws._Verdicts, corpus) == (checked, 0)
    assert _lf0_rf0_verdicts(laws._SearchVerdicts, corpus)[1] > 0


@pytest.mark.parametrize("predicate", SPELLINGS_7C)
def test_search_decides_lf0_and_rf0_only_where_their_top_rows_hold(predicate, monkeypatch):
    """LF0's kernel runs only where LM0 holds, and RF0's only where RM0 holds.

    So every spelling of 7c runs the whole-table kernels on few connections,
    whichever family it names first.
    """
    decided = {}
    decide = laws._failures

    def recording_failures(law, P, Q, f, g):
        failures = list(decide(law, P, Q, f, g))
        # a right-hand law runs on the opposite connection; key it by P -> Q
        key = (Q.op, P.op, g, f) if law.opposite else (P, Q, f, g)
        decided[law.id, *key] = not failures
        return iter(failures)

    monkeypatch.setattr(laws, "_failures", recording_failures)
    result = search_counterexample(predicate, 5, modular_only=True, include_generated=True)
    assert result.found is None
    whole = 0
    for (law_id, *key), _ in decided.items():
        row = {"LF0": "LM0", "RF0": "RM0"}.get(law_id)
        if row is not None:
            assert decided[(row, *key)] is True, (law_id, key)
            whole += 1
    assert 0 < whole < result.cases


def test_suites_and_search_build_no_monotone_map(monkeypatch):
    """The suites and the search walk value tables: over every suite on the
    catalog, and a search that finds nothing, no MonotoneMap is built.

    The caches start cold, since tables or records they already hold would
    hide the objects a first walk builds.
    """
    built = 0
    check = MonotoneMap.__post_init__

    def counting_post_init(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(MonotoneMap, "__post_init__", counting_post_init)
    monotone_maps.cache_clear()
    laws._adjoint_connections.cache_clear()
    lattices = catalog()
    cases = sum(run_suite(name, lattices).cases for name in laws.SUITE_ORDER)
    assert cases > 0 and built == 0
    result = search_counterexample("LM0 & RM0 & !(LF0 & RF0)", 4, modular_only=True, include_generated=True)
    assert result.found is None and result.cases > 0 and built == 0


def test_suite_lf_counts_all_monotone_maps(c2, c3):
    result = run_suite("lf", [c2, c3])
    expected = sum(
        len(monotone_maps(catalog_named(p), catalog_named(q)))
        for p in ("C2", "C3")
        for q in ("C2", "C3")
    )
    assert result.cases == expected
    assert result.disagreements == 0


def test_suite_counts_on_bare_posets(c2, b2, bare_posets):
    """Every suite's lattices, pairs and cases, recounted from the enumerations.

    Several legs between these posets have no adjoint connection, so the
    composition suite skips triples on either leg.
    """
    by_name = {L.name: L for L in bare_posets}
    corpus = [c2, b2, by_name["A2"], by_name["L3"], by_name["E0"]]
    pairs = [(P, Q) for P in corpus for Q in corpus]
    adjoint = sum(len(enumerate_adjoint_connections(P, Q)) for P, Q in pairs)
    monotone = sum(len(monotone_maps(P, Q)) for P, Q in pairs)
    expected = {name: (5, 25, adjoint) for name in ("lm", "rm", "rm045", "lm045", "derivations", "modularity")}
    expected["lf"] = expected["rf"] = (5, 25, monotone)
    small = [L for L in corpus if L.size <= 4]
    legs = [
        (len(enumerate_adjoint_connections(P, Q)), len(enumerate_adjoint_connections(Q, S)))
        for P in small for Q in small for S in small
    ]
    composable = [(m, n) for m, n in legs if m and n]
    expected["composition"] = (len(small), len(composable), sum(2 * m * n for m, n in composable))
    assert (len(composable), len(legs), expected["composition"][2]) == (17, 125, 1246)
    for name, counts in expected.items():
        result = run_suite(name, corpus)
        assert (result.lattices, result.pairs, result.cases) == counts, name
