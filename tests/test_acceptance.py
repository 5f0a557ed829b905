"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criteria 7a and 7b state the split modularity refinements with both
hypotheses they need: P modular and RM0 give LM0 iff LF0, and Q modular and
LM0 give RM0 iff RF0.  The literal one-sided forms ("P modular => LM0 iff
LF0" and its dual) admit counterexamples even between distributive lattices;
the minimal ones are pinned in
test_laws.test_lf_side_modularity_refinement_admits_counterexample and
test_laws.test_one_sided_modularity_refinements_admit_counterexamples.
"""

import hashlib
import time

from ordbench import (
    catalog,
    element_connection,
    eval_law,
    find_left_adjoint,
    is_principal,
    monotone_maps,
    run_suite,
    search_counterexample,
    zn_ideal_quantale,
)
from ordbench.cli import run as cli_run
from ordbench.quantale import build_quantale

from oracles import catalog_named, enumerate_adjoint_connections, enumerate_connections

SMALL = ("C1", "C2", "C3", "C4", "B2")
CORPUS = ("C2", "C3", "C4", "B2", "B3", "M3", "N5", "Div12")
# sha256 of the whole `verify --suite all` report, the same digest the
# benchmark checks on every verify-catalog run.
VERIFY_ALL_SHA256 = "d2e4452809592b3a5b771066d45216b5e07230e34793a01025ef9a2d987cce90"


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    return ok


def lattices(names):
    return [catalog_named(n) for n in names]


def test_criterion_1_correspondence():
    start = time.monotonic()
    mismatches = []
    for P in lattices(SMALL):
        for Q in lattices(SMALL):
            left_adjoint_count = sum(
                1 for c in enumerate_connections(P, Q) if find_left_adjoint(c) is not None
            )
            if left_adjoint_count != len(monotone_maps(P, Q)):
                mismatches.append((P.name, Q.name, left_adjoint_count))
    c2_c3 = sum(
        1
        for c in enumerate_connections(catalog_named("C2"), catalog_named("C3"))
        if find_left_adjoint(c) is not None
    )
    elapsed = time.monotonic() - start
    ok = not mismatches and c2_c3 == 6 and elapsed < 10.0
    assert report(1, "left adjoint connections = monotone maps", ok,
                  f"C2->C3={c2_c3}, {elapsed:.1f}s")
    assert not mismatches
    assert c2_c3 == 6
    assert elapsed < 10.0


def test_criterion_2_lm_theorem():
    start = time.monotonic()
    result = run_suite("lm", lattices(CORPUS))
    elapsed = time.monotonic() - start
    ok = result.disagreements == 0 and elapsed < 60.0
    assert report(2, "LM1/LM2/LM3(/LM0) agree", ok,
                  f"cases={result.cases}, {elapsed:.1f}s")


def test_criterion_3_rm_theorem():
    start = time.monotonic()
    result = run_suite("rm", lattices(CORPUS))
    elapsed = time.monotonic() - start
    ok = result.disagreements == 0 and elapsed < 60.0
    assert report(3, "RM1/RM2/RM3(/RM0) agree", ok,
                  f"cases={result.cases}, {elapsed:.1f}s")


def test_criterion_4_rm045_lm045():
    rm = run_suite("rm045", lattices(CORPUS))
    lm = run_suite("lm045", lattices(CORPUS))
    ok = rm.disagreements == 0 and lm.disagreements == 0 and rm.cases > 0
    assert report(4, "RM0/RM4/RM5 and LM0/LM4/LM5 agree", ok,
                  f"cases={rm.cases}+{lm.cases}")


def test_criterion_5_lf_rf_theorems():
    lf = run_suite("lf", lattices(CORPUS))
    rf = run_suite("rf", lattices(CORPUS))
    ok = lf.disagreements == 0 and rf.disagreements == 0
    assert report(5, "LF1<=>LF2(<=>LF0) and dual", ok,
                  f"cases={lf.cases}+{rf.cases}")


def test_criterion_6_derivations():
    result = run_suite("derivations", lattices(CORPUS))
    ok = result.disagreements == 0
    assert report(6, "RF0=>RM0 and LF0=>LM0", ok, f"cases={result.cases}")


def _modularity_violations(guard):
    """Violations of the refinement named by ``guard`` over CORPUS.

    Also returns the truth values of the biconditional's left-hand law
    (LM0 for "P", RM0 for "Q") on every connection that meets the
    hypothesis, so that a caller can rule out a vacuous pass.
    """
    violations = []
    left_values = set()
    for P in lattices(CORPUS):
        for Q in lattices(CORPUS):
            for ac in enumerate_adjoint_connections(P, Q):
                lm0 = eval_law("LM0", ac).holds
                rm0 = eval_law("RM0", ac).holds
                lf0 = eval_law("LF0", ac).holds
                rf0 = eval_law("RF0", ac).holds
                if guard == "P" and P.is_modular and rm0:
                    left_values.add(lm0)
                    if lm0 != lf0:
                        violations.append((P.name, Q.name, ac.left.values))
                if guard == "Q" and Q.is_modular and lm0:
                    left_values.add(rm0)
                    if rm0 != rf0:
                        violations.append((P.name, Q.name, ac.left.values))
                if guard == "PQ" and P.is_modular and Q.is_modular:
                    if (lm0 and rm0) != (lf0 and rf0):
                        violations.append((P.name, Q.name, ac.left.values))
    return violations, left_values


def test_criterion_7a_p_modular_biconditional():
    violations, lm0_values = _modularity_violations("P")
    ok = not violations and lm0_values == {True, False}
    assert report(
        7, "7a: P modular & RM0 => LM0<=>LF0", ok,
        f"violations={len(violations)}, first={violations[0] if violations else None}, "
        f"LM0 seen={sorted(lm0_values)}; without RM0 it fails, see "
        "test_laws.test_lf_side_modularity_refinement_admits_counterexample",
    ), f"{len(violations)} violations, LM0 values under the hypothesis: {sorted(lm0_values)}"


def test_criterion_7b_q_modular_biconditional():
    violations, rm0_values = _modularity_violations("Q")
    ok = not violations and rm0_values == {True, False}
    assert report(
        7, "7b: Q modular & LM0 => RM0<=>RF0", ok,
        f"violations={len(violations)}, first={violations[0] if violations else None}, "
        f"RM0 seen={sorted(rm0_values)}; without LM0 it fails, see "
        "test_laws.test_one_sided_modularity_refinements_admit_counterexamples",
    ), f"{len(violations)} violations, RM0 values under the hypothesis: {sorted(rm0_values)}"


def test_criterion_7c_conjunction_equivalence():
    violations, _ = _modularity_violations("PQ")
    ok = not violations
    assert report(7, "7c: both modular => (LM0&RM0)<=>(LF0&RF0)", ok,
                  f"violations={len(violations)}")


def test_criterion_7d_modular_search_not_found():
    result = search_counterexample("LM0 & RM0 & !(LF0 & RF0)", 6, modular_only=True)
    ok = result.found is None
    assert report(7, "7d: modular-pair search NotFound", ok, f"cases={result.cases}")


def test_criterion_8_composition_stability():
    result = run_suite("composition", catalog())
    ok = result.disagreements == 0 and result.cases > 0
    assert report(8, "LF0/RF0 stable under composition", ok, f"cases={result.cases}")


def test_criterion_9_quantale_suite(f3):
    start = time.monotonic()
    all_principal = True
    routes_agree = True
    for n in (4, 6, 12, 30):
        q = zn_ideal_quantale(n)
        for e in range(q.lattice.size):
            rep_i, rep_ii = is_principal(q, e)
            ec = element_connection(q, e)
            if not (rep_i.holds and rep_ii.holds):
                all_principal = False
            if rep_i.holds != eval_law("LF0", ec).holds or rep_ii.holds != eval_law("RF0", ec).holds:
                routes_agree = False
    frame = build_quantale(f3, f3.meet)
    rep_i, rep_ii = is_principal(frame, 1)
    frame_ok = (
        rep_ii.holds is False
        and rep_ii.witness.assignment == (("a", "m"), ("b", "bot"))
        and rep_ii.witness.lhs_label == "m"
        and rep_ii.witness.rhs_label == "top"
    )
    elapsed = time.monotonic() - start
    ok = all_principal and routes_agree and frame_ok and elapsed < 5.0
    assert report(9, "Zn ideals principal both ways; frame witness", ok, f"{elapsed:.1f}s")


def test_criterion_10_search_cli(capsys):
    start = time.monotonic()
    code1 = cli_run(["search", "--predicate", "LM0 & !LM1", "--max-size", "6"])
    out1 = capsys.readouterr().out
    code2 = cli_run(["search", "--predicate", "LM0 & RM0 & !(LF0 & RF0)", "--max-size", "6"])
    out2 = capsys.readouterr().out
    code3 = cli_run(["search", "--predicate", "LM0 & RM0 & !(LF0 & RF0)", "--max-size", "6"])
    out3 = capsys.readouterr().out
    elapsed = time.monotonic() - start
    ok = (
        code1 == 0
        and out1.startswith("not found (")
        and code2 == code3 == 0
        and out2 == out3
        and (out2.startswith("found ") or out2.startswith("not found ("))
        and elapsed < 120.0
    )
    assert report(10, "search CLI deterministic with case count", ok,
                  f"recorded: {out2.strip()!r}, {elapsed:.1f}s")


def test_criterion_11_verify_all_deterministic(capsys):
    code1 = cli_run(["verify", "--suite", "all"])
    out1 = capsys.readouterr().out
    code2 = cli_run(["verify", "--suite", "all"])
    out2 = capsys.readouterr().out
    digest = hashlib.sha256(out1.encode()).hexdigest()
    ok = (
        out1 == out2
        and code1 == code2
        and out1.count("suite ") == 9
        and digest == VERIFY_ALL_SHA256
    )
    assert report(11, "verify --suite all byte-identical", ok, f"exit={code1} sha256={digest[:8]}")
