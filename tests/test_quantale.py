import math
from pathlib import Path

import pytest

from ordbench import (
    InvalidModulus,
    NotAdjoint,
    NotAssociative,
    NotBounded,
    NotCommutative,
    NotJoinPreserving,
    Quantale,
    QuantaleAxiomError,
    SizeBoundExceeded,
    build_poset,
    build_quantale,
    catalog,
    divisor_lattice,
    element_connection,
    eval_law,
    find_right_adjoint,
    is_principal,
    is_weak_principal,
    parse_file,
    residual,
    zn_ideal_quantale,
)
from ordbench.connection import _right_adjoints

from oracles import catalog_named, principal_law_failures, relation, residual_by_joins

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def frame3(f3):
    return build_quantale(f3, f3.meet)


@pytest.fixture(scope="module")
def z12():
    return zn_ideal_quantale(12)


def test_meet_frames_are_quantales(b2, f3):
    for L in (b2, f3):
        q = build_quantale(L, L.meet)
        assert q.unit == L.top and q.is_integral


def test_m3_meet_is_not_join_preserving(m3):
    with pytest.raises(NotJoinPreserving) as exc:
        build_quantale(m3, m3.meet)
    a, b, c = exc.value.witness
    # the witness reproduces the failure: a ^ (b v c) != (a ^ b) v (a ^ c)
    assert m3.meet[a][m3.join[b][c]] != m3.join[m3.meet[a][b]][m3.meet[a][c]]


def test_unbounded_lattice_rejected():
    antichain = build_poset("A2", ["x", "y"], [])
    with pytest.raises(NotBounded):
        build_quantale(antichain, ((0, 0), (0, 1)))


def test_non_commutative_rejected(c2):
    with pytest.raises(NotCommutative) as exc:
        build_quantale(c2, ((0, 0), (1, 1)))
    assert exc.value.witness == (0, 1)


def test_non_associative_rejected(c3):
    # symmetric but (1*1)*2 = 2*2 = 2 while 1*(1*2) = 1*0 = 0
    table = ((0, 0, 0), (0, 2, 0), (0, 0, 2))
    with pytest.raises(NotAssociative) as exc:
        build_quantale(c3, table)
    assert exc.value.witness == (1, 1, 2)


def test_axiom_errors_share_one_witness_base():
    for cls in (NotCommutative, NotAssociative, NotJoinPreserving):
        assert cls.__bases__ == (QuantaleAxiomError,)
        err = cls("message", witness=(0, 1))
        assert (str(err), err.witness) == ("message", (0, 1))
        assert cls("message").witness is None


def test_invalid_modulus():
    with pytest.raises(InvalidModulus):
        zn_ideal_quantale(1)


def test_z12_structure(z12):
    L = z12.lattice
    assert L.size == 6
    assert L.labels == ("(1)", "(2)", "(3)", "(4)", "(6)", "(12)")
    assert L.labels[L.bottom] == "(12)" and L.labels[L.top] == "(1)"
    assert z12.unit == L.index("(1)") and z12.is_integral
    assert L.labels[z12.mult[L.index("(2)")][L.index("(3)")]] == "(6)"
    assert L.labels[z12.mult[L.index("(4)")][L.index("(6)")]] == "(12)"


def test_zn_multiplication_is_ideal_product():
    for n in (4, 6, 12, 30):
        q = zn_ideal_quantale(n)
        divs = [int(lab[1:-1]) for lab in q.lattice.labels]
        for i, a in enumerate(divs):
            for j, b in enumerate(divs):
                assert divs[q.mult[i][j]] == math.gcd(a * b, n)


def test_residual_examples(z12, frame3):
    L = z12.lattice
    assert L.labels[residual(z12, L.index("(2)"), L.index("(3)"))] == "(2)"
    # dividing by the unit changes nothing
    for a in range(L.size):
        assert residual(z12, a, z12.unit) == a
    # bottom : m on the frame stays bottom
    assert residual(frame3, 0, 1) == 0


def test_residual_adjunction_property(z12, frame3):
    for q in (z12, frame3, zn_ideal_quantale(30)):
        L = q.lattice
        for a in range(L.size):
            for e in range(L.size):
                r = residual(q, a, e)
                for c in range(L.size):
                    assert L.leq[q.mult[c][e]][a] == L.leq[c][r]


def test_element_connection_unit_is_identity(z12):
    ec = element_connection(z12, z12.unit)
    n = z12.lattice.size
    assert ec.left.values == tuple(range(n))
    assert ec.right.values == tuple(range(n))
    assert relation(ec).rel == z12.lattice.leq


def test_element_connection_examples(z12, frame3):
    L = z12.lattice
    ec = element_connection(z12, L.index("(2)"))
    assert L.labels[ec.left.values[L.index("(3)")]] == "(6)"
    ec_m = element_connection(frame3, 1)
    assert ec_m.left.values == (0, 1, 1)


def test_element_connection_right_adjoint_matches_search(frame3, b2):
    # independent route: find_right_adjoint on the relation vs the residual table
    quantales = [zn_ideal_quantale(n) for n in (*range(2, 61), 360, 55440)]
    quantales += [frame3, build_quantale(b2, b2.meet)]
    for q in quantales:
        for e in range(q.lattice.size):
            ec = element_connection(q, e)
            assert find_right_adjoint(relation(ec)).values == ec.right.values, (q, e)


def test_element_connection_without_right_adjoint_raises(c3):
    # multiplication by constant top: its residual table fails the Galois
    # biconditional, since no column of its relation is a down-set of C3
    q = Quantale(c3, ((2, 2, 2),) * 3, None)
    with pytest.raises(NotAdjoint):
        element_connection(q, 0)


def test_zn_lattice_is_the_divisor_lattice():
    for n in (2, 12, 97, 360, 1024):
        assert zn_ideal_quantale(n).lattice == divisor_lattice(n)


def test_zn_quantale_passes_the_axiom_checks():
    """The ideal product, built without checks, is what build_quantale validates."""
    for n in (*range(2, 201), 360, 55440, 134640, 20008504):
        q = zn_ideal_quantale(n)
        assert build_quantale(q.lattice, q.mult) == q
        assert q.lattice.labels[q.unit] == "(1)"


def test_zn_size_bounds():
    with pytest.raises(SizeBoundExceeded, match="exceeds the bound"):
        zn_ideal_quantale(10**18)
    with pytest.raises(SizeBoundExceeded, match="288 divisors"):
        zn_ideal_quantale(1441440)


def test_every_z12_element_is_principal(z12):
    for e in range(z12.lattice.size):
        rep_i, rep_ii = is_principal(z12, e)
        assert rep_i.holds and rep_ii.holds
        lm0, rm0 = is_weak_principal(z12, e)
        assert lm0.holds and rm0.holds


def test_frame3_endpoints_principal(frame3):
    for e in (0, 2):  # bot and top
        rep_i, rep_ii = is_principal(frame3, e)
        assert rep_i.holds and rep_ii.holds


def test_frame3_middle_not_principal(frame3):
    rep_i, rep_ii = is_principal(frame3, 1)
    assert rep_i.holds is True
    assert rep_ii.holds is False
    assert rep_ii.witness.assignment == (("a", "m"), ("b", "bot"))
    assert rep_ii.witness.lhs_label == "m" and rep_ii.witness.rhs_label == "top"
    # reproduce the witness directly from the tables
    L = frame3.lattice
    a, b = rep_ii.witness.indices
    lhs = L.join[a][residual(frame3, b, 1)]
    rhs = residual(frame3, L.join[frame3.mult[a][1]][b], 1)
    assert (lhs, rhs) == (rep_ii.witness.lhs, rep_ii.witness.rhs) and lhs != rhs


def test_frame3_middle_not_weak_principal(frame3):
    lm0, rm0 = is_weak_principal(frame3, 1)
    assert lm0.holds is True
    assert rm0.holds is False
    assert rm0.witness.assignment == (("x", "m"),)


def test_principal_matches_reciprocity_laws_elementwise(z12, frame3):
    # the cross-check inside is_principal asserts this too; verify explicitly
    for q in (z12, frame3, zn_ideal_quantale(6)):
        for e in range(q.lattice.size):
            rep_i, rep_ii = is_principal(q, e)
            ec = element_connection(q, e)
            assert rep_i.holds == eval_law("LF0", ec).holds
            assert rep_ii.holds == eval_law("RF0", ec).holds


def test_principal_implies_weak_principal(frame3):
    quantales = [zn_ideal_quantale(n) for n in (4, 6, 12)] + [frame3]
    b2 = catalog_named("B2")
    quantales.append(build_quantale(b2, b2.meet))
    for q in quantales:
        for e in range(q.lattice.size):
            rep_i, rep_ii = is_principal(q, e)
            if rep_i.holds and rep_ii.holds:
                lm0, rm0 = is_weak_principal(q, e)
                assert lm0.holds and rm0.holds


def _square_zero_ideals():
    """The ideals of F2[x,y]/(x,y)^2, 0 < (x), (y), (x+y) < m < R: a modular, non-distributive lattice.

    A product of two proper ideals is 0.  m needs two generators, and law
    (i) fails for it.
    """
    L = build_poset(
        "I6", ("0", "x", "y", "x+y", "m", "R"),
        [("0", "x"), ("0", "y"), ("0", "x+y"), ("x", "m"), ("y", "m"), ("x+y", "m"), ("m", "R")],
    )
    top = L.top
    mult = [[a if b == top else b if a == top else L.bottom for b in range(6)] for a in range(6)]
    return build_quantale(L, mult)


def _principal_corpus():
    """Z/n for n = 2..60 and 360, the frame file, the meet quantale of each
    distributive catalog lattice, and the ideals of F2[x,y]/(x,y)^2."""
    quantales = [zn_ideal_quantale(n) for n in (*range(2, 61), 360)]
    quantales += parse_file(DATA / "frame3.q").quantales.values()
    quantales += [build_quantale(L, L.meet) for L in catalog() if L.is_distributive]
    quantales.append(_square_zero_ideals())
    return quantales


def test_residuals_match_the_join_loop(c3):
    # multiplication by constant top passes no axiom check and has no right
    # adjoint, so its residuals are joins, as before the closed form
    unchecked = Quantale(c3, ((2, 2, 2),) * 3, None)
    assert _right_adjoints(c3, c3)((2, 2, 2)) is None
    for q in [*_principal_corpus(), unchecked]:
        n = q.lattice.size
        assert q.residuals == tuple(
            tuple(residual_by_joins(q, a, e) for a in range(n)) for e in range(n)
        ), q
        assert all(residual(q, a, e) == q.residuals[e][a] for a in range(n) for e in range(n))
    assert unchecked.residuals == ((0, 0, 2),) * 3


def test_is_principal_matches_the_case_by_case_laws():
    """Both principal-element laws: verdict, witness indices and sides, as checking each case gives them."""
    elements = failures = 0
    for q in _principal_corpus():
        for e in range(q.lattice.size):
            elements += 1
            for report, failure in zip(is_principal(q, e), principal_law_failures(q, e)):
                if failure is None:
                    assert report.holds is True and report.witness is None, (q, e)
                else:
                    failures += 1
                    w = report.witness
                    assert report.holds is False, (q, e)
                    assert (w.indices, w.lhs, w.rhs) == failure, (q, e)
    # law (ii) fails for the middle elements of the chains C3, C4 and F3
    # (F3 twice: the file and the catalog) and for (2) and (6) of Div12
    # under meet; law (i) fails for m of F2[x,y]/(x,y)^2
    assert (elements, failures) == (326, 8)
