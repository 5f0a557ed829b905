import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    CycleDetected,
    DuplicateLabel,
    IndexOutOfRange,
    MonotoneMap,
    NotAnOrder,
    NotMonotone,
    OrdbenchError,
    SizeBoundExceeded,
    UnknownLabel,
    build_poset,
    catalog,
    divisor_lattice,
    dual,
    from_leq,
    iter_monotone_maps,
)
from ordbench import quantale, textio
from ordbench.lattice import MAX_ELEMENTS, _finalize
from ordbench.posetgen import generated_lattices

from oracles import (
    catalog_named,
    distributive_by_tables,
    down_set,
    is_lattice_by_tables,
    modular_by_tables,
    monotone_scan,
    up_set,
)


def oracle_glb(L, a, b):
    """Greatest lower bound computed from leq alone, independent of the tables."""
    lows = [c for c in range(L.size) if L.leq[c][a] and L.leq[c][b]]
    for c in lows:
        if all(L.leq[d][c] for d in lows):
            return c
    return None


def oracle_lub(L, a, b):
    ups = [c for c in range(L.size) if L.leq[a][c] and L.leq[b][c]]
    for c in ups:
        if all(L.leq[c][d] for d in ups):
            return c
    return None


def oracle_modular(L):
    # Dedekind identity over all triples, from the oracle bounds
    if not L.is_lattice:
        return False
    for a in range(L.size):
        for c in range(L.size):
            if not L.leq[a][c]:
                continue
            for b in range(L.size):
                if oracle_lub(L, a, oracle_glb(L, b, c)) != oracle_glb(L, oracle_lub(L, a, b), c):
                    return False
    return True


def oracle_distributive(L):
    if not L.is_lattice:
        return False
    for a in range(L.size):
        for b in range(L.size):
            for c in range(L.size):
                lhs = oracle_glb(L, a, oracle_lub(L, b, c))
                rhs = oracle_lub(L, oracle_glb(L, a, b), oracle_glb(L, a, c))
                if lhs != rhs:
                    return False
    return True


def test_two_chain():
    L = build_poset("two", ["0", "1"], [("0", "1")])
    assert L.is_lattice and L.is_bounded
    assert L.bottom == 0 and L.top == 1
    assert L.leq[0][1] and not L.leq[1][0]


def test_m3_flags_against_oracle():
    L = catalog_named("M3")
    assert L.is_lattice
    assert L.is_modular and not L.is_distributive
    assert oracle_modular(L) and not oracle_distributive(L)


def test_n5_flags_against_oracle():
    L = catalog_named("N5")
    assert L.is_lattice and not L.is_modular and not L.is_distributive
    assert not oracle_modular(L)


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset("bad", ["0", "1"], [("0", "1"), ("1", "0")])


BUILD_POSET_ERRORS = [
    # several cycles: the pair named is the first by label index, not by pair order
    ("abcd", [("c", "d"), ("d", "c"), ("a", "b"), ("b", "a")], CycleDetected,
     "elements 'a' and 'b' lie on a cycle"),
    # a cycle through a chain of pairs
    ("abcd", [("d", "c"), ("c", "b"), ("b", "d")], CycleDetected,
     "elements 'b' and 'c' lie on a cycle"),
    # precedence: duplicate label, then unknown label, then cycle
    (("x", "y", "y", "x"), [("x", "z"), ("y", "x"), ("x", "y")], DuplicateLabel,
     "duplicate label 'y'"),
    (("x", "y"), [("x", "y"), ("y", "x"), ("x", "z")], UnknownLabel,
     "unknown label 'z' in cover pair"),
    (("x", "y"), [("y", "x"), ("x", "y"), ("y", "q"), ("q", "z")], UnknownLabel,
     "unknown label 'q' in cover pair"),
]


@pytest.mark.parametrize("labels, pairs, cls, message", BUILD_POSET_ERRORS)
def test_build_poset_errors_pin_type_and_message(labels, pairs, cls, message):
    with pytest.raises(OrdbenchError) as info:
        build_poset("bad", tuple(labels), pairs)
    assert type(info.value) is cls
    assert str(info.value) == f"bad: {message}"


def test_library_accepts_the_empty_poset():
    for E in (from_leq("E", (), ()), build_poset("E", (), [])):
        assert (E.size, E.is_lattice, E.bottom, E.top) == (0, False, None, None)


def test_from_leq_rejects_non_orders():
    with pytest.raises(NotAnOrder, match="not reflexive at 'b'"):
        from_leq("bad", ["a", "b"], [[True, False], [False, False]])
    with pytest.raises(NotAnOrder, match="not transitive"):
        from_leq("bad", ["a", "b", "c"], [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert issubclass(NotAnOrder, OrdbenchError) and issubclass(NotAnOrder, ValueError)


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build_poset("bad", ["x", "x"], [])


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        build_poset("bad", ["x"], [("x", "y")])


def test_catalog_order_and_flags():
    names = [L.name for L in catalog()]
    assert names == ["C1", "C2", "C3", "C4", "B1", "B2", "B3", "M3", "N5", "Div12", "F3"]
    for L in catalog():
        assert L.is_lattice and L.is_bounded
        assert L.is_modular == oracle_modular(L)
        assert L.is_distributive == oracle_distributive(L)
        assert L.is_distributive <= L.is_modular


def test_div12():
    L = catalog_named("Div12")
    assert L.size == 6
    assert L.labels == ("(1)", "(2)", "(3)", "(4)", "(6)", "(12)")
    assert L.labels[L.bottom] == "(12)"
    assert L.labels[L.top] == "(1)"
    # (2) <= (1) since 1 | 2; (12) below everything
    assert L.leq[L.index("(2)")][L.index("(1)")]
    assert all(L.leq[L.index("(12)")][x] for x in range(L.size))


def test_divisor_lattice_meets_joins_are_number_theoretic():
    L = divisor_lattice(30)
    divs = [int(lab[1:-1]) for lab in L.labels]
    import math

    for i, a in enumerate(divs):
        for j, b in enumerate(divs):
            assert divs[L.join[i][j]] == math.gcd(a, b)  # ideal sum
            assert divs[L.meet[i][j]] == a * b // math.gcd(a, b)  # intersection


def test_divisor_lattice_matches_full_scan():
    """Trial division finds the divisors the scan of 1..n finds, in the same order."""
    # every n up to 2000, and a dense and a sparse modulus of the quantale benchmark
    for n in [*range(-2, 2001), 55440, 20008504]:
        L = divisor_lattice(n)
        assert L.name == f"Div{n}"
        assert L.labels == tuple(f"({d})" for d in range(1, n + 1) if n % d == 0)


def test_one_size_bound_for_every_poset():
    """Past MAX_ELEMENTS a poset raises SizeBoundExceeded, before any byte row could hold an index."""
    assert textio.MAX_ELEMENTS == quantale.MAX_DIVISORS == MAX_ELEMENTS == 240
    n = MAX_ELEMENTS + 1
    labels = [str(i) for i in range(n)]
    antichain = [[i == j for j in range(n)] for i in range(n)]
    assert from_leq("A240", labels[:-1], [row[:-1] for row in antichain[:-1]]).size == 240
    for build in (lambda: from_leq("A241", labels, antichain), lambda: build_poset("A241", labels, [])):
        with pytest.raises(SizeBoundExceeded, match="A241: 241 elements, more than the bound 240"):
            build()
    with pytest.raises(SizeBoundExceeded, match="Div1081080: 256 elements"):
        divisor_lattice(1081080)


def test_meet_rows_are_the_meet_table_as_bytes():
    """Row a gathered through ``meet_tables[a]`` is a ^ b for every b; ``op``'s rows are joins."""
    for L in catalog() + list(generated_lattices(6)) + [divisor_lattice(720720)]:
        if not L.is_lattice:
            continue
        everything = bytes(range(L.size))
        for a in range(L.size):
            assert tuple(L.meet_rows[a]) == L.meet[a]
            assert tuple(L.op.meet_rows[a]) == L.join[a]
            assert len(L.meet_tables[a]) == 256
            assert everything.translate(L.meet_tables[a]) == L.meet_rows[a]


def oracle_bottom(L):
    return next((a for a in range(L.size) if all(L.leq[a][x] for x in range(L.size))), None)


def oracle_top(L):
    return next((a for a in range(L.size) if all(L.leq[x][a] for x in range(L.size))), None)


def _with_views_and_duals(bases):
    """Each base and its dual, each followed by all its down-set and up-set views."""
    corpus = []
    for L in bases + [dual(L) for L in bases]:
        corpus.append(L)
        corpus.extend(down_set(L, a).view for a in range(L.size))
        corpus.extend(up_set(L, a).view for a in range(L.size))
    return corpus


def test_meet_join_tables_match_oracle_on_catalog(bare_posets):
    corpus = _with_views_and_duals(catalog() + list(generated_lattices(6)) + list(bare_posets))
    for L in corpus:
        assert (L.bottom, L.top) == (oracle_bottom(L), oracle_top(L))
        for a in range(L.size):
            for b in range(L.size):
                assert L.meet[a][b] == oracle_glb(L, a, b)
                assert L.join[a][b] == oracle_lub(L, a, b)


@pytest.fixture(scope="module")
def flag_corpus(bare_posets):
    bases = catalog() + list(generated_lattices(6)) + [divisor_lattice(360)] + list(bare_posets)
    return _with_views_and_duals(bases)


def test_flags_match_the_table_oracles(flag_corpus):
    for L in flag_corpus:
        assert L.is_lattice == is_lattice_by_tables(L), L
        assert L.is_bounded == (L.bottom is not None and L.top is not None), L
        assert L.is_modular == modular_by_tables(L), L
        assert L.is_distributive == distributive_by_tables(L), L


def test_order_checks_run_on_demand():
    L = divisor_lattice(55440)
    assert "is_modular" not in vars(L) and "is_distributive" not in vars(L)
    assert L.is_distributive
    assert "is_distributive" in vars(L)


def test_dual_matches_a_fresh_build_of_the_transposed_order(flag_corpus):
    """dual swaps L's tables; building the transposed order from scratch agrees."""
    for L in flag_corpus:
        D = dual(L)
        fresh = _finalize(D.name, L.labels, L.geq)
        for field in dataclasses.fields(D):
            assert getattr(D, field.name) == getattr(fresh, field.name), (L, field.name)
        for flag in ("is_lattice", "is_bounded", "is_modular", "is_distributive"):
            assert getattr(D, flag) == getattr(fresh, flag), (L, flag)


def test_op_is_the_cached_dual(bare_posets):
    # one dual object per lattice, whichever of op and dual is asked first
    for L in catalog() + list(bare_posets):
        assert L.op is L.op
        assert dual(L) is L.op
        assert L.op.op is L
    for L in list(generated_lattices(4)):
        fresh = from_leq(L.name, L.labels, L.leq)
        D = dual(fresh)
        assert fresh.op is D and dual(D) is fresh and D.op is fresh


def test_dual_is_involution():
    for L in catalog():
        assert dual(dual(L)) is L


def test_dual_swaps_structure():
    L = catalog_named("N5")
    D = dual(L)
    assert D.bottom == L.top and D.top == L.bottom
    assert D.meet == L.join and D.join == L.meet
    assert not D.is_modular  # modularity is self-dual
    for M in catalog():
        assert dual(M).is_modular == M.is_modular


def test_dual_chain_is_chain():
    C3 = catalog_named("C3")
    D = dual(C3)
    assert D.leq == tuple(tuple(C3.leq[j][i] for j in range(3)) for i in range(3))
    assert D.is_lattice and D.is_bounded


def test_down_set_of_top_is_everything(c3):
    view = down_set(c3, c3.top)
    assert view.members == (0, 1, 2)
    assert view.view.leq == c3.leq


def test_down_set_of_atom_in_m3(m3):
    a = m3.index("a")
    view = down_set(m3, a)
    assert view.members == (m3.index("bot"), a)
    assert view.view.size == 2 and view.view.is_lattice
    assert view.direction == "down"


def test_up_set_of_bottom_is_everything(n5):
    view = up_set(n5, n5.bottom)
    assert view.members == tuple(range(5))
    assert view.view.leq == n5.leq
    assert view.direction == "up"


def test_down_set_size_formula():
    for L in catalog():
        for a in range(L.size):
            assert len(down_set(L, a).members) == sum(1 for b in range(L.size) if L.leq[b][a])


def test_down_set_bad_index(c3):
    with pytest.raises(IndexOutOfRange):
        down_set(c3, 7)


def test_monotone_map_count_c2_c3(c2, c3):
    maps = list(iter_monotone_maps(c2, c3))
    assert len(maps) == 6
    # lexicographic order of value tables
    tables = [m.values for m in maps]
    assert tables == sorted(tables)
    # agrees with brute-force filtering of all maps
    brute = [
        (y0, y1)
        for y0 in range(3)
        for y1 in range(3)
        if all(
            c3.leq[[y0, y1][a]][[y0, y1][b]]
            for a in range(2)
            for b in range(2)
            if c2.leq[a][b]
        )
    ]
    assert tables == brute


def test_monotone_map_rejects_non_monotone(c2):
    with pytest.raises(NotMonotone):
        MonotoneMap(c2, c2, (1, 0))


def test_monotone_map_errors_match_pairwise_scan(bare_posets):
    """Checking covers first accepts and rejects exactly what the pairwise scan does.

    Every value table between posets of size <= 4, bare and empty ones
    included, gives the same exception type and message, or none, as the
    scan over all pairs a <= b.
    """
    posets = [L for L in catalog() + list(bare_posets) if L.size <= 4]
    tables = rejected = 0
    for P in posets:
        for Q in posets:
            for values in itertools.product(range(Q.size), repeat=P.size):
                tables += 1
                try:
                    monotone_scan(P, Q, values)
                    expected = None
                except NotMonotone as err:
                    expected = str(err)
                    rejected += 1
                try:
                    MonotoneMap(P, Q, values)
                    got = None
                except NotMonotone as err:
                    got = str(err)
                assert got == expected, (P, Q, values)
    assert (tables, rejected) == (3095, 2198)


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    labels = [str(i) for i in range(n)]
    # covers only upward in index, so no cycles can occur
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                covers.append((labels[i], labels[j]))
    return build_poset("rand", labels, covers)


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_random_poset_invariants(L):
    n = L.size
    # leq is a partial order
    for a in range(n):
        assert L.leq[a][a]
        for b in range(n):
            if a != b:
                assert not (L.leq[a][b] and L.leq[b][a])
            for c in range(n):
                if L.leq[a][b] and L.leq[b][c]:
                    assert L.leq[a][c]
    # meet/join tables agree with the leq-only oracle
    for a in range(n):
        for b in range(n):
            assert L.meet[a][b] == oracle_glb(L, a, b)
            assert L.join[a][b] == oracle_lub(L, a, b)
    # dual is an involution and down-sets have the right size
    assert dual(dual(L)) == L
    for a in range(n):
        assert len(down_set(L, a).members) == sum(1 for b in range(n) if L.leq[b][a])
    # covers: a < b with nothing strictly between, in both the pair list and the masks
    strict = [(a, b) for a in range(n) for b in range(n) if a != b and L.leq[a][b]]
    assert L.covers == tuple(
        (a, b) for a, b in strict
        if not any(L.leq[a][c] and L.leq[c][b] for c in range(n) if c not in (a, b))
    )
    assert L.down_masks == tuple(
        sum(1 << c for c in range(n) if L.leq[c][a]) for a in range(n)
    )


@settings(max_examples=30, deadline=None)
@given(random_posets())
def test_random_poset_flags(L):
    assert L.is_modular == oracle_modular(L)
    assert L.is_distributive == oracle_distributive(L)
    if L.is_distributive:
        assert L.is_modular
    if L.is_modular:
        assert L.is_lattice
