import itertools
from pathlib import Path

import pytest

from ordbench import (
    AdjointConnection,
    Connection,
    DimensionMismatch,
    MissingAdjoint,
    MonotoneMap,
    NotAdjoint,
    OrdbenchError,
    SourceTargetMismatch,
    catalog,
    dual,
    find_left_adjoint,
    find_right_adjoint,
    find_weakening_violation,
    parse_file,
)
from ordbench.connection import _adjoint_tables, _join_preserving_maps, _right_adjoints
from ordbench.posetgen import generated_lattices

from oracles import (
    catalog_named,
    compose,
    compose_adjoint,
    connection_of_monotone_left,
    connection_of_monotone_right,
    enumerate_adjoint_connections,
    enumerate_connections,
    left_adjoint_connection,
    make_adjoint,
    monotone_map_objects,
    opposite,
    relation,
    right_adjoint_connection,
)

DATA = Path(__file__).parent / "data"


def naive_is_connection(P, Q, rel):
    """Literal quadruple-loop reading of the weakening law."""
    for a in range(P.size):
        for b in range(P.size):
            for c in range(Q.size):
                for d in range(Q.size):
                    if P.leq[a][b] and rel[b][c] and Q.leq[c][d] and not rel[a][d]:
                        return False
    return True


def all_relations(P, Q):
    cells = [(x, y) for x in range(P.size) for y in range(Q.size)]
    for bits in itertools.product([False, True], repeat=len(cells)):
        rel = [[False] * Q.size for _ in range(P.size)]
        for (x, y), v in zip(cells, bits):
            rel[x][y] = v
        yield tuple(tuple(row) for row in rel)


def identity_connection(L):
    return Connection(L, L, L.leq)


def full_relation(P, Q):
    return tuple(tuple(True for _ in range(Q.size)) for _ in range(P.size))


def empty_relation(P, Q):
    return tuple(tuple(False for _ in range(Q.size)) for _ in range(P.size))


def test_is_connection_trivia(c2, c3):
    assert find_weakening_violation(c2, c2, full_relation(c2, c2)) is None
    assert find_weakening_violation(c3, c3, c3.leq) is None
    # 1 R 0 alone: 0 <= 1 R 0 <= 0 demands 0 R 0
    rel = ((False, False), (True, False))
    assert find_weakening_violation(c2, c2, rel) is not None


def test_is_connection_matches_naive_oracle(c2, c3):
    for P, Q in ((c2, c2), (c2, c3)):
        enumerated = set()
        for rel in all_relations(P, Q):
            assert (find_weakening_violation(P, Q, rel) is None) == naive_is_connection(P, Q, rel)
            if naive_is_connection(P, Q, rel):
                enumerated.add(rel)
        # the mass enumerator visits exactly the same set
        assert {c.rel for c in enumerate_connections(P, Q)} == enumerated


def test_opposite_involution_and_identity(c3, c2):
    ident = identity_connection(c3)
    op = opposite(ident)
    assert op.source == dual(c3) and op.target == dual(c3)
    assert opposite(op) == ident
    full = Connection(c2, c3, full_relation(c2, c3))
    assert opposite(full).rel == full_relation(c3, c2)


def test_opposite_exchanges_adjoints(c2, c3):
    for f in monotone_map_objects(c2, c3):
        c = connection_of_monotone_left(f)
        op = opposite(c)
        left_of_op = find_left_adjoint(op)
        right_of_c = find_right_adjoint(c)
        if right_of_c is None:
            assert left_of_op is None
        else:
            assert left_of_op is not None and left_of_op.values == right_of_c.values
        # the left adjoint of c reappears as the right adjoint of the opposite
        right_of_op = find_right_adjoint(op)
        assert right_of_op is not None and right_of_op.values == f.values


def test_find_left_adjoint_examples(c2, c3):
    assert find_left_adjoint(identity_connection(c3)).values == (0, 1, 2)
    assert find_left_adjoint(Connection(c2, c2, full_relation(c2, c2))).values == (0, 0)
    assert find_left_adjoint(Connection(c2, c2, empty_relation(c2, c2))) is None


def test_find_right_adjoint_examples(c2, c3):
    assert find_right_adjoint(identity_connection(c3)).values == (0, 1, 2)
    assert find_right_adjoint(Connection(c2, c2, full_relation(c2, c2))).values == (1, 1)
    assert find_right_adjoint(Connection(c2, c2, empty_relation(c2, c2))) is None


def test_connection_of_monotone_left_examples(c2):
    ident = MonotoneMap(c2, c2, (0, 1))
    assert connection_of_monotone_left(ident).rel == c2.leq
    const_top = MonotoneMap(c2, c2, (1, 1))
    assert connection_of_monotone_left(const_top).rel == ((False, True), (False, True))


def test_connection_of_monotone_right_examples(c2):
    ident = MonotoneMap(c2, c2, (0, 1))
    assert connection_of_monotone_right(ident).rel == c2.leq
    const_bot = MonotoneMap(c2, c2, (0, 0))
    assert connection_of_monotone_right(const_bot).rel == ((True, True), (False, False))


def test_left_round_trip_all_monotone_maps(c2, c3):
    conns = set()
    for f in monotone_map_objects(c2, c3):
        c = connection_of_monotone_left(f)
        assert find_weakening_violation(c.source, c.target, c.rel) is None
        assert find_left_adjoint(c).values == f.values
        conns.add(c.rel)
    assert len(conns) == 6  # distinct connections, one per map


def test_right_round_trip_all_monotone_maps(c2, c3):
    for g in monotone_map_objects(c3, c2):  # g: Q -> P with P=C2, Q=C3
        c = connection_of_monotone_right(g)
        assert find_weakening_violation(c.source, c.target, c.rel) is None
        assert find_right_adjoint(c).values == g.values


def test_make_adjoint_examples(c2, c3, n5):
    ident = make_adjoint(identity_connection(n5))
    assert ident.left.values == ident.right.values == tuple(range(5))

    f = MonotoneMap(c3, c2, (0, 0, 1))
    ac = make_adjoint(connection_of_monotone_left(f))
    assert ac.right.values == (1, 2)
    assert make_adjoint(Connection(c2, c2, empty_relation(c2, c2))) is None


def test_adjoint_connection_verifies_chain(c2):
    ident = MonotoneMap(c2, c2, (0, 1))
    const_bot = MonotoneMap(c2, c2, (0, 0))
    with pytest.raises(ValueError):
        AdjointConnection(ident, const_bot)


def test_connection_stores_rows_as_tuples(c2, c3):
    # Rows given as lists are stored as tuples, so the finders can hash them
    # and the relation an AdjointConnection derives compares equal to them.
    ident = MonotoneMap(c3, c3, (0, 1, 2))
    conn = Connection(c3, c3, [list(row) for row in c3.leq])
    assert conn.rel == c3.leq and all(type(row) is tuple for row in conn.rel)
    assert find_left_adjoint(conn).values == find_right_adjoint(conn).values == (0, 1, 2)
    assert relation(AdjointConnection(ident, ident)) == conn
    with pytest.raises(DimensionMismatch):
        Connection(c2, c3, [[True, True, True], [True, True]])


def test_adjoint_errors_are_typed(c2):
    ident = MonotoneMap(c2, c2, (0, 1))
    half = AdjointConnection(ident, None)
    with pytest.raises(MissingAdjoint, match="fully adjoint"):
        compose_adjoint(half, half)
    for cls in (MissingAdjoint, NotAdjoint):
        assert issubclass(cls, OrdbenchError) and issubclass(cls, ValueError)


def test_compose_unit_laws(c3):
    ident = identity_connection(c3)
    assert compose(ident, ident) == ident
    r = connection_of_monotone_left(MonotoneMap(c3, c3, (0, 0, 1)))
    assert compose(r, ident) == r
    assert compose(ident, r) == r


def test_compose_mismatch(c2, c3):
    with pytest.raises(SourceTargetMismatch):
        compose(identity_connection(c2), identity_connection(c3))


def test_compose_adjoint_is_pointwise_composite(c2, c3):
    for r in enumerate_adjoint_connections(c2, c3):
        for s in enumerate_adjoint_connections(c3, c2):
            comp = compose(relation(r), relation(s))
            left = find_left_adjoint(comp)
            expected = tuple(s.left.values[v] for v in r.left.values)
            assert left is not None and left.values == expected
            right = find_right_adjoint(comp)
            expected_right = tuple(r.right.values[v] for v in s.right.values)
            assert right is not None and right.values == expected_right
            bundled = compose_adjoint(r, s)
            assert bundled.left.values == expected
            assert bundled.right.values == expected_right


def small_lattices():
    return [L for L in catalog() if L.size <= 4]


def test_compose_adjoint_matches_relational_compose(bare_posets):
    """compose_adjoint gives compose's relation and the composed maps, on every composable pair."""

    def composable(posets):
        for P in posets:
            for Q in posets:
                for S in posets:
                    for r in enumerate_adjoint_connections(P, Q):
                        for s in enumerate_adjoint_connections(Q, S):
                            yield r, s

    suite_pairs = 0
    for posets in (small_lattices(), bare_posets):
        for r, s in composable(posets):
            suite_pairs += posets is not bare_posets
            got = compose_adjoint(r, s)
            assert relation(got) == compose(relation(r), relation(s))
            assert got.left.values == tuple(s.left.values[v] for v in r.left.values)
            assert got.right.values == tuple(r.right.values[v] for v in s.right.values)
    assert suite_pairs == 11365  # the composition suite's pairs


def test_compose_adjoint_mismatch(c2, c3):
    r = make_adjoint(identity_connection(c2))
    with pytest.raises(SourceTargetMismatch):
        compose_adjoint(r, make_adjoint(identity_connection(c3)))


def test_connection_of_monotone_right_reads_the_order_table(bare_posets):
    posets = list(bare_posets) + small_lattices()
    for P in posets:
        for Q in posets:
            for g in monotone_map_objects(Q, P):
                conn = connection_of_monotone_right(g)
                assert (conn.source, conn.target) == (P, Q)
                assert conn.rel == tuple(
                    tuple(P.leq[x][g.values[y]] for y in range(Q.size)) for x in range(P.size)
                )


def test_enumerate_adjoint_connections_counts(c2):
    c1 = catalog_named("C1")
    assert len(enumerate_adjoint_connections(c1, c1)) == 1
    # count fixed by the relation-enumeration oracle
    oracle = sum(1 for c in enumerate_connections(c2, c2) if make_adjoint(c) is not None)
    got = enumerate_adjoint_connections(c2, c2)
    assert len(got) == oracle == 2
    tables = [ac.left.values for ac in got]
    assert tables == sorted(tables)  # deterministic lexicographic order


def test_enumeration_matches_filtered_monotone_maps(bare_posets):
    """The join-pruned walk yields what filtering every monotone map yields, in order,
    as validated connections and as the value tables the search walks.

    Div12's index 0 is its top, so its index order is not a linear extension:
    some of its joins come before their members and are checked, not forced.
    """
    lattices = catalog() + list(generated_lattices(5))
    posets = list(bare_posets) + [catalog_named(n) for n in ("C1", "C2", "B2", "N5")]
    pairs = [(P, Q) for P in lattices for Q in lattices] + [(P, Q) for P in posets for Q in posets]
    # the search's largest sources, through the forced-value path
    sixes = [P for P in generated_lattices(6) if P.size == 6]
    assert len(sixes) == 15
    pairs += [(P, Q) for P in sixes for Q in catalog() if Q.size <= 4]
    for P, Q in pairs:
        oracle = [
            ac for f in monotone_map_objects(P, Q) if (ac := left_adjoint_connection(f)).right is not None
        ]
        assert enumerate_adjoint_connections(P, Q) == oracle, (P.name, Q.name)
        tables = [(ac.left.values, ac.right.values) for ac in oracle]
        assert list(_adjoint_tables(P, Q)) == tables, (P.name, Q.name)
        if P.is_lattice and Q.is_lattice:
            # between lattices, preserving bottom and joins is already enough
            for f in _join_preserving_maps(P, Q):
                assert find_right_adjoint(connection_of_monotone_left(MonotoneMap(P, Q, f))) is not None


def test_closed_form_right_adjoint_matches_column_lookup(bare_posets):
    """g(y) = the element whose down-set is {x : f(x) <= y} is find_right_adjoint's
    column lookup on f's relation, and is missing exactly where that finds none.

    The bare posets, where right adjoints can be missing, come in through
    small_posets; the catalog lattices of size <= 4 add Q's of size 4.
    """
    lattices = [L for L in catalog() if L.size <= 4]
    posets = small_posets(bare_posets)
    pairs = [(P, Q) for P in posets for Q in posets] + [(P, Q) for P in lattices for Q in lattices]
    checked = missing = 0
    for P, Q in pairs:
        right = _right_adjoints(P, Q)
        for f in monotone_map_objects(P, Q):
            oracle = find_right_adjoint(connection_of_monotone_left(f))
            assert right(f.values) == values_or_none(oracle), (P.name, Q.name, f.values)
            assert left_adjoint_connection(f) == AdjointConnection(f, oracle)
            checked += 1
            missing += oracle is None
    assert (checked, missing) == (1055, 592)  # recounted by a search over every g


def test_dual_closed_form_left_adjoint_matches_row_lookup(bare_posets, monkeypatch):
    """right_adjoint_connection(g) reads g's left adjoint as g's closed-form right
    adjoint between the duals, and equals the row lookup on g's relation that it
    replaced, with no Connection built; same corpus as the column-lookup test.
    """
    lattices = [L for L in catalog() if L.size <= 4]
    posets = small_posets(bare_posets)
    pairs = [(P, Q) for P in posets for Q in posets] + [(P, Q) for P in lattices for Q in lattices]
    maps = [g for P, Q in pairs for g in monotone_map_objects(Q, P)]
    oracles = [AdjointConnection(find_left_adjoint(connection_of_monotone_right(g)), g) for g in maps]

    def no_connection(self):
        raise AssertionError("right_adjoint_connection built a Connection")

    with monkeypatch.context() as patch:
        patch.setattr(Connection, "__post_init__", no_connection)
        closed = [right_adjoint_connection(g) for g in maps]
    assert closed == oracles
    missing = sum(ac.left is None for ac in oracles)
    assert (len(maps), missing) == (1055, 592)  # recounted by a search over every f


def small_posets(bare_posets):
    """Every poset of size <= 3 the oracles walk: catalog, generated and bare."""
    posets = catalog() + list(generated_lattices(3)) + list(bare_posets)
    return [L for L in posets if L.size <= 3]


def outcome(build):
    """What build() gives: ("ok", value) or ("raises", exception type, message)."""
    try:
        return ("ok", build())
    except Exception as exc:  # the oracles compare the exception as well
        return ("raises", type(exc), str(exc))


def values_or_none(m):
    return None if m is None else m.values


def test_adjoint_uniqueness_by_exhaustive_map_search(bare_posets, c3, b2):
    # Index every map (monotone or not) by the relation its biconditional
    # defines; at most one map per relation, and find_*_adjoint must return
    # exactly that map, or raise what building it as a MonotoneMap raises.
    # Every monotone map's connection must also round-trip through the
    # builders, including maps out of and into the empty poset.
    posets = small_posets(bare_posets)
    pairs = [(P, Q) for P in posets for Q in posets] + [(c3, b2), (b2, c3)]
    walked = round_trips = 0
    for P, Q in pairs:
        left_of, right_of = {}, {}
        for vals in itertools.product(range(Q.size), repeat=P.size):
            rel = tuple(tuple(Q.leq[vals[x]][y] for y in range(Q.size)) for x in range(P.size))
            left_of.setdefault(rel, []).append(vals)
        for vals in itertools.product(range(P.size), repeat=Q.size):
            rel = tuple(tuple(P.leq[x][vals[y]] for y in range(Q.size)) for x in range(P.size))
            right_of.setdefault(rel, []).append(vals)
        for rel in all_relations(P, Q):
            walked += 1
            conn = Connection(P, Q, rel)
            lefts, rights = left_of.get(rel, []), right_of.get(rel, [])
            assert len(lefts) <= 1 and len(rights) <= 1
            expected = outcome(lambda: MonotoneMap(P, Q, lefts[0]).values if lefts else None)
            assert outcome(lambda: values_or_none(find_left_adjoint(conn))) == expected
            expected = outcome(lambda: MonotoneMap(Q, P, rights[0]).values if rights else None)
            assert outcome(lambda: values_or_none(find_right_adjoint(conn))) == expected
        for f in monotone_map_objects(P, Q):
            round_trips += 1
            conn = connection_of_monotone_left(f)
            assert left_of[conn.rel] == [f.values]
            assert find_left_adjoint(conn).values == left_adjoint_connection(f).left.values == f.values
        for g in monotone_map_objects(Q, P):
            round_trips += 1
            conn = connection_of_monotone_right(g)
            assert right_of[conn.rel] == [g.values]
            assert find_right_adjoint(conn).values == right_adjoint_connection(g).right.values == g.values
    assert walked == 15871 + 2 * 4096 and round_trips == 1252


def oracle_adjoint_connection(left, right):
    """AdjointConnection's checks read cell by cell: (error type, message) or None."""
    if left is None and right is None:
        return (MissingAdjoint, "an adjoint connection needs at least one adjoint map")
    if left is None or right is None:
        return None
    P, Q, f, g = left.source, left.target, left.values, right.values
    if right.source != Q or right.target != P:
        return (SourceTargetMismatch, "right map does not run back along the left map")
    if any(Q.leq[f[x]][y] != P.leq[x][g[y]] for x in range(P.size) for y in range(Q.size)):
        return (NotAdjoint, "left and right maps are not adjoint")
    return None


def test_adjoint_connection_matches_cell_by_cell_oracle(bare_posets):
    """Every left map P -> Q against every right map into P or out of Q, so
    that both ends of a mismatched right map occur."""
    posets = small_posets(bare_posets)
    maps = {(P, Q): monotone_map_objects(P, Q) for P in posets for Q in posets}
    built = 0
    for (P, Q), lefts in maps.items():
        rights = [g for (S, R), gs in maps.items() if R is P or S is Q for g in gs]
        for left in [None] + lefts:
            for right in [None] + rights:
                built += 1
                got = outcome(lambda: AdjointConnection(left, right))
                expected = oracle_adjoint_connection(left, right)
                if expected is None:
                    assert got[0] == "ok" and (got[1].left, got[1].right) == (left, right)
                else:
                    assert got[0] == "raises" and got[1:] == expected
    assert built == 81332


def small_catalog_pairs():
    names = ("C2", "C3", "B2", "M3", "N5")
    for p in names:
        for q in names:
            yield catalog_named(p), catalog_named(q)


def test_adjoint_invariants_over_small_pairs():
    for P, Q in small_catalog_pairs():
        for ac in enumerate_adjoint_connections(P, Q):
            f, g = ac.left.values, ac.right.values
            # f g f = f
            for x in range(P.size):
                assert f[g[f[x]]] == f[x]
            # left adjoints preserve existing joins, right adjoints existing meets
            for a in range(P.size):
                for b in range(P.size):
                    j = P.join[a][b]
                    if j is not None:
                        assert Q.join[f[a]][f[b]] == f[j]
            for c in range(Q.size):
                for d in range(Q.size):
                    m = Q.meet[c][d]
                    if m is not None:
                        assert P.meet[g[c]][g[d]] == g[m]
            # one-sided reciprocity inequality, where meets exist
            for b in range(P.size):
                for c in range(Q.size):
                    m = P.meet[g[c]][b]
                    if m is not None and Q.meet[c][f[b]] is not None:
                        assert Q.leq[f[m]][Q.meet[c][f[b]]]


def test_left_adjoint_connection_bundles(c2, c3):
    for f in monotone_map_objects(c2, c3):
        ac = left_adjoint_connection(f)
        assert ac.left.values == f.values
        if ac.right is not None:
            assert find_right_adjoint(relation(ac)).values == ac.right.values


def assert_relation_derived(ac):
    """ac's relation is the one its maps define, and gives both of them back."""
    conn = relation(ac)
    assert (conn.source, conn.target) == (ac.source, ac.target)
    if ac.left is not None:
        assert conn == connection_of_monotone_left(ac.left)
    if ac.right is not None:
        assert conn == connection_of_monotone_right(ac.right)
    assert values_or_none(find_left_adjoint(conn)) == values_or_none(ac.left)
    assert values_or_none(find_right_adjoint(conn)) == values_or_none(ac.right)


def test_derived_relation_loses_nothing():
    """Adjoint and one-sided connections among small lattices, and the data files'."""
    lattices = small_lattices()
    checked = 0
    for P in lattices:
        for Q in lattices:
            connections = (
                enumerate_adjoint_connections(P, Q)
                + [left_adjoint_connection(f) for f in monotone_map_objects(P, Q)]
                + [right_adjoint_connection(g) for g in monotone_map_objects(Q, P)]
            )
            for ac in connections:
                assert_relation_derived(ac)
                checked += 1
    files = [p for p in sorted(DATA.iterdir()) if not p.name.startswith("bad_")]
    for c in (c for p in files for c in parse_file(p).connections.values()):
        ac = AdjointConnection(find_left_adjoint(c), find_right_adjoint(c))
        assert_relation_derived(ac)
        assert relation(ac) == c
        checked += 1
    assert checked == 1175 + 7  # pairs of small lattices, then the data files
