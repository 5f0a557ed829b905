"""Brute-force oracles shared by the test modules, and the objects the package's tables stand for."""

from collections import namedtuple
from functools import lru_cache, partial
from itertools import product
from types import SimpleNamespace

from ordbench import (
    AdjointConnection,
    Connection,
    MissingAdjoint,
    MonotoneMap,
    NotMonotone,
    SizeBoundExceeded,
    SourceTargetMismatch,
    UnknownLabel,
    UnknownSuite,
    catalog,
    find_left_adjoint,
    find_right_adjoint,
    monotone_maps,
    parse_predicate,
)
from ordbench import laws, posetgen
from ordbench.connection import _adjoint_tables, _columns, _right_adjoints
from ordbench.lattice import _finalize
from ordbench.laws import LAW_TABLE, THEOREMS, FoundCase, SearchResult, SuiteResult


def catalog_named(name):
    for L in catalog():
        if L.name == name:
            return L
    raise UnknownLabel(f"no catalog lattice named {name!r}")


# A down-set or up-set of ``host`` as a poset in its own right: ``members``
# are host indices in ascending order, ``view`` the induced order.
ElementView = namedtuple("ElementView", "host anchor direction members view")


def _view(L, anchor, direction, keep, order):
    L.check_element(anchor)
    members = tuple(filter(keep, range(L.size)))
    labels = tuple(L.labels[b] for b in members)
    leq = tuple(tuple(L.leq[a][b] for b in members) for a in members)
    view = _finalize(f"{L.name}[{order}{L.labels[anchor]}]", labels, leq)
    return ElementView(L, anchor, direction, members, view)


def down_set(L, a):
    """The view of {b | b <= a}; the anchor is its top."""
    return _view(L, a, "down", lambda b: L.leq[b][a], "<=")


def up_set(L, c):
    """The view of {b | b >= c}; the anchor is its bottom."""
    return _view(L, c, "up", lambda b: L.leq[c][b], ">=")


# ---------------------------------------------------------------------------
# Connections as objects: relations read off maps, and adjoint connections
# built from maps


def connection_of_monotone_left(f):
    """The connection x R y iff f(x) <= y; find_left_adjoint recovers f."""
    return Connection(f.source, f.target, tuple(f.target.leq[v] for v in f.values))


def connection_of_monotone_right(g):
    """The connection x R y iff x <= g(y): P's order columns at g(y), transposed."""
    P = g.target
    return Connection(P, g.source, _columns([P.geq[v] for v in g.values], P))


def relation(ac):
    """The connection of an adjoint connection, read off a present map."""
    if ac.left is not None:
        return connection_of_monotone_left(ac.left)
    return connection_of_monotone_right(ac.right)


def opposite(c):
    """The transposed relation, as a connection between the cached dual posets."""
    return Connection(c.target.op, c.source.op, _columns(c.rel, c.target))


def make_adjoint(c):
    """c as the adjoint connection of its two adjoints; None if either is missing."""
    left, right = find_left_adjoint(c), find_right_adjoint(c)
    return None if left is None or right is None else AdjointConnection(left, right)


def monotone_map_objects(P, Q):
    """Every monotone map P -> Q as a MonotoneMap, built from (and so validating)
    each value table of ``monotone_maps``, in its order."""
    return [MonotoneMap(P, Q, values) for values in monotone_maps(P, Q)]


def left_adjoint_connection(f):
    """f's adjoint connection, with the right adjoint when it exists."""
    g = _right_adjoints(f.source, f.target)(f.values)
    return AdjointConnection(f, None if g is None else MonotoneMap(f.target, f.source, g))


def right_adjoint_connection(g):
    """g's adjoint connection, with its left adjoint (its right adjoint between the duals) if any."""
    f = _right_adjoints(g.source.op, g.target.op)(g.values)
    return AdjointConnection(None if f is None else MonotoneMap(g.target, g.source, f), g)


def enumerate_adjoint_connections(P, Q):
    """All adjoint connections P -> Q as objects, ordered by left map table; a new list per call."""
    return [
        AdjointConnection(MonotoneMap(P, Q, f), MonotoneMap(Q, P, g))
        for f, g in _adjoint_tables(P, Q)
    ]


def compose(r, s):
    """Relational composite: x (S.R) z iff some y has x R y and y S z."""
    if r.target != s.source:
        raise SourceTargetMismatch(f"cannot compose ...->{r.target.name} with {s.source.name}->...")
    mid = range(r.target.size)
    rel = tuple(
        tuple(any(r.rel[x][y] and s.rel[y][z] for y in mid) for z in range(s.target.size))
        for x in range(r.source.size)
    )
    return Connection(r.source, s.target, rel)


def compose_adjoint(r, s):
    """Composite of two adjoint connections: the composed left and right maps."""
    if None in (r.left, r.right, s.left, s.right):
        raise MissingAdjoint("compose_adjoint needs fully adjoint connections")
    if r.target != s.source:
        raise SourceTargetMismatch(f"cannot compose ...->{r.target.name} with {s.source.name}->...")
    f = tuple(s.left.values[v] for v in r.left.values)
    g = tuple(r.right.values[v] for v in s.right.values)
    return AdjointConnection(MonotoneMap(r.source, s.target, f), MonotoneMap(s.target, r.source, g))


def enumerate_connections(P, Q):
    """Brute-force enumeration of every connection P -> Q.

    Visits every one of the 2^(|P|*|Q|) relations, in increasing order of the
    integer code whose bit x*|Q|+y records x R y, and yields those satisfying
    the weakening law.  Bounded to 24 relation bits.
    """
    n, m = P.size, Q.size
    if n * m > 24:
        raise SizeBoundExceeded(f"{n}x{m} relation space too large to enumerate")
    full = (1 << m) - 1
    up_masks = []
    for y in range(m):
        mask = 0
        for d in range(m):
            if Q.leq[y][d]:
                mask |= 1 << d
        up_masks.append(mask)
    upset_ok = bytearray(1 << m)
    for mask in range(1 << m):
        s, ok = mask, True
        while s:
            y = (s & -s).bit_length() - 1
            if up_masks[y] & ~mask:
                ok = False
                break
            s &= s - 1
        upset_ok[mask] = ok
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and P.leq[a][b]]
    for code in range(1 << (n * m)):
        rows = []
        tmp = code
        good = True
        for _ in range(n):
            r = tmp & full
            if not upset_ok[r]:
                good = False
                break
            rows.append(r)
            tmp >>= m
        if not good:
            continue
        if any(rows[b] & ~rows[a] for a, b in pairs):
            continue
        rel = tuple(tuple(bool(rows[x] >> y & 1) for y in range(m)) for x in range(n))
        yield Connection(P, Q, rel)


def is_lattice_by_tables(L):
    """Nonempty, with every binary meet and join present in the tables."""
    return L.size > 0 and all(
        L.meet[a][b] is not None and L.join[a][b] is not None
        for a in range(L.size)
        for b in range(L.size)
    )


def modular_by_tables(L):
    """The modular law a <= c => a v (b ^ c) = (a v b) ^ c over all triples."""
    n, leq, meet, join = L.size, L.leq, L.meet, L.join
    return is_lattice_by_tables(L) and all(
        join[a][meet[b][c]] == meet[join[a][b]][c]
        for a in range(n)
        for c in range(n)
        if leq[a][c]
        for b in range(n)
    )


def distributive_by_tables(L):
    """The distributive law a ^ (b v c) = (a ^ b) v (a ^ c) over all triples."""
    n, meet, join = L.size, L.meet, L.join
    return is_lattice_by_tables(L) and all(
        meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


# ---------------------------------------------------------------------------
# Law evaluation case by case: the oracle of the law kernels.  Each base law
# lists its assignments in ascending index order; a right-hand law visits its
# base law's assignments on the opposite connection, in the lexicographic
# order of its own variables.  The iterators read the tables of the
# connection a law is evaluated on through ``ctx``.


def _lm0_cases(ctx):
    return ((y,) for y in range(ctx.m))


def _lm1_cases(ctx):
    return ((b, c) for b in range(ctx.n) for c in range(ctx.m) if ctx.leqQ[c][ctx.f[b]])


def _lm2_cases(ctx):
    return ((c, d) for c in range(ctx.m) for d in range(ctx.m) if ctx.leqQ[c][d])


def _lm3_cases(ctx):
    return ((c, d) for c in range(ctx.m) for d in range(ctx.m) if ctx.meetQ[c][d] is not None)


def _lm4_cases(ctx):
    return ((c, d) for c in range(ctx.m) for d in range(ctx.m) if ctx.g[c] == ctx.g[d])


def _lm5_cases(ctx):
    return (
        (c, d) for c in range(ctx.m) for d in range(ctx.m) if ctx.leqP[ctx.g[c]][ctx.g[d]]
    )


def _lf0_cases(ctx):
    return ((b, c) for b in range(ctx.n) for c in range(ctx.m))


def _lf2_cases(ctx):
    leqP, leqQ, f = ctx.leqP, ctx.leqQ, ctx.f
    return (
        (a, b, c)
        for a in range(ctx.n)
        for b in range(ctx.n)
        if leqP[b][a]
        for c in range(ctx.m)
        if leqQ[c][f[b]]
    )


# The case iterator of each base law, keyed by the suffix that a left-hand
# law and its right-hand twin share: RMk/RFk visit the cases of LMk/LFk.
# LF1 ranges over the same pairs c <= f(b) as LM1.
BASE_CASES = {
    "M0": _lm0_cases, "M1": _lm1_cases, "M2": _lm2_cases, "M3": _lm3_cases,
    "M4": _lm4_cases, "M5": _lm5_cases,
    "F0": _lf0_cases, "F1": _lm1_cases, "F2": _lf2_cases,
}


# Each base law at one case, as (ok, lhs, rhs); keyed like BASE_CASES.


def _equal(lhs, rhs):
    return (rhs is not None and lhs == rhs, lhs, rhs)


def _member(c, image):
    """A case that fails when c is not in the image: its rhs is c, or None."""
    return (c in image, c, c if c in image else None)


def _lm0_check(P, Q, f, g, case):
    (y,) = case
    return _equal(f[g[y]], Q.meet[y][f[P.top]])


def _lm1_check(P, Q, f, g, case):
    return _member(case[1], f)


def _lm2_check(P, Q, f, g, case):
    c, d = case
    return _equal(f[g[c]], Q.meet[c][f[g[d]]])


def _lm3_check(P, Q, f, g, case):
    c, d = case
    return _equal(f[g[Q.meet[c][d]]], Q.meet[c][f[g[d]]])


def _lm4_check(P, Q, f, g, case):
    c, d = case
    return _equal(Q.meet[c][f[P.top]], Q.meet[d][f[P.top]])


def _lm5_check(P, Q, f, g, case):
    c, d = case
    lhs = Q.meet[c][f[P.top]]
    return (Q.leq[lhs][d], lhs, d)


def _lf0_check(P, Q, f, g, case):
    b, c = case
    return _equal(Q.meet[c][f[b]], f[P.meet[g[c]][b]])


def _lf_image_check(P, Q, f, g, case):
    # LF1 at (b, c) and LF2 at (a, b, c): c is f(x) for some x <= the first variable
    return _member(case[-1], {f[x] for x in range(P.size) if P.leq[x][case[0]]})


CHECKS = {
    "M0": _lm0_check, "M1": _lm1_check, "M2": _lm2_check, "M3": _lm3_check,
    "M4": _lm4_check, "M5": _lm5_check,
    "F0": _lf0_check, "F1": _lf_image_check, "F2": _lf_image_check,
}


def operands(law, ac):
    """The (P, Q, f, g) a law's cases range over on ac: the opposite connection's for RMk/RFk."""
    P, Q, f, g = laws._tables(ac)
    return (Q.op, P.op, g, f) if law.opposite else (P, Q, f, g)


def _base_cases(law_id, P, Q, f, g):
    """The cases of a law's base law on (P, Q, f, g), in ascending order of its variables."""
    ctx = SimpleNamespace(
        n=P.size, m=Q.size, leqP=P.leq, leqQ=Q.leq, meetQ=Q.meet, f=f, g=g,
    )
    return BASE_CASES[law_id[1:]](ctx)


def recheck_witness(law_id, ac, witness):
    """Re-run a law's formula at a reported witness; returns (ok, lhs, rhs)."""
    law = laws._law(law_id)
    case = witness.indices[::-1] if law.reverse else witness.indices
    ok, lhs, rhs = CHECKS[law_id[1:]](*operands(law, ac), case)
    return (ok, rhs, lhs) if law.swap else (ok, lhs, rhs)


def base_failures(law_id, ac):
    """Every failing (case, lhs, rhs) of a law's base law on the connection it reads on ac.

    The cases come in ascending order of the base law's variables, with the
    sides as the base law states them: what the law's kernel yields.  The
    caller makes sure the law is not skipped on ac.
    """
    law = LAW_TABLE[law_id]
    P, Q, f, g = operands(law, ac)
    check = CHECKS[law_id[1:]]
    failures = []
    for case in _base_cases(law_id, P, Q, f, g):
        ok, lhs, rhs = check(P, Q, f, g, case)
        if not ok:
            failures.append((case, lhs, rhs))
    return failures


def case_scan(law_id, ac):
    """A law's first failure by checking every case in turn, or None if it holds.

    Returns (indices, lhs, rhs) as the law's witness lists them: indices in
    the order of the law's own variables, and lhs/rhs its own sides.  The
    caller makes sure the law is not skipped on ac.
    """
    law = LAW_TABLE[law_id]
    P, Q, f, g = operands(law, ac)
    cases = _base_cases(law_id, P, Q, f, g)
    if law.reverse:
        cases = sorted(cases, key=lambda case: case[::-1])
    check = CHECKS[law_id[1:]]
    for case in cases:
        ok, lhs, rhs = check(P, Q, f, g, case)
        if not ok:
            if law.reverse:
                case = case[::-1]
            if law.swap:
                lhs, rhs = rhs, lhs
            return tuple(case), lhs, rhs
    return None


def monotone_scan(source, target, values):
    """Raise NotMonotone at the first pair a <= b, in index order, with f(a) !<= f(b)."""
    for a in range(source.size):
        for b in range(source.size):
            if source.leq[a][b] and not target.leq[values[a]][values[b]]:
                raise NotMonotone(
                    f"{source.labels[a]} <= {source.labels[b]} but "
                    f"{target.labels[values[a]]} !<= {target.labels[values[b]]}"
                )


def restrict_left_cells(ac, anchor):
    """The restriction of ac to anchor-down in P and f(anchor)-down in Q, cell by cell.

    Returns (rel, left, right): the restricted relation as a table, the left
    map as positions in f(anchor)-down, and the right map as positions in
    anchor-down, or None when some restricted column is no element's
    down-set there.
    """
    P, Q, f = ac.source, ac.target, ac.left.values
    dn_p = [a for a in range(P.size) if P.leq[a][anchor]]
    dn_q = [b for b in range(Q.size) if Q.leq[b][f[anchor]]]
    cells = relation(ac).rel
    rel = tuple(tuple(cells[a][b] for b in dn_q) for a in dn_p)
    left = tuple(dn_q.index(f[a]) for a in dn_p)
    right = []
    for j in range(len(dn_q)):
        tops = [
            i for i, x in enumerate(dn_p)
            if all(rel[k][j] == P.leq[a][x] for k, a in enumerate(dn_p))
        ]
        if not tops:
            return rel, left, None
        right.append(tops[0])
    return rel, left, tuple(right)


def eager_search(predicate, max_size, *, modular_only=False, include_generated=False):
    """The counterexample search deciding every law the predicate names on every case.

    Walks the corpus and the connections of each ordered pair in the order
    :func:`ordbench.search_counterexample` does, evaluates each named law in
    turn with ``eval_law`` and drops the case at the first skipped one; the
    predicate reads the complete table of verdicts.  The caller keeps
    ``max_size`` within the search's bound.
    """
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    corpus = [L for L in catalog() if L.is_lattice and L.is_bounded and L.size <= max_size]
    if include_generated:
        corpus.extend(posetgen.generated_lattices(max_size))
    if modular_only:
        corpus = [L for L in corpus if L.is_modular]
    cases = 0
    for P in corpus:
        for Q in corpus:
            for ac in enumerate_adjoint_connections(P, Q):
                values = {}
                for law_id in predicate.laws:
                    report = laws.eval_law(law_id, ac)
                    if report.skipped is not None:
                        break
                    values[law_id] = report.holds
                else:
                    cases += 1
                    if predicate.evaluate(values):
                        found = FoundCase(
                            P.name, Q.name, ac.left.values, ac.right.values, tuple(values.items())
                        )
                        return SearchResult(found, cases)
    return SearchResult(None, cases)


# ---------------------------------------------------------------------------
# Principal elements case by case: the oracle of ``Quantale.residuals`` and of
# the byte-row laws in ``is_principal``.


def residual_by_joins(q, a, e):
    """a:e as the join of every c with c*e <= a."""
    L = q.lattice
    acc = L.bottom
    for c in range(L.size):
        if L.leq[q.mult[c][e]][a]:
            acc = L.join[acc][c]
    return acc


def principal_law_failures(q, e):
    """The first failing ((x, y), lhs, rhs) of each principal-element law for e, or None.

    Law (i), c ^ d*e = ((c:e) ^ d)*e, over c and then d; law (ii),
    a v (b:e) = (a*e v b):e, over a and then b.  Each case is checked in
    turn, with every residual a join.
    """
    L = q.lattice
    n, meet, join, mult = L.size, L.meet, L.join, q.mult
    res = [residual_by_joins(q, x, e) for x in range(n)]
    failure_i = failure_ii = None
    for c in range(n):
        for d in range(n):
            lhs, rhs = meet[c][mult[d][e]], mult[meet[res[c]][d]][e]
            if failure_i is None and lhs != rhs:
                failure_i = ((c, d), lhs, rhs)
    for a in range(n):
        for b in range(n):
            lhs, rhs = join[a][res[b]], res[join[mult[a][e]][b]]
            if failure_ii is None and lhs != rhs:
                failure_ii = ((a, b), lhs, rhs)
    return failure_i, failure_ii


# ---------------------------------------------------------------------------
# The verify suites on objects: the oracle of ``laws.run_suite``.  Each suite
# is stated here again, on AdjointConnections: each case is a connection, or
# two composable ones, each law an ``eval_law`` report, and every failure
# line is rendered from those reports.


@lru_cache(maxsize=None)
def _adjoint_connections(P, Q):
    return tuple(enumerate_adjoint_connections(P, Q))


def _left_connections(P, Q):
    """Every left adjoint connection P -> Q, one per monotone map."""
    return (left_adjoint_connection(f) for f in monotone_map_objects(P, Q))


def _right_connections(P, Q):
    """Every right adjoint connection P -> Q, one per monotone map."""
    return (right_adjoint_connection(g) for g in monotone_map_objects(Q, P))


def _pairs(connections, lattices):
    """Per ordered pair (P, Q) of ``lattices``, in order, the connections P -> Q."""
    for P in lattices:
        for Q in lattices:
            yield connections(P, Q)


# theorem -> the connections its suite visits for each ordered pair
THEOREM_CONNECTIONS = {
    "lm": _adjoint_connections,
    "rm": _adjoint_connections,
    "rm045": _adjoint_connections,
    "lm045": _adjoint_connections,
    "lf": _left_connections,
    "rf": _right_connections,
}


def _describe(ac):
    left = ac.left.values if ac.left is not None else None
    right = ac.right.values if ac.right is not None else None
    return f"P={ac.source.name} Q={ac.target.name} left={left} right={right}"


def _vector(reports):
    return " ".join(f"{r.law}={r.holds}" for r in reports)


def chain_failures(theorem, ac):
    """The chain's truth vector, when two of its laws disagree on ac."""
    _, chain = THEOREMS[theorem]
    reports = [laws.eval_law(law_id, ac) for law_id in chain]
    values = {r.holds for r in reports}
    return [f"{_describe(ac)} {_vector(reports)}"] if {True, False} <= values else []


# (name, antecedent, consequent): each reciprocity law implies its
# modular-connection twin
DERIVATIONS = (("RF0=>RM0", "RF0", "RM0"), ("LF0=>LM0", "LF0", "LM0"))


def derivation_failures(ac):
    """Each derivation whose antecedent holds on ac and consequent fails, with its witness."""
    lines = []
    for name, antecedent, consequent in DERIVATIONS:
        if laws.eval_law(antecedent, ac).holds:
            report = laws.eval_law(consequent, ac)
            if report.holds is False:
                lines.append(f"{_describe(ac)} {name}: {report.witness.render()}")
    return lines


def modularity_forms(P, Q):
    """The biconditionals asserted between bounded lattices P -> Q, as (name, lhs, rhs laws)."""
    if not all(L.is_lattice and L.is_bounded for L in (P, Q)):
        return []
    forms = []
    if P.is_modular:
        forms.append(("LM0<=>LF0[P modular]", ("LM0",), ("LF0",)))
    if Q.is_modular:
        forms.append(("RM0<=>RF0[Q modular]", ("RM0",), ("RF0",)))
    if P.is_modular and Q.is_modular:
        forms.append(("LM0&RM0<=>LF0&RF0[both modular]", ("LM0", "RM0"), ("LF0", "RF0")))
    return forms


def modularity_failures(ac):
    """Each modularity biconditional whose two sides differ on ac, none of its laws skipped."""
    lines = []
    for name, lhs, rhs in modularity_forms(ac.source, ac.target):
        reports = [laws.eval_law(law_id, ac) for law_id in lhs + rhs]
        values = [r.holds for r in reports]
        if None not in values and all(values[:len(lhs)]) != all(values[len(lhs):]):
            lines.append(f"{_describe(ac)} {name}: {_vector(reports)}")
    return lines


def composition_failures(r, s, law_id):
    """The witness of law_id on r followed by s, when it holds on both legs and fails there."""
    if not (laws.eval_law(law_id, r).holds and laws.eval_law(law_id, s).holds):
        return []
    report = laws.eval_law(law_id, compose_adjoint(r, s))
    if report.holds is not False:
        return []
    legs = f"{_describe(r)} ; {_describe(s)}"
    return [f"{legs} {law_id} stable under composition: {report.witness.render()}"]


def _composable(lattices):
    """Per triple P -> Q -> S with adjoint connections on both legs, its cases (r, s, law)."""
    for P in lattices:
        for Q in lattices:
            first = _adjoint_connections(P, Q)
            if not first:
                continue
            for S in lattices:
                second = _adjoint_connections(Q, S)
                if second:
                    yield product(first, second, ("LF0", "RF0"))


# suite -> (the lattices it visits, the cases of each unit it walks over
# them, the failure lines of one case)
ORACLE_SUITES = {
    **{
        name: (lambda L: True, partial(_pairs, connections), partial(chain_failures, name))
        for name, connections in THEOREM_CONNECTIONS.items()
    },
    "derivations": (lambda L: True, partial(_pairs, _adjoint_connections), derivation_failures),
    "modularity": (lambda L: True, partial(_pairs, _adjoint_connections), modularity_failures),
    "composition": (lambda L: L.size <= 4, _composable, lambda case: composition_failures(*case)),
}


def oracle_run_suite(name, lattices):
    """Run one suite on objects: its units count as pairs, and each failure line as a disagreement."""
    try:
        visits, units, failures = ORACLE_SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}") from None
    lattices = [L for L in lattices if visits(L)]
    pairs = cases = 0
    details = []
    for unit in units(lattices):
        pairs += 1
        for case in unit:
            cases += 1
            for line in failures(case):
                details.append(f"disagree {name} {line}")
    return SuiteResult(name, len(lattices), pairs, cases, len(details), tuple(details))
