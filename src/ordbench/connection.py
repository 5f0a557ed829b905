"""Connections between posets and their adjoint maps.

A connection from P to Q is a relation closed under weakening on both
sides: a <= b, b R c, c <= d imply a R d.  A connection may possess a left
adjoint map f (f(x) <= y iff x R y), a right adjoint map g (x R y iff
x <= g(y)), both, or neither; when both exist they form a Galois
connection.  Adjoints are unique, so a connection is faithfully described
by either map.

The defining biconditionals say that column y of R is the principal
down-set of g(y), and row x the principal up-set of f(x), a down-set of Q's
dual.  So each adjoint value is one mask looked up in a ``down_index``, P's
for a column and Q.op's for a row; a mask that is no element's means no
adjoint.  g's left adjoint is its closed-form right adjoint between the duals.

An adjoint connection is its maps: monotone f and g are adjoint exactly
when x <= g(f(x)) and f(g(y)) <= y for all x, y (unit and counit).  Its
relation is read off an order table when first read; only the relational
:func:`compose` of two arbitrary connections fills a table cell by cell.

The left map of a connection with both adjoints preserves bottom and every
join that exists, so the adjoint connections P -> Q are enumerated over the
monotone maps that do: the walk gives an element that is the join of two
earlier ones the join of their values, drops a partial value table as soon
as one of its joins fails, and keeps a survivor f when its closed-form
right adjoint exists.  Between finite lattices every survivor is kept.  The
walk yields value tables; the enumeration builds validated maps from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .errors import (
    DimensionMismatch,
    MissingAdjoint,
    NotAdjoint,
    SourceTargetMismatch,
)
from .lattice import (
    FiniteLattice,
    MonotoneMap,
    _backtrack,
    _mask,
    compose_maps,
    down_set,
)


@dataclass(frozen=True, repr=False)
class Connection:
    """A weakening-closed relation between two posets, as a boolean table.

    ``rel`` has ``source.size`` rows of ``target.size`` bools; any sequence
    of sequences is accepted and stored as a tuple of row tuples.
    """

    source: FiniteLattice
    target: FiniteLattice
    rel: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        rel = tuple(map(tuple, self.rel))
        n, m = self.source.size, self.target.size
        if len(rel) != n or any(len(row) != m for row in rel):
            raise DimensionMismatch(f"relation table must be {n}x{m}")
        object.__setattr__(self, "rel", rel)

    def __repr__(self) -> str:
        pairs = sum(1 for row in self.rel for v in row if v)
        return f"Connection({self.source.name}->{self.target.name}, pairs={pairs})"


@dataclass(frozen=True, repr=False)
class AdjointConnection:
    """An adjoint connection, as its left map f: P -> Q and right map g: Q -> P.

    Either map may be absent, but not both.  With both present, construction
    checks that g runs Q -> P and that f -| g by unit and counit.  ``conn``
    is read off a present map on first use.
    """

    left: Optional[MonotoneMap]
    right: Optional[MonotoneMap]

    def __post_init__(self):
        f, g = self.left, self.right
        if f is None or g is None:
            if f is None and g is None:
                raise MissingAdjoint("an adjoint connection needs at least one adjoint map")
            return
        if g.source != f.target or g.target != f.source:
            raise SourceTargetMismatch("right map does not run back along the left map")
        _check_adjoint(f.source, f.target, f.values, g.values)

    @property
    def source(self) -> FiniteLattice:
        return self.left.source if self.left is not None else self.right.target

    @property
    def target(self) -> FiniteLattice:
        return self.left.target if self.left is not None else self.right.source

    @cached_property
    def conn(self) -> Connection:
        if self.left is not None:
            return connection_of_monotone_left(self.left)
        return connection_of_monotone_right(self.right)

    @property
    def is_adjoint(self) -> bool:
        return self.left is not None and self.right is not None

    def __repr__(self) -> str:
        lv = self.left.values if self.left else None
        rv = self.right.values if self.right else None
        return (
            f"AdjointConnection({self.source.name}->{self.target.name}, "
            f"left={lv}, right={rv})"
        )


def _check_adjoint(P: FiniteLattice, Q: FiniteLattice, f, g) -> None:
    """Raise NotAdjoint unless f: P -> Q and g: Q -> P, as value tables, have a unit and counit.

    That is, x <= g(f(x)) for every x of P and f(g(y)) <= y for every y of Q.
    """
    unit = all(P.leq[x][g[fx]] for x, fx in enumerate(f))
    if not (unit and all(Q.leq[f[gy]][y] for y, gy in enumerate(g))):
        raise NotAdjoint("left and right maps are not adjoint")


def find_weakening_violation(source, target, rel) -> Optional[tuple[int, int, int, int]]:
    """First quadruple (a, b, c, d) with a <= b R c <= d but not a R d, or None."""
    n, m = source.size, target.size
    if len(rel) != n or any(len(row) != m for row in rel):
        raise DimensionMismatch(f"relation table must be {n}x{m}")
    for b in range(n):
        row = rel[b]
        for c in range(m):
            if row[c]:
                above = target.leq[c]
                for d in range(m):
                    if above[d] and not row[d]:
                        return (b, b, c, d)
    for a in range(n):
        for b in range(n):
            if a != b and source.leq[a][b]:
                ra, rb = rel[a], rel[b]
                for c in range(m):
                    if rb[c] and not ra[c]:
                        return (a, b, c, c)
    return None


def is_connection(source, target, rel) -> bool:
    """True iff the weakening law holds for all quadruples."""
    return find_weakening_violation(source, target, rel) is None


def _columns(rel, target: FiniteLattice) -> tuple[tuple[bool, ...], ...]:
    """The columns of a relation table into ``target``, also when it has no rows."""
    return tuple(zip(*rel)) if rel else ((),) * target.size


def opposite(c: Connection) -> Connection:
    """The transposed relation, as a connection between the cached dual posets."""
    return Connection(c.target.op, c.source.op, _columns(c.rel, c.target))


def find_left_adjoint(c: Connection) -> Optional[MonotoneMap]:
    """The unique map f with f(x) <= y iff x R y, or None.

    Row x of R must be the up-set of f(x), a down-set of Q's dual: a lookup in Q.op's index.
    """
    index = c.target.op.down_index
    values = tuple(index.get(_mask(row)) for row in c.rel)
    return None if None in values else MonotoneMap(c.source, c.target, values)


def find_right_adjoint(c: Connection) -> Optional[MonotoneMap]:
    """The unique map g with x R y iff x <= g(y), or None.

    Column y of R must be the down-set of g(y): a lookup in P's index.
    """
    index = c.source.down_index
    values = tuple(index.get(_mask(col)) for col in _columns(c.rel, c.target))
    return None if None in values else MonotoneMap(c.target, c.source, values)


def connection_of_monotone_left(f: MonotoneMap) -> Connection:
    """The connection x R y iff f(x) <= y; find_left_adjoint recovers f."""
    return Connection(f.source, f.target, tuple(f.target.leq[v] for v in f.values))


def connection_of_monotone_right(g: MonotoneMap) -> Connection:
    """The connection x R y iff x <= g(y): P's order columns at g(y), transposed."""
    P = g.target
    return Connection(P, g.source, _columns([P.geq[v] for v in g.values], P))


def _right_adjoints(P: FiniteLattice, Q: FiniteLattice):
    """The right adjoint in closed form of maps P -> Q: f's value table to g's, or None.

    g(y) is the element whose down-set is {x : f(x) <= y}, if that set is principal.
    """
    index, above = P.down_index, Q.up_sets

    def right(f: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        pre = [0] * Q.size
        for x, fx in enumerate(f):
            for y in above[fx]:
                pre[y] |= 1 << x
        g = tuple(map(index.get, pre))
        return None if None in g else g

    return right


def left_adjoint_connection(f: MonotoneMap) -> AdjointConnection:
    """f's adjoint connection, with the right adjoint when it exists."""
    g = _right_adjoints(f.source, f.target)(f.values)
    return AdjointConnection(f, None if g is None else MonotoneMap(f.target, f.source, g))


def right_adjoint_connection(g: MonotoneMap) -> AdjointConnection:
    """g's adjoint connection, with its left adjoint (its right adjoint between the duals) if any."""
    f = _right_adjoints(g.source.op, g.target.op)(g.values)
    return AdjointConnection(None if f is None else MonotoneMap(g.target, g.source, f), g)


def make_adjoint(c: Connection) -> Optional[AdjointConnection]:
    """c as the adjoint connection of its two adjoints; None if either is missing."""
    left = find_left_adjoint(c)
    if left is None:
        return None
    right = find_right_adjoint(c)
    if right is None:
        return None
    return AdjointConnection(left, right)


def compose(r: Connection, s: Connection) -> Connection:
    """Relational composite: x (S.R) z iff some y has x R y and y S z."""
    if r.target != s.source:
        raise SourceTargetMismatch(
            f"cannot compose ...->{r.target.name} with {s.source.name}->..."
        )
    mid = range(r.target.size)
    rel = tuple(
        tuple(any(r.rel[x][y] and s.rel[y][z] for y in mid) for z in range(s.target.size))
        for x in range(r.source.size)
    )
    return Connection(r.source, s.target, rel)


def compose_adjoint(r: AdjointConnection, s: AdjointConnection) -> AdjointConnection:
    """Composite of two adjoint connections: the composed left and right maps."""
    if not (r.is_adjoint and s.is_adjoint):
        raise MissingAdjoint("compose_adjoint needs fully adjoint connections")
    return AdjointConnection(compose_maps(r.left, s.left), compose_maps(s.right, r.right))


def restrict_left(ac: AdjointConnection, anchor: int) -> AdjointConnection:
    """Restrict a left adjoint connection to anchor-down in P and f(anchor)-down in Q.

    Monotonicity makes the restricted left map total into f(anchor)-down; a
    right adjoint of the restriction is attached when it exists.
    """
    if ac.left is None:
        raise MissingAdjoint("restrict_left needs a left adjoint")
    f = ac.left.values
    dn_p = down_set(ac.source, anchor)
    dn_q = down_set(ac.target, f[anchor])
    pos_q = {e: i for i, e in enumerate(dn_q.members)}
    return left_adjoint_connection(
        MonotoneMap(dn_p.view, dn_q.view, tuple(pos_q[f[a]] for a in dn_p.members))
    )


def _join_preserving_maps(P: FiniteLattice, Q: FiniteLattice) -> Iterator[tuple[int, ...]]:
    """Value tables of the monotone maps P -> Q that preserve P's bottom and joins.

    The left map of every adjoint connection P -> Q is one of them; they come
    in lexicographic order.
    A pair whose join is one of its members needs no check: monotonicity
    already preserves that join.  An index k that is the join of two earlier
    indices a and b has one value to try, the join in Q of the values at a
    and b, and none when that join does not exist; every other pair's join
    is checked once both it and its members have values.
    """
    n = P.size
    choices = [range(Q.size)] * n
    if P.bottom is not None:
        choices[P.bottom] = () if Q.bottom is None else (Q.bottom,)
    forced = [None] * n
    joins = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            k = P.join[a][b]
            if k is None or k == a or k == b:
                continue
            if b < k and forced[k] is None:
                forced[k] = (a, b)
            else:
                joins[max(b, k)].append((a, b, k))
    return _backtrack(P, Q, choices, joins, forced)


def _adjoint_tables(P: FiniteLattice, Q: FiniteLattice) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The value tables (f, g) of every adjoint connection P -> Q, ordered by f; no map is built."""
    right = _right_adjoints(P, Q)
    for f in _join_preserving_maps(P, Q):
        if (g := right(f)) is not None:
            yield f, g


def enumerate_adjoint_connections(P: FiniteLattice, Q: FiniteLattice) -> list[AdjointConnection]:
    """All adjoint connections P -> Q, ordered lexicographically by left map table.

    The left map f of one, with right map g, preserves bottom and every join
    that exists in P: f(a v b) <= y iff a v b <= g(y) iff a <= g(y) and
    b <= g(y) iff f(a) <= y and f(b) <= y, so f(a v b) is the join of f(a)
    and f(b) in Q; likewise f(bottom) <= y for every y.  The enumeration
    therefore walks only the monotone maps that preserve them: it tries only
    that join at an element that is the join of two earlier ones, drops a
    partial table as soon as a join check fails, and loses no adjoint
    connection on any finite poset.  The closed-form right adjoint decides
    which candidates are kept, and between finite lattices keeps every one;
    each kept pair is checked by unit and counit.  Nothing is cached: each
    call walks afresh and returns a new list.
    """
    return [
        AdjointConnection(MonotoneMap(P, Q, f), MonotoneMap(Q, P, g))
        for f, g in _adjoint_tables(P, Q)
    ]
