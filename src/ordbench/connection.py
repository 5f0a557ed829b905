"""Connections between posets and their adjoint maps.

A connection from P to Q is a relation closed under weakening on both
sides: a <= b, b R c, c <= d imply a R d.  A connection may possess a left
adjoint map f (f(x) <= y iff x R y), a right adjoint map g (x R y iff
x <= g(y)), both, or neither; when both exist they form a Galois
connection.  Adjoints are unique, so a connection is faithfully described
by either map.

The defining biconditionals say that row x of R is the principal up-set of
f(x) and column y of R is the principal down-set of g(y).  A left adjoint
therefore exists exactly when every row of R is a row of Q's order table,
and a right adjoint exactly when every column of R is a column of P's; each
adjoint value is one lookup of a row (column), with nothing left to verify.

An adjoint connection is its maps: monotone f and g are adjoint exactly
when x <= g(f(x)) and f(g(y)) <= y for all x, y (unit and counit).  Its
relation is read off an order table when first read; only the relational
:func:`compose` of two arbitrary connections fills a table cell by cell.

The left map of a connection with both adjoints preserves bottom and every
join that exists, so the adjoint connections P -> Q are enumerated over the
monotone maps that do: the walk gives an element that is the join of two
earlier ones the join of their values, drops a partial value table as soon
as one of its joins fails, and the lookup of the right adjoint still
decides which survivors are kept.  Between finite lattices every survivor
is kept.
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
    compose_maps,
    down_set,
)


@dataclass(frozen=True, repr=False)
class Connection:
    """A weakening-closed relation between two posets, as a boolean table.

    ``rel`` has ``source.size`` rows of ``target.size`` bools; any sequence
    of sequences is accepted and stored as a tuple of row tuples, which the
    adjoint finders look up as dictionary keys.
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
        P, Q, fv, gv = f.source, f.target, f.values, g.values
        unit = all(P.leq[x][gv[fx]] for x, fx in enumerate(fv))
        if not (unit and all(Q.leq[fv[gy]][y] for y, gy in enumerate(gv))):
            raise NotAdjoint("left and right maps are not adjoint")

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

    The biconditional says row x of R is the up-set of f(x), so f(x) is the
    element of Q whose order row equals it; None if some row is no element's.
    """
    by_row = {row: y for y, row in enumerate(c.target.leq)}
    values = tuple(by_row.get(row) for row in c.rel)
    if None in values:
        return None
    return MonotoneMap(c.source, c.target, values)


def find_right_adjoint(c: Connection) -> Optional[MonotoneMap]:
    """The unique map g with x R y iff x <= g(y), or None.

    Column y of R must be the down-set of g(y): a lookup among P's columns.
    """
    by_col = {col: x for x, col in enumerate(c.source.geq)}
    values = tuple(by_col.get(col) for col in _columns(c.rel, c.target))
    if None in values:
        return None
    return MonotoneMap(c.target, c.source, values)


def connection_of_monotone_left(f: MonotoneMap) -> Connection:
    """The connection x R y iff f(x) <= y; find_left_adjoint recovers f."""
    return Connection(f.source, f.target, tuple(f.target.leq[v] for v in f.values))


def connection_of_monotone_right(g: MonotoneMap) -> Connection:
    """The connection x R y iff x <= g(y): P's order columns at g(y), transposed."""
    P = g.target
    return Connection(P, g.source, _columns([P.geq[v] for v in g.values], P))


def left_adjoint_connection(f: MonotoneMap) -> AdjointConnection:
    """f's adjoint connection, with the right adjoint when it exists."""
    return AdjointConnection(f, find_right_adjoint(connection_of_monotone_left(f)))


def right_adjoint_connection(g: MonotoneMap) -> AdjointConnection:
    """g's adjoint connection, with the left adjoint when it exists."""
    return AdjointConnection(find_left_adjoint(connection_of_monotone_right(g)), g)


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


def _join_preserving_maps(P: FiniteLattice, Q: FiniteLattice) -> Iterator[MonotoneMap]:
    """Monotone maps P -> Q that send P's bottom to Q's and preserve P's joins.

    The left map of every adjoint connection P -> Q is one of them; they come
    in lexicographic order of value tables.
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


def enumerate_adjoint_connections(P: FiniteLattice, Q: FiniteLattice) -> list[AdjointConnection]:
    """All adjoint connections P -> Q, ordered lexicographically by left map table.

    The left map f of one, with right map g, preserves bottom and every join
    that exists in P: f(a v b) <= y iff a v b <= g(y) iff a <= g(y) and
    b <= g(y) iff f(a) <= y and f(b) <= y, so f(a v b) is the join of f(a)
    and f(b) in Q; likewise f(bottom) <= y for every y.  The enumeration
    therefore walks only the monotone maps that preserve them: it tries only
    that join at an element that is the join of two earlier ones, drops a
    partial table as soon as a join check fails, and loses no adjoint
    connection on any finite poset.  The row lookup of
    :func:`find_right_adjoint` still decides which candidates are kept;
    between finite lattices it accepts every one.  Nothing is cached: each
    call walks afresh and returns a new list.
    """
    out = []
    for f in _join_preserving_maps(P, Q):
        ac = left_adjoint_connection(f)
        if ac.right is not None:
            out.append(ac)
    return out
