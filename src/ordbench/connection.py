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
adjoint.  A map's right adjoint is read in closed form, with no relation
built, and g's left adjoint is its right adjoint between the duals.

An adjoint connection is its maps: monotone f and g are adjoint exactly
when x <= g(f(x)) and f(g(y)) <= y for all x, y (unit and counit).  No
relation is built from a map here; the object-level constructors (a map's
relation, composites, enumeration into objects) are the tests' oracles.

The left map of a connection with both adjoints preserves bottom and every
join that exists, so the adjoint connections P -> Q are walked over the
monotone maps that do: the walk gives an element that is the join of two
earlier ones the join of their values, drops a partial value table as soon
as one of its joins fails, and keeps a survivor f when its closed-form
right adjoint exists.  Between finite lattices every survivor is kept.  The
walk yields value tables (f, g); the suites and the search read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import DimensionMismatch, MissingAdjoint, NotAdjoint, SourceTargetMismatch
from .lattice import FiniteLattice, MonotoneMap, _backtrack, _mask


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
    checks that g runs Q -> P and that f -| g by unit and counit.
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


def _columns(rel, target: FiniteLattice) -> tuple[tuple[bool, ...], ...]:
    """The columns of a relation table into ``target``, also when it has no rows."""
    return tuple(zip(*rel)) if rel else ((),) * target.size


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
    """The value tables (f, g) of every adjoint connection P -> Q, ordered by f; no map is built.

    The left map f of one, with right map g, preserves bottom and every join
    that exists in P: f(a v b) <= y iff a v b <= g(y) iff a <= g(y) and
    b <= g(y) iff f(a) <= y and f(b) <= y.  So the walk over those maps
    loses no adjoint connection on any finite poset, and the closed-form
    right adjoint decides which are kept.  Nothing is cached: each call
    walks afresh.
    """
    right = _right_adjoints(P, Q)
    for f in _join_preserving_maps(P, Q):
        if (g := right(f)) is not None:
            yield f, g
