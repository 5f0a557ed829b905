"""Finite posets and lattices with fully materialized order tables.

Elements are dense integer indices 0..size-1; display names live in
``labels``.  All order queries go through precomputed ``leq``, ``meet`` and
``join`` tables.  Meet/join tables are partial (``None`` where no bound
exists), so genuine posets are supported, not only lattices.  Every value is
immutable after construction and can be shared freely across threads.

By antisymmetry an element is determined by its down-set, and the down-set
of a meet a ∧ b is the intersection of the down-sets of a and b.  So the
tables are filled by lookup, not by search: with each down-set held as an
int mask, meet[a][b] is the element whose mask is ``down[a] & down[b]``, or
None if no element has that mask; joins, top and bottom likewise.

Every poset read from a table or from pairs is checked by :func:`from_leq`;
a dual, derived from a checked poset, is not.  A checked poset has at most
MAX_ELEMENTS elements, so every element index fits in a byte: the law
kernels hold rows of a table as ``bytes`` and gather a whole row in C with
``bytes.translate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CycleDetected,
    DimensionMismatch,
    DuplicateLabel,
    IndexOutOfRange,
    NotAnOrder,
    NotMonotone,
    SizeBoundExceeded,
    UnknownLabel,
)

# The one bound on the size of a poset, read by every module that bounds
# one.  Below 256, each element index is a byte.
MAX_ELEMENTS = 240


@dataclass(frozen=True, repr=False)
class FiniteLattice:
    """A finite poset with computed meet/join structure and structural flags.

    Despite the name this may be a bare poset: the flags record what
    structure is actually present.  ``is_lattice``/``is_bounded`` are read
    off the tables; ``is_modular``/``is_distributive`` are computed by
    exhaustive identity checks on first use and then cached.  ``op`` is the
    dual poset, built on first use and then cached.
    """

    name: str
    labels: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[Optional[int], ...], ...]
    join: tuple[tuple[Optional[int], ...], ...]
    bottom: Optional[int]
    top: Optional[int]

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"{self.name}: no element labelled {label!r}") from None

    def check_element(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise IndexOutOfRange(f"{self.name}: element index {a} out of range")
        return a

    @cached_property
    def has_binary_meets(self) -> bool:
        return all(m is not None for row in self.meet for m in row)

    @cached_property
    def has_binary_joins(self) -> bool:
        return all(j is not None for row in self.join for j in row)

    @property
    def is_lattice(self) -> bool:
        return self.size > 0 and self.has_binary_meets and self.has_binary_joins

    @property
    def is_bounded(self) -> bool:
        return self.bottom is not None and self.top is not None

    @cached_property
    def is_modular(self) -> bool:
        """a <= c implies a v (b ^ c) = (a v b) ^ c, checked over all triples."""
        n, leq, meet, join = self.size, self.leq, self.meet, self.join
        return self.is_lattice and all(
            join[a][meet[b][c]] == meet[join[a][b]][c]
            for a in range(n)
            for c in range(n)
            if leq[a][c]
            for b in range(n)
        )

    @cached_property
    def is_distributive(self) -> bool:
        """a ^ (b v c) = (a ^ b) v (a ^ c), checked over all triples."""
        n, meet, join = self.size, self.meet, self.join
        return self.is_lattice and all(
            meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )

    @cached_property
    def geq(self) -> tuple[tuple[bool, ...], ...]:
        """The transposed order table: ``geq[a][b]`` iff b <= a."""
        return tuple(zip(*self.leq))

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """Each element's down-set as an int mask: bit c of ``down_masks[a]`` iff c <= a."""
        return tuple(map(_mask, self.geq))

    @cached_property
    def down_index(self) -> dict[int, int]:
        """Each element keyed by its down-set mask: ``down_index[down_masks[a]] == a``."""
        return {mask: a for a, mask in enumerate(self.down_masks)}

    @cached_property
    def up_sets(self) -> tuple[tuple[int, ...], ...]:
        """Each element's up-set in ascending order: ``up_sets[a]`` lists every b >= a."""
        return tuple(tuple(compress(range(self.size), row)) for row in self.leq)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The covering pairs (a, b): a < b with no element strictly between."""
        down = self.down_masks
        return tuple(
            (a, b)
            for a, up in enumerate(map(_mask, self.leq))
            for b in range(self.size)
            if a != b and up & down[b] == 1 << a | 1 << b
        )

    @cached_property
    def meet_rows(self) -> tuple[bytes, ...]:
        """Each row of the meet table as ``bytes``: ``meet_rows[a][b] == meet[a][b]``.

        Read only where every binary meet exists; a join row is ``op.meet_rows``.
        """
        return tuple(map(bytes, self.meet))

    @cached_property
    def meet_tables(self) -> tuple[bytes, ...]:
        """Each meet row padded to 256 bytes, a ``bytes.translate`` table.

        ``row.translate(meet_tables[a])`` maps every element b of ``row`` to a ^ b.
        """
        return tuple(map(_byte_table, self.meet_rows))

    @cached_property
    def op(self) -> "FiniteLattice":
        """The dual poset, the same object as ``dual(self)``."""
        return dual(self)

    def __repr__(self) -> str:
        return f"FiniteLattice({self.name!r}, size={self.size})"


@dataclass(frozen=True, repr=False)
class MonotoneMap:
    """An order-preserving map, stored as a value table over source indices.

    A map on a finite poset is monotone iff it preserves every covering
    pair, since each a <= b is a chain of covers; so construction checks the
    source's cached covers, and scans all pairs only to name the first one
    that fails.
    """

    source: FiniteLattice
    target: FiniteLattice
    values: tuple[int, ...]

    def __post_init__(self):
        n, m = self.source.size, self.target.size
        if len(self.values) != n:
            raise DimensionMismatch(
                f"map table has {len(self.values)} entries for source of size {n}"
            )
        for v in self.values:
            if not 0 <= v < m:
                raise IndexOutOfRange(f"map value {v} outside target of size {m}")
        leq_s, leq_t, values = self.source.leq, self.target.leq, self.values
        if all(leq_t[values[a]][values[b]] for a, b in self.source.covers):
            return
        for a in range(n):
            for b in range(n):
                if leq_s[a][b] and not leq_t[values[a]][values[b]]:
                    raise NotMonotone(
                        f"{self.source.labels[a]} <= {self.source.labels[b]} but "
                        f"{self.target.labels[values[a]]} !<= {self.target.labels[values[b]]}"
                    )

    def __repr__(self) -> str:
        return f"MonotoneMap({self.source.name}->{self.target.name}, {self.values})"


def _byte_table(values) -> bytes:
    """A value table of element indices as a ``bytes.translate`` table: padded to 256 bytes."""
    return bytes(values).ljust(256, b"\0")


def _check_size(name: str, n: int) -> None:
    if n > MAX_ELEMENTS:
        raise SizeBoundExceeded(f"{name}: {n} elements, more than the bound {MAX_ELEMENTS}")


def from_leq(name: str, labels: Sequence[str], leq) -> FiniteLattice:
    """Build a poset from an explicit order table, validating the order axioms.

    More than MAX_ELEMENTS labels raise SizeBoundExceeded before the table is read.
    """
    labels = tuple(labels)
    n = len(labels)
    _check_size(name, n)
    table = tuple(tuple(bool(x) for x in row) for row in leq)
    if len(table) != n or any(len(row) != n for row in table):
        raise DimensionMismatch(f"{name}: leq table must be {n}x{n}")
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(f"{name}: duplicate label {lab!r}")
        seen.add(lab)
    for a in range(n):
        if not table[a][a]:
            raise NotAnOrder(f"{name}: leq not reflexive at {labels[a]!r}")
        for b in range(n):
            if a != b and table[a][b] and table[b][a]:
                raise CycleDetected(
                    f"{name}: elements {labels[a]!r} and {labels[b]!r} lie on a cycle"
                )
            if table[a][b]:
                for c in range(n):
                    if table[b][c] and not table[a][c]:
                        raise NotAnOrder(f"{name}: leq not transitive")
    return _finalize(name, labels, table)


def _bounds(down: Sequence[int], up: Sequence[int]):
    """``bottom, top, meet, join``, looked up by down-set and up-set masks.

    Bit c of ``down[a]`` is set iff c <= a, and bit c of ``up[a]`` iff a <= c.
    """
    full = (1 << len(down)) - 1
    by_down = {d: a for a, d in enumerate(down)}
    by_up = {u: a for a, u in enumerate(up)}
    meet = tuple(tuple(by_down.get(da & db) for db in down) for da in down)
    join = tuple(tuple(by_up.get(ua & ub) for ub in up) for ua in up)
    return by_up.get(full), by_down.get(full), meet, join


def _mask(row: Sequence[bool]) -> int:
    """The int whose bit c is set iff ``row[c]``."""
    return sum(1 << c for c, x in enumerate(row) if x)


def _finalize(name, labels, leq) -> FiniteLattice:
    down = [_mask(col) for col in zip(*leq)]
    up = [_mask(row) for row in leq]
    bottom, top, meet, join = _bounds(down, up)
    return FiniteLattice(name, labels, leq, meet, join, bottom, top)


def build_poset(name: str, labels: Sequence[str], covers: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Build a poset from labels and covering (or any generating) pairs.

    ``leq`` is the reflexive-transitive closure of the pairs, checked by
    :func:`from_leq`; a cycle raises :class:`CycleDetected` instead of
    returning a value.  More labels than MAX_ELEMENTS raise SizeBoundExceeded
    before the closure is taken.
    """
    labels = tuple(labels)
    _check_size(name, len(labels))
    pos: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if lab in pos:
            raise DuplicateLabel(f"{name}: duplicate label {lab!r}")
        pos[lab] = i
    n = len(labels)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a_lab, b_lab in covers:
        if a_lab not in pos:
            raise UnknownLabel(f"{name}: unknown label {a_lab!r} in cover pair")
        if b_lab not in pos:
            raise UnknownLabel(f"{name}: unknown label {b_lab!r} in cover pair")
        leq[pos[a_lab]][pos[b_lab]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return from_leq(name, labels, leq)


def dual(L: FiniteLattice) -> FiniteLattice:
    """The opposite poset: L's own tables with order, bottom/top and meet/join swapped.

    Built once per lattice: ``dual(L) is L.op`` and ``dual(dual(L)) is L``.
    """
    D = L.__dict__.get("op")  # where the cached property ``op`` keeps it
    if D is None:
        name = L.name[:-3] if L.name.endswith("^op") else L.name + "^op"
        D = FiniteLattice(name, L.labels, L.geq, L.join, L.meet, L.top, L.bottom)
        L.__dict__["op"], D.__dict__["op"] = D, L
    return D


def _chain(k: int, name: str, labels: Optional[Sequence[str]] = None) -> FiniteLattice:
    labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(k))
    return build_poset(name, labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def _boolean(k: int, name: str) -> FiniteLattice:
    labels = tuple(format(i, f"0{k}b") for i in range(1 << k))
    leq = tuple(tuple(i & j == i for j in range(1 << k)) for i in range(1 << k))
    return from_leq(name, labels, leq)


def _divisors(n: int) -> list[int]:
    """The divisors of n in ascending order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(max(n, 0)) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divisor_order(divs: Sequence[int], name: str) -> FiniteLattice:
    """The divisors ``divs`` of a number, labelled (d), under reverse divisibility."""
    labels = tuple(f"({d})" for d in divs)
    leq = tuple(tuple(a % b == 0 for b in divs) for a in divs)
    return from_leq(name, labels, leq)


def divisor_lattice(n: int) -> FiniteLattice:
    """Divisors of n under reverse divisibility: (a) <= (b) iff b divides a.

    This models the ideals of the integers mod n ordered by inclusion; the
    orientation (bottom = (n), top = (1)) is fixed here once and inherited by
    everything built on top.  Divisors are found by trial division up to
    the square root of n.
    """
    return _divisor_order(_divisors(n), f"Div{n}")


@lru_cache(maxsize=1)
def _catalog_cached() -> tuple[FiniteLattice, ...]:
    m3 = build_poset(
        "M3",
        ("bot", "a", "b", "c", "top"),
        [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"), ("c", "top")],
    )
    n5 = build_poset(
        "N5",
        ("bot", "a", "b", "c", "top"),
        [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")],
    )
    return (
        _chain(1, "C1"),
        _chain(2, "C2"),
        _chain(3, "C3"),
        _chain(4, "C4"),
        _boolean(1, "B1"),
        _boolean(2, "B2"),
        _boolean(3, "B3"),
        m3,
        n5,
        divisor_lattice(12),
        _chain(3, "F3", ("bot", "m", "top")),
    )


def catalog() -> list[FiniteLattice]:
    """The fixed test corpus, in documented order.

    C1..C4 (chains), B1/B2/B3 (Boolean algebras with 2/4/8 elements), M3
    (diamond), N5 (pentagon), Div12 (ideals of the integers mod 12 under
    reverse divisibility), F3 (the 3-chain bot < m < top, used as a frame).
    """
    return list(_catalog_cached())


def _backtrack(source: FiniteLattice, target: FiniteLattice, choices, joins, forced) -> Iterator[tuple[int, ...]]:
    """Value tables of monotone maps source -> target, in lexicographic order, pruned.

    Values are assigned in index order.  Index i tries only the values in
    ``choices[i]``, or, when ``forced[i]`` is a pair (a, b) of earlier
    indices, only the target's join of the values at a and b, and nothing
    when that join does not exist.  Each value tried must keep the map
    monotone on the indices before i: it must lie in the target's up-set of
    every value below i and in the down-set of every value above i, an
    intersection of int masks taken once per partial table.  Once it is
    assigned, every ``(a, b, k)`` in ``joins[i]`` (indices at most i) must
    have the target's join of the values at a and b equal to the value at k.
    """
    n = source.size
    leq_s, join_t = source.leq, target.join
    up_t, down_t = tuple(map(_mask, target.leq)), target.down_masks
    every = (1 << target.size) - 1
    below = [[j for j in range(i) if leq_s[j][i]] for i in range(n)]
    above = [[j for j in range(i) if leq_s[i][j]] for i in range(n)]
    values = [0] * n

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(values)
            return
        if forced[i] is None:
            ys = choices[i]
        else:
            a, b = forced[i]
            y = join_t[values[a]][values[b]]
            ys = () if y is None else (y,)
        between = every
        for j in below[i]:
            between &= up_t[values[j]]
        for j in above[i]:
            between &= down_t[values[j]]
        for y in ys:
            if between >> y & 1:
                values[i] = y
                if all(join_t[values[a]][values[b]] == values[k] for a, b, k in joins[i]):
                    yield from rec(i + 1)

    yield from rec(0)


@lru_cache(maxsize=None)
def monotone_maps(source: FiniteLattice, target: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    """The value tables of all monotone maps source -> target, in lexicographic order.

    The walk admits only values that keep each table monotone, so no table
    is checked again as a :class:`MonotoneMap`.
    """
    n = source.size
    return tuple(_backtrack(source, target, [range(target.size)] * n, [()] * n, [None] * n))
