"""Commutative quantales at finite scale.

A quantale here is a finite bounded lattice carrying a commutative,
associative multiplication that preserves joins in each argument (binary
joins plus the bottom absorb law suffice at finite scale).  Multiplication
by a fixed element is then a left adjoint whose right adjoint is the
residual a:e, the largest c with c*e <= a; this is the bridge to the
connection laws: an element is principal exactly when its multiplication
connection satisfies both reciprocity laws, and weakly principal when it
satisfies both modular-connection laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidModulus,
    NotAssociative,
    NotBounded,
    NotCommutative,
    NotJoinPreserving,
    SizeBoundExceeded,
)
from .lattice import FiniteLattice, MonotoneMap, _divisor_order, _divisors
from .connection import AdjointConnection
from .laws import LawReport, Witness, eval_law

# Bounds on `zn_ideal_quantale`: trial division runs to sqrt(n), and the
# principal-element report is cubic in the number of divisors.
MAX_MODULUS = 10**12
MAX_DIVISORS = 240


@dataclass(frozen=True, repr=False)
class Quantale:
    """A bounded lattice with a validated commutative multiplication table."""

    lattice: FiniteLattice
    mult: tuple[tuple[int, ...], ...]
    unit: Optional[int]  # element acting as multiplicative identity, if any

    @property
    def is_integral(self) -> bool:
        return self.unit is not None and self.unit == self.lattice.top

    def product(self, a: int, b: int) -> int:
        return self.mult[self.lattice.check_element(a)][self.lattice.check_element(b)]

    def __repr__(self) -> str:
        return f"Quantale({self.lattice.name!r}, size={self.lattice.size})"


def build_quantale(lattice: FiniteLattice, mult) -> Quantale:
    """Validate every quantale axiom exhaustively and build the value.

    Raises NotBounded, NotCommutative, NotAssociative or NotJoinPreserving
    (the last three carrying a witness) when an axiom fails.
    """
    if not (lattice.is_lattice and lattice.is_bounded):
        raise NotBounded(f"{lattice.name}: a quantale needs a bounded lattice")
    n = lattice.size
    labels = lattice.labels
    table = tuple(tuple(row) for row in mult)
    if len(table) != n or any(len(row) != n for row in table):
        raise DimensionMismatch(f"multiplication table must be {n}x{n}")
    for row in table:
        for v in row:
            if not 0 <= v < n:
                raise IndexOutOfRange(f"multiplication value {v} out of range")
    for a in range(n):
        for b in range(a + 1, n):
            if table[a][b] != table[b][a]:
                raise NotCommutative(
                    f"{labels[a]}*{labels[b]} = {labels[table[a][b]]} but "
                    f"{labels[b]}*{labels[a]} = {labels[table[b][a]]}",
                    witness=(a, b),
                )
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAssociative(
                        f"({labels[a]}*{labels[b]})*{labels[c]} != "
                        f"{labels[a]}*({labels[b]}*{labels[c]})",
                        witness=(a, b, c),
                    )
    bot = lattice.bottom
    join = lattice.join
    for a in range(n):
        if table[a][bot] != bot:
            raise NotJoinPreserving(
                f"{labels[a]}*{labels[bot]} = {labels[table[a][bot]]}, expected {labels[bot]}",
                witness=(a, bot),
            )
        for b in range(n):
            for c in range(n):
                lhs = table[a][join[b][c]]
                rhs = join[table[a][b]][table[a][c]]
                if lhs != rhs:
                    raise NotJoinPreserving(
                        f"{labels[a]}*({labels[b]} v {labels[c]}) = {labels[lhs]} but "
                        f"({labels[a]}*{labels[b]}) v ({labels[a]}*{labels[c]}) = {labels[rhs]}",
                        witness=(a, b, c),
                    )
    unit = next((e for e in range(n) if all(table[e][x] == x for x in range(n))), None)
    return Quantale(lattice, table, unit)


def zn_ideal_quantale(n: int) -> Quantale:
    """The quantale of ideals of the integers mod n.

    Elements are divisors d of n standing for the ideal (d); order is
    reverse divisibility, join is the ideal sum (gcd), meet the intersection
    (lcm) and multiplication the ideal product gcd(a*b, n).  The lattice is
    ``divisor_lattice(n)``, built from the same divisor list as the table.
    The ideal product is a quantale by construction, with unit (1), so the
    axioms are not re-checked here; ``build_quantale`` checks a table read
    from a file.  Raises SizeBoundExceeded when n exceeds MAX_MODULUS
    (before any division) or has more than MAX_DIVISORS divisors (before
    any table).
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    if n > MAX_MODULUS:
        raise SizeBoundExceeded(f"modulus {n} exceeds the bound {MAX_MODULUS}")
    divs = _divisors(n)
    if len(divs) > MAX_DIVISORS:
        raise SizeBoundExceeded(
            f"modulus {n} has {len(divs)} divisors, more than the bound {MAX_DIVISORS}"
        )
    pos = {d: i for i, d in enumerate(divs)}
    mult = tuple(tuple(pos[gcd(a * b, n)] for b in divs) for a in divs)
    return Quantale(_divisor_order(divs, f"Div{n}"), mult, pos[1])


def residual(q: Quantale, a: int, e: int) -> int:
    """The largest c with c*e <= a, computed as the join of all such c."""
    L = q.lattice
    L.check_element(a)
    L.check_element(e)
    acc = L.bottom
    for c in range(L.size):
        if L.leq[q.mult[c][e]][a]:
            acc = L.join[acc][c]
    return acc


def element_connection(q: Quantale, e: int) -> AdjointConnection:
    """The adjoint connection of multiplication by e.

    Left map b -> b*e, right map a -> a:e; construction checks the
    adjunction, b <= (b*e):e and (a:e)*e <= a, so the result plugs straight
    into the law evaluators.
    """
    L = q.lattice
    L.check_element(e)
    f = MonotoneMap(L, L, tuple(q.mult[b][e] for b in range(L.size)))
    g = MonotoneMap(L, L, tuple(residual(q, a, e) for a in range(L.size)))
    return AdjointConnection(f, g)


def _principal_law_report(law_id, labels, vars_, failure):
    if failure is None:
        return LawReport(law_id, True, None, None)
    case, lhs, rhs = failure
    witness = Witness(vars_, case, lhs, rhs, (labels,) * len(vars_), labels)
    return LawReport(law_id, False, witness, None)


def is_principal(q: Quantale, e: int) -> tuple[LawReport, LawReport]:
    """Evaluate the two principal-element laws for e, directly from the tables.

    Law (i): c ^ d*e = ((c:e) ^ d)*e for all c, d.
    Law (ii): a v (b:e) = (a*e v b):e for all a, b.

    The element is principal iff both hold.  The same pair of verdicts must
    come out of the reciprocity laws LF0/RF0 evaluated on the multiplication
    connection; that equivalence is asserted here as a cross-check.
    """
    L = q.lattice
    L.check_element(e)
    n, meet, join, mult = L.size, L.meet, L.join, q.mult
    res = [residual(q, x, e) for x in range(n)]

    failure_i = None
    for c in range(n):
        for d in range(n):
            lhs = meet[c][mult[d][e]]
            rhs = mult[meet[res[c]][d]][e]
            if lhs != rhs:
                failure_i = ((c, d), lhs, rhs)
                break
        if failure_i:
            break
    failure_ii = None
    for a in range(n):
        for b in range(n):
            lhs = join[a][res[b]]
            rhs = res[join[mult[a][e]][b]]
            if lhs != rhs:
                failure_ii = ((a, b), lhs, rhs)
                break
        if failure_ii:
            break

    report_i = _principal_law_report("principal-i", L.labels, ("c", "d"), failure_i)
    report_ii = _principal_law_report("principal-ii", L.labels, ("a", "b"), failure_ii)

    ec = element_connection(q, e)
    lf0 = eval_law("LF0", ec)
    rf0 = eval_law("RF0", ec)
    if lf0.holds != report_i.holds or rf0.holds != report_ii.holds:
        raise RuntimeError(
            f"principal-element cross-check failed for {L.labels[e]}: "
            f"law(i)={report_i.holds} LF0={lf0.holds} law(ii)={report_ii.holds} RF0={rf0.holds}"
        )
    return report_i, report_ii


def is_weak_principal(q: Quantale, e: int) -> tuple[LawReport, LawReport]:
    """Evaluate LM0 and RM0 on the multiplication connection of e."""
    ec = element_connection(q, e)
    return eval_law("LM0", ec), eval_law("RM0", ec)
