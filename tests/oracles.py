"""Brute-force oracles shared by the test modules."""

from types import SimpleNamespace

from ordbench import Connection, NotMonotone, SizeBoundExceeded
from ordbench.laws import LAW_TABLE, _operands


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


def case_scan(law_id, ac):
    """A law's first failure by checking every case in turn, or None if it holds.

    Returns (indices, lhs, rhs) as the law's witness lists them: indices in
    the order of the law's own variables, and lhs/rhs its own sides.  The
    caller makes sure the law is not skipped on ac.
    """
    law = LAW_TABLE[law_id]
    P, Q, f, g = _operands(law, ac)
    ctx = SimpleNamespace(
        n=P.size, m=Q.size, leqP=P.leq, leqQ=Q.leq, meetQ=Q.meet, f=f, g=g,
    )
    cases = BASE_CASES[law_id[1:]](ctx)
    if law.reverse:
        cases = sorted(cases, key=lambda case: case[::-1])
    for case in cases:
        ok, lhs, rhs = law.check(P, Q, f, g, case)
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
