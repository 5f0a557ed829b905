"""Brute-force oracles shared by the test modules."""

from ordbench import Connection, SizeBoundExceeded


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
