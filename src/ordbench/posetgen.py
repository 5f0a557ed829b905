"""Exhaustive generation of small posets and bounded lattices up to isomorphism.

Posets are grown one maximal element at a time: each new element picks an
order ideal of the already-built poset as its strict down-set, which
enumerates exactly the posets whose identity labelling is a linear
extension, once each.  Survivors are filtered to bounded lattices and
deduplicated by a canonical form (minimum order table over all
relabellings).  Sizes are capped at 6; beyond that the poset count makes
exhaustive search pointless at desk scale.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import SizeBoundExceeded
from .lattice import FiniteLattice, _bounds, from_leq

MAX_GENERATED_SIZE = 6


def _ideals(downs: list[int], k: int) -> list[int]:
    # downs[i] is the bitmask of {j | j <= i}, bit i included
    out = []
    for s in range(1 << k):
        rest = s
        ok = True
        while rest:
            j = (rest & -rest).bit_length() - 1
            if downs[j] & ~s:
                ok = False
                break
            rest &= rest - 1
        if ok:
            out.append(s)
    return out


def _is_bounded_lattice(downs: list[int]) -> bool:
    k = len(downs)
    if (1 << k) - 1 not in downs:
        return False  # no top: most grown posets stop here, before any table
    ups = [sum(1 << j for j in range(k) if downs[j] >> i & 1) for i in range(k)]
    bottom, _, meet, join = _bounds(downs, ups)
    return bottom is not None and all(None not in row for row in meet + join)


def _canonical_code(downs: list[int]) -> int:
    k = len(downs)
    leq = [[bool(downs[j] >> i & 1) for j in range(k)] for i in range(k)]
    best = None
    for perm in permutations(range(k)):
        code = 0
        for i in range(k):
            for j in range(k):
                if leq[i][j]:
                    code |= 1 << (perm[i] * k + perm[j])
        if best is None or code < best:
            best = code
    return best


@lru_cache(maxsize=None)
def generated_lattices(max_size: int) -> tuple[FiniteLattice, ...]:
    """Every bounded lattice with 1..max_size elements, once per isomorphism class.

    Deterministic order: size ascending, then canonical order-table code.
    Size 0 gives no lattice; a size below 0 or above MAX_GENERATED_SIZE
    raises SizeBoundExceeded.
    """
    if not 0 <= max_size <= MAX_GENERATED_SIZE:
        raise SizeBoundExceeded(
            f"exhaustive generation is bounded to size 0 to {MAX_GENERATED_SIZE}"
        )
    found: dict[int, dict[int, list[int]]] = {k: {} for k in range(1, max_size + 1)}

    def walk(downs: list[int]):
        k = len(downs)
        if k >= 1 and _is_bounded_lattice(downs):
            code = _canonical_code(downs)
            found[k].setdefault(code, list(downs))
        if k == max_size:
            return
        for ideal in _ideals(downs, k):
            walk(downs + [ideal | (1 << k)])

    walk([])
    out = []
    for k in range(1, max_size + 1):
        for idx, code in enumerate(sorted(found[k])):
            leq = tuple(
                tuple(bool(code >> (i * k + j) & 1) for j in range(k)) for i in range(k)
            )
            labels = tuple(str(i) for i in range(k))
            out.append(from_leq(f"G{k}.{idx}", labels, leq))
    return tuple(out)
