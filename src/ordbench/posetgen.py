"""Exhaustive generation of small bounded lattices up to isomorphism.

Posets are grown one maximal element at a time, each new element taking a
set of existing ones as its strict down-set, so the identity labelling is
a linear extension of every poset grown.  Every prefix of a linear
extension of a lattice is a down-set of it, and a down-set of a lattice is
closed under meets; so the new down-set must meet each existing element's
down-set in a principal one.  That also makes it a down-set, and makes
every poset grown a meet-semilattice, each once; one with a top is a
bounded lattice.  Those are deduplicated by a canonical form (minimum order
table over all relabellings).  Sizes are capped at 6, because the canonical
form tries all k! relabellings of each lattice the walk finds.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import SizeBoundExceeded
from .lattice import FiniteLattice, from_leq

MAX_GENERATED_SIZE = 6


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
    found: dict[int, set[int]] = {k: set() for k in range(1, max_size + 1)}

    def walk(downs: list[int]):
        k = len(downs)
        if k >= 1 and (1 << k) - 1 in downs:  # a meet-semilattice with a top
            found[k].add(_canonical_code(downs))
        if k == max_size:
            return
        principal = set(downs)  # downs[i] is the bitmask of {j | j <= i}
        for below in range(1 << k):
            if all(below & d in principal for d in downs):
                walk(downs + [below | (1 << k)])

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
