from itertools import combinations, permutations

import pytest

from ordbench import SizeBoundExceeded
from ordbench.posetgen import generated_lattices


def oracle_bounded_lattice_count(n):
    """Independent oracle: filter all upper-triangular order matrices.

    Every poset relabels so that leq only points upward in index, so
    enumerating all reflexive-transitive upper-triangular matrices and
    deduplicating by permutation covers every isomorphism class.
    """
    pairs = list(combinations(range(n), 2))
    classes = set()
    for bits in range(1 << len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                leq[i][j] = True
        if any(
            leq[a][b] and leq[b][c] and not leq[a][c]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            continue
        if not _bounded_lattice(leq, n):
            continue
        best = min(_encode(leq, perm, n) for perm in permutations(range(n)))
        classes.add(best)
    return len(classes)


def _encode(leq, perm, n):
    code = 0
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                code |= 1 << (perm[i] * n + perm[j])
    return code


def _bounded_lattice(leq, n):
    if not any(all(leq[a][x] for x in range(n)) for a in range(n)):
        return False
    if not any(all(leq[x][a] for x in range(n)) for a in range(n)):
        return False
    for a in range(n):
        for b in range(n):
            lows = [c for c in range(n) if leq[c][a] and leq[c][b]]
            if not any(all(leq[d][c] for d in lows) for c in lows):
                return False
            ups = [c for c in range(n) if leq[a][c] and leq[b][c]]
            if not any(all(leq[c][d] for d in ups) for c in ups):
                return False
    return True


def test_generated_counts_match_independent_oracle():
    lattices = generated_lattices(5)
    by_size = {}
    for L in lattices:
        by_size[L.size] = by_size.get(L.size, 0) + 1
    for n in range(1, 6):
        assert by_size.get(n, 0) == oracle_bounded_lattice_count(n)
    # spelled out: sizes 1..5 give 1, 1, 1, 2, 5 bounded lattices up to iso
    assert [by_size[n] for n in range(1, 6)] == [1, 1, 1, 2, 5]


def test_generated_lattices_are_valid_and_deterministic():
    first = generated_lattices(5)
    second = generated_lattices(5)
    assert [L.name for L in first] == [L.name for L in second]
    for L in first:
        assert L.is_lattice and L.is_bounded
    sizes = [L.size for L in first]
    assert sizes == sorted(sizes)


def test_generated_contains_pentagon_and_diamond():
    lattices = [L for L in generated_lattices(5) if L.size == 5]
    mod_flags = sorted(L.is_modular for L in lattices)
    # exactly one non-modular 5-element lattice exists: the pentagon
    assert mod_flags.count(False) == 1
    # exactly one is modular-not-distributive: the diamond
    assert sum(1 for L in lattices if L.is_modular and not L.is_distributive) == 1


def test_generated_size_6_count():
    by_size = {}
    for L in generated_lattices(6):
        by_size[L.size] = by_size.get(L.size, 0) + 1
    assert by_size[6] == oracle_bounded_lattice_count(6)


def test_generation_bound():
    with pytest.raises(SizeBoundExceeded):
        generated_lattices(7)


def test_generation_rejects_negative_sizes():
    for size in (-1, -7):
        with pytest.raises(SizeBoundExceeded):
            generated_lattices(size)
    assert generated_lattices(0) == ()
