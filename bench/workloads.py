"""The benchmark's workloads: argv generation from a seed, and output checks.

Each workload turns a seed into the argv of every ordbench invocation that
makes up one op, and checks what each invocation printed.  The program sees
only the generated argv.  A check returns the number of cases the CLI
reports for that invocation, or raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Callable

# sha256 of `ordbench verify --suite all` stdout at the commit that defined
# this benchmark: 9 suite lines, 416 modularity disagreement lines (the
# genuine counterexamples to the one-sided refinements), `result: fail`.
VERIFY_STDOUT_SHA256 = "d2e4452809592b3a5b771066d45216b5e07230e34793a01025ef9a2d987cce90"

# Spellings of theorem 7c's violation (both lattices modular, LM0 & RM0 not
# equivalent to LF0 & RF0).  Each names the same four laws, so every one
# evaluates the same 4 x 24522 verdicts and finds no witness.
SEARCH_PREDICATES = (
    "LM0 & RM0 & !(LF0 & RF0)",
    "RF0 & LF0 & !(RM0 & LM0)",
    "LF0 & RF0 & !(LM0 & RM0)",
    "!(LF0 & RF0) & LM0 & RM0",
    "(LM0 & RM0) & (!LF0 | !RF0)",
    "(RF0 & LF0) & (!LM0 | !RM0)",
    "RM0 & LM0 & !(RF0 & LF0)",
    "!(!LM0 | !RM0) & !(LF0 & RF0)",
)
SEARCH_STDOUT = b"not found (24522 cases)\n"

# Dense modulus 2^4 * 3^2 * p * q * r: 5 * 3 * 2 * 2 * 2 = 120 divisors for
# any three distinct primes, and the divisor lattices are isomorphic.  The
# primes stay small so the O(N) divisor scan is negligible for every seed.
DENSE_PRIMES = (5, 7, 11, 13, 17)
# Sparse modulus 2^3 * p * q with 16 divisors, just above 2 * 10^7 so that
# the O(N) divisor scan costs the same on every seed.
SPARSE_TARGET = 2 * 10**7
SPARSE_P_RANGE = (101, 997)


class CheckFailed(Exception):
    """An invocation exited with the wrong code or printed the wrong stdout."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argvs: Callable[[int], list[list[str]]]
    check: Callable[[list[str], int, bytes], int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def divisors(n: int) -> list[int]:
    """Divisors of n in ascending order, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def quantale_moduli(seed: int) -> tuple[int, int]:
    """The (dense, sparse) moduli of the quantale-zn workload for a seed."""
    rng = random.Random(f"quantale-zn:{seed}")
    p, q, r = rng.sample(DENSE_PRIMES, 3)
    dense = 2**4 * 3**2 * p * q * r
    p = rng.choice([x for x in range(*SPARSE_P_RANGE) if _is_prime(x)])
    q = -(-SPARSE_TARGET // (8 * p))
    while not _is_prime(q):
        q += 1
    return dense, 8 * p * q


def _expect_exit(argv, code, want):
    if code != want:
        raise CheckFailed(f"{' '.join(argv)}: exit {code}, expected {want}")


def suite_cases(stdout: bytes) -> int:
    """Sum of the `cases=` values of the suite lines of a verify report."""
    return sum(int(m) for m in re.findall(rb"^suite \S+: .* cases=(\d+) ", stdout, re.M))


def _check_verify(argv, code, stdout):
    _expect_exit(argv, code, 1)
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != VERIFY_STDOUT_SHA256:
        raise CheckFailed(f"verify stdout sha256 {digest}, expected {VERIFY_STDOUT_SHA256}")
    return suite_cases(stdout)


def _check_search(argv, code, stdout):
    _expect_exit(argv, code, 0)
    if stdout != SEARCH_STDOUT:
        raise CheckFailed(f"search printed {stdout[:200]!r}, expected {SEARCH_STDOUT!r}")
    return int(re.search(rb"\((\d+) cases\)", stdout).group(1))


def quantale_stdout(n: int) -> bytes:
    """The exact report of `quantale --zn n --principal` for a ring Z/n.

    Every ideal of Z/n is principal, so every element reports yes twice and
    no witness lines follow.
    """
    divs = divisors(n)
    lines = [f"quantale Zn{n}: elements={len(divs)} unit=(1) integral=yes"]
    lines += [f"elem ({d}): principal=yes weak-principal=yes" for d in divs]
    return ("\n".join(lines) + "\n").encode()


def _check_quantale(argv, code, stdout):
    _expect_exit(argv, code, 0)
    n = int(argv[argv.index("--zn") + 1])
    want = quantale_stdout(n)
    if stdout != want:
        got = stdout.splitlines()
        exp = want.splitlines()
        at = next((i for i, (a, b) in enumerate(zip(got, exp)) if a != b), min(len(got), len(exp)))
        raise CheckFailed(
            f"quantale --zn {n}: {len(got)} lines, expected {len(exp)}; first difference at line {at + 1}"
        )
    return len(want.splitlines()) - 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-catalog",
            "verify --suite all over the fixed catalog; the laws layer dominates "
            "(261,980 eval_law calls, a third repeats); the seed has no effect",
            lambda seed: [["verify", "--suite", "all"]],
            _check_verify,
        ),
        Workload(
            "search-modular",
            "search --modular --all-lattices to size 6; adjoint-connection enumeration "
            "dominates (116,198 monotone maps for 24,522 connections)",
            lambda seed: [[
                "search",
                "--predicate", random.Random(f"search-modular:{seed}").choice(SEARCH_PREDICATES),
                "--max-size", "6", "--modular", "--all-lattices",
            ]],
            _check_search,
        ),
        Workload(
            "quantale-zn",
            "quantale --zn N --principal on a dense 120-divisor N and a sparse N near "
            "2e7; order tables, residuals and the O(N) divisor scan on large structures",
            lambda seed: [["quantale", "--zn", str(n), "--principal"] for n in quantale_moduli(seed)],
            _check_quantale,
        ),
    )
}
