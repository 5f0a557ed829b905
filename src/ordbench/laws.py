"""Evaluation of the named connection laws and their equivalence theorems.

Eighteen laws are recognised: LM0..LM5 and RM0..RM5 (the modular-connection
family), LF0/LF1/LF2 and RF0/RF1/RF2 (the reciprocity family).  Each law is
a universally quantified statement about an adjoint connection; evaluation
decides every case, and a failing law always carries a witness with both
evaluated sides so it can be reproduced independently.  The witness is the
first failing assignment in the lexicographic order of the law's own
variables.  It is a record of element indices; labels are looked up only
when it is read or printed.

Laws and theorems are data.  Each law's entry in ``LAW_TABLE`` lists its
hypotheses, which ``_STRUCTURE`` maps to skip reasons: a law whose
hypotheses are missing (a missing adjoint, no top, no binary meets, ...)
is reported as *skipped*, never silently true or false.  LF1/LF2 need only
a left adjoint and RF1/RF2 only a right adjoint; every other law needs the
full adjoint pair.  ``THEOREMS`` lists, per theorem, the connections its
suite visits, its hypotheses and the chain of laws it asserts equivalent;
``verify_theorem`` evaluates one chain on one connection.  The other checks
go through one implication evaluator and one biconditional evaluator.
``SUITES`` lists all nine suites, each as the lattices it visits, the cases
of each unit (an ordered pair, or a composable triple) and the failure lines
of one case; ``run_suite`` is the one loop over them, and the counterexample
search walks the same pairs.

Each left-hand law is evaluated by one kernel on (P, Q, f, g): the two
lattices and the value tables of the two adjoints.  A kernel is a single
pass over the tables that returns the first failing case in that order.
LF0 compares whole rows of meets and looks for the failing cell only in a
row that differs; LM1, LF1 and LF2 compare int masks of Q's down-sets with
masks of f's images; the other laws are nested loops with no call per
case.  A per-law check evaluates one case, so ``recheck_witness`` can
reproduce a witness.  The tests keep the case-by-case scan of every law in
``tests/oracles.py``, as the kernels' oracle.

Only the left-hand laws are written out.  Each RMk/RFk is LMk/LFk evaluated
on the opposite connection Q.op -> P.op between the cached duals, whose left
adjoint is g and whose right adjoint is f; ``_operands`` hands a kernel
either connection.  A right-hand law's table entry renames the variables,
visits them in its own order where the two laws list them differently, and
swaps the two sides of an inequality, which reverses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import compress, product, repeat
from operator import or_
from typing import Callable, Optional, Sequence

from .errors import (
    PredicateSyntaxError,
    SizeBoundExceeded,
    SourceTargetMismatch,
    UnknownLaw,
    UnknownSuite,
    UnsupportedLaw,
)
from . import posetgen
from .lattice import FiniteLattice, catalog, monotone_maps
from .connection import (
    AdjointConnection,
    compose_adjoint,
    enumerate_adjoint_connections,
    left_adjoint_connection,
    right_adjoint_connection,
)

LAW_IDS = (
    "LM0", "LM1", "LM2", "LM3", "LM4", "LM5",
    "RM0", "RM1", "RM2", "RM3", "RM4", "RM5",
    "LF0", "LF1", "LF2",
    "RF0", "RF1", "RF2",
)


@dataclass(frozen=True)
class Witness:
    """A falsifying assignment together with both evaluated sides, as indices.

    ``indices`` follow ``vars``; ``lhs``/``rhs`` are element indices of the
    law's value poset, or None when a side denotes a bound or preimage that
    does not exist.  Labels are looked up only when read: ``var_labels``
    holds, per variable, the labels of the poset it ranges over, and
    ``value_labels`` those of the value poset.
    """

    vars: tuple[str, ...]
    indices: tuple[int, ...]
    lhs: Optional[int]
    rhs: Optional[int]
    var_labels: tuple[tuple[str, ...], ...] = field(repr=False)
    value_labels: tuple[str, ...] = field(repr=False)

    @property
    def assignment(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (var, labels[i]) for var, labels, i in zip(self.vars, self.var_labels, self.indices)
        )

    @property
    def lhs_label(self) -> str:
        return self.value_labels[self.lhs] if self.lhs is not None else "absent"

    @property
    def rhs_label(self) -> str:
        return self.value_labels[self.rhs] if self.rhs is not None else "absent"

    def render(self) -> str:
        parts = [f"{var}={lab}" for var, lab in self.assignment]
        parts.append(f"lhs={self.lhs_label}")
        parts.append(f"rhs={self.rhs_label}")
        return " ".join(parts)


@dataclass(frozen=True)
class LawReport:
    law: str
    holds: Optional[bool]
    witness: Optional[Witness]
    skipped: Optional[str]

    def line(self) -> str:
        if self.skipped is not None:
            return f"{self.law} skipped reason: {self.skipped}"
        if self.holds:
            return f"{self.law} holds"
        return f"{self.law} fails witness: {self.witness.render()}"


@dataclass(frozen=True)
class _LawDef:
    id: str
    vars: tuple[str, ...]
    var_sides: str  # "P"/"Q" per case entry: the evaluated connection's poset
    requires: tuple[str, ...]  # hypotheses, in the order their skip reasons are tried
    first_failure: Callable  # (P, Q, f, g) -> first failing (case, lhs, rhs), or None
    check: Callable  # (P, Q, f, g, case) -> (ok, lhs, rhs) at one case
    opposite: bool = False  # evaluated on the opposite connection Q.op -> P.op
    reverse: bool = False  # a case lists the law's variables in reverse order
    swap: bool = False  # a case's (lhs, rhs) are the law's (rhs, lhs)


# hypothesis -> (skip reason, whether an adjoint connection P -> Q meets it)
_STRUCTURE = {
    "left": ("left adjoint absent", lambda ac: ac.left is not None),
    "right": ("right adjoint absent", lambda ac: ac.right is not None),
    "topP": ("P has no top", lambda ac: ac.source.top is not None),
    "botQ": ("Q has no bottom", lambda ac: ac.target.bottom is not None),
    "meetsP": ("P lacks binary meets", lambda ac: ac.source.has_binary_meets),
    "meetsQ": ("Q lacks binary meets", lambda ac: ac.target.has_binary_meets),
    "joinsP": ("P lacks binary joins", lambda ac: ac.source.has_binary_joins),
    "joinsQ": ("Q lacks binary joins", lambda ac: ac.target.has_binary_joins),
}


def _missing_structure(ac: AdjointConnection, requires) -> Optional[str]:
    """The skip reason of the first hypothesis in ``requires`` that ac misses."""
    for req in requires:
        reason, present = _STRUCTURE[req]
        if not present(ac):
            return reason
    return None


def _operands(law: _LawDef, ac: AdjointConnection):
    """The (P, Q, f, g) a law reads: its lattices and its adjoints' value tables.

    A right-hand law reads the opposite connection Q.op -> P.op, whose left
    adjoint is g and whose right adjoint is f.
    """
    f = ac.left.values if ac.left is not None else None
    g = ac.right.values if ac.right is not None else None
    if law.opposite:
        return ac.target.op, ac.source.op, g, f
    return ac.source, ac.target, f, g


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _down_image(P, f, b) -> set:
    """The image under f of everything below b."""
    return {f[a] for a in range(P.size) if P.leq[a][b]}


# ---------------------------------------------------------------------------
# The law table.  Each left-hand law has a kernel that returns its first
# failing case (case, lhs, rhs), visiting the assignments in ascending index
# order, or None; and a check that evaluates one case as (ok, lhs, rhs), so a
# witness can be rechecked.  Each right-hand law is a left-hand law evaluated
# on the opposite connection.  The tests keep a case-by-case scan of every
# law as the kernels' oracle.


def _lm0_first_failure(P, Q, f, g):
    meetQ = Q.meet
    ftop = f[P.top]
    for y in range(Q.size):
        lhs, rhs = f[g[y]], meetQ[y][ftop]
        if lhs != rhs:
            return (y,), lhs, rhs
    return None


def _lm0_check(P, Q, f, g, case):
    (y,) = case
    lhs = f[g[y]]
    rhs = Q.meet[y][f[P.top]]
    return (rhs is not None and lhs == rhs, lhs, rhs)


def _image_masks(P, f):
    """f's image as a mask over Q, for every b of P alike."""
    return repeat(reduce(or_, map((1).__lshift__, f), 0))


def _down_image_masks(P, f) -> list[int]:
    """Per b, the image under f of everything below b, as a mask over Q."""
    bits = tuple(map((1).__lshift__, f))
    return [reduce(or_, compress(bits, below), 0) for below in P.geq]


def _first_missing_image(images, P, Q, f, g):
    # The kernel of LM1 (images: f's whole image) and LF1 (the image of
    # b's down-set): case (b, c) with c <= f(b) fails when c is not in b's image.
    down = Q.down_masks
    for b, (y, image) in enumerate(zip(f, images(P, f))):
        missing = down[y] & ~image
        if missing:
            c = _low_bit(missing)
            return (b, c), c, None
    return None


def _lm1_check(P, Q, f, g, case):
    b, c = case
    ok = c in f
    return (ok, c, c if ok else None)


def _lm2_first_failure(P, Q, f, g):
    m, leqQ, meetQ = Q.size, Q.leq, Q.meet
    fg = tuple(map(f.__getitem__, g))
    for c in range(m):
        above, meet_c, lhs = leqQ[c], meetQ[c], fg[c]
        for d in range(m):
            if above[d] and meet_c[fg[d]] != lhs:
                return (c, d), lhs, meet_c[fg[d]]
    return None


def _lm2_check(P, Q, f, g, case):
    c, d = case
    lhs = f[g[c]]
    rhs = Q.meet[c][f[g[d]]]
    return (rhs is not None and lhs == rhs, lhs, rhs)


def _lm3_first_failure(P, Q, f, g):
    m, meetQ = Q.size, Q.meet
    fg = tuple(map(f.__getitem__, g))
    for c in range(m):
        meet_c = meetQ[c]
        for d in range(m):
            k = meet_c[d]
            if k is not None and fg[k] != meet_c[fg[d]]:
                return (c, d), fg[k], meet_c[fg[d]]
    return None


def _lm3_check(P, Q, f, g, case):
    c, d = case
    lhs = f[g[Q.meet[c][d]]]
    rhs = Q.meet[c][f[g[d]]]
    return (rhs is not None and lhs == rhs, lhs, rhs)


def _meets_with_ftop(P, Q, f):
    """c ^ f(top) for every c in Q."""
    ftop = f[P.top]
    return [row[ftop] for row in Q.meet]


def _lm4_first_failure(P, Q, f, g):
    m, low = Q.size, _meets_with_ftop(P, Q, f)
    for c in range(m):
        for d in range(m):
            if g[c] == g[d] and low[c] != low[d]:
                return (c, d), low[c], low[d]
    return None


def _lm4_check(P, Q, f, g, case):
    c, d = case
    ftop = f[P.top]
    lhs = Q.meet[c][ftop]
    rhs = Q.meet[d][ftop]
    return (lhs == rhs, lhs, rhs)


def _lm5_first_failure(P, Q, f, g):
    m, leqP, leqQ, low = Q.size, P.leq, Q.leq, _meets_with_ftop(P, Q, f)
    for c in range(m):
        below_g, above_low = leqP[g[c]], leqQ[low[c]]
        for d in range(m):
            if below_g[g[d]] and not above_low[d]:
                return (c, d), low[c], d
    return None


def _lm5_check(P, Q, f, g, case):
    c, d = case
    lhs = Q.meet[c][f[P.top]]
    return (Q.leq[lhs][d], lhs, d)


def _lf0_first_failure(P, Q, f, g):
    # Row b holds c ^ f(b) and f(g(c) ^ b) for every c; meets commute, so
    # the first is row f(b) of Q's meet table, and the second reads row b
    # of P's.  A cell is sought only in a row that differs.
    meetP, meetQ = P.meet, Q.meet
    at_f = f.__getitem__
    for b in range(P.size):
        lhs = meetQ[f[b]]
        rhs = tuple(map(at_f, map(meetP[b].__getitem__, g)))
        if lhs != rhs:
            c = next(c for c in range(Q.size) if lhs[c] != rhs[c])
            return (b, c), lhs[c], rhs[c]
    return None


def _lf0_check(P, Q, f, g, case):
    b, c = case
    lhs = Q.meet[c][f[b]]
    rhs = f[P.meet[g[c]][b]]
    return (lhs == rhs, lhs, rhs)


def _lf1_check(P, Q, f, g, case):
    b, c = case
    ok = c in _down_image(P, f, b)
    return (ok, c, c if ok else None)


def _lf2_first_failure(P, Q, f, g):
    # Case (a, b, c) with b <= a and c <= f(b) fails when c is no f(x) with x <= a.
    n, leqP, down, images = P.size, P.leq, Q.down_masks, _down_image_masks(P, f)
    for a in range(n):
        for b in range(n):
            if leqP[b][a]:
                missing = down[f[b]] & ~images[a]
                if missing:
                    c = _low_bit(missing)
                    return (a, b, c), c, None
    return None


def _lf2_check(P, Q, f, g, case):
    a, b, c = case
    ok = c in _down_image(P, f, a)
    return (ok, c, c if ok else None)


LAW_TABLE = {
    law.id: law
    for law in (
        _LawDef("LM0", ("y",), "Q", ("left", "right", "topP"), _lm0_first_failure, _lm0_check),
        _LawDef("LM1", ("b", "c"), "PQ", ("left", "right"),
                partial(_first_missing_image, _image_masks), _lm1_check),
        _LawDef("LM2", ("c", "d"), "QQ", ("left", "right"), _lm2_first_failure, _lm2_check),
        _LawDef("LM3", ("c", "d"), "QQ", ("left", "right"), _lm3_first_failure, _lm3_check),
        _LawDef("LM4", ("c", "d"), "QQ", ("left", "right", "topP", "meetsQ"),
                _lm4_first_failure, _lm4_check),
        _LawDef("LM5", ("c", "d"), "QQ", ("left", "right", "topP", "meetsQ"),
                _lm5_first_failure, _lm5_check),
        _LawDef("LF0", ("b", "c"), "PQ", ("left", "right", "meetsP", "meetsQ"),
                _lf0_first_failure, _lf0_check),
        _LawDef("LF1", ("b", "c"), "PQ", ("left",),
                partial(_first_missing_image, _down_image_masks), _lf1_check),
        _LawDef("LF2", ("a", "b", "c"), "PPQ", ("left",), _lf2_first_failure, _lf2_check),
    )
}


def _opposite_law(law_id, base_id, vars_, requires, reorder=None, swap=False):
    """Law ``law_id`` as law ``base_id`` read on the opposite connection.

    The variables are the base law's, renamed; ``requires`` is the law's
    own, so skip reasons name the law's own posets and adjoints.  A law
    whose two variables are the base law's in reverse passes ``reorder``, a
    kernel that visits the base law's assignments in this law's
    lexicographic order.  ``swap`` marks a base inequality, which reverses:
    its lhs is this law's rhs.
    """
    base = LAW_TABLE[base_id]
    return _LawDef(law_id, vars_, base.var_sides, requires, reorder or base.first_failure,
                   base.check, True, reorder is not None, swap)


# Kernels visiting a base law's assignments in the lexicographic order of its
# variables reversed, which is the order of the right-hand law's own
# variables: RM2 and RM5 at (a, b) are LM2 and LM5 at c=b, d=a; RF0 at (a, c)
# is LF0 at b=c, c=a.
def _lm2_first_failure_reversed(P, Q, f, g):
    m, leqQ, meetQ = Q.size, Q.leq, Q.meet
    fg = tuple(map(f.__getitem__, g))
    for d in range(m):
        fgd = fg[d]
        for c in range(m):
            if leqQ[c][d] and meetQ[c][fgd] != fg[c]:
                return (c, d), fg[c], meetQ[c][fgd]
    return None


def _lm5_first_failure_reversed(P, Q, f, g):
    m, leqP, leqQ, low = Q.size, P.leq, Q.leq, _meets_with_ftop(P, Q, f)
    for d in range(m):
        gd = g[d]
        for c in range(m):
            if leqP[g[c]][gd] and not leqQ[low[c]][d]:
                return (c, d), low[c], d
    return None


def _lf0_first_failure_reversed(P, Q, f, g):
    # Column c holds c ^ f(b) and f(g(c) ^ b) for every b: f read through
    # row c of Q's meet table, and row g(c) of P's read through f.
    meetP, meetQ = P.meet, Q.meet
    at_f = f.__getitem__
    for c in range(Q.size):
        lhs = tuple(map(meetQ[c].__getitem__, f))
        rhs = tuple(map(at_f, meetP[g[c]]))
        if lhs != rhs:
            b = next(b for b in range(P.size) if lhs[b] != rhs[b])
            return (b, c), lhs[b], rhs[b]
    return None


LAW_TABLE.update(
    (law.id, law)
    for law in (
        _opposite_law("RM0", "LM0", ("x",), ("left", "right", "botQ")),
        _opposite_law("RM1", "LM1", ("c", "b"), ("left", "right")),
        _opposite_law("RM2", "LM2", ("a", "b"), ("left", "right"),
                      reorder=_lm2_first_failure_reversed),
        _opposite_law("RM3", "LM3", ("a", "b"), ("left", "right")),
        _opposite_law("RM4", "LM4", ("a", "b"), ("left", "right", "joinsP", "botQ")),
        _opposite_law("RM5", "LM5", ("a", "b"), ("left", "right", "joinsP", "botQ"),
                      reorder=_lm5_first_failure_reversed, swap=True),
        _opposite_law("RF0", "LF0", ("a", "c"), ("left", "right", "joinsP", "joinsQ"),
                      reorder=_lf0_first_failure_reversed),
        _opposite_law("RF1", "LF1", ("c", "b"), ("right",)),
        _opposite_law("RF2", "LF2", ("c", "d", "b"), ("right",)),
    )
)


def _witness(law: _LawDef, P, Q, case, lhs, rhs) -> Witness:
    # A dual poset keeps the labels of the original, so a right-hand law's
    # case is labelled from the posets of the connection it was evaluated on.
    sides = {"P": P.labels, "Q": Q.labels}
    labels = tuple(sides[side] for side in law.var_sides)
    if law.reverse:
        case, labels = case[::-1], labels[::-1]
    if law.swap:
        lhs, rhs = rhs, lhs
    return Witness(law.vars, case, lhs, rhs, labels, Q.labels)


def _law(law_id: str) -> _LawDef:
    try:
        return LAW_TABLE[law_id]
    except KeyError:
        raise UnknownLaw(f"unknown law {law_id!r}") from None


def eval_law(law_id: str, ac: AdjointConnection) -> LawReport:
    """Evaluate one law on an adjoint connection over every assignment.

    Missing adjoints or missing structural hypotheses produce a skipped
    report; they never abort a batch.
    """
    law = _law(law_id)
    reason = _missing_structure(ac, law.requires)
    if reason is not None:
        return LawReport(law_id, None, None, reason)
    P, Q, f, g = _operands(law, ac)
    failure = law.first_failure(P, Q, f, g)
    if failure is None:
        return LawReport(law_id, True, None, None)
    return LawReport(law_id, False, _witness(law, P, Q, *failure), None)


def recheck_witness(law_id: str, ac: AdjointConnection, witness: Witness):
    """Re-run a law's formula at a reported witness; returns (ok, lhs, rhs)."""
    law = _law(law_id)
    case = witness.indices[::-1] if law.reverse else witness.indices
    ok, lhs, rhs = law.check(*_operands(law, ac), case)
    return (ok, rhs, lhs) if law.swap else (ok, lhs, rhs)


# ---------------------------------------------------------------------------
# Theorem verifiers


@dataclass(frozen=True)
class EquivalenceReport:
    """Truth values of a chain of laws that a theorem asserts are equivalent."""

    theorem: str
    reports: tuple[LawReport, ...]
    skipped: Optional[str] = None

    @property
    def consistent(self) -> bool:
        values = {r.holds for r in self.reports if r.holds is not None}
        return len(values) <= 1

    def truth_vector(self) -> tuple[tuple[str, Optional[bool]], ...]:
        return tuple((r.law, r.holds) for r in self.reports)


@dataclass(frozen=True)
class ImplicationCheck:
    """Outcome of a single conditional assertion on one connection."""

    name: str
    status: str  # "holds" | "vacuous" | "agree" | "disagree" | "violated" | "skipped"
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status not in ("disagree", "violated")


# The connections a suite visits for each ordered pair (P, Q).  These, the
# suites' units and their failure functions name what they call at call
# time, so a module attribute rebound after import (as the benchmark's
# tracer does) is honoured.  The suites re-read pairs, so the walk runs
# once per pair behind this cache; search reads each pair once, uncached.
@lru_cache(maxsize=None)
def _adjoint_connections(P, Q):
    return tuple(enumerate_adjoint_connections(P, Q))


def _left_connections(P, Q):
    """Every left adjoint connection P -> Q, one per monotone map."""
    return (left_adjoint_connection(f) for f in monotone_maps(P, Q))


def _right_connections(P, Q):
    """Every right adjoint connection P -> Q, one per monotone map."""
    return (right_adjoint_connection(g) for g in monotone_maps(Q, P))


def _pairs(connections, lattices):
    """Per ordered pair (P, Q) of ``lattices``, in order, the connections P -> Q."""
    for P in lattices:
        for Q in lattices:
            yield connections(P, Q)


# theorem -> (connections its suite visits, hypotheses, chain of laws that
# must agree wherever none of them is skipped)
THEOREMS = {
    # LM1/LM2/LM3 agree, and LM0 joins the chain when P has a top.
    "lm": (_adjoint_connections, (), ("LM1", "LM2", "LM3", "LM0")),
    # RM1/RM2/RM3 agree, and RM0 joins the chain when Q has a bottom.
    "rm": (_adjoint_connections, (), ("RM1", "RM2", "RM3", "RM0")),
    "rm045": (_adjoint_connections, ("joinsP", "botQ"), ("RM0", "RM4", "RM5")),
    "lm045": (_adjoint_connections, ("topP", "meetsQ"), ("LM0", "LM4", "LM5")),
    # LF1/LF2 agree on any left adjoint; LF0 joins when both adjoints and meets exist.
    "lf": (_left_connections, ("left",), ("LF1", "LF2", "LF0")),
    # RF1/RF2 agree on any right adjoint; RF0 joins when both adjoints and joins exist.
    "rf": (_right_connections, ("right",), ("RF1", "RF2", "RF0")),
}


def verify_theorem(name: str, ac: AdjointConnection) -> EquivalenceReport:
    """The truth values of theorem ``name``'s chain of laws on one connection.

    A connection that misses one of the theorem's hypotheses gives a skipped
    report with no law evaluated.
    """
    try:
        _, requires, laws = THEOREMS[name]
    except KeyError:
        raise UnknownSuite(f"unknown theorem {name!r}") from None
    reason = _missing_structure(ac, requires)
    if reason is not None:
        return EquivalenceReport(name, (), skipped=reason)
    return EquivalenceReport(name, tuple(eval_law(law_id, ac) for law_id in laws))


def _first_skip(reports) -> Optional[str]:
    return next((r.skipped for r in reports if r.skipped is not None), None)


def _implication(name, antecedents, consequent) -> ImplicationCheck:
    """The conjunction of the ``antecedents`` reports implies ``consequent()``.

    The consequent is a thunk, evaluated only when every antecedent holds.
    """
    skipped = _first_skip(antecedents)
    if skipped is not None:
        return ImplicationCheck(name, "skipped", skipped)
    if not all(a.holds for a in antecedents):
        return ImplicationCheck(name, "vacuous")
    c = consequent()
    if c.skipped is not None:
        return ImplicationCheck(name, "skipped", c.skipped)
    if c.holds:
        return ImplicationCheck(name, "holds")
    return ImplicationCheck(name, "violated", c.witness.render())


def verify_derivations(ac: AdjointConnection) -> tuple[ImplicationCheck, ImplicationCheck]:
    """RF0 implies RM0 and LF0 implies LM0 (never the converses)."""
    return (
        _implication("RF0=>RM0", (eval_law("RF0", ac),), lambda: eval_law("RM0", ac)),
        _implication("LF0=>LM0", (eval_law("LF0", ac),), lambda: eval_law("LM0", ac)),
    )


def _biconditional(lhs, rhs, name) -> ImplicationCheck:
    """The conjunction of the ``lhs`` reports is equivalent to that of ``rhs``."""
    reports = (*lhs, *rhs)
    skipped = _first_skip(reports)
    if skipped is not None:
        return ImplicationCheck(name, "skipped", skipped)
    if all(r.holds for r in lhs) == all(r.holds for r in rhs):
        return ImplicationCheck(name, "agree")
    return ImplicationCheck(name, "disagree", " ".join(f"{r.law}={r.holds}" for r in reports))


def verify_modularity_refinements(ac: AdjointConnection) -> tuple[ImplicationCheck, ...]:
    """Check the modularity refinements, each only under its hypothesis.

    On modular P the check reports the literal biconditional LM0 iff LF0,
    and on modular Q the literal RM0 iff RF0.  These one-sided forms are not
    theorems: they admit counterexamples even between distributive lattices,
    and they hold once the other modular-connection law is added as a
    hypothesis (RM0 for the P side, LM0 for the Q side).  With both P and Q
    modular, the check that LM0 and RM0 together are equivalent to LF0 and
    RF0 together is the theorem; it reads the four reports the two
    biconditionals computed, so each law is evaluated at most once.
    """
    P, Q = ac.source, ac.target
    if not (P.is_lattice and P.is_bounded and Q.is_lattice and Q.is_bounded):
        return (ImplicationCheck("modularity", "skipped", "P and Q must be bounded lattices"),)
    checks = []
    if P.is_modular:
        lm0, lf0 = eval_law("LM0", ac), eval_law("LF0", ac)
        checks.append(_biconditional((lm0,), (lf0,), "LM0<=>LF0[P modular]"))
    if Q.is_modular:
        rm0, rf0 = eval_law("RM0", ac), eval_law("RF0", ac)
        checks.append(_biconditional((rm0,), (rf0,), "RM0<=>RF0[Q modular]"))
    if P.is_modular and Q.is_modular:
        checks.append(_biconditional((lm0, rm0), (lf0, rf0), "LM0&RM0<=>LF0&RF0[both modular]"))
    if not checks:
        checks.append(ImplicationCheck("modularity", "skipped", "neither poset is modular"))
    return tuple(checks)


def verify_composition_stability(r: AdjointConnection, s: AdjointConnection, law_id: str) -> ImplicationCheck:
    """law(r) and law(s) imply law(compose(r, s)), for LF0 or RF0."""
    if law_id not in ("LF0", "RF0"):
        raise UnsupportedLaw("composition stability is asserted for LF0 and RF0 only")
    if r.target != s.source:
        raise SourceTargetMismatch("connections are not composable")
    return _implication(
        f"{law_id} stable under composition",
        (eval_law(law_id, r), eval_law(law_id, s)),
        lambda: eval_law(law_id, compose_adjoint(r, s)),
    )


# ---------------------------------------------------------------------------
# Predicate language for the counterexample search


@dataclass(frozen=True)
class Predicate:
    """A boolean combination of law identifiers, e.g. "LM0 & !(LF0 & RF0)"."""

    text: str
    laws: tuple[str, ...]
    _eval: Callable[[dict], bool]

    def evaluate(self, values: dict[str, bool]) -> bool:
        return self._eval(values)


_MAX_PREDICATE_TOKENS = 200  # parsing and evaluation recurse once per nesting level


def parse_predicate(text: str) -> Predicate:
    """Parse a boolean combination of law names with ! & | and parentheses.

    A predicate of more than 200 tokens is rejected before it is parsed.
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "&|!()":
            tokens.append(ch)
            i += 1
        elif ch.isalnum():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise PredicateSyntaxError(f"bad character {ch!r} in predicate")
    if len(tokens) > _MAX_PREDICATE_TOKENS:
        raise PredicateSyntaxError(
            f"predicate has {len(tokens)} tokens, more than {_MAX_PREDICATE_TOKENS}"
        )
    pos = 0
    laws: list[str] = []

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise PredicateSyntaxError("unexpected end of predicate")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise PredicateSyntaxError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def parse_or():
        node = parse_and()
        while peek() == "|":
            take()
            rhs = parse_and()
            node = (lambda l, r: lambda v: l(v) or r(v))(node, rhs)
        return node

    def parse_and():
        node = parse_not()
        while peek() == "&":
            take()
            rhs = parse_not()
            node = (lambda l, r: lambda v: l(v) and r(v))(node, rhs)
        return node

    def parse_not():
        if peek() == "!":
            take()
            inner = parse_not()
            return lambda v: not inner(v)
        return parse_atom()

    def parse_atom():
        tok = take()
        if tok == "(":
            node = parse_or()
            take(")")
            return node
        if tok in LAW_TABLE:
            if tok not in laws:
                laws.append(tok)
            return (lambda name: lambda v: v[name])(tok)
        raise UnknownLaw(f"unknown law {tok!r} in predicate")

    fn = parse_or()
    if pos != len(tokens):
        raise PredicateSyntaxError(f"trailing tokens in predicate: {' '.join(tokens[pos:])}")
    return Predicate(text, tuple(laws), fn)


# ---------------------------------------------------------------------------
# Counterexample search


@dataclass(frozen=True)
class FoundCase:
    p_name: str
    q_name: str
    left_values: tuple[int, ...]
    right_values: tuple[int, ...]
    laws: tuple[tuple[str, bool], ...]

    def render(self) -> str:
        left = ",".join(str(v) for v in self.left_values)
        right = ",".join(str(v) for v in self.right_values)
        truth = " ".join(f"{law}={'holds' if v else 'fails'}" for law, v in self.laws)
        return f"found P={self.p_name} Q={self.q_name} left=({left}) right=({right}) {truth}"


@dataclass(frozen=True)
class SearchResult:
    found: Optional[FoundCase]
    cases: int

    def render(self) -> str:
        if self.found is None:
            return f"not found ({self.cases} cases)"
        return self.found.render()


class _Verdicts(dict):
    """Law id -> whether it holds on one connection, decided on first read.

    A missing key is decided by :func:`eval_law` and kept, so the
    predicate's short-circuit ``&``/``|`` decides only the laws it reads.
    The caller has checked that none of them is skipped on the connection.
    """

    __slots__ = ("ac",)

    def __init__(self, ac: AdjointConnection):
        self.ac = ac

    def __missing__(self, law_id: str) -> bool:
        holds = self[law_id] = eval_law(law_id, self.ac).holds
        return holds


def search_counterexample(
    predicate,
    max_size: int,
    *,
    modular_only: bool = False,
    include_generated: bool = False,
) -> SearchResult:
    """Search bounded lattices for an adjoint connection satisfying a predicate.

    Enumerates the bounded catalog lattices of size <= max_size (and, when
    asked, every bounded lattice up to isomorphism generated exhaustively up
    to that size) and every adjoint connection between each ordered pair, in
    a fixed order, one pair at a time and uncached; returns the first
    satisfying case or the number of cases examined.  A case counts only
    when the hypotheses of every law the predicate names hold, so no law is
    skipped on it.  The predicate then decides only the laws its
    short-circuit ``&``/``|`` reads; a found case lists every law it names,
    in order, deciding the unread ones for that line.  A max_size outside 1
    to 8, or 1 to MAX_GENERATED_SIZE with generated lattices, raises
    SizeBoundExceeded before any work.
    """
    limit = posetgen.MAX_GENERATED_SIZE if include_generated else 8
    if not 1 <= max_size <= limit:
        lattices = "generated lattices" if include_generated else "lattices"
        raise SizeBoundExceeded(f"search is bounded to {lattices} of size 1 to {limit}")
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    requires = tuple(
        dict.fromkeys(req for law_id in predicate.laws for req in _law(law_id).requires)
    )
    corpus = [L for L in catalog() if L.is_lattice and L.is_bounded and L.size <= max_size]
    if include_generated:
        corpus.extend(posetgen.generated_lattices(max_size))
    if modular_only:
        corpus = [L for L in corpus if L.is_modular]
    cases = 0
    for connections in _pairs(enumerate_adjoint_connections, corpus):
        for ac in connections:
            if _missing_structure(ac, requires) is not None:
                continue
            cases += 1
            values = _Verdicts(ac)
            if predicate.evaluate(values):
                found = FoundCase(
                    ac.source.name,
                    ac.target.name,
                    ac.left.values,
                    ac.right.values,
                    tuple((law_id, values[law_id]) for law_id in predicate.laws),
                )
                return SearchResult(found, cases)
    return SearchResult(None, cases)


# ---------------------------------------------------------------------------
# Batch suites over a lattice corpus (used by the CLI `verify` verb)

@dataclass(frozen=True)
class SuiteResult:
    suite: str
    lattices: int
    pairs: int
    cases: int
    disagreements: int
    details: tuple[str, ...] = ()

    def lines(self) -> list[str]:
        head = (
            f"suite {self.suite}: lattices={self.lattices} pairs={self.pairs} "
            f"cases={self.cases} disagreements={self.disagreements}"
        )
        return [head, *self.details]


def _describe(ac: AdjointConnection) -> str:
    left = ac.left.values if ac.left is not None else None
    right = ac.right.values if ac.right is not None else None
    return f"P={ac.source.name} Q={ac.target.name} left={left} right={right}"


def _vector(rep: EquivalenceReport) -> str:
    return " ".join(f"{law}={holds}" for law, holds in rep.truth_vector())


def _inconsistent(theorem: str, ac: AdjointConnection) -> tuple[str, ...]:
    rep = verify_theorem(theorem, ac)
    return () if rep.consistent else (f"{_describe(ac)} {_vector(rep)}",)


def _violated(legs, checks) -> list[str]:
    """A line per failed check, naming the connections ``legs`` it read."""
    return [
        f"{' ; '.join(map(_describe, legs))} {chk.name}: {chk.detail}" for chk in checks if not chk.ok
    ]


def _composable(lattices):
    """Per triple P -> Q -> S with adjoint connections on both legs, its cases (r, s, law)."""
    for P in lattices:
        for Q in lattices:
            first = _adjoint_connections(P, Q)
            if not first:
                continue
            for S in lattices:
                second = _adjoint_connections(Q, S)
                if second:
                    yield product(first, second, ("LF0", "RF0"))


# suite -> (the lattices it visits, the cases of each unit it walks over
# them, the failure lines of one case).  A unit is an ordered pair (P, Q)
# whose cases are its connections, except in composition.
SUITES = {
    **{
        name: (lambda L: True, partial(_pairs, connections), partial(_inconsistent, name))
        for name, (connections, _, _) in THEOREMS.items()
    },
    "derivations": (
        lambda L: True,
        partial(_pairs, _adjoint_connections),
        lambda ac: _violated((ac,), verify_derivations(ac)),
    ),
    "modularity": (
        lambda L: True,
        partial(_pairs, _adjoint_connections),
        lambda ac: _violated((ac,), verify_modularity_refinements(ac)),
    ),
    "composition": (
        lambda L: L.size <= 4,
        _composable,
        lambda case: _violated(case[:2], (verify_composition_stability(*case),)),
    ),
}
SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, lattices: Sequence[FiniteLattice]) -> SuiteResult:
    """Run one suite: its units count as pairs, and each failure line as a disagreement."""
    try:
        visits, units, failures = SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}") from None
    lattices = [L for L in lattices if visits(L)]
    pairs = cases = 0
    details = []
    for unit in units(lattices):
        pairs += 1
        for case in unit:
            cases += 1
            for line in failures(case):
                details.append(f"disagree {name} {line}")
    return SuiteResult(name, len(lattices), pairs, cases, len(details), tuple(details))
