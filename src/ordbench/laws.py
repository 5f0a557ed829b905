"""Evaluation of the named connection laws and their equivalence theorems.

Eighteen laws are recognised: LM0..LM5 and RM0..RM5 (the modular-connection
family), LF0/LF1/LF2 and RF0/RF1/RF2 (the reciprocity family).  Each law is
a universally quantified statement about an adjoint connection; evaluation
decides every case, and a failing law always carries a witness with both
evaluated sides so it can be reproduced independently.  The witness is the
first failing assignment in the lexicographic order of the law's own
variables.  It is a record of element indices; labels are looked up only
when it is read or printed.

Each left-hand law is evaluated by one kernel, a single pass over the
connection's tables that returns the first failing case in that order.
LF0 compares whole rows of meets and looks for the failing cell only in a
row that differs; LM1, LF1 and LF2 compare int masks of Q's down-sets with
masks of f's images; the other laws are nested loops with no call per
case.  A per-law check evaluates one case, so ``recheck_witness`` can
reproduce a witness.  The tests keep the case-by-case scan of every law in
``tests/oracles.py``, as the kernels' oracle.

Only the left-hand laws are written out.  Each RMk/RFk is LMk/LFk evaluated
on the opposite connection Q.op -> P.op between the cached duals, whose left
adjoint is g and whose right adjoint is f; its table entry renames the
variables, visits them in its own order where the two laws list them
differently, and swaps the two sides of an inequality, which reverses.

Laws whose structural hypotheses are missing (no top, no binary meets, a
missing adjoint, ...) are reported as *skipped*, never silently true or
false.  LF1/LF2 need only a left adjoint and RF1/RF2 only a right adjoint;
every other law needs the full adjoint pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import or_
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .errors import (
    PredicateSyntaxError,
    SizeBoundExceeded,
    SourceTargetMismatch,
    UnknownLaw,
    UnknownSuite,
    UnsupportedLaw,
)
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
    needs_left: bool
    needs_right: bool
    requires: tuple[str, ...]
    context: Callable  # adjoint connection -> context of the evaluated connection
    first_failure: Callable  # context -> first failing (case, lhs, rhs), or None
    check: Callable  # (context, case) -> (ok, lhs, rhs) at one case
    reverse: bool  # a case lists the law's variables in reverse order
    swap: bool  # a case's (lhs, rhs) are the law's (rhs, lhs)


# requirement -> (skip reason, whether the posets P, Q of the connection meet it)
_STRUCTURE = {
    "topP": ("P has no top", lambda P, Q: P.top is not None),
    "botQ": ("Q has no bottom", lambda P, Q: Q.bottom is not None),
    "meetsP": ("P lacks binary meets", lambda P, Q: P.has_binary_meets),
    "meetsQ": ("Q lacks binary meets", lambda P, Q: Q.has_binary_meets),
    "joinsP": ("P lacks binary joins", lambda P, Q: P.has_binary_joins),
    "joinsQ": ("Q lacks binary joins", lambda P, Q: Q.has_binary_joins),
}


def _missing_structure(ac: AdjointConnection, requires) -> Optional[str]:
    P, Q = ac.source, ac.target
    for req in requires:
        reason, present = _STRUCTURE[req]
        if not present(P, Q):
            return reason
    return None


def _context(P: FiniteLattice, Q: FiniteLattice, left, right) -> SimpleNamespace:
    """The tables a law reads, for a connection P -> Q with these adjoint maps."""
    return SimpleNamespace(
        P=P, Q=Q,
        f=left.values if left is not None else None,
        g=right.values if right is not None else None,
        leqP=P.leq, leqQ=Q.leq, meetP=P.meet, meetQ=Q.meet,
        n=P.size, m=Q.size, topP=P.top,
    )


def _own_ctx(ac: AdjointConnection) -> SimpleNamespace:
    return _context(ac.source, ac.target, ac.left, ac.right)


def _opposite_ctx(ac: AdjointConnection) -> SimpleNamespace:
    """The context of the opposite connection Q^op -> P^op, whose left adjoint is g."""
    return _context(ac.target.op, ac.source.op, ac.right, ac.left)


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _down_image(ctx, b) -> set:
    """The image under f of everything below b."""
    return {ctx.f[a] for a in range(ctx.n) if ctx.leqP[a][b]}


# ---------------------------------------------------------------------------
# The law table.  Each left-hand law has a kernel that returns its first
# failing case (case, lhs, rhs), visiting the assignments in ascending index
# order, or None; and a check that evaluates one case as (ok, lhs, rhs), so a
# witness can be rechecked.  Each right-hand law is a left-hand law evaluated
# on the opposite connection.  The tests keep a case-by-case scan of every
# law as the kernels' oracle.


def _lm0_first_failure(ctx):
    f, g, meetQ = ctx.f, ctx.g, ctx.meetQ
    ftop = f[ctx.topP]
    for y in range(ctx.m):
        lhs, rhs = f[g[y]], meetQ[y][ftop]
        if lhs != rhs:
            return (y,), lhs, rhs
    return None


def _lm0_check(ctx, case):
    (y,) = case
    lhs = ctx.f[ctx.g[y]]
    rhs = ctx.meetQ[y][ctx.f[ctx.topP]]
    return (rhs is not None and lhs == rhs, lhs, rhs)


def _lm1_first_failure(ctx):
    # Case (b, c) with c <= f(b) fails when c is no value of f.
    down, image = ctx.Q.down_masks, reduce(or_, map((1).__lshift__, ctx.f), 0)
    for b, y in enumerate(ctx.f):
        missing = down[y] & ~image
        if missing:
            c = _low_bit(missing)
            return (b, c), c, None
    return None


def _lm1_check(ctx, case):
    b, c = case
    ok = c in ctx.f
    return (ok, c, c if ok else None)


def _lm2_first_failure(ctx):
    f, g, leqQ, meetQ = ctx.f, ctx.g, ctx.leqQ, ctx.meetQ
    fg = tuple(map(f.__getitem__, g))
    for c in range(ctx.m):
        above, meet_c, lhs = leqQ[c], meetQ[c], fg[c]
        for d in range(ctx.m):
            if above[d] and meet_c[fg[d]] != lhs:
                return (c, d), lhs, meet_c[fg[d]]
    return None


def _lm2_check(ctx, case):
    c, d = case
    lhs = ctx.f[ctx.g[c]]
    rhs = ctx.meetQ[c][ctx.f[ctx.g[d]]]
    return (rhs is not None and lhs == rhs, lhs, rhs)


def _lm3_first_failure(ctx):
    f, g, meetQ = ctx.f, ctx.g, ctx.meetQ
    fg = tuple(map(f.__getitem__, g))
    for c in range(ctx.m):
        meet_c = meetQ[c]
        for d in range(ctx.m):
            k = meet_c[d]
            if k is not None and fg[k] != meet_c[fg[d]]:
                return (c, d), fg[k], meet_c[fg[d]]
    return None


def _lm3_check(ctx, case):
    c, d = case
    lhs = ctx.f[ctx.g[ctx.meetQ[c][d]]]
    rhs = ctx.meetQ[c][ctx.f[ctx.g[d]]]
    return (rhs is not None and lhs == rhs, lhs, rhs)


def _meets_with_ftop(ctx):
    """c ^ f(top) for every c in Q."""
    ftop = ctx.f[ctx.topP]
    return [row[ftop] for row in ctx.meetQ]


def _lm4_first_failure(ctx):
    g, low = ctx.g, _meets_with_ftop(ctx)
    for c in range(ctx.m):
        for d in range(ctx.m):
            if g[c] == g[d] and low[c] != low[d]:
                return (c, d), low[c], low[d]
    return None


def _lm4_check(ctx, case):
    c, d = case
    ftop = ctx.f[ctx.topP]
    lhs = ctx.meetQ[c][ftop]
    rhs = ctx.meetQ[d][ftop]
    return (lhs == rhs, lhs, rhs)


def _lm5_first_failure(ctx):
    g, leqP, leqQ, low = ctx.g, ctx.leqP, ctx.leqQ, _meets_with_ftop(ctx)
    for c in range(ctx.m):
        below_g, above_low = leqP[g[c]], leqQ[low[c]]
        for d in range(ctx.m):
            if below_g[g[d]] and not above_low[d]:
                return (c, d), low[c], d
    return None


def _lm5_check(ctx, case):
    c, d = case
    lhs = ctx.meetQ[c][ctx.f[ctx.topP]]
    return (ctx.leqQ[lhs][d], lhs, d)


def _lf0_first_failure(ctx):
    # Row b holds c ^ f(b) and f(g(c) ^ b) for every c; meets commute, so
    # the first is row f(b) of Q's meet table, and the second reads row b
    # of P's.  A cell is sought only in a row that differs.
    f, g, meetP, meetQ = ctx.f, ctx.g, ctx.meetP, ctx.meetQ
    at_f = f.__getitem__
    for b in range(ctx.n):
        lhs = meetQ[f[b]]
        rhs = tuple(map(at_f, map(meetP[b].__getitem__, g)))
        if lhs != rhs:
            c = next(c for c in range(ctx.m) if lhs[c] != rhs[c])
            return (b, c), lhs[c], rhs[c]
    return None


def _lf0_check(ctx, case):
    b, c = case
    lhs = ctx.meetQ[c][ctx.f[b]]
    rhs = ctx.f[ctx.meetP[ctx.g[c]][b]]
    return (lhs == rhs, lhs, rhs)


def _down_image_masks(ctx) -> list[int]:
    """Per b, the image under f of everything below b, as a mask over Q."""
    bits = tuple(map((1).__lshift__, ctx.f))
    return [reduce(or_, compress(bits, below), 0) for below in ctx.P.geq]


def _lf1_first_failure(ctx):
    # Case (b, c) with c <= f(b) fails when c is no f(a) with a <= b.
    down = ctx.Q.down_masks
    for b, (y, image) in enumerate(zip(ctx.f, _down_image_masks(ctx))):
        missing = down[y] & ~image
        if missing:
            c = _low_bit(missing)
            return (b, c), c, None
    return None


def _lf1_check(ctx, case):
    b, c = case
    ok = c in _down_image(ctx, b)
    return (ok, c, c if ok else None)


def _lf2_first_failure(ctx):
    # Case (a, b, c) with b <= a and c <= f(b) fails when c is no f(x) with x <= a.
    f, leqP, down, images = ctx.f, ctx.leqP, ctx.Q.down_masks, _down_image_masks(ctx)
    for a in range(ctx.n):
        for b in range(ctx.n):
            if leqP[b][a]:
                missing = down[f[b]] & ~images[a]
                if missing:
                    c = _low_bit(missing)
                    return (a, b, c), c, None
    return None


def _lf2_check(ctx, case):
    a, b, c = case
    ok = c in _down_image(ctx, a)
    return (ok, c, c if ok else None)


def _law(law_id, vars_, var_sides, first_failure, check, requires=(),
         needs_left=True, needs_right=True):
    return _LawDef(law_id, vars_, var_sides, needs_left, needs_right, tuple(requires),
                   _own_ctx, first_failure, check, False, False)


LAW_TABLE = {
    law.id: law
    for law in (
        _law("LM0", ("y",), "Q", _lm0_first_failure, _lm0_check, requires=("topP",)),
        _law("LM1", ("b", "c"), "PQ", _lm1_first_failure, _lm1_check),
        _law("LM2", ("c", "d"), "QQ", _lm2_first_failure, _lm2_check),
        _law("LM3", ("c", "d"), "QQ", _lm3_first_failure, _lm3_check),
        _law("LM4", ("c", "d"), "QQ", _lm4_first_failure, _lm4_check,
             requires=("topP", "meetsQ")),
        _law("LM5", ("c", "d"), "QQ", _lm5_first_failure, _lm5_check,
             requires=("topP", "meetsQ")),
        _law("LF0", ("b", "c"), "PQ", _lf0_first_failure, _lf0_check,
             requires=("meetsP", "meetsQ")),
        _law("LF1", ("b", "c"), "PQ", _lf1_first_failure, _lf1_check, needs_right=False),
        _law("LF2", ("a", "b", "c"), "PPQ", _lf2_first_failure, _lf2_check,
             needs_right=False),
    )
}


def _opposite_law(law_id, base_id, vars_, requires=(), reorder=None, swap=False):
    """Law ``law_id`` as law ``base_id`` read on the opposite connection.

    The variables are the base law's, renamed; ``requires`` is the law's
    own, so skip reasons name the law's own posets.  A law whose two
    variables are the base law's in reverse passes ``reorder``, a kernel
    that visits the base law's assignments in this law's lexicographic
    order.  ``swap`` marks a base inequality, which reverses: its lhs is
    this law's rhs.
    """
    base = LAW_TABLE[base_id]
    return _LawDef(law_id, vars_, base.var_sides, base.needs_right, base.needs_left,
                   tuple(requires), _opposite_ctx, reorder or base.first_failure,
                   base.check, reorder is not None, swap)


# Kernels visiting a base law's assignments in the lexicographic order of its
# variables reversed, which is the order of the right-hand law's own
# variables: RM2 and RM5 at (a, b) are LM2 and LM5 at c=b, d=a; RF0 at (a, c)
# is LF0 at b=c, c=a.
def _lm2_first_failure_reversed(ctx):
    f, g, leqQ, meetQ = ctx.f, ctx.g, ctx.leqQ, ctx.meetQ
    fg = tuple(map(f.__getitem__, g))
    for d in range(ctx.m):
        fgd = fg[d]
        for c in range(ctx.m):
            if leqQ[c][d] and meetQ[c][fgd] != fg[c]:
                return (c, d), fg[c], meetQ[c][fgd]
    return None


def _lm5_first_failure_reversed(ctx):
    g, leqP, leqQ, low = ctx.g, ctx.leqP, ctx.leqQ, _meets_with_ftop(ctx)
    for d in range(ctx.m):
        gd = g[d]
        for c in range(ctx.m):
            if leqP[g[c]][gd] and not leqQ[low[c]][d]:
                return (c, d), low[c], d
    return None


def _lf0_first_failure_reversed(ctx):
    # Column c holds c ^ f(b) and f(g(c) ^ b) for every b: f read through
    # row c of Q's meet table, and row g(c) of P's read through f.
    f, g, meetP, meetQ = ctx.f, ctx.g, ctx.meetP, ctx.meetQ
    at_f = f.__getitem__
    for c in range(ctx.m):
        lhs = tuple(map(meetQ[c].__getitem__, f))
        rhs = tuple(map(at_f, meetP[g[c]]))
        if lhs != rhs:
            b = next(b for b in range(ctx.n) if lhs[b] != rhs[b])
            return (b, c), lhs[b], rhs[b]
    return None


LAW_TABLE.update(
    (law.id, law)
    for law in (
        _opposite_law("RM0", "LM0", ("x",), requires=("botQ",)),
        _opposite_law("RM1", "LM1", ("c", "b")),
        _opposite_law("RM2", "LM2", ("a", "b"), reorder=_lm2_first_failure_reversed),
        _opposite_law("RM3", "LM3", ("a", "b")),
        _opposite_law("RM4", "LM4", ("a", "b"), requires=("joinsP", "botQ")),
        _opposite_law("RM5", "LM5", ("a", "b"), requires=("joinsP", "botQ"),
                      reorder=_lm5_first_failure_reversed, swap=True),
        _opposite_law("RF0", "LF0", ("a", "c"), requires=("joinsP", "joinsQ"),
                      reorder=_lf0_first_failure_reversed),
        _opposite_law("RF1", "LF1", ("c", "b")),
        _opposite_law("RF2", "LF2", ("c", "d", "b")),
    )
)


def _witness(law: _LawDef, ctx, case, lhs, rhs) -> Witness:
    # A dual poset keeps the labels of the original, so a right-hand law's
    # case is labelled from the posets of the connection it was evaluated on.
    sides = {"P": ctx.P.labels, "Q": ctx.Q.labels}
    labels = tuple(sides[side] for side in law.var_sides)
    if law.reverse:
        case, labels = case[::-1], labels[::-1]
    if law.swap:
        lhs, rhs = rhs, lhs
    return Witness(law.vars, case, lhs, rhs, labels, ctx.Q.labels)


def eval_law(law_id: str, ac: AdjointConnection) -> LawReport:
    """Evaluate one law on an adjoint connection over every assignment.

    Missing adjoints or missing structural hypotheses produce a skipped
    report; they never abort a batch.
    """
    try:
        law = LAW_TABLE[law_id]
    except KeyError:
        raise UnknownLaw(f"unknown law {law_id!r}") from None
    if law.needs_left and ac.left is None:
        return LawReport(law_id, None, None, "left adjoint absent")
    if law.needs_right and ac.right is None:
        return LawReport(law_id, None, None, "right adjoint absent")
    reason = _missing_structure(ac, law.requires)
    if reason is not None:
        return LawReport(law_id, None, None, reason)
    ctx = law.context(ac)
    failure = law.first_failure(ctx)
    if failure is None:
        return LawReport(law_id, True, None, None)
    return LawReport(law_id, False, _witness(law, ctx, *failure), None)


def recheck_witness(law_id: str, ac: AdjointConnection, witness: Witness):
    """Re-run a law's formula at a reported witness; returns (ok, lhs, rhs)."""
    law = LAW_TABLE[law_id]
    case = witness.indices[::-1] if law.reverse else witness.indices
    ok, lhs, rhs = law.check(law.context(ac), case)
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
    ok: bool
    detail: Optional[str] = None


def _equivalence(theorem: str, ac: AdjointConnection, law_ids) -> EquivalenceReport:
    return EquivalenceReport(theorem, tuple(eval_law(i, ac) for i in law_ids))


def verify_lm_theorem(ac: AdjointConnection) -> EquivalenceReport:
    """LM1/LM2/LM3 must agree, and LM0 joins the chain when P has a top."""
    return _equivalence("lm", ac, ("LM1", "LM2", "LM3", "LM0"))


def verify_rm_theorem(ac: AdjointConnection) -> EquivalenceReport:
    """RM1/RM2/RM3 must agree, and RM0 joins the chain when Q has a bottom."""
    return _equivalence("rm", ac, ("RM1", "RM2", "RM3", "RM0"))


def verify_rm045_theorem(ac: AdjointConnection) -> EquivalenceReport:
    """RM0/RM4/RM5 must agree when P has binary joins and Q a bottom."""
    reason = _missing_structure(ac, ("joinsP", "botQ"))
    if reason is not None:
        return EquivalenceReport("rm045", (), skipped=reason)
    return _equivalence("rm045", ac, ("RM0", "RM4", "RM5"))


def verify_lm045_theorem(ac: AdjointConnection) -> EquivalenceReport:
    """LM0/LM4/LM5 must agree when P has a top and Q binary meets."""
    reason = _missing_structure(ac, ("topP", "meetsQ"))
    if reason is not None:
        return EquivalenceReport("lm045", (), skipped=reason)
    return _equivalence("lm045", ac, ("LM0", "LM4", "LM5"))


def verify_lf_theorem(ac: AdjointConnection) -> EquivalenceReport:
    """LF1/LF2 must agree on any left adjoint connection; LF0 joins when adjoint with meets."""
    if ac.left is None:
        return EquivalenceReport("lf", (), skipped="left adjoint absent")
    return _equivalence("lf", ac, ("LF1", "LF2", "LF0"))


def verify_rf_theorem(ac: AdjointConnection) -> EquivalenceReport:
    """RF1/RF2 must agree on any right adjoint connection; RF0 joins when adjoint with joins."""
    if ac.right is None:
        return EquivalenceReport("rf", (), skipped="right adjoint absent")
    return _equivalence("rf", ac, ("RF1", "RF2", "RF0"))


def _implies(ac, antecedent, consequent, name) -> ImplicationCheck:
    a = eval_law(antecedent, ac)
    if a.skipped is not None:
        return ImplicationCheck(name, "skipped", True, a.skipped)
    if not a.holds:
        return ImplicationCheck(name, "vacuous", True)
    c = eval_law(consequent, ac)
    if c.skipped is not None:
        return ImplicationCheck(name, "skipped", True, c.skipped)
    if c.holds:
        return ImplicationCheck(name, "holds", True)
    return ImplicationCheck(name, "violated", False, c.witness.render())


def verify_derivations(ac: AdjointConnection) -> tuple[ImplicationCheck, ImplicationCheck]:
    """RF0 implies RM0 and LF0 implies LM0 (never the converses)."""
    return (
        _implies(ac, "RF0", "RM0", "RF0=>RM0"),
        _implies(ac, "LF0", "LM0", "LF0=>LM0"),
    )


def _biconditional(ac, left_id, right_id, name) -> ImplicationCheck:
    a = eval_law(left_id, ac)
    b = eval_law(right_id, ac)
    if a.skipped is not None or b.skipped is not None:
        return ImplicationCheck(name, "skipped", True, a.skipped or b.skipped)
    if a.holds == b.holds:
        return ImplicationCheck(name, "agree", True)
    return ImplicationCheck(name, "disagree", False, f"{left_id}={a.holds} {right_id}={b.holds}")


def verify_modularity_refinements(ac: AdjointConnection) -> tuple[ImplicationCheck, ...]:
    """Check the modularity refinements, each only under its hypothesis.

    On modular P the check reports the literal biconditional LM0 iff LF0,
    and on modular Q the literal RM0 iff RF0.  These one-sided forms are not
    theorems: they admit counterexamples even between distributive lattices,
    and they hold once the other modular-connection law is added as a
    hypothesis (RM0 for the P side, LM0 for the Q side).  With both P and Q
    modular, the check that LM0 and RM0 together are equivalent to LF0 and
    RF0 together is the theorem.
    """
    P, Q = ac.source, ac.target
    if not (P.is_lattice and P.is_bounded and Q.is_lattice and Q.is_bounded):
        return (ImplicationCheck("modularity", "skipped", True, "P and Q must be bounded lattices"),)
    checks = []
    if P.is_modular:
        checks.append(_biconditional(ac, "LM0", "LF0", "LM0<=>LF0[P modular]"))
    if Q.is_modular:
        checks.append(_biconditional(ac, "RM0", "RF0", "RM0<=>RF0[Q modular]"))
    if P.is_modular and Q.is_modular:
        lm0 = eval_law("LM0", ac).holds
        rm0 = eval_law("RM0", ac).holds
        lf0 = eval_law("LF0", ac).holds
        rf0 = eval_law("RF0", ac).holds
        ok = (lm0 and rm0) == (lf0 and rf0)
        checks.append(
            ImplicationCheck(
                "LM0&RM0<=>LF0&RF0[both modular]",
                "agree" if ok else "disagree",
                ok,
                None if ok else f"LM0={lm0} RM0={rm0} LF0={lf0} RF0={rf0}",
            )
        )
    if not checks:
        checks.append(ImplicationCheck("modularity", "skipped", True, "neither poset is modular"))
    return tuple(checks)


def verify_composition_stability(r: AdjointConnection, s: AdjointConnection, law_id: str) -> ImplicationCheck:
    """law(r) and law(s) imply law(compose(r, s)), for LF0 or RF0."""
    if law_id not in ("LF0", "RF0"):
        raise UnsupportedLaw("composition stability is asserted for LF0 and RF0 only")
    if r.conn.target != s.conn.source:
        raise SourceTargetMismatch("connections are not composable")
    name = f"{law_id} stable under composition"
    a = eval_law(law_id, r)
    b = eval_law(law_id, s)
    if a.skipped is not None or b.skipped is not None:
        return ImplicationCheck(name, "skipped", True, a.skipped or b.skipped)
    if not (a.holds and b.holds):
        return ImplicationCheck(name, "vacuous", True)
    c = eval_law(law_id, compose_adjoint(r, s))
    if c.skipped is not None:
        return ImplicationCheck(name, "skipped", True, c.skipped)
    if c.holds:
        return ImplicationCheck(name, "holds", True)
    return ImplicationCheck(name, "violated", False, c.witness.render())


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


def parse_predicate(text: str) -> Predicate:
    """Parse a boolean combination of law names with ! & | and parentheses."""
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
    a fixed order; returns the first satisfying case or the number of cases
    examined.  A case where some referenced law is skipped is not counted.
    """
    if not 1 <= max_size <= 8:
        raise SizeBoundExceeded("search is bounded to lattices of size 1 to 8")
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    corpus = [L for L in catalog() if L.is_lattice and L.is_bounded and L.size <= max_size]
    if include_generated:
        from .posetgen import generated_lattices

        corpus.extend(generated_lattices(max_size))
    cases = 0
    for P in corpus:
        if modular_only and not P.is_modular:
            continue
        for Q in corpus:
            if modular_only and not Q.is_modular:
                continue
            for ac in enumerate_adjoint_connections(P, Q):
                values = {}
                skipped = False
                for law_id in predicate.laws:
                    report = eval_law(law_id, ac)
                    if report.skipped is not None:
                        skipped = True
                        break
                    values[law_id] = report.holds
                if skipped:
                    continue
                cases += 1
                if predicate.evaluate(values):
                    found = FoundCase(
                        P.name,
                        Q.name,
                        ac.left.values,
                        ac.right.values,
                        tuple((law, values[law]) for law in predicate.laws),
                    )
                    return SearchResult(found, cases)
    return SearchResult(None, cases)


# ---------------------------------------------------------------------------
# Batch suites over a lattice corpus (used by the CLI `verify` verb)

SUITE_ORDER = (
    "lm", "rm", "rm045", "lm045", "lf", "rf", "derivations", "modularity", "composition",
)


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


# The connections a suite visits for each ordered pair (P, Q).  These and the
# failure functions below name what they call at call time, so a module
# attribute rebound after import (as the benchmark's tracer does) is honoured.
def _adjoint_connections(P, Q):
    return enumerate_adjoint_connections(P, Q)


def _left_connections(P, Q):
    """Every left adjoint connection P -> Q, one per monotone map."""
    return (left_adjoint_connection(f) for f in monotone_maps(P, Q))


def _right_connections(P, Q):
    """Every right adjoint connection P -> Q, one per monotone map."""
    return (right_adjoint_connection(g) for g in monotone_maps(Q, P))


def _inconsistent(rep: EquivalenceReport) -> tuple[str, ...]:
    return () if rep.consistent else (_vector(rep),)


def _violated(checks) -> tuple[str, ...]:
    return tuple(f"{chk.name}: {chk.detail}" for chk in checks if not chk.ok)


# suite -> (connections of each ordered pair, failure lines of one connection)
_PER_CONNECTION_SUITES = {
    "lm": (_adjoint_connections, lambda ac: _inconsistent(verify_lm_theorem(ac))),
    "rm": (_adjoint_connections, lambda ac: _inconsistent(verify_rm_theorem(ac))),
    "rm045": (_adjoint_connections, lambda ac: _inconsistent(verify_rm045_theorem(ac))),
    "lm045": (_adjoint_connections, lambda ac: _inconsistent(verify_lm045_theorem(ac))),
    "lf": (_left_connections, lambda ac: _inconsistent(verify_lf_theorem(ac))),
    "rf": (_right_connections, lambda ac: _inconsistent(verify_rf_theorem(ac))),
    "derivations": (_adjoint_connections, lambda ac: _violated(verify_derivations(ac))),
    "modularity": (
        _adjoint_connections, lambda ac: _violated(verify_modularity_refinements(ac)),
    ),
}


def _per_connection_suite(name, lattices, connections, failures) -> SuiteResult:
    pairs = cases = disagreements = 0
    details = []
    for P in lattices:
        for Q in lattices:
            pairs += 1
            for ac in connections(P, Q):
                cases += 1
                for failure in failures(ac):
                    disagreements += 1
                    details.append(f"disagree {name} {_describe(ac)} {failure}")
    return SuiteResult(name, len(lattices), pairs, cases, disagreements, tuple(details))


def suite_composition(lattices):
    """LF0/RF0 composition stability over catalog lattices of size <= 4."""
    small = [L for L in lattices if L.size <= 4]
    triples = cases = disagreements = 0
    details = []
    for P in small:
        for Q in small:
            first = enumerate_adjoint_connections(P, Q)
            if not first:
                continue
            for S in small:
                second = enumerate_adjoint_connections(Q, S)
                if not second:
                    continue
                triples += 1
                for r in first:
                    for s in second:
                        for law_id in ("LF0", "RF0"):
                            cases += 1
                            chk = verify_composition_stability(r, s, law_id)
                            if not chk.ok:
                                disagreements += 1
                                details.append(
                                    f"disagree composition {_describe(r)} ; {_describe(s)} "
                                    f"{chk.name}: {chk.detail}"
                                )
    return SuiteResult("composition", len(small), triples, cases, disagreements, tuple(details))


def run_suite(name: str, lattices: Sequence[FiniteLattice]) -> SuiteResult:
    lattices = list(lattices)
    if name == "composition":
        return suite_composition(lattices)
    try:
        connections, failures = _PER_CONNECTION_SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}") from None
    return _per_connection_suite(name, lattices, connections, failures)
