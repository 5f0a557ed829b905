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
suite visits and the chain of laws it asserts equivalent; a law of the
chain is skipped by its own hypotheses.
``SUITES`` lists all nine suites, each as the lattices it visits, its units
(an ordered pair, or a composable triple) and the failure lines of each case
of a unit; ``run_suite`` is the one loop over them, and the counterexample
search walks the same pairs.  Each suite is stated once, by its line
function: ``_chain_lines`` for the six theorems, then ``_derivation_lines``,
``_modularity_lines`` and ``_composition_lines``.

The suites walk value tables, as search does.  Every case, in the suites
and in search, is one record ``_Verdicts(P, Q, f, g)``: a connection's value
tables, None for an absent adjoint, and two verdict bits per law in one int,
each law decided on first read by whether its kernel yields any failure.
A record reads True, False, or None for a skipped law: the suites' records
start with the skip bits of their ordered pair and adjoint presence,
``_skip_bits``, worked out once for all of them, so no line function
checks a hypothesis.  Search walks bounded lattices only, where no law is
skipped, and checks none.
The pair's cache keeps its adjoint connections' records, which lf and rf
look up by each value table of ``monotone_maps`` and share on the maps with
both adjoints, with no adjoint computed, so a law that several suites or a
composition leg read is decided once.  Only search's record decides LF0
and RF0 after their top-row laws LM0 and RM0: the suites check that LF0
implies LM0.  A witness is built only for a line that is printed, and no
report, AdjointConnection or MonotoneMap at all; the tests state the suites
again on AdjointConnections and ``eval_law`` reports, as their oracle.

Each left-hand law is evaluated by one kernel on (P, Q, f, g): the two
lattices and the value tables of the two adjoints.  A kernel is a single
pass over the tables, a generator that yields every failing case, with its
two sides, in ascending order of the law's variables.  LF0 compares whole
rows of meets, each a ``bytes`` row gathered in C by ``bytes.translate``,
and compares cells only in a row that differs; LM1, LF1 and LF2 compare
int masks of Q's down-sets with masks of f's images and yield each missing
bit; the other laws are nested loops with no call per case.
Each law is stated here once, by its kernel; the principal-element laws of
``quantale`` are LF0 and RF0 with their variables renamed.  The tests state
every law again case by case in ``tests/oracles.py``, as the kernels'
oracle, and recheck witnesses there.

Only the left-hand laws are written out.  Each RMk/RFk is LMk/LFk evaluated
by the same kernel on the opposite connection Q.op -> P.op between the
cached duals, whose left adjoint is g and whose right adjoint is f.
``_failures`` hands the kernel either connection.  A verdict needs only
whether a failure exists; a witness is the first failure, which
``_first_failure`` takes, and for RM2, RM5 and RF0, whose two variables are
the base law's in reverse, it takes the failure that comes first in that
order.  A right-hand law's table entry renames the variables and swaps the
two sides of an inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import compress, product, repeat
from operator import or_
from typing import Callable, Mapping, Optional, Sequence

from .errors import PredicateSyntaxError, SizeBoundExceeded, UnknownLaw, UnknownSuite
from . import posetgen
from .lattice import FiniteLattice, MonotoneMap, _byte_table, catalog, monotone_maps
from .connection import AdjointConnection, _adjoint_tables, _check_adjoint

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
    """A law: its variables, its hypotheses, and its kernel or its base law's."""

    id: str
    vars: tuple[str, ...]
    var_sides: str  # "P"/"Q" per case entry: the evaluated connection's poset
    requires: tuple[str, ...]  # hypotheses, in the order their skip reasons are tried
    failures: Callable  # (P, Q, f, g) -> every failing (case, lhs, rhs), in ascending case order
    opposite: bool = False  # evaluated on the opposite connection Q.op -> P.op
    reverse: bool = False  # a case lists the law's variables in reverse order
    swap: bool = False  # a case's (lhs, rhs) are the law's (rhs, lhs)


# hypothesis -> (skip reason, whether P -> Q, with or without each adjoint, meets it)
_STRUCTURE = {
    "left": ("left adjoint absent", lambda P, Q, left, right: left),
    "right": ("right adjoint absent", lambda P, Q, left, right: right),
    "topP": ("P has no top", lambda P, Q, left, right: P.top is not None),
    "botQ": ("Q has no bottom", lambda P, Q, left, right: Q.bottom is not None),
    "meetsP": ("P lacks binary meets", lambda P, Q, left, right: P.has_binary_meets),
    "meetsQ": ("Q lacks binary meets", lambda P, Q, left, right: Q.has_binary_meets),
    "joinsP": ("P lacks binary joins", lambda P, Q, left, right: P.has_binary_joins),
    "joinsQ": ("Q lacks binary joins", lambda P, Q, left, right: Q.has_binary_joins),
}


def _missing_structure(requires, P, Q, left=True, right=True) -> Optional[str]:
    """The first hypothesis in ``requires`` that P -> Q misses, as a skip reason, or None."""
    for req in requires:
        reason, present = _STRUCTURE[req]
        if not present(P, Q, left, right):
            return reason
    return None


def _tables(ac: AdjointConnection):
    """ac as (P, Q, f, g): its lattices and its adjoints' value tables, None where absent."""
    f = ac.left.values if ac.left is not None else None
    g = ac.right.values if ac.right is not None else None
    return ac.source, ac.target, f, g


def _failures(law: _LawDef, P, Q, f, g):
    """Every failing (case, lhs, rhs) of a law on (P, Q, f, g), in its kernel's order.

    The hypotheses of the law hold on (P, Q, f, g).
    """
    return law.failures(Q.op, P.op, g, f) if law.opposite else law.failures(P, Q, f, g)


def _first_failure(law: _LawDef, P, Q, f, g):
    """A law's first failing (case, lhs, rhs) on (P, Q, f, g), whose hypotheses hold, or None.

    First in the order of the law's own variables: a ``reverse`` law's are
    its kernel's in reverse.
    """
    failures = _failures(law, P, Q, f, g)
    if law.reverse:
        return min(failures, key=lambda x: x[0][::-1], default=None)
    return next(failures, None)


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# The law table.  Each left-hand law has a kernel that yields every failing
# case (case, lhs, rhs), visiting the assignments in ascending index order.
# Each right-hand law is a left-hand law evaluated on the opposite
# connection, by the same kernel.  The tests keep a case-by-case check of
# every law as the kernels' oracle.


def _lm0_failures(P, Q, f, g):
    meetQ = Q.meet
    ftop = f[P.top]
    for y in range(Q.size):
        lhs, rhs = f[g[y]], meetQ[y][ftop]
        if lhs != rhs:
            yield (y,), lhs, rhs


def _image_masks(P, f):
    """f's image as a mask over Q, for every b of P alike."""
    return repeat(reduce(or_, map((1).__lshift__, f), 0))


def _images_below(P, f) -> list[int]:
    """Per b, the image under f of everything below b, as a mask over Q."""
    bits = tuple(map((1).__lshift__, f))
    return [reduce(or_, compress(bits, below), 0) for below in P.geq]


# (P, f, masks) of the last map whose masks were built: LF1 and LF2 on one
# map, and RF1 and RF2 on one opposite map, read them in turn.  The masks
# depend on P and f alone, so the slot changes no verdict.
_last_images = (None, None, None)


def _down_image_masks(P, f) -> list[int]:
    """:func:`_images_below`, built once for consecutive reads of the same P and table f."""
    global _last_images
    last = _last_images
    if last[0] is P and last[1] is f:
        return last[2]
    masks = _images_below(P, f)
    _last_images = (P, f, masks)
    return masks


def _missing_images(images, P, Q, f, g):
    # The kernel of LM1 (images: f's whole image) and LF1 (the image of
    # b's down-set): case (b, c) with c <= f(b) fails when c is not in b's image.
    down = Q.down_masks
    for b, (y, image) in enumerate(zip(f, images(P, f))):
        missing = down[y] & ~image
        while missing:
            c = _low_bit(missing)
            yield (b, c), c, None
            missing &= missing - 1


def _lm2_failures(P, Q, f, g):
    m, leqQ, meetQ = Q.size, Q.leq, Q.meet
    fg = tuple(map(f.__getitem__, g))
    for c in range(m):
        above, meet_c, lhs = leqQ[c], meetQ[c], fg[c]
        for d in range(m):
            if above[d] and meet_c[fg[d]] != lhs:
                yield (c, d), lhs, meet_c[fg[d]]


def _lm3_failures(P, Q, f, g):
    m, meetQ = Q.size, Q.meet
    fg = tuple(map(f.__getitem__, g))
    for c in range(m):
        meet_c = meetQ[c]
        for d in range(m):
            k = meet_c[d]
            if k is not None and fg[k] != meet_c[fg[d]]:
                yield (c, d), fg[k], meet_c[fg[d]]


def _meets_with_ftop(P, Q, f):
    """c ^ f(top) for every c in Q."""
    ftop = f[P.top]
    return [row[ftop] for row in Q.meet]


def _lm4_failures(P, Q, f, g):
    m, low = Q.size, _meets_with_ftop(P, Q, f)
    for c in range(m):
        for d in range(m):
            if g[c] == g[d] and low[c] != low[d]:
                yield (c, d), low[c], low[d]


def _lm5_failures(P, Q, f, g):
    m, leqP, leqQ, low = Q.size, P.leq, Q.leq, _meets_with_ftop(P, Q, f)
    for c in range(m):
        below_g, above_low = leqP[g[c]], leqQ[low[c]]
        for d in range(m):
            if below_g[g[d]] and not above_low[d]:
                yield (c, d), low[c], d


def _lf0_failures(P, Q, f, g):
    # Row b holds c ^ f(b) and f(g(c) ^ b) for every c, as bytes.  Meets
    # commute, so the first is row f(b) of Q's meet table, and the second is
    # g gathered through row b of P's and then through f, by two
    # ``bytes.translate`` calls.  On the opposite connection, the RF0 case,
    # these are join rows.  Cells are compared only in a row that differs.
    rows, tables = Q.meet_rows, P.meet_tables
    g_row, f_table = bytes(g), _byte_table(f)
    for b in range(P.size):
        lhs = rows[f[b]]
        rhs = g_row.translate(tables[b]).translate(f_table)
        if lhs != rhs:
            for c in range(Q.size):
                if lhs[c] != rhs[c]:
                    yield (b, c), lhs[c], rhs[c]


def _lf2_failures(P, Q, f, g):
    # Case (a, b, c) with b <= a and c <= f(b) fails when c is no f(x) with x <= a.
    n, leqP, down, images = P.size, P.leq, Q.down_masks, _down_image_masks(P, f)
    for a in range(n):
        for b in range(n):
            if leqP[b][a]:
                missing = down[f[b]] & ~images[a]
                while missing:
                    c = _low_bit(missing)
                    yield (a, b, c), c, None
                    missing &= missing - 1


LAW_TABLE = {
    law.id: law
    for law in (
        _LawDef("LM0", ("y",), "Q", ("left", "right", "topP"), _lm0_failures),
        _LawDef("LM1", ("b", "c"), "PQ", ("left", "right"), partial(_missing_images, _image_masks)),
        _LawDef("LM2", ("c", "d"), "QQ", ("left", "right"), _lm2_failures),
        _LawDef("LM3", ("c", "d"), "QQ", ("left", "right"), _lm3_failures),
        _LawDef("LM4", ("c", "d"), "QQ", ("left", "right", "topP", "meetsQ"), _lm4_failures),
        _LawDef("LM5", ("c", "d"), "QQ", ("left", "right", "topP", "meetsQ"), _lm5_failures),
        _LawDef("LF0", ("b", "c"), "PQ", ("left", "right", "meetsP", "meetsQ"), _lf0_failures),
        _LawDef("LF1", ("b", "c"), "PQ", ("left",), partial(_missing_images, _down_image_masks)),
        _LawDef("LF2", ("a", "b", "c"), "PPQ", ("left",), _lf2_failures),
    )
}


def _opposite_law(law_id, base_id, vars_, requires, reverse=False, swap=False):
    """Law ``law_id`` as law ``base_id`` read on the opposite connection, by its kernel.

    The variables are the base law's, renamed; ``requires`` is the law's
    own, so skip reasons name the law's own posets and adjoints.
    ``reverse`` marks a law whose two variables are the base law's in
    reverse: its witness is the base law's failure that comes first in this
    law's lexicographic order.  ``swap`` marks a base inequality, which
    reverses: its lhs is this law's rhs.
    """
    base = LAW_TABLE[base_id]
    return _LawDef(law_id, vars_, base.var_sides, requires, base.failures, True, reverse, swap)


LAW_TABLE.update(
    (law.id, law)
    for law in (
        _opposite_law("RM0", "LM0", ("x",), ("left", "right", "botQ")),
        _opposite_law("RM1", "LM1", ("c", "b"), ("left", "right")),
        _opposite_law("RM2", "LM2", ("a", "b"), ("left", "right"), reverse=True),
        _opposite_law("RM3", "LM3", ("a", "b"), ("left", "right")),
        _opposite_law("RM4", "LM4", ("a", "b"), ("left", "right", "joinsP", "botQ")),
        _opposite_law("RM5", "LM5", ("a", "b"), ("left", "right", "joinsP", "botQ"),
                      reverse=True, swap=True),
        _opposite_law("RF0", "LF0", ("a", "c"), ("left", "right", "joinsP", "joinsQ"), reverse=True),
        _opposite_law("RF1", "LF1", ("c", "b"), ("right",)),
        _opposite_law("RF2", "LF2", ("c", "d", "b"), ("right",)),
    )
)


def _witness(law: _LawDef, P, Q, case, lhs, rhs) -> Witness:
    # A right-hand law ran on Q.op -> P.op, whose posets keep Q's and P's labels.
    if law.opposite:
        P, Q = Q, P
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
    P, Q, f, g = _tables(ac)
    reason = _missing_structure(law.requires, P, Q, f is not None, g is not None)
    if reason is not None:
        return LawReport(law_id, None, None, reason)
    return _report(law, P, Q, f, g)


def _report(law: _LawDef, P, Q, f, g) -> LawReport:
    """The report of a law on (P, Q, f, g), whose hypotheses hold: its verdict and first failure."""
    failure = _first_failure(law, P, Q, f, g)
    if failure is None:
        return LawReport(law.id, True, None, None)
    return LawReport(law.id, False, _witness(law, P, Q, *failure), None)


# ---------------------------------------------------------------------------
# Verdict records, and the connections each theorem visits


_MEMO_SHIFT = {law_id: 2 * i for i, law_id in enumerate(LAW_IDS)}
# a law's two record bits -> its verdict: 1 fails, 2 skipped, 3 holds
_VERDICT = (None, False, None, True)


def _skip_bits(P, Q, left=True, right=True) -> int:
    """The record bits of P -> Q, with or without each adjoint: 2 for each law it skips."""
    return sum(
        2 << _MEMO_SHIFT[law_id]
        for law_id, law in LAW_TABLE.items()
        if _missing_structure(law.requires, P, Q, left, right) is not None
    )


class _Verdicts:
    """The verdicts on one connection (P, Q, f, g): P -> Q, each decided on its first read.

    ``f`` and ``g`` are the value tables of the left and right adjoint, None
    where that adjoint is absent.  ``bits`` holds two bits per law, bits 2i
    and 2i+1 for law ``LAW_IDS[i]``: 0 while undecided, 1 when it fails, 2
    when it is skipped and 3 when it holds.  A record starts with the skip
    bits of its pair, :func:`_skip_bits`.  ``record[law_id]`` is True, False
    or None for a skipped law; it decides an undecided law by whether its
    kernel yields a failure at all, through :func:`_failures`.
    ``_first`` maps a law to a law it implies, read before it: where that
    law fails, so does this one, with no run of its own kernel.
    """

    __slots__ = ("P", "Q", "f", "g", "bits")
    _first: dict[str, str] = {}

    def __init__(self, P, Q, f, g, bits=0):
        self.P, self.Q, self.f, self.g = P, Q, f, g
        self.bits = bits

    def __getitem__(self, law_id: str) -> Optional[bool]:
        shift = _MEMO_SHIFT[law_id]
        bits = self.bits >> shift & 3
        if not bits:
            first = self._first.get(law_id)
            holds = (first is None or self[first]) and next(
                _failures(LAW_TABLE[law_id], self.P, self.Q, self.f, self.g), None
            ) is None
            bits = 3 if holds else 1
            self.bits |= bits << shift
        return _VERDICT[bits]

    def describe(self) -> str:
        return f"P={self.P.name} Q={self.Q.name} left={self.f} right={self.g}"

    def rendered_witness(self, law_id: str) -> str:
        """The witness of a law that fails here, as its report prints it."""
        law, P, Q = LAW_TABLE[law_id], self.P, self.Q
        return _witness(law, P, Q, *_first_failure(law, P, Q, self.f, self.g)).render()


# The suites re-read pairs, so each pair is walked once, behind this cache,
# and each adjoint connection keeps its verdicts in its record.  They are
# the verdicts of the kernels in LAW_TABLE when first read.  Search walks
# each pair's tables once and keeps nothing.
@lru_cache(maxsize=None)
def _adjoint_connections(P, Q) -> tuple[_Verdicts, ...]:
    """Every adjoint connection P -> Q, as its record, ordered by f."""
    skips = _skip_bits(P, Q)
    return tuple(_Verdicts(P, Q, f, g, skips) for f, g in _adjoint_tables(P, Q))


def _left_cases(P, Q):
    """Every left adjoint connection P -> Q, one per monotone map's value table P -> Q.

    A table with a right adjoint is the left map of one of the pair's adjoint
    connections, all of which :func:`_adjoint_tables` yields, and is its record.
    """
    records, skips = {v.f: v for v in _adjoint_connections(P, Q)}, _skip_bits(P, Q, right=False)
    for f in monotone_maps(P, Q):
        yield records.get(f) or _Verdicts(P, Q, f, None, skips)


def _right_cases(P, Q):
    """Every right adjoint connection P -> Q, one per monotone map's value table Q -> P.

    A table with a left adjoint is the right map of one of the pair's adjoint
    connections, and is its record.
    """
    records, skips = {v.g: v for v in _adjoint_connections(P, Q)}, _skip_bits(P, Q, left=False)
    for g in monotone_maps(Q, P):
        yield records.get(g) or _Verdicts(P, Q, None, g, skips)


# theorem -> (connections its suite visits, chain of laws that must agree
# wherever they are not skipped)
THEOREMS = {
    # LM1/LM2/LM3 agree, and LM0 joins the chain when P has a top.
    "lm": (_adjoint_connections, ("LM1", "LM2", "LM3", "LM0")),
    # RM1/RM2/RM3 agree, and RM0 joins the chain when Q has a bottom.
    "rm": (_adjoint_connections, ("RM1", "RM2", "RM3", "RM0")),
    # RM0/RM4/RM5 agree; RM4 and RM5 need P's binary joins and Q's bottom.
    "rm045": (_adjoint_connections, ("RM0", "RM4", "RM5")),
    # LM0/LM4/LM5 agree; LM4 and LM5 need P's top and Q's binary meets.
    "lm045": (_adjoint_connections, ("LM0", "LM4", "LM5")),
    # LF1/LF2 agree on any left adjoint; LF0 joins when both adjoints and meets exist.
    "lf": (_left_cases, ("LF1", "LF2", "LF0")),
    # RF1/RF2 agree on any right adjoint; RF0 joins when both adjoints and joins exist.
    "rf": (_right_cases, ("RF1", "RF2", "RF0")),
}


# ---------------------------------------------------------------------------
# Predicate language for the counterexample search


@dataclass(frozen=True)
class Predicate:
    """A boolean combination of law identifiers, e.g. "LM0 & !(LF0 & RF0)"."""

    text: str
    laws: tuple[str, ...]
    _eval: Callable[[_Verdicts | Mapping[str, bool]], bool]

    def evaluate(self, values: _Verdicts | Mapping[str, bool]) -> bool:
        """Whether the predicate holds, reading each law it reaches as ``values[law_id]``.

        ``values`` is any lookup from law id to bool: a search case's verdict
        record, which decides a law on its first read, or a plain dict.
        """
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
        if not tok.isalnum():
            raise PredicateSyntaxError(f"expected a law or '(', found {tok!r}")
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


class _SearchVerdicts(_Verdicts):
    """A search case's record, which decides LF0 and RF0 by their top-row law first.

    Their own kernel runs only where the row law holds, so a predicate costs
    about the same whichever of the two families it reads first.  The search
    visits bounded lattices only, so LM0 and RM0 are never skipped.  The
    suites keep the plain record: there LF0 => LM0 and RF0 => RM0 are checked
    (``derivations``), and this rule would make them hold by construction.
    """

    __slots__ = ()
    # LM0 is LF0's row at P's top, and RM0 is RF0's row at Q's bottom (the
    # top of the opposite connection's source).
    _first = {"LF0": "LM0", "RF0": "RM0"}


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
    satisfying case or the number of cases examined.  Every case has both
    adjoints between bounded lattices, so no law is skipped on it, and no
    hypothesis is checked.  A case is a pair of value tables (f,
    g), and the predicate decides, each by its kernel, only the laws its
    short-circuit ``&``/``|`` reads, LF0 and RF0 after their rows at the
    bounds, LM0 and RM0; a found case is re-validated as an
    AdjointConnection and lists every law named, in order, deciding the
    unread ones.  A max_size outside 1 to 8, or 1 to MAX_GENERATED_SIZE
    with generated lattices, raises SizeBoundExceeded before any work.
    """
    limit = posetgen.MAX_GENERATED_SIZE if include_generated else 8
    if not 1 <= max_size <= limit:
        lattices = "generated lattices" if include_generated else "lattices"
        raise SizeBoundExceeded(f"search is bounded to {lattices} of size 1 to {limit}")
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    corpus = [L for L in catalog() if L.is_lattice and L.is_bounded and L.size <= max_size]
    if include_generated:
        corpus.extend(posetgen.generated_lattices(max_size))
    if modular_only:
        corpus = [L for L in corpus if L.is_modular]
    cases = 0
    for P, Q in product(corpus, repeat=2):
        for f, g in _adjoint_tables(P, Q):
            cases += 1
            values = _SearchVerdicts(P, Q, f, g)
            if predicate.evaluate(values):
                ac = AdjointConnection(MonotoneMap(P, Q, f), MonotoneMap(Q, P, g))
                verdicts = tuple((law_id, values[law_id]) for law_id in predicate.laws)
                found = FoundCase(P.name, Q.name, ac.left.values, ac.right.values, verdicts)
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


# The failure lines of each case of a unit, one tuple or list per case.


def _chain_lines(theorem: str, P, Q):
    """The chain's truth vector, when its laws disagree on a connection the theorem visits."""
    cases, chain = THEOREMS[theorem]
    for v in cases(P, Q):
        values = [v[law_id] for law_id in chain]
        if True in values and False in values:
            vector = " ".join(f"{law_id}={holds}" for law_id, holds in zip(chain, values))
            yield (f"{v.describe()} {vector}",)
        else:
            yield ()


# derivation -> (its antecedent, its consequent)
_DERIVATIONS = {"RF0=>RM0": ("RF0", "RM0"), "LF0=>LM0": ("LF0", "LM0")}


def _derivation_lines(P, Q):
    """Each derivation whose antecedent holds and consequent fails, with the latter's witness."""
    for v in _adjoint_connections(P, Q):
        yield [
            f"{v.describe()} {name}: {v.rendered_witness(consequent)}"
            for name, (antecedent, consequent) in _DERIVATIONS.items()
            if v[antecedent] and v[consequent] is False
        ]


def _modularity_lines(P, Q):
    """Each modularity biconditional, under its hypothesis, whose two sides disagree."""
    forms = []
    if P.is_lattice and P.is_bounded and Q.is_lattice and Q.is_bounded:
        if P.is_modular:
            forms.append(("LM0<=>LF0[P modular]", ("LM0",), ("LF0",)))
        if Q.is_modular:
            forms.append(("RM0<=>RF0[Q modular]", ("RM0",), ("RF0",)))
        if P.is_modular and Q.is_modular:
            forms.append(("LM0&RM0<=>LF0&RF0[both modular]", ("LM0", "RM0"), ("LF0", "RF0")))
    for v in _adjoint_connections(P, Q):
        lines = []
        for name, lhs, rhs in forms:
            values = [v[law_id] for law_id in lhs + rhs]
            if None not in values and all(values[:len(lhs)]) != all(values[len(lhs):]):
                vector = " ".join(f"{law_id}={holds}" for law_id, holds in zip(lhs + rhs, values))
                lines.append(f"{v.describe()} {name}: {vector}")
        yield lines


def _composable(lattices):
    """Each triple P -> Q -> S with adjoint connections on both legs."""
    for P in lattices:
        for Q in lattices:
            if not _adjoint_connections(P, Q):
                continue
            for S in lattices:
                if _adjoint_connections(Q, S):
                    yield P, Q, S


def _composition_lines(P, Q, S):
    """Per case (r, s, law): a law that holds on both legs but fails on their composite.

    The composite's tables are read through the legs' tables and checked
    by unit and counit, as an AdjointConnection is, once a law needs them.
    """
    skips = _skip_bits(P, S)
    for r in _adjoint_connections(P, Q):
        for s in _adjoint_connections(Q, S):
            composite = None
            for law_id in ("LF0", "RF0"):
                if not (r[law_id] and s[law_id]):
                    yield ()
                    continue
                if composite is None:
                    f, g = tuple(map(s.f.__getitem__, r.f)), tuple(map(r.g.__getitem__, s.g))
                    _check_adjoint(P, S, f, g)
                    composite = _Verdicts(P, S, f, g, skips)
                if composite[law_id] is not False:
                    yield ()
                else:
                    witness = composite.rendered_witness(law_id)
                    legs = f"{r.describe()} ; {s.describe()}"
                    yield (f"{legs} {law_id} stable under composition: {witness}",)


# suite -> (the lattices it visits, its units over them, the failure lines
# of each case of a unit).  A unit is an ordered pair (P, Q), whose cases
# are the connections the suite visits, except in composition.
SUITES = {
    **{
        name: (lambda L: True, partial(product, repeat=2), partial(_chain_lines, name))
        for name in THEOREMS
    },
    "derivations": (lambda L: True, partial(product, repeat=2), _derivation_lines),
    "modularity": (lambda L: True, partial(product, repeat=2), _modularity_lines),
    "composition": (lambda L: L.size <= 4, _composable, _composition_lines),
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
        for lines in failures(*unit):
            cases += 1
            if lines:
                details.extend(f"disagree {name} {line}" for line in lines)
    return SuiteResult(name, len(lattices), pairs, cases, len(details), tuple(details))
