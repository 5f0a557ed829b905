"""The verify suites on value tables, against the object path kept as their oracle.

``laws.run_suite`` decides every law on value tables through a verdict memo
per pair of lattices; ``oracles.oracle_run_suite`` states each suite again on
AdjointConnections and evaluates each law through ``eval_law``.  The whole
``SuiteResult`` of every suite, details included, must agree: on the
catalog, on the catalog with every lattice of size <= 4, on bare posets, and
with faulty kernels patched into ``LAW_TABLE`` so that every suite prints
failure lines.
"""

from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from ordbench import AdjointConnection, MonotoneMap, catalog, eval_law, laws
from ordbench.connection import _right_adjoints
from ordbench.laws import LAW_IDS, LAW_TABLE, SUITE_ORDER, run_suite
from ordbench.posetgen import generated_lattices

from oracles import oracle_run_suite


@pytest.fixture
def fresh_verdicts():
    """Empty the suites' per-pair cache, whose verdicts are those of the kernels first read."""
    laws._adjoint_connections.cache_clear()
    yield
    laws._adjoint_connections.cache_clear()


def _assert_suites_match_oracle(corpus):
    results = {}
    for name in SUITE_ORDER:
        result = run_suite(name, corpus)
        assert result == oracle_run_suite(name, corpus), name
        results[name] = result
    return results


def test_suites_match_oracle_on_catalog(fresh_verdicts):
    results = _assert_suites_match_oracle(catalog())
    assert results["modularity"].disagreements == 416
    assert sum(r.disagreements for r in results.values()) == 416


def test_suites_match_oracle_with_generated_lattices(fresh_verdicts):
    _assert_suites_match_oracle(catalog() + list(generated_lattices(4)))


def test_suites_match_oracle_on_bare_posets(fresh_verdicts, bare_posets, c2, b2):
    """Posets without meets, joins or bounds: laws and theorems are skipped per pair."""
    _assert_suites_match_oracle([c2, b2, *bare_posets])


def _failing_where(law_id, where):
    """law_id's kernel, also failing at its first case wherever ``where`` holds of its operands.

    The made-up failure is the all-zero case with rhs absent, so a witness
    renders from it.
    """
    law = LAW_TABLE[law_id]

    def failures(P, Q, f, g):
        found = list(law.failures(P, Q, f, g))
        if not found and f and where(P, Q, f, g):
            found.append(((0,) * len(law.vars), 0, None))
        return iter(found)

    return replace(law, failures=failures)


def _constant(f):
    return len(f) > 1 and len(set(f)) == 1


FAULTS = {
    # lm: LM1 and LM3 still hold where LM2 now fails
    "LM2": lambda P, Q, f, g: len(set(f)) < len(f),
    # rm and rm045 disagree, and RF0 no longer implies RM0 (derivations)
    "RM0": lambda P, Q, f, g: True,
    # lm045: a map into a larger lattice
    "LM4": lambda P, Q, f, g: P.size < Q.size,
    # lf disagrees on constant maps, and a composite can be constant when
    # neither leg is (composition)
    "LF0": lambda P, Q, f, g: _constant(f),
    # rf: RF2 reads its map g as the left map of the opposite connection
    "RF2": lambda P, Q, f, g: len(set(f)) == len(f),
}


@pytest.fixture
def faulty_kernels(monkeypatch, fresh_verdicts):
    for law_id, where in FAULTS.items():
        monkeypatch.setitem(LAW_TABLE, law_id, _failing_where(law_id, where))


def test_suites_match_oracle_with_faulty_kernels(faulty_kernels):
    """Every suite prints failure lines; a path that prints nothing would not pass."""
    for corpus in (catalog(), [L for L in catalog() if L.size <= 4] + list(generated_lattices(3))):
        results = _assert_suites_match_oracle(corpus)
        assert all(r.disagreements > 0 for r in results.values()), {
            name: r.disagreements for name, r in results.items()
        }
        for name, marker in (
            ("derivations", "RF0=>RM0: x="),
            ("composition", "LF0 stable under composition: b="),
        ):
            violated = [line for line in results[name].details if marker in line]
            assert violated and all(line.endswith("rhs=absent") for line in violated), name


def test_suites_build_objects_only_for_printed_lines(monkeypatch, fresh_verdicts):
    """No report, witness or connection object per case, and one image build per lf/rf map."""
    built = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(laws, "eval_law", counting("eval_law", laws.eval_law))
    monkeypatch.setattr(laws, "_witness", counting("witness", laws._witness))
    monkeypatch.setattr(laws, "_images_below", counting("images", laws._images_below))
    monkeypatch.setattr(
        AdjointConnection, "__post_init__", counting("connection", AdjointConnection.__post_init__)
    )
    results = {name: run_suite(name, catalog()) for name in SUITE_ORDER}
    # the modularity lines are truth vectors: no witness is rendered for them
    assert results["modularity"].disagreements == 416
    assert built == {"images": results["lf"].cases + results["rf"].cases}
    assert built["images"] == 44892


def test_each_law_is_decided_once_per_connection(monkeypatch, fresh_verdicts):
    """Across the suites over pairs, a verdict on an adjoint connection is read from the memo."""
    decided = Counter()
    decide = laws._failures

    def counting(law, P, Q, f, g):
        if f is not None and g is not None:
            decided[law.id, P.name, Q.name, f, g] += 1
        return decide(law, P, Q, f, g)

    monkeypatch.setattr(laws, "_failures", counting)
    for name in SUITE_ORDER:
        if name != "composition":  # which decides each composite it reads afresh
            run_suite(name, catalog())
    assert decided and max(decided.values()) == 1


def test_verdict_memo_cannot_change_a_report(fresh_verdicts):
    """Each suite alone, and all nine in reverse order, report as the in-order run does."""
    in_order = [run_suite(name, catalog()) for name in SUITE_ORDER]
    alone = []
    for name in SUITE_ORDER:
        laws._adjoint_connections.cache_clear()
        alone.append(run_suite(name, catalog()))
    laws._adjoint_connections.cache_clear()
    reverse = [run_suite(name, catalog()) for name in reversed(SUITE_ORDER)][::-1]
    assert alone == in_order and reverse == in_order


def test_one_sided_cases_share_the_pair_records(bare_posets):
    """The lf/rf cases with both adjoints are the pair's own records, each once.

    A case with one adjoint is a fresh record with None on its absent side:
    an lf case lacks its right adjoint, an rf case its left one, and the
    closed form finds no adjoint for its map.
    """
    corpus = catalog()[:8] + list(bare_posets) + list(generated_lattices(4))
    for P, Q in product(corpus, repeat=2):
        records = laws._adjoint_connections(P, Q)
        right, left = _right_adjoints(P, Q), _right_adjoints(Q.op, P.op)
        for cases, absent in ((laws._left_cases, "g"), (laws._right_cases, "f")):
            shared = Counter()
            for v in cases(P, Q):
                if any(v is record for record in records):
                    shared[id(v)] += 1
                else:
                    assert (v.f is None, v.g is None) == (absent == "f", absent == "g")
                    assert (right(v.f) if absent == "g" else left(v.g)) is None
            assert shared == Counter(map(id, records)), (P.name, Q.name, cases)


def test_records_know_which_laws_are_skipped(fresh_verdicts, bare_posets):
    """A record reads None exactly where eval_law skips the law, and .holds elsewhere.

    Every adjoint presence is covered: the pair's adjoint connections, and
    the lf and rf cases that lack their right, resp. left, adjoint.
    """
    corpus = catalog() + list(generated_lattices(4)) + list(bare_posets)
    skipped = decided = 0
    for P, Q in product(corpus, repeat=2):
        records = [
            *laws._adjoint_connections(P, Q),
            *(v for v in laws._left_cases(P, Q) if v.g is None),
            *(v for v in laws._right_cases(P, Q) if v.f is None),
        ]
        for v in records:
            ac = AdjointConnection(
                None if v.f is None else MonotoneMap(P, Q, v.f),
                None if v.g is None else MonotoneMap(Q, P, v.g),
            )
            for law_id in LAW_IDS:
                report = eval_law(law_id, ac)
                if report.skipped is not None:
                    skipped += 1
                    assert v[law_id] is None, (P.name, Q.name, v.f, v.g, law_id)
                else:
                    decided += 1
                    assert v[law_id] is report.holds, (P.name, Q.name, v.f, v.g, law_id)
    assert skipped > 0 and decided > 0
