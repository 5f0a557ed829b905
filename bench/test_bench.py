"""Tests of the benchmark itself: seed handling, output checks, span arithmetic.

    python3 -m pytest bench
"""

import hashlib
import json
import re

import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS, CheckFailed, Workload, divisors, quantale_moduli, quantale_stdout

QUANTALE_12 = ["quantale", "--zn", "12", "--principal"]


def test_same_seed_gives_same_argv():
    for workload in WORKLOADS.values():
        for seed in range(20):
            assert workload.argvs(seed) == workload.argvs(seed)


def test_recorded_argv_for_seed_1():
    assert WORKLOADS["verify-catalog"].argvs(1) == [["verify", "--suite", "all"]]
    assert WORKLOADS["search-modular"].argvs(1) == [[
        "search", "--predicate", "(RF0 & LF0) & (!LM0 | !RM0)",
        "--max-size", "6", "--modular", "--all-lattices",
    ]]
    assert WORKLOADS["quantale-zn"].argvs(1) == [
        ["quantale", "--zn", "134640", "--principal"],
        ["quantale", "--zn", "20008504", "--principal"],
    ]


def test_seed_picks_among_inputs_but_not_for_verify():
    assert all(WORKLOADS["verify-catalog"].argvs(s) == [["verify", "--suite", "all"]] for s in range(10))
    predicates = {WORKLOADS["search-modular"].argvs(s)[0][2] for s in range(200)}
    assert predicates == set(workloads.SEARCH_PREDICATES)
    assert len({quantale_moduli(s) for s in range(20)}) > 10


def test_quantale_moduli_shape():
    for seed in range(100):
        dense, sparse = quantale_moduli(seed)
        assert len(divisors(dense)) == 120
        assert dense % (2**4 * 3**2) == 0
        assert 2 * 10**7 <= sparse < 2 * 10**7 * 1.02
        assert len(divisors(sparse)) == 16


def test_divisors_agree_with_a_scan():
    for n in (1, 2, 12, 36, 97, 1024, 134640):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_quantale_check_accepts_the_exact_report():
    want = quantale_stdout(12)
    assert want.splitlines()[0] == b"quantale Zn12: elements=6 unit=(1) integral=yes"
    assert workloads._check_quantale(QUANTALE_12, 0, want) == 6


@pytest.mark.parametrize("corrupt", [
    lambda b: b.replace(b"yes", b"no", 1),
    lambda b: b[:-1],
    lambda b: b + b"elem (24): principal=yes weak-principal=yes\n",
    lambda b: b.replace(b"(2)", b"(5)"),
])
def test_quantale_check_rejects_corrupted_stdout(corrupt):
    with pytest.raises(CheckFailed):
        workloads._check_quantale(QUANTALE_12, 0, corrupt(quantale_stdout(12)))


def test_checks_reject_wrong_exit_codes():
    with pytest.raises(CheckFailed):
        workloads._check_quantale(QUANTALE_12, 1, quantale_stdout(12))
    with pytest.raises(CheckFailed):
        workloads._check_search(["search"], 1, workloads.SEARCH_STDOUT)
    with pytest.raises(CheckFailed):
        workloads._check_verify(["verify"], 0, b"")


def test_search_check():
    assert workloads._check_search(["search"], 0, b"not found (24522 cases)\n") == 24522
    for bad in (b"not found (24521 cases)\n", b"not found (24522 cases)", b"found P=C1 Q=C1\n"):
        with pytest.raises(CheckFailed):
            workloads._check_search(["search"], 0, bad)


def test_verify_check_rejects_a_near_copy():
    lines = b"suite lm: lattices=11 pairs=121 cases=3210 disagreements=0\nresult: fail\n"
    assert workloads.suite_cases(lines) == 3210
    with pytest.raises(CheckFailed):
        workloads._check_verify(["verify"], 1, lines)


def _fake(check):
    return Workload("fake", "test", lambda seed: [QUANTALE_12], check)


def test_op_on_the_real_program_passes():
    op = run.run_op(_fake(workloads._check_quantale), [QUANTALE_12], False, None, [])
    assert op.error is None
    assert op.cases == 6
    assert op.stdout_bytes == len(quantale_stdout(12))
    assert op.seconds > 0 and op.cpu_s > 0 and op.rss_mb > 1


def test_op_with_corrupted_stdout_fails():
    def corrupting(argv, code, stdout):
        return workloads._check_quantale(argv, code, stdout.replace(b"yes", b"no", 1))

    assert run.run_op(_fake(corrupting), [QUANTALE_12], False, None, []).error is not None


def test_op_whose_stdout_differs_from_the_first_op_fails():
    digests = [hashlib.sha256(b"something else").hexdigest()]
    op = run.run_op(_fake(workloads._check_quantale), [QUANTALE_12], False, None, digests)
    assert "differs" in op.error


def test_traced_op_counts_layer_work():
    workload = _fake(workloads._check_quantale)
    first = run.run_op(workload, [QUANTALE_12], True, None, [])
    assert first.error is None
    layers = first.layers
    assert layers["quantale.is_principal.calls"] == 6
    assert layers["quantale.element_connection.calls"] == 12
    assert layers["quantale.residual.calls"] == 6 * 6 * 3
    assert layers["laws.eval_law.calls"] == 4 * 6
    assert layers["laws.eval_law.holds"] == 4 * 6
    assert layers["lattice.build.calls"] == 2  # divisor_lattice and its from_leq
    assert set(layers) == set(tracing.PER_LAYER) - {"cli.stdout_bytes", "trace.overhead_ratio"}
    again = run.run_op(workload, [QUANTALE_12], True, first, [])
    assert again.error is None


def test_traced_op_with_different_counts_fails():
    workload = _fake(workloads._check_quantale)
    first = run.run_op(workload, [QUANTALE_12], True, None, [])
    first.layers["quantale.residual.calls"] += 1
    assert "counts differ" in run.run_op(workload, [QUANTALE_12], True, first, []).error


def test_setup_probe_measures_the_checkout():
    samples = run.measure_setup()
    assert len(samples) == run.SETUP_PROBES
    assert all(0 < s < 10 for s in samples)


def _trace(spans, counters=None):
    """A dumped trace from (name, parent, start, end, value) tuples."""
    names = sorted({s[0] for s in spans})
    return {
        "names": names,
        "name": [names.index(s[0]) for s in spans],
        "parent": [s[1] for s in spans],
        "start": [s[2] for s in spans],
        "end": [s[3] for s in spans],
        "value": [s[4] for s in spans],
        "counters": counters or {},
    }


def test_self_time_subtracts_nested_children():
    start, end, parent = [0, 10, 40, 45], [100, 30, 60, 50], [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent) == [60, 20, 15, 5]


def test_self_time_counts_overlapping_children_once():
    assert tracing.self_times([0, 10, 30], [100, 50, 70], [-1, 0, 0]) == [40, 40, 40]
    assert tracing.self_times([0, 10, 20], [100, 80, 30], [-1, 0, 0]) == [30, 70, 10]


def test_self_time_ignores_a_child_outside_its_parent():
    assert tracing.self_times([0, 90], [100, 130], [-1, 0]) == [90, 40]


def test_layer_metrics_from_spans():
    enum, maps = "connection.enumerate_adjoint_connections", "lattice.monotone_maps"
    trace = _trace(
        [
            (enum, -1, 0, 1000, 3),          # cache miss: examines 10 maps, yields 3
            (maps, 0, 100, 400, 10),
            (enum, -1, 1000, 1100, 3),       # cache hit: yields the same 3
            ("laws.eval_law.LM0", -1, 2000, 2100, tracing.HOLDS),
            ("laws.eval_law.LM0", -1, 2100, 2300, tracing.FAILS),
            ("laws.eval_law.RF0", -1, 2300, 2400, tracing.SKIPPED),
            ("cli.run", -1, 0, 5000, -1),
        ],
        {"laws.eval_law.distinct": 2},
    )
    m = tracing.layer_metrics(trace)
    assert m[f"{enum}.calls"] == 2
    assert m[f"{enum}.yielded"] == 6
    assert m[f"{enum}.examined"] == 10
    assert m["connection.adjoint_yield"] == pytest.approx(0.3)
    assert m[f"{enum}.self_s"] == pytest.approx(800e-9)
    assert m["lattice.monotone_maps.maps"] == 10
    assert (m["laws.eval_law.holds"], m["laws.eval_law.fails"], m["laws.eval_law.skipped"]) == (1, 1, 1)
    assert m["laws.eval_law.fails_s"] == pytest.approx(200e-9)
    assert m["laws.eval_law.LM0.calls"] == 2
    assert m["laws.eval_law.repeat_ratio"] == pytest.approx(1.5)
    assert m["cli.run.self_s"] == pytest.approx(5000e-9)


def test_merge_keeps_parents_and_sums_counters():
    a = _trace([("laws.eval_law.LM0", -1, 0, 10, 0)], {"laws.eval_law.distinct": 1})
    b = _trace([("cli.run", -1, 0, 50, -1), ("laws.eval_law.LM0", 0, 10, 20, 0)],
               {"laws.eval_law.distinct": 1})
    merged = tracing.merge([a, b])
    assert merged["parent"] == [-1, -1, 1]
    m = tracing.layer_metrics(json.loads(json.dumps(merged)))
    assert m["laws.eval_law.calls"] == 2
    assert m["laws.eval_law.repeat_ratio"] == 1.0
    assert m["cli.run.self_s"] == pytest.approx(40e-9)


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 and re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
