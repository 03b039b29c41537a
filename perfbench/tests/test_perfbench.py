"""Tests for the benchmark's own code: inputs, span arithmetic, wrappers, checks."""

import json
import os

import numpy as np
import pytest

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def input_bytes(op: dict) -> bytes:
    """Canonical bytes of an op's input, for determinism checks."""
    inp = op["input"]
    if isinstance(inp, str):
        return inp.encode()
    parts = []
    for key in sorted(inp):
        value = inp[key]
        parts.append(key.encode())
        parts.append(np.asarray(value).tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return b"\0".join(parts)


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_byte_identical_per_seed(workload, in_root):
    n = len(workloads.SCHEDULE[workload]) + 3
    first = [input_bytes(workloads.make_op(workload, 7, i)) for i in range(n)]
    again = [input_bytes(workloads.make_op(workload, 7, i)) for i in range(n)]
    other = [input_bytes(workloads.make_op(workload, 8, i)) for i in range(n)]
    assert first == again
    assert first != other
    warm = [input_bytes(op) for op in workloads.warmup_ops(workload, 7)]
    assert warm == [input_bytes(op) for op in workloads.warmup_ops(workload, 7)]


def _span(name, start, end, parent, op=0, lane=0):
    return [name, start, end, parent, op, 0, lane]


def test_self_time_subtracts_child_coverage():
    recorded = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("d", 2.0, 3.0, 1),
        _span("c", 5.0, 7.0, 0),
        _span("e", 11.0, 12.0, -1),
    ]
    assert spans.self_times(recorded) == [5.0, 2.0, 1.0, 2.0, 1.0]
    attr = spans.attribute(recorded, {0: (-1.0, 13.0)})
    assert attr["unattributed_s"] == pytest.approx(3.0)
    assert attr["max_closure_error_s"] == pytest.approx(0.0, abs=1e-12)
    assert attr["per_name"]["a"] == {"self_s": 5.0, "calls": 1, "count": 0}


def test_overlapping_children_are_covered_once():
    recorded = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 4.0, 0), _span("c", 3.0, 6.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(5.0)
    assert spans.covered([(1.0, 4.0), (3.0, 6.0), (8.0, 20.0)], 0.0, 10.0) == pytest.approx(7.0)


def test_other_threads_are_kept_out_of_the_closure():
    recorded = [_span("a", 0.0, 4.0, -1), _span("b", 1.0, 3.0, -1, lane=1)]
    attr = spans.attribute(recorded, {0: (0.0, 5.0)})
    assert attr["max_closure_error_s"] == pytest.approx(0.0, abs=1e-12)
    assert attr["parallel_spans"] == 1
    assert attr["per_name"]["b"]["self_s"] == pytest.approx(2.0)


def test_install_records_calls_and_restore_leaves_phqm_identical():
    import phqm.cli  # noqa: F401  (loads every phqm module)
    from phqm import linalg, metric

    before = spans.phqm_bindings()
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert metric.opnorm is not before[("phqm.metric", "opnorm")]
        eta = np.eye(3, dtype=complex)
        metric.pseudo_hermiticity_residual(np.diag([1.0, 2.0, 3.0]), eta)
    finally:
        restore()
    after = spans.phqm_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert linalg.opnorm is before[("phqm.linalg", "opnorm")]
    names = [s[0] for s in rec.spans]
    assert names[0] == "metric.pseudo_hermiticity_residual"
    assert names.count("linalg.opnorm") == 2
    assert all(s[3] == 0 for s in rec.spans[1:])


def _write(tmp_path, payload):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_rejects_record_without_all_pass(tmp_path):
    bad = {"all_pass": False, "residuals": [{"name": "x", "pass": False}]}
    with pytest.raises(workloads.OpFailure) as exc:
        workloads.check_record_file(_write(tmp_path, bad))
    assert exc.value.kind == "residual"
    with pytest.raises(workloads.OpFailure):
        workloads.check_record_file(_write(tmp_path, [{"all_pass": True}, bad]))
    good = _write(tmp_path, {"all_pass": True})
    assert workloads.check_record_file(good) == os.path.getsize(good)
    assert [workloads.classify_exit(c) for c in (0, 2, 3, 1)] == [None, "residual", "input", "other"]


def test_check_rejects_a_real_failing_record(tmp_path, in_root):
    # a delta kernel below KERNEL_ZETA fits order 1.25 on n = 200, so the
    # CLI writes all_pass: false and exits 2; the check must count it
    runner = workloads.CliRunner(str(tmp_path), cold=False)
    scenario = {"command": "model", "model": {
        "kind": "kernel", "kind_detail": "delta", "zeta": 0.1, "n": 200}}
    outcome = workloads.run_op(runner, {"cls": "kernel", "input": json.dumps(scenario)})
    assert outcome[2] == "residual"
    with pytest.raises(workloads.OpFailure):
        workloads.check_record_file(runner.out)


def test_library_check_rejects_a_missed_tolerance():
    runner = workloads.LibraryRunner()
    lam = np.array([1.0, 2.0, 3.0])
    op = {"cls": "hermitian_route", "input": {"A": np.diag(lam).astype(complex), "lam": lam}}
    runner.check(op, runner.execute(op))
    op["input"]["lam"] = lam + 1e-6
    with pytest.raises(workloads.OpFailure) as exc:
        runner.check(op, runner.execute(op))
    assert exc.value.kind == "residual"


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       657 |     665448 |       scipy.integrate\n"
            "import time:     10163 |     907647 | phqm.cli\n")
    assert spans.parse_importtime(text) == {"scipy.integrate": 665448, "phqm.cli": 907647}


def test_benchmark_json_lists_what_the_runs_print():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
