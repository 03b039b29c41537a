import importlib.util
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", ".github", "record_drift.py")
_SPEC = importlib.util.spec_from_file_location("record_drift", _PATH)
record_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_drift)

BASE = [
    {"command": "em", "all_pass": True, "timing_s": 0.5,
     "scalars": {"fdtd_l2_error": 8.5e-3, "slow_variation_diagnostic": 0.02},
     "curves": {"snapshot": {"columns": ["z", "E"], "rows": [[0.0, 1.0], [1.0, 0.25]]}}},
    {"command": "model", "all_pass": True, "scalars": {"gap": float("nan"), "n": 4}},
]


def _head():
    head = [{**r, "scalars": dict(r["scalars"])} for r in BASE]
    head[0]["curves"] = {"snapshot": {"columns": ["z", "E"],
                                      "rows": [[0.0, 1.0 + 2**-52], [1.0, 0.25 - 2**-55]]}}
    head[0]["scalars"]["fdtd_l2_error"] = 8.5e-3 * (1 + 1e-12)
    return head


def test_equal_records_do_not_drift_and_nan_equals_nan():
    assert record_drift.drift(BASE, BASE) == []
    assert record_drift.drift(BASE, [dict(r) for r in BASE]) == []


def test_each_differing_key_carries_its_largest_differences():
    rows = dict(record_drift.drift(BASE, _head()))
    assert rows.keys() == {"[0].curves", "[0].scalars"}
    abs_c, rel_c = rows["[0].curves"]
    assert abs_c == 2**-52 and rel_c == pytest.approx(2**-52, rel=1e-12)
    abs_s, rel_s = rows["[0].scalars"]
    assert abs_s == pytest.approx(8.5e-15, rel=1e-3) and rel_s == pytest.approx(1e-12, rel=1e-3)


def test_a_change_beyond_numbers_has_no_size():
    head = _head()
    head[1] = {**head[1], "all_pass": False, "scalars": {"gap": 1.0, "n": 4}}
    head[0]["curves"]["snapshot"]["columns"] = ["z", "H"]
    rows = dict(record_drift.drift(BASE, head))
    assert rows["[0].curves"] is None and rows["[1].all_pass"] is None
    # a NaN that became a number is an infinite difference
    assert rows["[1].scalars"] == (math.inf, math.inf)


def test_a_single_record_is_keyed_without_an_index():
    rows = record_drift.drift(BASE[:1], _head()[:1])
    assert [key for key, _ in rows] == ["curves", "scalars"]
    # a number equal in value but not in text, 1 against 1.0, differs by nothing
    assert record_drift.drift([{"n": 1}], [{"n": 1.0}]) == [("n", (0.0, 0.0))]
