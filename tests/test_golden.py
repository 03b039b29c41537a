"""Every committed scenario's record against ``tests/golden/records.json``.

The golden file holds each record as ``cli.run`` writes it, ``timing_s``
left out and each matrix of more than SUMMARY_ENTRIES entries replaced by
its shape, its Frobenius norm and every STRIDE-th entry.  It is check data:
a change that moves a record rewrites it in the same commit with

    PYTHONPATH=src python tests/test_golden.py

and names each moved key; it is never rewritten to make a failing run pass.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from phqm import cli

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "records.json")
SCENARIO_DIR = os.path.join(HERE, "..", "scenarios")
SCENARIOS = sorted(name for name in os.listdir(SCENARIO_DIR) if name.endswith(".json"))

_PATH = os.path.join(HERE, "..", ".github", "record_drift.py")
_SPEC = importlib.util.spec_from_file_location("record_drift", _PATH)
record_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_drift)

SUMMARY_ENTRIES = 10_000  # kernel_barrier's 400x400 eta is the one matrix above it
STRIDE = 997

# A number passes when it is within REL_BUDGET relative or ABS_BUDGET absolute
# of its golden value.  Records are bit-identical run to run at one BLAS
# thread count; between 1 and 2 OpenBLAS threads 12 of 14 stay bit-identical,
# quartic's spectra move by at most 1.8e-12 relative, one of its rounding-level
# gate values by 7.7e-13 absolute (58% relative), and kernel_barrier's
# scalars by 1.1e-16.  The budgets sit 55x and 13x above the worst of those,
# and no wider: a gate value above 1e-2 moved by 1e-9 of itself fails.
REL_BUDGET = 1e-10
ABS_BUDGET = 1e-11


def golden_form(record: dict) -> dict:
    """``record`` as JSON reads it back, without ``timing_s``, its large
    matrices summarised."""
    record = json.loads(json.dumps({k: v for k, v in record.items() if k != "timing_s"}))
    matrices = record.get("matrices", {})
    for name, pairs in matrices.items():
        entries = np.array(pairs, dtype=float)  # [re, im] in the matrix's shape
        if entries.size // 2 > SUMMARY_ENTRIES:
            matrices[name] = {"shape": list(entries.shape[:-1]),
                              "frobenius": float(np.sqrt(np.sum(entries * entries))),
                              "sample": entries.reshape(-1, 2)[::STRIDE].tolist()}
    return record


def records(name: str):
    """The golden form of a scenario file's record, or list of records for a batch."""
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        payload = json.load(fh)
    if isinstance(payload, list):
        return [golden_form(cli.run(config)) for config in payload]
    return golden_form(cli.run(payload))


def _numbers(value, place=""):
    """(place, number) for each number a JSON value holds, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{place}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{place}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield place, value


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_file_covers_every_committed_scenario(golden):
    assert sorted(golden) == SCENARIOS


@pytest.mark.parametrize("name", SCENARIOS)
def test_committed_scenario_reproduces_its_golden_record(name, golden):
    base, head = golden[name], records(name)
    # None: keys, shapes, strings (error classes and types) or booleans
    # (pass flags, all_pass) differ
    assert record_drift.largest_difference(base, head) is not None, f"{name} moved beyond numbers"
    over = []
    for (place, b), (_, h) in zip(_numbers(base), _numbers(head)):
        gap_abs, gap_rel = record_drift.largest_difference(b, h)
        if gap_abs > ABS_BUDGET and gap_rel > REL_BUDGET:
            over.append(f"{place}: {b!r} -> {h!r}")
    assert not over, f"{name}: {len(over)} numbers outside the budget, first {over[:5]}"


if __name__ == "__main__":
    golden_records = {name: records(name) for name in SCENARIOS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden_records, fh, indent=1)
        fh.write("\n")
