"""Report scenario records that differ between two source trees.

    python .github/record_drift.py BASE_TREE HEAD_TREE

Each tree's ``src/phqm`` runs ``cli.run`` on every scenario in
HEAD_TREE/scenarios in its own process.  The records are compared
as parsed JSON, key by key, with ``timing_s`` left out; every key that
differs is printed as a Markdown table row with the largest absolute and
relative difference over its numbers, so rounding drift reads as such.
This is a report, not a gate: a correctness fix changes records on purpose,
so the exit status is 0 whatever differs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

# run in a child process whose sys.path holds only one tree's src
RUN_ALL = """
import json, sys
from phqm import cli
out = {}
for path in sys.argv[1:]:
    with open(path) as fh:
        payload = json.load(fh)
    records = [cli.run(sc) for sc in (payload if isinstance(payload, list) else [payload])]
    out[path] = [{k: v for k, v in r.items() if k != "timing_s"} for r in records]
print(json.dumps(out))
"""


def records(tree: str, scenarios: list) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    done = subprocess.run([sys.executable, "-c", RUN_ALL, *scenarios], env=env,
                          capture_output=True, text=True, check=True, cwd=tree)
    return json.loads(done.stdout)


def largest_difference(base, head):
    """(largest |b - h|, largest |b - h| / max(|b|, |h|)) over the numbers
    two JSON values hold at the same place, NaN equal to NaN; None when
    the values differ in anything but numbers."""
    pairs = []

    def walk(b, h) -> bool:
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (b, h)):
            pairs.append((float(b), float(h)))
            return True
        if isinstance(b, dict) and isinstance(h, dict):
            return b.keys() == h.keys() and all(walk(b[k], h[k]) for k in b)
        if isinstance(b, list) and isinstance(h, list):
            return len(b) == len(h) and all(walk(x, y) for x, y in zip(b, h))
        return b == h

    if not walk(base, head):
        return None
    diffs = [_gap(b, h) for b, h in pairs if b != h and not (math.isnan(b) and math.isnan(h))]
    return tuple(max(column) for column in zip(*diffs)) or (0.0, 0.0)


def _gap(b: float, h: float) -> tuple:
    """Absolute and relative difference of two unequal numbers; both are
    inf where a NaN or an infinity meets another value."""
    if not (math.isfinite(b) and math.isfinite(h)):
        return math.inf, math.inf
    return abs(b - h), abs(b - h) / max(abs(b), abs(h))


def drift(base: list, head: list) -> list:
    """(key, largest_difference) for each key whose JSON text differs, the
    key as ``[i].key`` for a batch; NaN equals NaN."""
    rows = []
    for i, (b, h) in enumerate(zip(base, head)):
        prefix = f"[{i}]." if len(head) > 1 else ""
        for key in sorted(set(b) | set(h)):
            if json.dumps(b.get(key), sort_keys=True) != json.dumps(h.get(key), sort_keys=True):
                rows.append((prefix + key, largest_difference(b.get(key), h.get(key))))
    return rows


def main(argv: list) -> int:
    base_tree, head_tree = (os.path.abspath(p) for p in argv[:2])
    scenario_dir = os.path.join(head_tree, "scenarios")
    scenarios = sorted(os.path.join(scenario_dir, name) for name in os.listdir(scenario_dir)
                       if name.endswith(".json"))
    base, head = records(base_tree, scenarios), records(head_tree, scenarios)
    changed = [(os.path.basename(p), drift(base[p], head[p])) for p in scenarios]
    changed = [(name, rows) for name, rows in changed if rows]
    print(f"### Record drift against the base commit: {len(changed)} of {len(scenarios)} "
          "scenarios differ (timing_s ignored)\n")
    if changed:
        print("| scenario | key | largest abs. difference | largest rel. difference |\n"
              "|---|---|---|---|")
        for name, rows in changed:
            for key, worst in rows:
                cells = ("not in numbers only", "") if worst is None else (
                    f"{worst[0]:.2e}", f"{worst[1]:.2e}")
                print(f"| `{name}` | `{key}` | {cells[0]} | {cells[1]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
