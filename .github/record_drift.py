"""Report scenario records that differ between two source trees.

    python .github/record_drift.py BASE_TREE HEAD_TREE

Each tree's ``src/phqm`` runs ``cli.run`` on every scenario in
HEAD_TREE/scenarios in its own process.  The records are compared
as parsed JSON, key by key, with ``timing_s`` left out; every scenario whose
record differs is printed as a Markdown table row with the differing keys.
This is a report, not a gate: a correctness fix changes records on purpose,
so the exit status is 0 whatever differs.
"""

from __future__ import annotations

import json
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


def differing_keys(base: list, head: list) -> list:
    """Keys whose JSON text differs, as ``[i].key`` for a batch; NaN equals NaN."""
    keys = []
    for i, (b, h) in enumerate(zip(base, head)):
        prefix = f"[{i}]." if len(head) > 1 else ""
        for key in sorted(set(b) | set(h)):
            if json.dumps(b.get(key), sort_keys=True) != json.dumps(h.get(key), sort_keys=True):
                keys.append(prefix + key)
    return keys


def main(argv: list) -> int:
    base_tree, head_tree = (os.path.abspath(p) for p in argv[:2])
    scenario_dir = os.path.join(head_tree, "scenarios")
    scenarios = sorted(os.path.join(scenario_dir, name) for name in os.listdir(scenario_dir)
                       if name.endswith(".json"))
    base, head = records(base_tree, scenarios), records(head_tree, scenarios)
    drift = [(os.path.basename(p), differing_keys(base[p], head[p])) for p in scenarios]
    drift = [(name, keys) for name, keys in drift if keys]
    print(f"### Record drift against the base commit: {len(drift)} of {len(scenarios)} "
          "scenarios differ (timing_s ignored)\n")
    if drift:
        print("| scenario | differing keys |\n|---|---|")
        for name, keys in drift:
            print(f"| `{name}` | {', '.join(f'`{k}`' for k in keys)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
