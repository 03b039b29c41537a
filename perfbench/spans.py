"""Span recorder, wrapper installer and self-time arithmetic (stdlib only).

A span is ``[name, start, end, parent, op, count, lane]``: ``parent`` is the
index of the enclosing span in the same thread (-1 at top level), ``op`` the
id of the benchmark op running when it opened, ``count`` an optional work
count (matrix entries for the CLI encoders) and ``lane`` 0 for the thread
that created the recorder, 1 for any other (the CLI runs a batch scenario
file on a thread pool, so those spans overlap the op's own).  Times come
from ``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, so spans
written by a child process compare with op windows timed by its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# Span name -> (home module, function names).  Every phqm module that binds
# one of these functions gets the wrapper, e.g. ``opnorm`` in linalg,
# metric, models and perturbation.  ``commutator`` lives in linalg but only
# the perturbation hierarchy calls it, so its span is named for that layer.
TARGETS = {
    "cli.main": ("phqm.cli", ("main",)),
    "cli.run": ("phqm.cli", ("run",)),
    "cli.parse": ("phqm.cli", ("parse_vector", "parse_matrix", "validate_scenario")),
    "cli.encode": ("phqm.cli", ("encode_vector", "encode_matrix")),
    "linalg.eig_nonhermitian": ("phqm.linalg", ("eig_nonhermitian",)),
    "linalg.opnorm": ("phqm.linalg", ("opnorm",)),
    "linalg.hermitian_function": ("phqm.linalg", ("hermitian_function",)),
    "biortho.biorthonormal_extension": ("phqm.biortho", ("biorthonormal_extension",)),
    "metric.metric_from_spectrum": ("phqm.metric", ("metric_from_spectrum",)),
    "metric.pseudo_metric_family": ("phqm.metric", ("pseudo_metric_family",)),
    "metric.build_system": ("phqm.metric", ("build_system",)),
    "metric.pseudo_hermiticity_residual": ("phqm.metric", ("pseudo_hermiticity_residual",)),
    "perturbation.q_series": ("phqm.perturbation", ("q_series",)),
    "perturbation.solve_commutator": ("phqm.perturbation", ("solve_commutator",)),
    "perturbation.commutator": ("phqm.linalg", ("commutator",)),
    "models.quartic_pair": ("phqm.models", ("quartic_pair",)),
    "models.swanson_truncated": ("phqm.models", ("swanson_truncated",)),
    "models.kernel_metric": ("phqm.models", ("kernel_metric",)),
    "em.propagate": ("phqm.em", ("propagate",)),
    "em.fdtd_oracle": ("phqm.em", ("fdtd_oracle",)),
    "classical.flow": ("phqm.classical", ("flow",)),
    "classical.real_hamiltonians": ("phqm.classical", ("real_hamiltonians",)),
    "statespace.optimal_hamiltonian": ("phqm.statespace", ("optimal_hamiltonian",)),
    "statespace.evolve": ("phqm.statespace", ("evolve",)),
}

# The launcher of a traced cold op records its ``import phqm.cli`` as a span.
IMPORT_SPAN = "import.phqm_cli"

LAYERS = ("import", "cli", "linalg", "biortho", "metric", "perturbation",
          "models", "statespace", "classical", "em")


def _entries(m, *args, **kwargs) -> int:
    size = getattr(m, "size", None)
    return int(size) if size is not None else len(m)


COUNTERS = {"cli.encode": _entries}


class Recorder:
    """Keeps spans in memory; ``op`` tags the spans opened while it is set."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, count=None):
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            lane = 0 if threading.get_ident() == self._main else 1
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op,
                    count(*args, **kwargs) if count else 0, lane]
            with lock:
                stack.append(len(spans))
                spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span timed by the caller."""
        self.spans.append([name, start, end, -1, self.op, 0, 0])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder, targets: dict = TARGETS):
    """Rebind every target in every loaded phqm module to a recording wrapper.

    Returns a function that restores the original bindings.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "phqm" or name.startswith("phqm."))]
    replaced = []
    for span_name, (home, funcs) in targets.items():
        for func in funcs:
            original = getattr(sys.modules[home], func)
            wrapper = recorder.wrap(span_name, original, COUNTERS.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))

    def restore():
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)

    return restore


def phqm_bindings() -> dict:
    """Snapshot of every attribute of every loaded phqm module."""
    return {(name, attr): value
            for name, m in list(sys.modules.items())
            if m is not None and (name == "phqm" or name.startswith("phqm."))
            for attr, value in vars(m).items()}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered(children[k], s[1], s[2]) for k, s in enumerate(spans)]


def attribute(spans, op_windows: dict) -> dict:
    """Per-name self time, calls and counts, plus per-op closure.

    ``op_windows`` maps op id -> (start, end) of its timed window.  For each
    op the self times of its lane-0 spans plus the unattributed remainder (op
    time outside every lane-0 top-level span) add up to the op wall time;
    ``max_closure_error_s`` reports the largest deviation from that identity.
    Spans on other threads run in parallel with lane 0, so they count towards
    the per-name totals but not towards the identity.
    """
    own = self_times(spans)
    per_name: dict = {}
    self_by_op: dict = {}
    top_by_op: dict = {}
    for s, t in zip(spans, own):
        entry = per_name.setdefault(s[0], {"self_s": 0.0, "calls": 0, "count": 0})
        entry["self_s"] += t
        entry["calls"] += 1
        entry["count"] += s[5]
        if s[6]:
            continue
        self_by_op[s[4]] = self_by_op.get(s[4], 0.0) + t
        if s[3] < 0:
            top_by_op.setdefault(s[4], []).append((s[1], s[2]))
    wall = unattributed = worst = 0.0
    for op, (lo, hi) in op_windows.items():
        rest = (hi - lo) - covered(top_by_op.get(op, []), lo, hi)
        wall += hi - lo
        unattributed += rest
        worst = max(worst, abs(self_by_op.get(op, 0.0) + rest - (hi - lo)))
    stray = sum(1 for s in spans if s[4] not in op_windows)
    return {"per_name": per_name, "op_wall_s": wall, "unattributed_s": unattributed,
            "max_closure_error_s": worst, "stray_spans": stray,
            "parallel_spans": sum(s[6] for s in spans)}


def parse_importtime(stderr: str) -> dict:
    """Cumulative microseconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1])
    return out
