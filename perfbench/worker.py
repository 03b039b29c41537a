"""One benchmark process: set up, then measure or trace a workload.

Started by ``run.py`` from the root of a checkout; writes its result as JSON
to ``--result``.  Modes:

setup    import, generate the warm-up inputs, run one warm-up op per class,
         report the set-up time and exit.
measure  set up, then run seeded ops one after another (closed loop, one
         client) for ``--seconds`` and report every op's wall time.
trace    set up, then run a fixed, seed-determined op list twice: untraced,
         then with span wrappers installed.  The list is fixed rather than
         timed so that call counts repeat exactly for a given seed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# Ops in the fixed list of a traced run, a whole number of schedule cycles.
TRACE_OPS = {"cli_cold": 24, "records_warm": 48, "spectral_lib": 40}

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")


def _make_runner(workload: str, workdir: str):
    if workload == "cli_cold":
        return workloads.CliRunner(workdir, cold=True)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import phqm.cli

    if not os.path.abspath(phqm.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"phqm imported from {phqm.cli.__file__}, not from {src}")
    if workload == "records_warm":
        return workloads.CliRunner(workdir, cold=False)
    return workloads.LibraryRunner()


class Tally:
    """Op outcomes: wall times, failures by class and the first messages."""

    def __init__(self):
        self.times = []
        self.failures = {k: 0 for k in workloads.FAILURE_CLASSES}
        self.messages = []

    def add(self, i: int, op: dict, outcome) -> None:
        start, end, kind, message = outcome
        self.times.append(end - start)
        if kind:
            self.failures[kind] += 1
            if len(self.messages) < 5:
                self.messages.append(f"op {i} ({op['cls']}): {kind}: {message}")

    def as_dict(self) -> dict:
        return {"times": self.times, "failures": self.failures, "messages": self.messages}


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _traced_pass(args, runner, workdir: str) -> dict:
    rec = spans.Recorder()
    windows = {}
    tally = Tally()
    import_us = []
    before = spans.phqm_bindings()
    restore = spans.install(rec) if args.workload != "cli_cold" else None
    record_bytes = 0
    try:
        for i in range(TRACE_OPS[args.workload]):
            op = workloads.make_op(args.workload, args.seed, i)
            prefix = None
            if args.workload == "cli_cold":
                span_file = os.path.join(workdir, "launch_spans.json")
                prefix = [sys.executable, "-X", "importtime", LAUNCHER, "--spans", span_file]
            rec.op = i
            outcome = workloads.run_op(runner, op, prefix)
            tally.add(i, op, outcome)
            windows[i] = outcome[:2]
            record_bytes += runner.record_bytes if not outcome[2] else 0
            if prefix:
                _merge_launch(rec, span_file, i)
                import_us.append(spans.parse_importtime(runner.last_stderr.decode(errors="replace")))
    finally:
        if restore:
            restore()
    restored = spans.phqm_bindings()
    identical = before.keys() == restored.keys() and all(restored[k] is v for k, v in before.items())
    path = os.path.join(workdir, "spans.json")
    rec.dump(path)
    return {"tally": tally.as_dict(), "spans_file": path, "windows": windows,
            "record_bytes": record_bytes, "bindings_restored": identical,
            "import_us": import_us}


def _merge_launch(rec: spans.Recorder, path: str, op: int) -> None:
    """Append a launch's spans, re-indexing parents and tagging the op."""
    try:
        with open(path) as fh:
            child = json.load(fh)
        os.remove(path)
    except OSError:
        return  # the launch failed before writing spans; its op is counted failed
    base = len(rec.spans)
    for name, start, end, parent, _, count, lane in child:
        rec.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, count, lane])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    runner = _make_runner(args.workload, args.workdir)
    warm = Tally()
    for k, op in enumerate(workloads.warmup_ops(args.workload, args.seed)):
        warm.add(k, op, workloads.run_op(runner, op))
    result = {"setup_s": time.perf_counter() - T0, "warmup": warm.as_dict()}

    if args.mode == "measure":
        tally = Tally()
        stop = time.perf_counter() + args.seconds
        i = 0
        while time.perf_counter() < stop:
            op = workloads.make_op(args.workload, args.seed, i)
            tally.add(i, op, workloads.run_op(runner, op))
            i += 1
        result["tally"] = tally.as_dict()
    elif args.mode == "trace":
        untraced = Tally()
        for i in range(TRACE_OPS[args.workload]):
            op = workloads.make_op(args.workload, args.seed, i)
            untraced.add(i, op, workloads.run_op(runner, op))
        result["untraced"] = untraced.as_dict()
        result["traced"] = _traced_pass(args, runner, args.workdir)
    result["peak_rss_mb"] = _peak_rss_mb(args.workload)

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
