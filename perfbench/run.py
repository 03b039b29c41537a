"""phqm-kit benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run: set-up is
done in three fresh processes (the median is ``setup_s``) and the last one
then runs ops for ``--seconds``.  ``--trace 1`` prints the per-layer metrics
of a traced run over a fixed, seed-determined op list.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine block and
run details (sample count, failures by class, trace checks).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# A run must end within 180 s; workers still running at this point are stopped.
DEADLINE_S = 170
WORKER = os.path.join(HERE, "worker.py")
IMPORTS = {"import.phqm_cli_ms": "phqm.cli", "import.scipy_integrate_ms": "scipy.integrate",
           "import.scipy_linalg_ms": "scipy.linalg"}
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PHQM_THREADS")
END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in spans.TARGETS:
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units["cli.encoded_entries"] = "count"
    units["cli.record_bytes"] = "bytes"
    units.update({metric: "ms" for metric in IMPORTS})
    units.update({f"{layer}.share": "ratio" for layer in spans.LAYERS})
    units.update({"trace.overhead_ratio": "ratio", "trace.op_wall_ms": "ms",
                  "trace.unattributed_ms": "ms"})
    return units


def machine() -> dict:
    """Hardware, versions, BLAS and thread settings (recorded, never pinned)."""
    blas = None
    try:
        import numpy

        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (ImportError, KeyError, TypeError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions, "blas": blas,
            "threads_env": {k: os.environ.get(k) for k in THREAD_ENV}, "git_commit": commit}


def _worker(args, mode: str, workdir: str, importtime: bool = False):
    """Run one worker process; returns (result dict, captured stderr)."""
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir,
        "--result", result_path]
    # own process group, so a timeout also stops the CLI launches it started
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE if importtime else None,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker ({mode}) still running at the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh), stderr or ""


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, tmp: str):
    setups = []
    for k in range(SETUP_REPEATS - 1):
        res, _ = _worker(args, "setup", os.path.join(tmp, f"setup{k}"))
        setups.append(res)
    res, _ = _worker(args, "measure", os.path.join(tmp, "measure"))
    setups.append(res)
    tally = res["tally"]
    times_ms = [t * 1000.0 for t in tally["times"]]
    failed = sum(tally["failures"].values())
    p90 = quantile(times_ms, 90)
    metrics = {
        "ops_per_s": (len(times_ms) - failed) / (sum(times_ms) / 1000.0),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_p90": p90,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    warm_failed = sum(sum(s["warmup"]["failures"].values()) for s in setups)
    detail = {"samples": len(times_ms), "beyond_p90": sum(t > p90 for t in times_ms),
              "setup_runs_s": [s["setup_s"] for s in setups],
              "failures": tally["failures"], "warmup_failed": warm_failed,
              "messages": tally["messages"] + [m for s in setups for m in s["warmup"]["messages"]]}
    correct = failed == 0 and warm_failed == 0
    return correct, len(times_ms), failed, metrics, detail


def per_layer(args, tmp: str):
    warm = args.workload != "cli_cold"
    res, stderr = _worker(args, "trace", os.path.join(tmp, "trace"), importtime=warm)
    traced, untraced = res["traced"], res["untraced"]
    with open(traced["spans_file"]) as fh:
        recorded = json.load(fh)
    windows = {int(k): tuple(v) for k, v in traced["windows"].items()}
    attr = spans.attribute(recorded, windows)
    per_name = attr["per_name"]

    metrics = {}
    for name in spans.TARGETS:
        entry = per_name.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}.self_ms"] = entry["self_s"] * 1000.0
        metrics[f"{name}.calls"] = entry["calls"]
    metrics["cli.encoded_entries"] = per_name.get("cli.encode", {}).get("count", 0)
    metrics["cli.record_bytes"] = traced["record_bytes"]

    imports = traced["import_us"] or [spans.parse_importtime(stderr)]
    for metric, module in IMPORTS.items():
        metrics[metric] = statistics.median(d.get(module, 0) for d in imports) / 1000.0

    wall = attr["op_wall_s"]
    for layer in spans.LAYERS:
        own = sum(e["self_s"] for n, e in per_name.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.share"] = own / wall
    metrics["trace.overhead_ratio"] = sum(untraced["times"]) / sum(traced["tally"]["times"])
    metrics["trace.op_wall_ms"] = wall * 1000.0
    metrics["trace.unattributed_ms"] = attr["unattributed_s"] * 1000.0

    failures = {k: untraced["failures"][k] + traced["tally"]["failures"][k]
                for k in workloads.FAILURE_CLASSES}
    failed = sum(failures.values())
    warm_failed = sum(res["warmup"]["failures"].values())
    # closure: per op, layer self times plus the remainder equal the op wall time
    closes = attr["max_closure_error_s"] <= 1e-9 * max(wall, 1.0) and attr["stray_spans"] == 0
    detail = {"trace_ops": len(windows), "failures": failures, "warmup_failed": warm_failed,
              "bindings_restored": traced["bindings_restored"], "closure_ok": closes,
              "max_closure_error_s": attr["max_closure_error_s"],
              "parallel_spans": attr["parallel_spans"],
              "messages": untraced["messages"] + traced["tally"]["messages"]}
    correct = failed == 0 and warm_failed == 0 and traced["bindings_restored"] and closes
    attempted = len(untraced["times"]) + len(traced["tally"]["times"])
    return correct, attempted, failed, metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.deadline = time.monotonic() + DEADLINE_S

    if not (os.path.isfile(os.path.join("src", "phqm", "cli.py"))
            and os.path.isdir("scenarios")):
        print("error: run from the root of a phqm-kit checkout (src/phqm and scenarios/ "
              "are missing here)", file=sys.stderr)
        return 2

    tmp = os.path.join(".perfbench_tmp", f"run-{os.getpid()}")
    run, units = (per_layer, per_layer_units()) if args.trace else (end_to_end, END_TO_END)
    try:
        correct, attempted, failed, metrics, detail = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine(), "detail": detail}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
