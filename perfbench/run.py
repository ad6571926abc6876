"""coulombflow benchmark: drive the CLI on a named workload and report metrics.

    python3 perfbench/run.py --workload pde-relax --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (``src/coulombflow`` beside this
directory).  The run starts three workload processes in sequence
(``child.py``); each sets up, then runs ops in a closed loop for its share
of ``--seconds``.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  The line before it is ``{"detail": {...}}``: failure
tally, throughput, percentile bookkeeping and machine facts.  ``--out FILE``
also appends the whole record to a JSON-lines file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3               # workload processes per run; setup_s is their median
MAX_PROCESSES = 6        # more are started only after an op was killed
HARD_LIMIT_S = 160.0     # no process outlives this, whatever the ops do
TAIL_BEYOND = 10         # the tail percentile keeps this many samples beyond it,
TAIL_MAX_PCT = 90.0      # and is at most the 90th
MIN_PASS_FRACTION = 0.25 # a shape with fewer passes is timed over all its ops
CAL_REF_S = 0.006        # reference-kernel time that defines one reference second
CAL_WINDOW = 4           # ops on each side whose calibrations scale an op


class RunError(RuntimeError):
    pass


def git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Child:
    """One workload process and the JSON lines it reports."""

    def __init__(self, cmd):
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        self._buf = b""

    def read(self, timeout: float):
        """Next event, or None on timeout; raises EOFError when the process exits."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                return None
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                raise EOFError
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self, finished: bool) -> None:
        """Reap the process: a finished one gets a moment to exit, any other
        is killed."""
        if finished:
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


def shape_name(workload: str, seed: int, index: int) -> str:
    op = next(itertools.islice(workloads.op_stream(workload, seed), index, None))
    return op.shape.name


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int):
    """Run the ops; returns (op records, setup times, facts, absent hooks)."""
    work = root / ".perfbench_work"
    records, setups, facts, absent = [], [], {}, []
    started = time.monotonic()
    next_op = 0
    used = 0.0
    stop = False

    def lost(index, seconds_, error):
        records.append({"op": index, "seconds": seconds_, "error": error, "wrong": [],
                        "traced": False, "shape": shape_name(workload, seed, index),
                        "cal_s": op_cal, "process": k})

    for k in range(MAX_PROCESSES):
        if stop or used >= seconds or time.monotonic() - started > HARD_LIMIT_S - 30:
            break
        budget = (seconds - used) / max(1, SETUPS - k)
        child_dir = work / f"{workload}-{seed}-{k}"
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root),
               "--workload", workload, "--seed", str(seed), "--first-op", str(next_op),
               "--budget", repr(budget), "--trace", str(trace),
               "--work-dir", str(child_dir)]
        if trace:
            (work / "spans").mkdir(parents=True, exist_ok=True)
            cmd += ["--spans-out", str(work / "spans" / f"{workload}-seed{seed}-p{k}.jsonl")]
        child = Child(cmd)
        in_flight = None
        finished = False
        try:
            while True:
                left = HARD_LIMIT_S - (time.monotonic() - started)
                if in_flight is not None:
                    left = min(left, workloads.OP_LIMIT_S - (time.monotonic() - op_started))
                ev = child.read(max(0.0, left))
                if ev is None and in_flight is None:  # the run reached its hard limit
                    if not records:
                        raise RunError("workload process stalled before its first op")
                    stop = True
                    break
                if ev is None:  # the op overran its limit (or the run its hard limit)
                    waited = time.monotonic() - op_started
                    lost(in_flight, waited, "latency_limit")
                    used += waited
                    next_op = in_flight + 1
                    stop = time.monotonic() - started >= HARD_LIMIT_S
                    break
                if ev["event"] == "setup":
                    setups.append((k, ev["setup_s"]))
                    facts = ev["facts"]
                elif ev["event"] == "start":
                    in_flight = ev["op"]
                    op_cal = ev["cal_s"]
                    op_started = time.monotonic()
                elif ev["event"] == "op":
                    in_flight = None
                    ev["process"] = k
                    records.append(ev)
                    used += ev["seconds"]
                    next_op = ev["op"] + 1
                elif ev["event"] == "done":
                    absent = ev["absent_hooks"]
                    finished = True
                    break
        except EOFError:
            if not setups:
                raise RunError("workload process exited during setup "
                               "(is this a coulombflow source checkout?)")
            if in_flight is None:
                raise RunError("workload process exited between ops")
            lost(in_flight, time.monotonic() - op_started, "process_died")
            next_op = in_flight + 1
        finally:
            child.close(finished)
            shutil.rmtree(child_dir, ignore_errors=True)
    if not setups or not records:
        raise RunError("no op was measured")
    return records, setups, facts, absent


def to_reference(records) -> None:
    """Add ``ref_s`` to every op: its wall time in reference seconds, scaled
    by CAL_REF_S over the median calibration of the ops around it in the same
    process.  The host's speed drifts by tens of per cent over minutes; the
    reference kernel drifts with it and shares no code with the program."""
    by_process = defaultdict(list)
    for r in records:
        by_process[r["process"]].append(r)
    for recs in by_process.values():
        cals = [r["cal_s"] for r in recs]
        for i, r in enumerate(recs):
            local = statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            r["ref_s"] = r["seconds"] * CAL_REF_S / local


def setup_reference_s(records, setups) -> float:
    """Median setup time in reference seconds, each process's setup scaled
    by the median calibration of that process's ops."""
    everyone = statistics.median(r["cal_s"] for r in records)
    scaled = []
    for k, seconds in setups:
        cals = [r["cal_s"] for r in records if r["process"] == k]
        scaled.append(seconds * CAL_REF_S / (statistics.median(cals) if cals else everyone))
    return statistics.median(scaled)


def op_times(records, shapes, key="ref_s"):
    """Per-shape op times over passed ops.  A shape where fewer than
    MIN_PASS_FRACTION of the ops passed is timed over all its attempted ops
    (time to the error) instead, and the basis says which."""
    per_shape, basis = {}, {}
    for name in shapes:
        mine = [r for r in records if r.get("shape") == name]
        passed = [r[key] for r in mine if r["error"] is None]
        enough = bool(mine) and len(passed) >= MIN_PASS_FRACTION * len(mine)
        per_shape[name] = passed if enough else [r[key] for r in mine]
        basis[name] = "passed" if enough else "attempted"
    per_shape = {k: v for k, v in per_shape.items() if v}
    return per_shape, basis


def summarize_times(per_shape):
    """op_s_p50 = mean of per-shape medians; op_s_tail scales it by the tail
    of op time over its shape's median, pooled over all ops.  The tail is the
    highest percentile with TAIL_BEYOND samples beyond it, capped at
    TAIL_MAX_PCT: beyond that, a thousand fast failures put the tail on a
    handful of stragglers and it no longer repeats from run to run."""
    medians = {k: statistics.median(v) for k, v in per_shape.items()}
    p50 = statistics.fmean(medians.values())
    ratios = sorted(t / medians[k] for k, v in per_shape.items() for t in v)
    n = len(ratios)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    idx = min(idx, max(0, math.ceil(TAIL_MAX_PCT / 100.0 * n) - 1))
    pct = 100.0 * (idx + 1) / n
    return p50, p50 * ratios[idx], {"percentile": pct, "n": n, "shape_medians_s": medians}


def end_to_end(records, setups, workload):
    shapes = [s.name for s in workloads.WORKLOADS[workload]]
    untraced = [r for r in records if not r.get("traced")]
    per_shape, basis = op_times(untraced, shapes)
    if not per_shape:
        raise RunError("no untraced op was measured")
    p50, tail, tail_info = summarize_times(per_shape)
    wall_p50, wall_tail, _ = summarize_times(op_times(untraced, shapes, "seconds")[0])
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": {"value": setup_reference_s(records, setups), "unit": "s"},
        "op_s_p50": {"value": p50, "unit": "s"},
        "op_s_tail": {"value": tail, "unit": "s"},
        "peak_rss_mib": {"value": rss_kib / 1024.0, "unit": "MiB"},
    }
    wall = {"wall_setup_s": statistics.median(t for _, t in setups),
            "wall_op_s_p50": wall_p50, "wall_op_s_tail": wall_tail,
            "calibration_s": statistics.median(r["cal_s"] for r in records)}
    return metrics, {"op_time_basis": basis, "tail": tail_info, **wall}


def traced_op_p50(records, workload) -> float:
    shapes = [s.name for s in workloads.WORKLOADS[workload]]
    per_shape, _ = op_times([r for r in records if r.get("traced")], shapes)
    if not per_shape:
        raise RunError("no traced op was measured")
    return summarize_times(per_shape)[0]


def throughput(records, workload):
    kind = workloads.WORKLOADS[workload][0].kind
    total = sum(r["seconds"] for r in records)
    done = sum(r.get("work", 0.0) for r in records if r["error"] is None)
    return {workloads.WORK_METRIC[kind]: done / total if total > 0 else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=None, help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "coulombflow" / "cli.py").is_file():
        print(f"error: no coulombflow sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        records, setups, facts, absent = run_workload(
            root, args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = [r for r in records if r["error"] is not None]
    tally = {}
    for r in failed:
        tally[r["error"]] = tally.get(r["error"], 0) + 1
    to_reference(records)
    try:
        e2e, time_info = end_to_end(records, setups, args.workload)
        metrics = e2e
        if args.trace:
            traced_p50 = traced_op_p50(records, args.workload)
            metrics = layers.per_layer(records, absent, e2e["op_s_p50"]["value"], traced_p50)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": len(failed) / len(records),
        "failures_by_type": tally,
        "wrong_results": [w for r in records for w in r.get("wrong", [])][:10],
        **throughput(records, args.workload),
        "sde_gap_over_step_noise": min(
            (r["counters"]["gap_over_step_noise"] for r in records
             if "gap_over_step_noise" in r.get("counters", {})), default=None),
        **time_info,
        "setup_samples_s": [t for _, t in setups],
        "absent_hooks": absent,
        "machine": {**facts, "git_commit": git_commit(root)},
    }
    result = {
        # "correct" is about outputs: false when a run that finished wrote
        # wrong or corrupt files; ops that raised or exited non-zero are
        # counted in "failed" instead.
        "correct": not any(r["error"] in ("wrong_result", "integrity") for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({**result, "detail": detail}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
