"""The workload process: one closed-loop client running one op at a time.

Started by ``run.py``; reports to it one JSON line per event on a private
copy of its stdout (``coulombflow`` output is captured, never mixed in):

  {"event": "setup", "setup_s": ..., "facts": {...}}
  {"event": "start", "op": i}                      before op i
  {"event": "op", ...}                             op i finished and gated
  {"event": "done", "absent_hooks": [...]}

Setup is the import of ``coulombflow``, generation of the op stream, and
one untimed warm-up op per op shape.  Op time covers the ``cli.main`` call
only; the gate (exit code, ``verify --integrity``, exact-law checks) runs
after the clock stops.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_op(cli, op, work_dir: Path):
    """One CLI invocation into a fresh directory: (seconds, error or None, run_dir)."""
    out = io.StringIO()
    error = None
    argv = op.argv(str(work_dir))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
        if rc != 0:
            error = f"exit{rc}"
    except SystemExit as exc:  # argparse rejected the arguments
        error = f"exit{exc.code}"
    except Exception as exc:  # the op's failure is the measurement
        error = type(exc).__name__
    seconds = time.perf_counter() - start
    return seconds, error, work_dir / f"op{op.index:05d}"


def gate(cli, op, seconds: float, error, run_dir: Path) -> dict:
    """Classify a finished op; the result goes straight into the op record."""
    rec = {"seconds": seconds, "error": error, "wrong": [], "counters": {}, "bytes": 0}
    if error is None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["verify", "--integrity", str(run_dir)]) != 0:
                rec["error"] = "integrity"
                rec["wrong"].append("verify --integrity reported problems")
    if rec["error"] is None:
        checked = workloads.check_output(op, run_dir)
        rec["counters"] = checked.counters
        if checked.wrong:
            rec["error"] = "wrong_result"
            rec["wrong"] = checked.wrong
    if rec["error"] is None and seconds > workloads.OP_LIMIT_S:
        rec["error"] = "latency_limit"
    if run_dir.is_dir():
        rec["bytes"] = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
        shutil.rmtree(run_dir)
    return rec


class Calibration:
    """A fixed reference kernel that shares no code with coulombflow: an
    interpreter loop, small numpy calls and a memory-bound array pass, about
    6 ms.  Timed before every op, it measures the speed the host gives this
    process at that moment (see README.md, "Reference seconds").  Before an
    op whose paths run on the sde thread pool, the kernel's work is split
    over as many threads, started together, so that it also sees how slowly
    the host hands the GIL and the second core between them."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.big = np.ones(1 << 19)       # 4 MiB
        self.outs = [np.empty_like(self.big) for _ in range(os.cpu_count() or 1)]

    def __call__(self, threads: int = 1) -> float:
        if threads == 1:
            start = time.perf_counter()
            self._work(0, 1)
            return time.perf_counter() - start
        workers = [threading.Thread(target=self._work, args=(k, threads))
                   for k in range(threads)]
        start = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return time.perf_counter() - start

    def _work(self, k: int, share: int) -> None:
        np = self.np
        acc = 0
        for i in range(20000 // share):
            acc += i * i
        x = np.zeros(16)
        for _ in range(200 // share):
            x = np.sqrt(x * x + 1.0)
        for _ in range(8 // share):
            np.multiply(self.big, 1.0000001, out=self.outs[k])


def kernel_cache_mib(sys_modules) -> float | None:
    freecalc = sys_modules.get("coulombflow.freecalc")
    cache = getattr(freecalc, "_KERNEL_CACHE", None)
    if not isinstance(cache, dict):
        return None
    total = 0
    for entry in cache.values():
        for arr in entry if isinstance(entry, tuple) else (entry,):
            total += getattr(arr, "nbytes", 0)
    return total / 2 ** 20


def machine_facts() -> dict:
    import importlib.util
    import platform

    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": min(_blas_threads(blas) or nproc, nproc),
        "python": platform.python_version(),
        "COULOMBFLOW_THREADS": os.environ.get("COULOMBFLOW_THREADS"),
    }


def _blas_threads(blas: dict) -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    libdir = blas.get("lib directory")
    if not libdir:
        return None
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-op", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    # Protocol lines go to a private copy of fd 1; fd 1 itself is pointed at
    # stderr so that nothing else can write into the protocol.
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def emit(obj):
        proto.write(json.dumps(obj) + "\n")

    sys.path.insert(0, str(Path(args.root) / "src"))
    from coulombflow import cli

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = itertools.islice(workloads.op_stream(args.workload, args.seed), args.first_op, None)
    for op in workloads.warmup_ops(args.workload, args.seed):
        _, _, run_dir = run_op(cli, op, work_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
    setup_s = time.perf_counter() - T0
    emit({"event": "setup", "setup_s": setup_s, "facts": machine_facts()})

    calibrate = Calibration()
    calibrate()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    used = 0.0
    absent = []
    for op in ops:
        if used >= args.budget:
            break
        traced = tracer is not None and op.index % 2 == 0
        if traced:
            tracer.install()
            absent = tracer.absent
            first_span = len(tracer.spans)
            tracer.op = op.index
        cal = calibrate(op.shape.pool_threads)
        emit({"event": "start", "op": op.index, "cal_s": cal})
        seconds, error, run_dir = run_op(cli, op, work_dir)
        if traced:
            tracer.uninstall()
        used += seconds
        rec = gate(cli, op, seconds, error, run_dir)
        rec.update(event="op", op=op.index, shape=op.shape.name, traced=traced, cal_s=cal,
                   kind=op.shape.kind, t_end=op.shape.t_end,
                   work=op.shape.work_units(), snapshots=op.snapshots())
        if traced:
            rec["layers"] = tracer.totals_since(first_span)
            rec["kernel_cache_mib"] = kernel_cache_mib(sys.modules)
        emit(rec)
    if tracer is not None and args.spans_out:
        tracer.dump(args.spans_out)
    emit({"event": "done", "absent_hooks": absent})
    return 0


if __name__ == "__main__":
    sys.exit(main())
