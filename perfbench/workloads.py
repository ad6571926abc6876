"""Workload definitions: op shapes, seeded op streams, work units and the
per-op correctness gate.

An op is one ``coulombflow`` CLI invocation into a fresh output directory.
A workload cycles over its op shapes; each cycle visits every shape once in
an order shuffled by the workload seed, and every op draws its own inputs
(initial-density parameters, RNG seeds) from the same seeded stream.

This module imports nothing from ``coulombflow``: the gate reads only the
CSV files a run writes, so it keeps working when the program's internals
change.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

QUADRATIC = "quadratic:theta=0.5"
QUARTIC = "quartic:c=1"
SNAPSHOT_EVERY = 0.05
OP_LIMIT_S = 15.0          # an op still running after this long has failed

# Gate tolerances (pinned; see README.md "Correctness gate").
PDE_MOMENT_TOL_CELLS = 2.0   # |m - exact| <= 2 h for the quadratic moment ODEs
SDE_M2_SIGMAS = 6.0          # |m2 - exact| <= 6 max(stderr, stationary sd / sqrt(paths))
MATRIX_M2_SIGMAS = 6.0       # |m2 - (1 - e^-t)| <= 6 sqrt(2) m2 / (N sqrt(paths))


@dataclass(frozen=True)
class Shape:
    """One kind of op.  ``kind`` is the CLI subcommand."""

    name: str
    kind: str
    potential: str
    t_end: float
    paths: int = 1
    n: int = 0                  # particles (sde) or matrix size (matrix)
    grid: str = ""              # "L,R,n" (pde)
    beta: float = 2.0
    dt: float = 1e-3
    init: str = "equilibrium"   # sde initial law; pde draws a Gaussian per op

    @property
    def grid_n(self) -> int:
        return int(self.grid.split(",")[2])

    @property
    def pool_threads(self) -> int:
        """Threads an op's paths run on: ``sde`` with more than one path uses
        its default pool of one thread per CPU."""
        if self.kind != "sde" or self.paths < 2:
            return 1
        return min(self.paths, os.cpu_count() or 1)

    def work_units(self) -> float:
        """Completed work of one op in the workload's own unit."""
        if self.kind == "pde":
            return self.grid_n * self.t_end
        steps = round(self.t_end / self.dt) * self.paths
        return steps * (self.n if self.kind == "sde" else self.n * self.n)

    def warmup(self) -> "Shape":
        """Smallest op of this shape: fills the same caches, runs few steps."""
        if self.kind == "pde":
            return replace(self, t_end=SNAPSHOT_EVERY)
        return replace(self, t_end=2 * self.dt, paths=min(self.paths, 2))


WORKLOADS = {
    "pde-relax": [
        Shape("q1024", "pde", QUADRATIC, 1.0, grid="-3,3,1024"),
        Shape("q2048", "pde", QUADRATIC, 0.5, grid="-3,3,2048"),
        Shape("q3072", "pde", QUADRATIC, 0.25, grid="-2.8,2.8,3072"),
        Shape("quartic512", "pde", QUARTIC, 0.25, grid="-3.6,3.6,512"),
    ],
    # sde ops start from the quantile lattice of their initial law and stop
    # while every gap is still over 30 times the pair noise of one step (see
    # README.md, "Why no op retries"), so the collision retry never fires.
    "sde-sparse": [
        Shape("n16", "sde", QUADRATIC, 2e-3, paths=4, n=16, dt=1e-5),
        Shape("n32", "sde", QUADRATIC, 2e-3, paths=4, n=32, dt=1e-5),
    ],
    "sde-crowded": [
        Shape("n256", "sde", QUADRATIC, 2e-4, n=256, dt=1.25e-6),
        Shape("n1024", "sde", QUADRATIC, 2.5e-5, n=1024, dt=2.5e-6),
        Shape("n64-beta1-gauss", "sde", QUADRATIC, 1e-4, n=64, beta=1.0,
              dt=2.5e-7, init="gaussian:mean=0,sigma=0.5"),
    ],
    "matrix-oracle": [
        Shape("quadratic32", "matrix", QUADRATIC, 0.1, paths=2, n=32),
        Shape("quartic16", "matrix", QUARTIC, 0.01, paths=2, n=16),
    ],
}

WORK_METRIC = {
    "pde": "pde_cell_units_per_s",
    "sde": "sde_particle_steps_per_s",
    "matrix": "matrix_entry_steps_per_s",
}


@dataclass(frozen=True)
class Op:
    index: int
    shape: Shape
    seed: int = 0
    mean: float = 0.0           # pde Gaussian start
    sigma: float = 0.4

    def argv(self, out_dir: str) -> list[str]:
        s = self.shape
        if s.kind == "pde":
            k = round(s.t_end / SNAPSHOT_EVERY)
            snaps = ",".join(f"{SNAPSHOT_EVERY * j:.2f}" for j in range(k + 1))
            # "--grid=-3,3,n": with a separate argument argparse would read
            # the leading "-3" as an option.
            args = ["pde", "--potential", s.potential, f"--grid={s.grid}",
                    "--t-end", repr(s.t_end),
                    "--init", f"gaussian:mean={self.mean!r},sigma={self.sigma!r}",
                    "--snapshots", snaps, "--reference", "equilibrium"]
        elif s.kind == "sde":
            args = ["sde", "--potential", s.potential, "--init", s.init,
                    "--n", str(s.n), "--beta", repr(s.beta), "--dt", repr(s.dt),
                    "--t-end", repr(s.t_end), "--paths", str(s.paths),
                    "--seed", str(self.seed)]
        else:
            args = ["matrix", "--potential", s.potential, "--n", str(s.n),
                    "--dt", repr(s.dt), "--t-end", repr(s.t_end),
                    "--paths", str(s.paths), "--seed", str(self.seed)]
        return args + ["--output-dir", out_dir, "--name", f"op{self.index:05d}"]

    def snapshots(self) -> int:
        return round(self.shape.t_end / SNAPSHOT_EVERY) + 1


GOLDEN = (5 ** 0.5 - 1) / 2


class _Inputs:
    """Seeded op inputs.  A pde op's Gaussian width, which sets its step
    count, walks a golden-ratio sequence from a seeded offset per shape, so
    every run spreads its widths evenly over the range whatever the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.offset = {}
        self.count = {}

    def draw(self, index: int, shape: Shape) -> Op:
        rng = self.rng
        if shape.kind != "pde":
            return Op(index, shape, seed=rng.randrange(2 ** 31))
        if shape.name not in self.offset:
            self.offset[shape.name] = rng.random()
            self.count[shape.name] = 0
        j = self.count[shape.name]
        self.count[shape.name] = j + 1
        u = (self.offset[shape.name] + j * GOLDEN) % 1.0
        return Op(index, shape, mean=rng.uniform(-0.15, 0.15), sigma=0.35 + 0.1 * u)


def op_stream(workload: str, seed: int):
    """Endless, seed-determined sequence of ops for a workload."""
    shapes = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    inputs = _Inputs(rng)
    index = 0
    while True:
        for shape in rng.sample(shapes, len(shapes)):
            yield inputs.draw(index, shape)
            index += 1


def warmup_ops(workload: str, seed: int) -> list[Op]:
    inputs = _Inputs(random.Random(f"{workload}/{seed}/warmup"))
    return [inputs.draw(-1 - i, shape.warmup())
            for i, shape in enumerate(WORKLOADS[workload])]


# ---------------------------------------------------------------------------
# correctness gate (reads run output only)
# ---------------------------------------------------------------------------

@dataclass
class GateResult:
    wrong: list = field(default_factory=list)      # why the result is wrong
    counters: dict = field(default_factory=dict)   # per-layer counters from CSVs


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_output(op: Op, run_dir: Path) -> GateResult:
    """Compare a finished run's outputs with the exact laws of its shape."""
    res = GateResult()
    s = op.shape
    try:
        if s.kind == "pde":
            _check_pde(op, run_dir, res)
        elif s.kind == "sde":
            _check_sde(op, run_dir, res)
        else:
            _check_matrix(op, run_dir, res)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        res.wrong.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return res


def _check_pde(op: Op, run_dir: Path, res: GateResult) -> None:
    s = op.shape
    rows = _rows(run_dir / "diagnostics.csv")
    if len(rows) != op.snapshots():
        res.wrong.append(f"{len(rows)} diagnostics rows, expected {op.snapshots()}")
        return
    snaps = sorted((run_dir / "snapshots").glob("t_*.csv"))
    if len(snaps) != op.snapshots():
        res.wrong.append(f"{len(snaps)} snapshots, expected {op.snapshots()}")
    for r in rows:
        for key in ("t", "sigma_v", "fisher", "m1", "m2", "w2_to_ref"):
            if not math.isfinite(float(r[key])):
                res.wrong.append(f"non-finite {key} at t={r['t']}")
                return
    if s.potential != QUADRATIC:
        return
    left, right, n = (float(v) for v in s.grid.split(","))
    tol = PDE_MOMENT_TOL_CELLS * (right - left) / n
    m1_0, m2_0 = float(rows[0]["m1"]), float(rows[0]["m2"])
    for r in rows:
        t = float(r["t"])
        e2 = abs(float(r["m2"]) - (1.0 + (m2_0 - 1.0) * math.exp(-t)))
        e1 = abs(float(r["m1"]) - m1_0 * math.exp(-t / 2.0))
        if max(e1, e2) > tol:
            res.wrong.append(f"moment ODE off by {max(e1, e2):.3g} > {tol:.3g} at t={t}")
            return


def _check_sde(op: Op, run_dir: Path, res: GateResult) -> None:
    s = op.shape
    rows = _rows(run_dir / "moments.csv")
    steps = round(s.t_end / s.dt)
    if len(rows) != steps:
        res.wrong.append(f"{len(rows)} moment rows, expected {steps}")
        return
    halvings = [int(float(r["halving_count"])) for r in rows]
    res.counters = {
        "rows": len(rows),
        "path_steps": len(rows) * s.paths,
        "retried_rows": sum(1 for h in halvings if h > 0),
        "halvings": sum(halvings),
        "truncations": sum(int(float(r["truncation_count"])) for r in rows),
        # smallest gap over the sd of one step's pair noise: a retry needs
        # one step to close a gap, so a large ratio means none can fire
        "gap_over_step_noise": min(float(r["min_gap_min"]) for r in rows)
        / (math.sqrt(2.0 / (s.beta * s.n)) * math.sqrt(2.0 * s.dt)),
    }
    # exact finite-N law of the ensemble mean of m2 = (1/N) sum lam^2:
    # d E[m2]/dt = m2_inf - E[m2], m2_inf = 1 + (2/beta - 1)/N; m2(0) is
    # recovered from the first row by the same law.
    m2_inf = 1.0 + (2.0 / s.beta - 1.0) / s.n
    t1, m2_1 = float(rows[0]["t"]), float(rows[0]["m2_mean"])
    m2_0 = m2_inf + (m2_1 - m2_inf) * math.exp(t1)
    last = rows[-1]
    t = float(last["t"])
    exact = m2_inf + (m2_0 - m2_inf) * math.exp(-t)
    # sd of one path's m2 in the stationary beta-ensemble: 2 m2_inf / (N sqrt(beta))
    stationary_sd = 2.0 * m2_inf / (s.n * math.sqrt(s.beta))
    sd = max(float(last["m2_stderr"]), stationary_sd / math.sqrt(s.paths))
    err = abs(float(last["m2_mean"]) - exact)
    if not err <= SDE_M2_SIGMAS * sd:
        res.wrong.append(f"m2 off the exact law by {err:.3g} > {SDE_M2_SIGMAS} x {sd:.3g}")
    snaps = sorted((run_dir / "snapshots").glob("t_*.csv"))
    if len(snaps) != 1 or len(_rows(snaps[0])) != s.n * s.paths:
        res.wrong.append("pooled snapshot missing or of the wrong size")


def _check_matrix(op: Op, run_dir: Path, res: GateResult) -> None:
    s = op.shape
    snaps = sorted((run_dir / "snapshots").glob("t_*.csv"))
    if len(snaps) != 1:
        res.wrong.append(f"{len(snaps)} snapshots, expected 1")
        return
    atoms = [float(r["lambda"]) for r in _rows(snaps[0])]
    if len(atoms) != s.n * s.paths or not all(math.isfinite(a) for a in atoms):
        res.wrong.append("pooled eigenvalues missing, non-finite or of the wrong count")
        return
    if s.potential != QUADRATIC:
        return
    exact = 1.0 - math.exp(-s.t_end)
    m2 = sum(a * a for a in atoms) / len(atoms)
    sd = math.sqrt(2.0) * exact / (s.n * math.sqrt(s.paths))
    if not abs(m2 - exact) <= MATRIX_M2_SIGMAS * sd:
        res.wrong.append(f"pooled m2 {m2:.4g} differs from 1-e^-t = {exact:.4g}")
