"""Per-layer metrics of a traced run, from the span totals of its traced ops.

Counts and times are per traced op (sum over the traced ops of the run
divided by their number); ``*_per_call``, ``*_self_us`` and the other ratios
divide the sums themselves.  A ratio whose base is zero (the layer did not
run on this workload) reads 0.  A metric whose hooks were all absent is left
out, never invented.
"""

from __future__ import annotations

from collections import defaultdict

from spans import HOOKS

GIB = 2 ** 30


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class _Totals:
    """Summed span totals of the traced ops, plus the op records themselves."""

    def __init__(self, records):
        self.ops = [r for r in records if r.get("traced")]
        self.n = max(1, len(self.ops))
        self.sum = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
        for r in self.ops:
            for name, t in r.get("layers", {}).items():
                for key, value in t.items():
                    self.sum[name][key] += value

    def per_op(self, name: str, key: str) -> float:
        return self.sum[name][key] / self.n

    def get(self, name: str, key: str) -> float:
        return self.sum[name][key]


def _pde_ops(t: _Totals):
    return [r for r in t.ops if "t_end" in r and r.get("kind") == "pde"]


def _sde_counter(records, key: str) -> float:
    return sum(r.get("counters", {}).get(key, 0) for r in records
               if r.get("kind") == "sde" and r["error"] is None)


# name -> (unit, better, hook prefix it needs or None, value(totals, records))
METRICS = {
    "freecalc.hilbert_transform.calls": ("count", "lower", "freecalc.hilbert_transform",
        lambda t, rs: t.per_op("freecalc.hilbert_transform", "calls")),
    "freecalc.hilbert_transform.s": ("s", "lower", "freecalc.hilbert_transform",
        lambda t, rs: t.per_op("freecalc.hilbert_transform", "s")),
    "freecalc.hilbert_transform.us_per_call": ("us", "lower", "freecalc.hilbert_transform",
        lambda t, rs: 1e6 * _ratio(t.get("freecalc.hilbert_transform", "s"),
                                   t.get("freecalc.hilbert_transform", "calls"))),
    # 2 n^2 flop and 8 n^2 bytes per dense n x n matvec, computed, not counted
    "freecalc.hilbert_transform.computed_gflop_per_s": (
        "GFLOP/s", "higher", "freecalc.hilbert_transform",
        lambda t, rs: 2e-9 * _ratio(t.get("freecalc.hilbert_transform", "work"),
                                    t.get("freecalc.hilbert_transform", "s"))),
    "freecalc.hilbert_transform.computed_gib_per_s": (
        "GiB/s", "higher", "freecalc.hilbert_transform",
        lambda t, rs: 8.0 / GIB * _ratio(t.get("freecalc.hilbert_transform", "work"),
                                         t.get("freecalc.hilbert_transform", "s"))),
    "freecalc.free_entropy.calls": ("count", "lower", "freecalc.free_entropy",
        lambda t, rs: t.per_op("freecalc.free_entropy", "calls")),
    "freecalc.free_entropy.s": ("s", "lower", "freecalc.free_entropy",
        lambda t, rs: t.per_op("freecalc.free_entropy", "s")),
    "freecalc.fisher.s": ("s", "lower", "freecalc.fisher",
        lambda t, rs: t.per_op("freecalc.fisher", "s")),
    "freecalc.hilbert_per_snapshot": ("count", "lower", "freecalc.hilbert_transform",
        lambda t, rs: _ratio(sum(r["layers"].get("freecalc.hilbert_transform", {})
                                 .get("calls", 0) for r in _pde_ops(t)),
                             sum(r["snapshots"] for r in _pde_ops(t)))),
    "freecalc.kernel_cache_mib": ("MiB", "lower", None, None),   # filled in below
    "pde.evolve.s": ("s", "lower", "pde.evolve",
        lambda t, rs: t.per_op("pde.evolve", "s")),
    "pde.evolve.self_s": ("s", "lower", "pde.evolve",
        lambda t, rs: t.per_op("pde.evolve", "self_s")),
    "pde.steps": ("count", "lower", "pde.velocity",
        lambda t, rs: t.per_op("pde.velocity", "calls")),
    "pde.step_self_us": ("us", "lower", "pde.velocity",
        lambda t, rs: 1e6 * _ratio(t.get("pde.evolve", "self_s"), t.get("pde.velocity", "calls"))),
    "pde.mean_dt": ("model_t", "higher", "pde.velocity",
        lambda t, rs: _ratio(sum(r["t_end"] for r in _pde_ops(t)),
                             sum(r["layers"].get("pde.velocity", {}).get("calls", 0)
                                 for r in _pde_ops(t)))),
    "sde.step.calls": ("count", "lower", "sde.step",
        lambda t, rs: t.per_op("sde.step", "calls")),
    "sde.step.s": ("s", "lower", "sde.step",
        lambda t, rs: t.per_op("sde.step", "s")),
    "sde.step.self_us": ("us", "lower", "sde.step",
        lambda t, rs: 1e6 * _ratio(t.get("sde.step", "self_s"), t.get("sde.step", "calls"))),
    "sde.simulate_path.calls": ("count", "lower", "sde.simulate_path",
        lambda t, rs: t.per_op("sde.simulate_path", "calls")),
    "sde.simulate_path.self_s": ("s", "lower", "sde.simulate_path",
        lambda t, rs: t.per_op("sde.simulate_path", "self_s")),
    "sde.simulate_ensemble.s": ("s", "lower", "sde.simulate_ensemble",
        lambda t, rs: t.per_op("sde.simulate_ensemble", "s")),
    # summed path time over ensemble wall time: 1 = no overlap between paths
    "sde.path_concurrency": ("ratio", "higher", "sde.simulate_path",
        lambda t, rs: _ratio(t.get("sde.simulate_path", "s"),
                             t.get("sde.simulate_ensemble", "s"))),
    "sde.bridge_trial.calls": ("count", "lower", "sde.bridge_trial",
        lambda t, rs: t.per_op("sde.bridge_trial", "calls")),
    "sde.bridge_trial.s": ("s", "lower", "sde.bridge_trial",
        lambda t, rs: t.per_op("sde.bridge_trial", "s")),
    "sde.bridge_trial.accept_ratio": ("ratio", "higher", "sde.bridge_trial",
        lambda t, rs: _ratio(t.get("sde.bridge_trial", "work"),
                             t.get("sde.bridge_trial", "calls"))),
    "sde.coulomb_sum.calls": ("count", "lower", "sde.coulomb_sum",
        lambda t, rs: t.per_op("sde.coulomb_sum", "calls")),
    "sde.coulomb_sum.s": ("s", "lower", "sde.coulomb_sum",
        lambda t, rs: t.per_op("sde.coulomb_sum", "s")),
    "sde.coulomb_sum.us_per_call": ("us", "lower", "sde.coulomb_sum",
        lambda t, rs: 1e6 * _ratio(t.get("sde.coulomb_sum", "s"),
                                   t.get("sde.coulomb_sum", "calls"))),
    # from moments.csv of the passed sde ops (all ops of the run)
    "sde.retried_step_frac": ("ratio", "lower", None,
        lambda t, rs: _ratio(_sde_counter(rs, "retried_rows"), _sde_counter(rs, "rows"))),
    "sde.halvings_per_step": ("ratio", "lower", None,
        lambda t, rs: _ratio(_sde_counter(rs, "halvings"), _sde_counter(rs, "path_steps"))),
    "sde.truncations": ("count", "lower", None,
        lambda t, rs: _ratio(_sde_counter(rs, "truncations"),
                             sum(1 for r in rs if r.get("kind") == "sde"
                                 and r["error"] is None))),
    "matrix_oracle.step_matrix.calls": ("count", "lower", "matrix_oracle.step_matrix",
        lambda t, rs: t.per_op("matrix_oracle.step_matrix", "calls")),
    "matrix_oracle.step_matrix.s": ("s", "lower", "matrix_oracle.step_matrix",
        lambda t, rs: t.per_op("matrix_oracle.step_matrix", "s")),
    "matrix_oracle.step_matrix.self_us": ("us", "lower", "matrix_oracle.step_matrix",
        lambda t, rs: 1e6 * _ratio(t.get("matrix_oracle.step_matrix", "self_s"),
                                   t.get("matrix_oracle.step_matrix", "calls"))),
    "matrix_oracle.eigen.calls": ("count", "lower", "matrix_oracle.eigen",
        lambda t, rs: t.per_op("matrix_oracle.eigen", "calls")),
    "matrix_oracle.eigen.s": ("s", "lower", "matrix_oracle.eigen",
        lambda t, rs: t.per_op("matrix_oracle.eigen", "s")),
    "matrix_oracle.eigen.ms_per_call": ("ms", "lower", "matrix_oracle.eigen",
        lambda t, rs: 1e3 * _ratio(t.get("matrix_oracle.eigen", "s"),
                                   t.get("matrix_oracle.eigen", "calls"))),
    "matrix_oracle.increment.s": ("s", "lower", "matrix_oracle.increment",
        lambda t, rs: t.per_op("matrix_oracle.increment", "s")),
    "measures.wasserstein.calls": ("count", "lower", "measures.wasserstein",
        lambda t, rs: t.per_op("measures.wasserstein", "calls")),
    "measures.wasserstein.s": ("s", "lower", "measures.wasserstein",
        lambda t, rs: t.per_op("measures.wasserstein", "s")),
    "measures.csv_write.s": ("s", "lower", "measures.csv_write",
        lambda t, rs: t.per_op("measures.csv_write", "s")),
    "cli.main.s": ("s", "lower", "cli.main",
        lambda t, rs: t.per_op("cli.main", "s")),
    "cli.series_csv.s": ("s", "lower", "cli.series_csv",
        lambda t, rs: t.per_op("cli.series_csv", "s")),
    "runio.write_record.s": ("s", "lower", "runio.write_record",
        lambda t, rs: t.per_op("runio.write_record", "s")),
    "runio.bytes_written": ("B", "lower", None,
        lambda t, rs: sum(r.get("bytes", 0) for r in t.ops) / t.n),
    "potentials.equilibrium_closed_form.s": ("s", "lower", "potentials.equilibrium_closed_form",
        lambda t, rs: t.per_op("potentials.equilibrium_closed_form", "s")),
    "densities.realize_density.s": ("s", "lower", "densities.realize_density",
        lambda t, rs: t.per_op("densities.realize_density", "s")),
    "densities.quantile_positions.s": ("s", "lower", "densities.quantile_positions",
        lambda t, rs: t.per_op("densities.quantile_positions", "s")),
    "trace.op_s_p50": ("s", "lower", None, None),                # filled in below
    "trace.overhead_s": ("s", "lower", None, None),
    "trace.overhead_frac": ("ratio", "lower", None, None),
}


def absent_prefixes(absent_hooks) -> set:
    """Hook prefixes none of whose functions could be wrapped."""
    wanted = defaultdict(set)
    for prefix, module, attr, _work in HOOKS:
        wanted[prefix].add(f"{module}.{attr}")
    missing = set(absent_hooks)
    return {p for p, names in wanted.items() if names <= missing}


def per_layer(records, absent_hooks, untraced_p50: float, traced_p50: float) -> dict:
    """Every per-layer metric the hooks allow, as {name: {value, unit}}."""
    totals = _Totals(records)
    gone = absent_prefixes(absent_hooks)
    out = {}
    for name, (unit, _better, needs, value) in METRICS.items():
        if value is None or needs in gone:
            continue
        out[name] = {"value": float(value(totals, records)), "unit": unit}
    caches = [r["kernel_cache_mib"] for r in totals.ops if r.get("kernel_cache_mib") is not None]
    if caches:
        out["freecalc.kernel_cache_mib"] = {"value": max(caches), "unit": "MiB"}
    out["trace.op_s_p50"] = {"value": traced_p50, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_p50 - untraced_p50, "unit": "s"}
    out["trace.overhead_frac"] = {"value": (traced_p50 - untraced_p50) / untraced_p50,
                                  "unit": "ratio"}
    return out
