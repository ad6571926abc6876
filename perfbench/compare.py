"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by ``run.py --out`` (any mix of workloads,
seeds and trace modes).  For every workload and metric the script prints
the median and quartiles of each side, the metric's regression bound from
BENCHMARK.json, and a verdict:

* worse      - the median moved the wrong way by more than the bound (a
               metric without a bound: by more than the wider quartile gap);
* better     - the median moved the right way by more than the wider
               quartile gap of the two sides;
* unchanged  - neither, and both sides are steadier than the bound;
* unresolved - a side has no value, fewer than two runs, a spread wider than
               the bound, or (for op times) timed a different set of shapes
               over passed ops than the other side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import METRICS  # noqa: E402

# detail fields compared besides the contract metrics: name -> (unit, better)
EXTRAS = {
    "failed_frac": ("ratio", "lower"),
    "pde_cell_units_per_s": ("1/s", "higher"),
    "sde_particle_steps_per_s": ("1/s", "higher"),
    "matrix_entry_steps_per_s": ("1/s", "higher"),
}
OP_TIMES = ("op_s_p50", "op_s_tail")


def load(path):
    """{workload: {metric: [values]}} plus the op-time basis seen per workload."""
    values = defaultdict(lambda: defaultdict(list))
    basis = defaultdict(Counter)
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            d = rec["detail"]
            w = d["workload"]
            for name, m in rec["metrics"].items():
                values[w][name].append(m["value"])
            for name in EXTRAS:
                if name in d:
                    values[w][name].append(d[name])
            if d["trace"] == 0:
                basis[w][json.dumps(d.get("op_time_basis"), sort_keys=True)] += 1
    return values, {w: c.most_common(1)[0][0] for w, c in basis.items()}


def spec(bench: dict) -> dict:
    """name -> (unit, better, bound or None)."""
    out = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        out[m["name"]] = (m["unit"], m["better"], None)
    for name, (unit, better, _needs, _fn) in METRICS.items():
        out.setdefault(name, (unit, better, None))
    for name, (unit, better) in EXTRAS.items():
        out[name] = (unit, better, None)
    return out


def summary(xs):
    xs = [x for x in xs if x is not None]
    if len(xs) < 2:
        return None
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs),
            "values": xs}


def verdict(a, b, better: str, bound):
    if a is None or b is None:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"])
    gap = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    scale = abs(a["median"]) or 1.0
    if bound is None:
        if gain > gap and gain > 0:
            return "better"
        if -gain > gap and gain < 0:
            return "worse"
        return "unchanged"
    noisy = gap / scale > bound
    all_better = min(sign * x for x in b["values"]) > max(sign * x for x in a["values"])
    all_worse = max(sign * x for x in b["values"]) < min(sign * x for x in a["values"])
    if noisy:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if -gain > bound * scale:
        return "worse"
    if gain > gap and gain > 0:
        return "better"
    return "unchanged"


def fmt(s):
    if s is None:
        return "-"
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args(argv)

    with open(args.benchmark) as f:
        specs = spec(json.load(f))
    base, base_basis = load(args.base)
    new, new_basis = load(args.new)
    print(f"{'workload':14s} {'metric':48s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'bound':6s} verdict")
    for w in sorted(set(base) | set(new)):
        for name in sorted(set(base[w]) | set(new[w])):
            unit, better, bound = specs.get(name, ("?", "lower", None))
            a, b = summary(base[w].get(name, [])), summary(new[w].get(name, []))
            v = verdict(a, b, better, bound)
            if name in OP_TIMES and base_basis.get(w) != new_basis.get(w):
                v = "unresolved"
            bound_s = f"{bound:g}" if bound is not None else "-"
            print(f"{w:14s} {name + ' (' + unit + ')':48s} {fmt(a):34s} {fmt(b):34s} "
                  f"{bound_s:6s} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
