"""Span tracing around the calls into coulombflow's layers, from outside.

``Tracer.install`` replaces each hooked function with a wrapper wherever the
package binds it (``from .freecalc import hilbert_transform`` gives ``pde``
its own binding, so every module attribute that *is* the function is
swapped).  A hook whose attribute is missing is skipped and reported, so the
benchmark keeps running when a later version deletes a private helper.

Spans live on per-thread stacks (``sde`` runs paths on a thread pool); a
closed span is kept in memory as (name, start, end, parent, op, self) and its
duration is charged to its parent on the same thread, which gives self time
without a second pass.  ``Tracer.dump`` writes the spans out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (metric prefix, module, attribute, work(args, result) -> number or None)
HOOKS = [
    ("cli.main", "cli", "main", None),
    ("cli.series_csv", "cli", "_write_series_csv", None),
    ("runio.write_record", "runio", "write_record", None),
    ("pde.evolve", "pde", "evolve", None),
    ("pde.velocity", "pde", "velocity", None),
    ("freecalc.hilbert_transform", "freecalc", "hilbert_transform",
     lambda args, res: args[0].n ** 2),
    ("freecalc.free_entropy", "freecalc", "free_entropy", None),
    ("freecalc.fisher", "freecalc", "free_fisher", None),
    ("freecalc.fisher", "freecalc", "grad_norm_sq", None),
    ("sde.simulate_ensemble", "sde", "simulate_ensemble", None),
    ("sde.simulate_path", "sde", "simulate_path", None),
    ("sde.step", "sde", "step", None),
    ("sde.coulomb_sum", "sde", "_coulomb_sum", None),
    ("sde.bridge_trial", "sde", "_bridge_trial",
     lambda args, res: 1 if res[0] == 0 else 0),
    ("matrix_oracle.step_matrix", "matrix_oracle", "step_matrix", None),
    ("matrix_oracle.eigen", "matrix_oracle", "hermitian_eigenvalues", None),
    ("matrix_oracle.eigen", "matrix_oracle", "_eigh_jacobi", None),
    ("matrix_oracle.increment", "matrix_oracle", "_hermitian_increment", None),
    ("measures.wasserstein", "measures", "wasserstein", None),
    ("measures.csv_write", "measures", "grid_density_to_csv", None),
    ("measures.csv_write", "measures", "empirical_to_csv", None),
    ("potentials.equilibrium_closed_form", "potentials", "equilibrium_closed_form", None),
    ("densities.realize_density", "densities", "realize_density", None),
    ("densities.quantile_positions", "densities", "quantile_positions", None),
]

PACKAGE = "coulombflow"


class Tracer:
    def __init__(self):
        self.spans = []                  # closed spans, all threads
        self.op = None                   # id of the op in flight
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved = []                 # (module, attribute, original)
        self.absent = []                 # "module.attribute" not found

    # -- hooks --------------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        self.absent = []
        for name, modname, attr, work in HOOKS:
            home = modules.get(f"{PACKAGE}.{modname}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, original, work)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved = []

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]       # [id, time covered by children]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                amount = None
                if work is not None and result is not None:
                    try:
                        amount = work(args, result)
                    except (AttributeError, IndexError, TypeError):
                        amount = None
                tracer.spans.append((name, start, end, parent[0] if parent else None,
                                     tracer.op, dur - frame[1], amount, span_id))
        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- output -------------------------------------------------------------

    def totals_since(self, first: int) -> dict:
        """Per-name {calls, s, self_s, work} over ``spans[first:]``."""
        totals = {}
        for name, start, end, _parent, _op, self_s, amount, _id in self.spans[first:]:
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += self_s
            if amount:
                t["work"] += amount
        return totals

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "self_s", "work", "id")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
