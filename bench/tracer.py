"""Per-layer spans for the traced benchmark run, recorded from outside the library.

A layer is a clusterfold module; its spans are the public names through which
callers reach it (``LAYERS``).  ``Tracer.install`` replaces each such function
or method at every binding inside the loaded ``clusterfold`` modules with a
timing wrapper, and ``Tracer.uninstall`` puts the original objects back.
Untraced runs never import this module, so they run the library unchanged.

Spans are aggregated in memory per (task, parent span, span) as call count,
total time and self time, where self time is the span's duration minus the
durations of the spans it caused.  Counters at the same boundaries give the
work done (terms divided, seeds and nodes visited).
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# metric prefix -> (module, attribute path); "Class.method" names a method.
LAYERS = {
    "exchange.mutate": ("exchange", "ExchangeMatrix.mutate"),
    "exchange.construct": ("exchange", "ExchangeMatrix.__init__"),
    "exchange.find_symmetrizer": ("exchange", "find_symmetrizer"),
    "exchange.classify": ("exchange", "classify"),
    "laurent.mul": ("laurent", "LaurentPolynomial.__mul__"),
    "laurent.pow": ("laurent", "LaurentPolynomial.__pow__"),
    "laurent.add": ("laurent", "LaurentPolynomial.__add__"),
    "laurent.project": ("laurent", "LaurentPolynomial.project"),
    "laurent.hash": ("laurent", "LaurentPolynomial.__hash__"),
    "laurent.divide_exact": ("laurent", "divide_exact"),
    "seeds.mutate_seed": ("seeds", "mutate_seed"),
    "seeds.exchange_binomial": ("seeds", "exchange_binomial"),
    "seeds.permute_seed": ("seeds", "permute_seed"),
    "seeds.enumerate": ("seeds", "enumerate_cluster_variables"),
    "folding.admissibility_witness": ("folding", "admissibility_witness"),
    "folding.compose_orbit_mutations": ("folding", "compose_orbit_mutations"),
    "folding.pair_init": ("folding", "FoldingPair.__init__"),
    "folding.quotient_entries": ("folding", "quotient_entries"),
    "folding.project_seed": ("folding", "project_seed"),
    "folding.orbit_mutate_seed": ("folding", "orbit_mutate_seed"),
    "folding.verify_commutation": ("folding", "verify_commutation"),
    "folding.check_stability": ("folding", "check_stability"),
    "explorer.mutation_class": ("explorer", "mutation_class"),
    "explorer.orbit_mutation_class": ("explorer", "orbit_mutation_class"),
    "explorer.verify_monotonicity_chain": ("explorer", "verify_monotonicity_chain"),
    "roots.positive_roots": ("roots", "positive_roots"),
    "roots.verify_root_projection": ("roots", "verify_root_projection"),
    "roots.verify_fiber_orbits": ("roots", "verify_fiber_orbits"),
    "roots.verify_denominator_bijection": ("roots", "verify_denominator_bijection"),
    "catalog.folding_pair": ("catalog", "folding_pair"),
    "catalog.affine": ("catalog", "affine"),
    "cli.main": ("cli", "main"),
}

# Counters taken from the arguments and results of a span.
COUNTERS = {
    "laurent.divide_exact": ("dividend_terms", "quotient_terms"),
    "seeds.enumerate": ("seeds", "variables"),
    "explorer.mutation_class": ("nodes", "lower_bound_nodes"),
}

# Ratios derived from span calls and counters, with their units.
RATIOS = {
    "seeds.enumerate.new_seed_ratio": "seeds/mutation",
    "explorer.mutation_class.mutations_per_node": "mutations/node",
}


def _count(layer: str, args, result) -> dict[str, int]:
    if layer == "laurent.divide_exact":
        return {"dividend_terms": len(args[0].terms), "quotient_terms": len(result.terms)}
    if layer == "seeds.enumerate":
        return {"seeds": result.cluster_count, "variables": result.variable_count}
    if layer == "explorer.mutation_class":
        lower = result.size if result.verdict == "limit-exceeded" else 0
        return {"nodes": result.size, "lower_bound_nodes": lower}
    raise KeyError(layer)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s/pass"
        for counter in COUNTERS.get(layer, ()):
            units[f"{layer}.{counter}"] = "count"
    units.update(RATIOS)
    units["trace.overhead_ratio"] = "ratio"
    units["trace.self_coverage"] = "ratio"
    return units


def _resolve(package, module: str, path: str):
    """(owner, attribute, original) for one layer, or None if the name is gone."""
    owner = getattr(package, module, None)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    if owner is None:
        return None
    original = vars(owner).get(attr)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Installs span wrappers, aggregates spans per task, and removes them again."""

    ROOT = "task"

    def __init__(self):
        self.spans: dict[tuple[str, str, str], list] = {}  # (task, parent, name) -> [calls, total_s, self_s]
        self.counters: dict[tuple[str, str], int] = {}  # (task, "layer.counter") -> value
        self.enumerations: dict[str, list[int]] = {}  # task -> seeds of each enumeration
        self.bindings: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self.task = None
        self._stack = [[self.ROOT, 0.0]]
        self._task_start = 0.0

    # -- wrappers ------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stack, spans = self._stack, self.spans
        counted = layer in COUNTERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                key = (self.task, parent[0], layer)
                record = spans.get(key)
                if record is None:
                    record = spans[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if counted:
                self._record_counts(layer, args, result)
            return result

        wrapper.__bench_span__ = layer
        return wrapper

    def _record_counts(self, layer, args, result):
        for counter, value in _count(layer, args, result).items():
            key = (self.task, f"{layer}.{counter}")
            self.counters[key] = self.counters.get(key, 0) + value
        if layer == "seeds.enumerate":
            self.enumerations.setdefault(self.task, []).append(result.cluster_count)

    def install(self, package) -> None:
        """Wrap every layer name at every binding in the loaded package modules."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__ or name.startswith(prefix))]
        for layer, (module, path) in LAYERS.items():
            found = _resolve(package, module, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(layer, original)
            owners = [owner] if isinstance(owner, type) else modules
            for target in owners:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self.bindings.append((target, name, original))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self.bindings):
            setattr(target, name, original)

    # -- tasks ---------------------------------------------------------

    def begin(self, task: str) -> None:
        self.task = task
        self._stack[:] = [[self.ROOT, 0.0]]
        self._task_start = perf_counter()

    def end(self) -> None:
        elapsed = perf_counter() - self._task_start
        key = (self.task, None, self.ROOT)
        record = self.spans.setdefault(key, [0, 0.0, 0.0])
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - self._stack[0][1]
        self.task = None

    # -- results -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over all tasks, set-up included, keyed as in ``metric_units``."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        under: dict[tuple[str, str], int] = {}
        traced_s = 0.0
        for (_, parent, name), (count, total, own) in self.spans.items():
            if name == self.ROOT:
                traced_s += total
                continue
            calls[name] += count
            self_s[name] += own
            under[(parent, name)] = under.get((parent, name), 0) + count
        counters: dict[str, int] = {}
        for (_, name), value in self.counters.items():
            counters[name] = counters.get(name, 0) + value
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.self_s"] = self_s[layer]
            for counter in COUNTERS.get(layer, ()):
                metrics[f"{layer}.{counter}"] = counters.get(f"{layer}.{counter}", 0)
        seeds = counters.get("seeds.enumerate.seeds", 0)
        seed_mutations = under.get(("seeds.enumerate", "seeds.mutate_seed"), 0)
        metrics["seeds.enumerate.new_seed_ratio"] = seeds / seed_mutations if seed_mutations else 0.0
        nodes = counters.get("explorer.mutation_class.nodes", 0)
        node_mutations = under.get(("explorer.mutation_class", "exchange.mutate"), 0)
        metrics["explorer.mutation_class.mutations_per_node"] = node_mutations / nodes if nodes else 0.0
        metrics["trace.self_coverage"] = sum(self_s.values()) / traced_s if traced_s else 0.0
        return metrics

    def dump(self, path) -> None:
        spans = [
            {"task": task, "parent": parent, "name": name,
             "calls": count, "total_s": total, "self_s": own}
            for (task, parent, name), (count, total, own) in self.spans.items()
        ]
        counters = [{"task": task, "name": name, "value": value}
                    for (task, name), value in self.counters.items()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "counters": counters}, handle, indent=1)
