"""Outside-in span tracing of the qident layers, for traced benchmark runs.

Each public function listed in ``LAYERS`` is replaced, in every ``qident.*``
module namespace that holds it, by a wrapper that records one span
``(name, start, end, parent)``.  The package source is untouched: the
wrappers are bound at run time inside the worker process only, and
``__wrapped__`` keeps each ``lru_cache``'s ``cache_info()`` readable.

A span's self time is its duration minus the time its child spans cover,
so every traced second inside a wrapped call lands in exactly one bucket.
Spans stay in memory and are written out once, after the workload ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer module -> {public function: metric bucket}.
LAYERS: Dict[str, Dict[str, str]] = {
    "series": {
        "mul": "series.mul",
        "add": "series.add",
        "invert": "series.invert",
        **dict.fromkeys(("shift", "scale", "monomial", "one", "zero",
                         "from_coeffs", "substitute_power", "coeff"),
                        "series.other"),
    },
    "families": dict.fromkeys(("family_series", "binomial_combination",
                               "reconstruct_family", "atom"), "families"),
    "qtools": {
        "kernel_H": "qtools.kernel_H",
        "pochhammer": "qtools.pochhammer",
        "gaussian_binomial": "qtools.gaussian_binomial",
        **dict.fromkeys(("phi2_1", "theta_phi_neg", "theta_psi",
                         "alt_triangular_sum"), "qtools.other"),
    },
    "identities": dict.fromkeys(("verify", "verify_suite", "divisor_sum_series",
                                 "overpartition_pair_series",
                                 "pod_bipartition_series"), "identities"),
    "oracles": dict.fromkeys(("partition_count", "v_oracle", "w_oracle",
                              "overpartition_pairs", "pod_bipartitions",
                              "divisor_sigma", "triangular", "b_extraction"),
                             "oracles"),
    "cli": {"main": "cli"},
}

BUCKETS = tuple(dict.fromkeys(b for funcs in LAYERS.values() for b in funcs.values()))

# Span name for the tracer's own work inside a wrapper (the mul product
# count); it is nobody's self time and is reported on its own.
TRACER = "tracer"

Span = Tuple[str, float, float, int]


def coeff_products(a, b) -> int:
    """Multiply-adds done by ``series.mul(a, b)``.

    For each nonzero coefficient at exponent i of the operand that drives
    mul's outer loop (the one with fewer nonzeros, ``a`` on a tie), the
    product takes N+1-i multiply-adds, N being the common order.
    """
    ac, bc = a.coeffs, b.coeffs
    n = min(len(ac), len(bc))
    if len(ac) > n:
        ac = ac[:n]
    if len(bc) > n:
        bc = bc[:n]
    nz_a, nz_b = n - ac.count(0), n - bc.count(0)
    outer, nz = (bc, nz_b) if nz_a > nz_b else (ac, nz_a)
    return n * nz - sum(itertools.compress(range(n), outer))


class Tracer:
    """Span recorder bound around the layer functions of ``qident``."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.coeff_products = 0
        self._stack = [-1]

    def _wrap(self, name: str, fn: Callable,
              count: Optional[Callable[..., int]] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1]
                spans[idx] = (name, start, end, parent)
                if count is not None:
                    self.coeff_products += count(*args)
                    spans.append((TRACER, end, clock(), parent))

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Bind a wrapper over every listed function wherever qident holds it.

        Module globals are rebound, and so are the closure cells of the
        registry's check functions (the oracle checks capture their
        enumerator when the registry is built).
        """
        import qident.identities

        modules = [m for name, m in sys.modules.items()
                   if name == "qident" or name.startswith("qident.")]
        checks = [entry.check for entry in qident.identities.REGISTRY.values()]
        for layer, funcs in LAYERS.items():
            module = sys.modules[f"qident.{layer}"]
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{layer}.{func}", original,
                                     coeff_products if func == "mul" and layer == "series"
                                     else None)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                for check in checks:
                    for cell in check.__closure__ or ():
                        if cell.cell_contents is original:
                            cell.cell_contents = wrapper

    def summary(self) -> Dict[str, float]:
        """Calls and self seconds per bucket, the verify count, the tracer's
        own seconds, the sum of all layer self times and the mul product
        count."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - inner
        bucket_of = {f"{layer}.{func}": bucket
                     for layer, funcs in LAYERS.items() for func, bucket in funcs.items()}
        out: Dict[str, float] = {f"{b}.{k}": 0 for b in BUCKETS for k in ("calls", "self_s")}
        for name, n in calls.items():
            if name == TRACER:
                continue
            out[f"{bucket_of[name]}.calls"] += n
            out[f"{bucket_of[name]}.self_s"] += self_s[name]
        out["identities.cases"] = calls["identities.verify"]
        out["trace.tracer_s"] = self_s[TRACER]
        out["layers_self_s"] = sum(out[f"{b}.self_s"] for b in BUCKETS)
        out["series.mul.coeff_products"] = self.coeff_products
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated ``name start end parent`` rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
