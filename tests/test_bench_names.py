"""The package names the benchmark harness reads exist: every layer
function that bench/tracing.py wraps, and every cache and table that
bench/worker.py reads after a traced repetition.  The harness modules are
loaded from their files and run as they are; nothing under bench/ changes."""

import importlib
import importlib.util
from pathlib import Path

from qident import families, qtools
from qident.qtools import INFINITE
from qident.series import ExactSeries

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """bench/<name>.py as a module of its own, outside sys.modules."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves():
    tracing = _load("tracing")
    missing = [f"{layer}.{func}" for layer, funcs in tracing.LAYERS.items() for func in funcs
               if not callable(getattr(importlib.import_module(f"qident.{layer}"), func, None))]
    assert tracing.LAYERS and missing == []


def test_cache_stats_read_the_caches_and_tables_of_a_traced_run(monkeypatch):
    tracing, worker = _load("tracing"), _load("worker")
    tracer = tracing.Tracer()
    # a traced repetition reads each lru_cache through the __wrapped__ of
    # the tracer's wrapper around it
    for name in ("kernel_H", "pochhammer"):
        monkeypatch.setattr(qtools, name, tracer._wrap(f"qtools.{name}", getattr(qtools, name)))
    qtools.kernel_H(1, 2, 1, 2, 6)
    qtools.pochhammer(1, 1, 1, INFINITE, 6)
    families.family_series(families.FamilySpec("V", 1, 1, 2), 6)
    stats = worker._cache_stats()
    assert set(stats) == {"qtools.kernel_H.hits", "qtools.kernel_H.misses",
                          "qtools.pochhammer.hits", "qtools.pochhammer.misses",
                          "qtools.gauss_poly.cache_size", "families.dp_tables",
                          "families.dp_rows"}
    assert stats["families.dp_tables"] >= 1
    # every table is a (rows, width) pair
    for entry in families._tables.values():
        rows, width = entry
        assert type(entry) is tuple and type(width) is int
        assert rows and all(type(row) is ExactSeries for row in rows)
