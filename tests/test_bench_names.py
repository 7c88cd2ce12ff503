"""The package names the benchmark harness reads exist: every layer
function that bench/tracing.py wraps, and every cache and table that
bench/worker.py reads after a traced repetition.  The harness modules are
loaded from their files and run as they are; nothing under bench/ changes."""

import ast
import importlib
import importlib.util
from pathlib import Path

import qident
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


def _unread_definitions():
    """(module, name) of every top-level function or class in the package
    that no package code reads: no Name load of it outside its own
    definition.  The exports of qident.__all__ and cli.main are entry
    points, not orphans."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(qident.__file__).parent.glob("*.py"))}
    loads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = set(map(id, ast.walk(node)))
            if not any(load.id == node.name and id(load) not in own for load in loads):
                unread.append((module, node.name))
    return [(module, name) for module, name in unread
            if name not in qident.__all__ and (module, name) != ("cli", "main")]


def test_every_unread_definition_is_pinned_by_the_benchmark():
    # code only the tests reach stays only while the harness names it: a
    # LAYERS entry of bench/tracing.py or an attribute bench/worker.py reads
    layers = _load("tracing").LAYERS
    worker = ast.parse((BENCH / "worker.py").read_text())
    read = {node.attr for node in ast.walk(worker) if isinstance(node, ast.Attribute)}
    unread = _unread_definitions()
    assert unread, "the scan found no unread definition at all"
    assert [(module, name) for module, name in unread
            if name not in layers.get(module, ()) and name not in read] == []
