"""One benchmark repetition, run in a fresh interpreter started by run.py.

run.py starts this process with a short stub that imports ``qident.cli``
and builds its parser before reading the clock, so the clock reading it
passes to :func:`main` marks the end of set-up, as a CLI user pays it.
The work spec arrives as JSON in ``sys.argv[1]``; the result is printed as
one JSON line: the workload's wall time, peak RSS, case outcomes, digests
of the outputs and, for a traced repetition, the per-layer aggregates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

#: family_series chain lengths whose coefficients the chain digest covers;
#: all are served from the DP tables the T4 checks build to k = order.
DIGEST_KS = (0, 1, 2, 3)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_suite(order: int):
    """The ``qident suite`` command with stdout captured; returns
    (cases, failures, outputs-to-digest)."""
    from qident import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["suite", "--order", str(order),
                         "--format", "json", "--deterministic"])
    text = out.getvalue()
    try:
        doc = json.loads(text)
    except ValueError:
        return 1, [f"suite printed no JSON document (exit {code})"], {}
    failures = [f"{c['id']} {c['params']}: does not hold"
                for c in doc["cases"] if not c["holds"]]
    if code != 0 and not failures:
        failures.append(f"suite exited {code}")
    return doc["total"], failures, {f"suite@{order}": text}


def _run_cases(cases, tables):
    """Registry checks one by one, then family_series for DIGEST_KS on
    each (family, sign, order) table; returns like :func:`_run_suite`.

    The coefficient tuples are rendered with repr() inside the timed
    region, as the suite's JSON text is."""
    from qident import families, identities
    from qident.qtools import INFINITE

    failures = []
    for cid, params, order in cases:
        try:
            report = identities.verify(identities.IdentityCase(cid, params, order))
        except Exception as exc:  # a raising case counts as failed, the run goes on
            failures.append(f"{cid} {params} @{order}: {exc!r}")
            continue
        if not report.holds:
            failures.append(f"{cid} {params} @{order}: {report.first_discrepancy}")
    outputs = {
        f"{family}{sign:+d}@{order}": repr(tuple(
            families.family_series(families.FamilySpec(family, sign, k, INFINITE),
                                   order).coeffs
            for k in DIGEST_KS))
        for family, sign, order in tables
    }
    return len(cases), failures, outputs


def _cache_stats() -> dict:
    """Read-only look at the package caches after the workload."""
    from qident import families, qtools

    out = {}
    for name in ("kernel_H", "pochhammer"):
        info = getattr(qtools, name).__wrapped__.cache_info()
        out[f"qtools.{name}.hits"] = info.hits
        out[f"qtools.{name}.misses"] = info.misses
    out["qtools.gauss_poly.cache_size"] = qtools._gauss_poly.cache_info().currsize
    out["families.dp_tables"] = len(families._tables)
    out["families.dp_rows"] = sum(len(series_by_k) - 1
                                  for series_by_k, _ in families._tables.values())
    return out


def main(t_setup_ns: int) -> None:
    spec = json.loads(sys.argv[1])
    result = {"t_setup_ns": t_setup_ns}
    if "kind" in spec:
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        if spec["kind"] == "suite":
            cases, failures, outputs = _run_suite(spec["order"])
        else:
            cases, failures, outputs = _run_cases(spec["cases"], spec["tables"])
        wall = time.perf_counter() - start
        result.update(
            wall_s=wall,
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            cases=cases,
            failures=failures,
            digests={key: _digest(text) for key, text in outputs.items()},
        )
        if tracer is not None:
            result["layers"] = {**tracer.summary(), **_cache_stats()}
            tracer.write(spec["spans_path"])
    print(json.dumps(result))
