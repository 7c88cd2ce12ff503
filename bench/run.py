"""qident benchmark: cold-interpreter workloads with exact output checks.

Run from the root of a checkout:

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke]

Every repetition runs in a fresh interpreter, because a CLI user pays for
cold caches (the chain-DP tables and the lru_caches) on every invocation.
With ``--trace 0`` it prints the end-to-end metrics over the repetitions
that fit in ``--seconds``: the median set-up time and peak RSS, and the
mean wall time (see ``Run.end_to_end``).  With ``--trace 1`` it alternates
untraced repetitions with traced ones at full and at half order and prints
the per-layer metrics, means over the traced repetitions (see tracing.py).
Either way every case must hold and every output digest must match
``expected.json``; otherwise the run is failed and the exit status is 1.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--workload`` all
workloads run in turn, each ending in such a line.

``--smoke`` divides every order by ten; the benchmark's own test uses it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("suite", "chain_deep", "dense_sum")

SUITE_ORDER = 80
# chain_deep: T4 builds each table to k = order, TT4 then reads it.  The
# sign is fixed because it alone moves the T4 cost by about a quarter.
# Case orders are fixed because they moved peak RSS by up to 8%.  The seed
# picks k and j, which leave the DP work unchanged.
CHAIN_TABLES = (("V", 150), ("W", 180))
CHAIN_SIGN = 1
CHAIN_KS = (0, 1, 2)
DENSE_CASES = (
    ("SIGMA_ID", {}, 100),
    ("L1", {"k": 1}, 150),
    ("L2", {"k": 1}, 150),
    ("EULER2", {"e": 1}, 200),
    ("CAUCHY", {"n": 4, "s": 1}, 200),
)
SMOKE_DIVISOR = 10

# A repetition takes a few seconds; one that runs this long has hung.  A
# run then ends within --seconds plus this, well inside 180 s at 40 s.
WORKER_TIMEOUT_S = 120.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.coeff_products", "count"),
    ("series.add.calls", "count"),
    ("series.add.self_s", "s"),
    ("series.invert.calls", "count"),
    ("series.invert.self_s", "s"),
    ("series.other.self_s", "s"),
    ("families.calls", "count"),
    ("families.self_s", "s"),
    ("families.dp_tables", "count"),
    ("families.dp_rows", "count"),
    ("qtools.kernel_H.calls", "count"),
    ("qtools.kernel_H.self_s", "s"),
    ("qtools.kernel_H.hits", "count"),
    ("qtools.kernel_H.misses", "count"),
    ("qtools.kernel_H.hit_ratio", "ratio"),
    ("qtools.pochhammer.self_s", "s"),
    ("qtools.pochhammer.hits", "count"),
    ("qtools.pochhammer.misses", "count"),
    ("qtools.pochhammer.hit_ratio", "ratio"),
    ("qtools.gaussian_binomial.self_s", "s"),
    ("qtools.gauss_poly.cache_size", "count"),
    ("qtools.other.self_s", "s"),
    ("identities.cases", "count"),
    ("identities.self_s", "s"),
    ("oracles.calls", "count"),
    ("oracles.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.layers_share", "ratio"),
    ("trace.tracer_s", "s"),
    ("trace_overhead_s", "s"),
    ("series.mul.order_exponent", "1"),
    ("families.order_exponent", "1"),
    ("identities.order_exponent", "1"),
    ("wall.order_exponent", "1"),
)

# Layer times whose growth from order N/2 to N is reported as an exponent.
EXPONENTS = {
    "series.mul.order_exponent": "series.mul.self_s",
    "families.order_exponent": "families.self_s",
    "identities.order_exponent": "identities.self_s",
    "wall.order_exponent": "wall_s",
}

# Runs the worker after importing qident.cli and building its parser, so
# the clock reading marks the end of set-up as a CLI user pays it.
_STUB = (
    "import time, qident.cli\n"
    "qident.cli.build_parser()\n"
    "t = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "import sys\n"
    f"sys.path.insert(0, {str(BENCH)!r})\n"
    "import worker\n"
    "worker.main(t)\n"
)


class RepFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def plan(workload: str, seed: int, divisor: int = 1) -> dict:
    """The worker spec for one workload.  The seed picks k and j in
    chain_deep, which leaves the work the same; it changes nothing in
    suite and dense_sum."""
    rng = random.Random(seed)
    if workload == "suite":
        return {"kind": "suite", "order": SUITE_ORDER // divisor}
    if workload == "chain_deep":
        cases, tables = [], []
        for family, order in CHAIN_TABLES:
            order //= divisor
            cases.append([f"T4_{family}", {"sign": CHAIN_SIGN, "k": rng.choice(CHAIN_KS)}, order])
            cases.append([f"TT4_{family}", {"sign": CHAIN_SIGN, "j": rng.choice(CHAIN_KS)}, order])
            tables.append([family, CHAIN_SIGN, order])
        return {"kind": "cases", "cases": cases, "tables": tables}
    cases = [[cid, params, order // divisor] for cid, params, order in DENSE_CASES]
    return {"kind": "cases", "cases": cases, "tables": []}


def halved(spec: dict) -> dict:
    """The same spec with every order halved."""
    if spec["kind"] == "suite":
        return {**spec, "order": spec["order"] // 2}
    return {**spec,
            "cases": [[cid, params, order // 2] for cid, params, order in spec["cases"]],
            "tables": [[family, sign, order // 2] for family, sign, order in spec["tables"]]}


def spawn(spec: dict) -> dict:
    """Run one worker to completion; adds its set-up time as ``setup_s``."""
    # Bytecode is cached under BUILD, as an installed package has it,
    # whatever the calling environment says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, "-c", _STUB, json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["t_setup_ns"] - start_ns) / 1e9
    return result


class Run:
    """Repetitions of one workload, their samples and their outcome."""

    def __init__(self, workload: str, expected: dict) -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.samples: dict = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
        self.traced: dict = {"full": [], "half": []}

    def rep(self, spec: dict, trace: str = "") -> None:
        """One repetition; ``trace`` names the traced size ("full"/"half")."""
        spans = BUILD / "trace" / f"{self.workload}-{trace}.tsv"
        result = spawn({**spec, "trace": bool(trace), "spans_path": str(spans)})
        mismatched = [f"digest {key}: got {got}, want {self.expected.get(key)}"
                      for key, got in sorted(result["digests"].items())
                      if self.expected.get(key) != got]
        self.attempted += result["cases"]
        # A digest covers the whole repetition's output, so a mismatch fails
        # every case of the repetition.
        self.failed += result["cases"] if mismatched else len(result["failures"])
        self.problems += result["failures"] + mismatched
        if trace:
            self.traced[trace].append({**result["layers"], "wall_s": result["wall_s"]})
        else:
            self.samples["setup_s"].append(result["setup_s"])
            self.samples["wall_s"].append(result["wall_s"])
            self.samples["peak_rss_mb"].append(result["rss_kb"] * 1024 / 1e6)

    def measure(self, spec: dict, seconds: float, trace: bool) -> None:
        """Repeat until the next repetition would end past ``seconds``."""
        start = time.monotonic()
        spawn({})  # fills the bytecode cache; not timed
        half = halved(spec)
        while True:
            began = time.monotonic()
            self.samples["setup_s"].append(spawn({})["setup_s"])
            self.rep(spec)
            if trace:
                self.rep(spec, "full")
                self.rep(half, "half")
            now = time.monotonic()
            if self.failed or now + (now - began) > start + seconds:
                return

    def end_to_end(self) -> dict:
        """Median set-up time and peak RSS; mean wall time.

        The host's CPU speed drifts between phases that last seconds to
        minutes, so a run's wall times are a mix of phases.  Over eleven
        groups of 3 to 10 runs, the mean spread least from run to run,
        ahead of the median, the minimum and the lower quartile.
        """
        return {"setup_s": statistics.median(self.samples["setup_s"]),
                "wall_s": statistics.mean(self.samples["wall_s"]),
                "peak_rss_mb": statistics.median(self.samples["peak_rss_mb"])}

    def per_layer(self) -> dict:
        full = _means(self.traced["full"])
        half = _means(self.traced["half"])
        out = dict(full)
        for name in ("kernel_H", "pochhammer"):
            hits, misses = full[f"qtools.{name}.hits"], full[f"qtools.{name}.misses"]
            out[f"qtools.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        untraced = statistics.mean(self.samples["wall_s"])
        out["trace.wall_s"] = full["wall_s"]
        out["trace.untraced_wall_s"] = untraced
        out["trace.layers_share"] = full["layers_self_s"] / full["wall_s"]
        out["trace_overhead_s"] = full["wall_s"] - untraced
        # 0 when the layer did no work at either order.
        for name, key in EXPONENTS.items():
            out[name] = math.log2(full[key] / half[key]) if full[key] > 0 and half[key] > 0 else 0.0
        return {name: out[name] for name, _ in PER_LAYER}


def _means(rows: list) -> dict:
    return {key: statistics.mean(row[key] for row in rows) for key in rows[0]}


def machine() -> dict:
    """Python version, usable CPUs, CPU model and git commit of the checkout."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": _commit()}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 divisor: int, expected: dict) -> dict:
    """Measure one workload and print its metrics; returns the result line."""
    spec = plan(workload, seed, divisor)
    run = Run(workload, expected)
    try:
        run.measure(spec, seconds, trace)
    except RepFailed as exc:
        run.attempted += 1
        run.failed += 1
        run.problems.append(str(exc))
    correct = run.failed == 0
    reps = len(run.samples["wall_s"])
    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"reps={reps} setup_samples={len(run.samples['setup_s'])} "
          f"traced_reps={len(run.traced['full'])}")
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")
    print(f"fail_ratio {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed / {run.attempted} attempted)")
    metrics = {}
    if correct:
        values, units = ((run.per_layer(), PER_LAYER) if trace
                         else (run.end_to_end(), END_TO_END))
        for name, unit in units:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:34s} {values[name]:.6g} {unit}")
        if not trace:
            for name, samples in run.samples.items():
                print(f"samples {name}: " + " ".join(f"{x:.4g}" for x in samples))
    line = {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed, "metrics": metrics}
    print(json.dumps(line), flush=True)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every order divided by ten")
    args = parser.parse_args(argv)
    if not (SRC / "qident" / "__init__.py").is_file():
        print(f"error: no qident source under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())["digests"]
    (BUILD / "trace").mkdir(parents=True, exist_ok=True)
    info = machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    divisor = SMOKE_DIVISOR if args.smoke else 1
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), divisor, expected)
               for w in ([args.workload] if args.workload else WORKLOADS)]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
