"""Shared plumbing: paths, subprocesses, the run ledger and metric output."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

#: Metric name → unit, for every metric the benchmark can print.
UNITS: Dict[str, str] = {}


def _units(unit: str, *names: str) -> None:
    for name in names:
        UNITS[name] = unit


_units("s", "setup_s", "pipeline_s", "read_p50_s", "read_p99_s")
_units("bytes", "peak_rss_bytes")
END_TO_END = ("setup_s", "pipeline_s", "peak_rss_bytes", "read_p50_s")

LAYER_SPANS = (
    "graph.ingest",
    "core.index_build",
    "core.peel",
    "service.artifact",
    "service.save",
    "service.open",
    "service.hierarchy",
    "service.first_query",
)
ENGINE_OPS = ("max_k", "hierarchy_path", "community", "community_low")
_units("s", *(f"{name}_s" for name in LAYER_SPANS))
_units("s", *(f"service.engine_s.{op}" for op in ENGINE_OPS))
_units(
    "s",
    "server.encode_s",
    "server.overhead_s",
    "maintenance.attach_s",
    "maintenance.apply_batch_s",
    "service.publish_s",
    "maintenance.rebuild_s",
    "bench.gen_lag_p99_s",
)
_units(
    "bytes",
    "graph.input_bytes",
    "service.artifact_bytes",
    "server.response_bytes",
)
_units(
    "count",
    "core.blooms",
    "core.links",
    "core.support_updates",
    "service.hierarchy_nodes",
    "maintenance.patched",
    "maintenance.fallbacks",
    "maintenance.predicted_fallbacks",
    "maintenance.rebuilds",
)
_units(
    "ratio",
    "service.cache_hit_ratio",
    "server.coalesce_ratio",
    "bench.coverage",
    "bench.trace_overhead",
    "bench.sent_ratio",
    "error_rate",
)
_units("1/s", "read_max_rps")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: Sequence[str], timeout: float = 170.0) -> str:
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {args[0]} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}"
        )
    return proc.stdout


def timed_gen(graph: str, seed: int, edges: int, out: str) -> float:
    """Spawn → exit of one edge-list generation: interpreter start + input."""
    start = time.perf_counter()
    run_worker(["gen", "--graph", graph, "--seed", str(seed), "--edges", str(edges), "--out", out])
    return time.perf_counter() - start


def run_pipeline(
    edges_file: str,
    artifact: str,
    *,
    seed: int,
    num_edges: int,
    reads: int = 0,
    read_seconds: float = 0.0,
    trace_out: Optional[str] = None,
    inject: str = "none",
) -> Dict[str, object]:
    """One batch pipeline in a fresh interpreter, then ``reads`` seeded
    lookups (for ``read_seconds`` if given, cycling); ``inject="phi"``
    corrupts its φ (the benchmark's self-test)."""
    if os.path.isdir(artifact):
        shutil.rmtree(artifact)
    args = [
        "pipeline",
        "--edges-file", edges_file,
        "--artifact", artifact,
        "--seed", str(seed),
        "--num-edges", str(num_edges),
        "--reads", str(reads),
        "--read-seconds", str(read_seconds),
    ]
    if inject == "phi":
        args.append("--corrupt-phi")
    if trace_out:
        args += ["--trace-out", trace_out]
    return json.loads(run_worker(args).strip().splitlines()[-1])


@dataclass
class Ledger:
    """Attempted operations, failures and correctness mismatches."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.mismatches.append(why)
        print(f"perfbench: FAILED: {why}", file=sys.stderr)

    def check(self, condition: bool, why: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(why)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def emit(metrics: Dict[str, float], ledger: Ledger, names: Sequence[str]) -> Dict[str, object]:
    missing = [name for name in names if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not ledger.mismatches and ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": UNITS[name]}
            for name in names
        },
    }
