"""Batch workloads: edge list on disk → first query answered."""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

import spec
import tracing
from common import (
    ENGINE_OPS,
    LAYER_SPANS,
    Ledger,
    mean,
    median,
    run_pipeline,
    timed_gen,
)

#: Generations timed per run; setup_s is their median.
SETUP_REPS = 3
#: Pipelines per run, each in a fresh interpreter: 12–25 s of pipeline
#: work on a 2-core VM.
REPS = {"sparse": 3, "hub": 2}
#: Seconds of lookups after each untraced pipeline, per second of
#: ``--seconds``.  The hub graph's lookup p50 follows the host's speed
#: drift more than its pipeline does (0.20 against 0.13 of the median over
#: ten seeds, reading 4 s per pipeline), so each hub pipeline reads for all
#: of ``--seconds``.
READ_SHARE = {"sparse": 1 / 3, "hub": 1.0}
#: Distinct ``hierarchy_path`` lookups on the freshly opened (memory-mapped)
#: engine after each pipeline: the traced pipeline answers them once; the
#: untraced ones cycle through them for ``--seconds`` split across the
#: run's pipelines.
READS = 10000


def read_metrics(results: List[Dict[str, object]]) -> Dict[str, float]:
    """Each pipeline's lookup p50 and p99; the median over pipelines."""
    return {
        name: median([r["read_latency"][name] for r in results])  # type: ignore[index]
        for name in ("read_p50_s", "read_p99_s")
    }


def engine_metrics(reads: Dict[str, list]) -> Dict[str, float]:
    """Per-op mean engine time, encode time and answer size of a replay."""
    out: Dict[str, float] = {}
    for op in ENGINE_OPS:
        times = [t for k, t in zip(reads["kinds"], reads["engine_s"]) if k == op]
        out[f"service.engine_s.{op}"] = mean(times)
    out["server.encode_s"] = mean(reads["encode_s"])
    out["server.response_bytes"] = mean(reads["bytes"])
    cache = reads["cache"]
    lookups = cache["hits"] + cache["misses"]
    out["service.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    return out


def layer_metrics(spans, counters: Dict[str, float], plain_s: List[float]) -> Dict[str, float]:
    """Layer self times, coverage and trace overhead of one traced pipeline.

    ``plain_s``: the untraced pipelines run just before and after it, so the
    overhead compares the same calls with and without the instrumentation.
    """
    own = tracing.self_times(spans)
    out = {f"{name}_s": own.get(name, 0.0) for name in LAYER_SPANS}
    traced_s = tracing.durations(spans)["pipeline"][0]
    out["bench.coverage"] = sum(out[f"{name}_s"] for name in LAYER_SPANS) / traced_s
    out["bench.trace_overhead"] = traced_s / mean(plain_s) - 1.0
    out.update(counters)
    return out


def traced_pipelines(edges_file: str, artifact: str, args, work: str, reads: int = 0):
    """Untraced, traced, untraced pipeline; (results, layer metrics)."""
    trace_file = os.path.join(work, "spans.jsonl")
    common = {"seed": args.seed, "num_edges": args.edges, "inject": args.inject}
    before = run_pipeline(edges_file, artifact, **common)
    traced = run_pipeline(edges_file, artifact, reads=reads, trace_out=trace_file, **common)
    after = run_pipeline(edges_file, artifact, **common)
    metrics = layer_metrics(
        tracing.load(trace_file),
        traced["counters"],
        [before["pipeline_s"], after["pipeline_s"]],
    )
    return [before, traced, after], metrics


def check_phi(graph, phi, workload: spec.Workload, args, ledger: Ledger) -> None:
    """φ in the base draw's edge order must have the pinned digest."""
    pinned = spec.PHI_DIGESTS.get((workload.graph, args.edges))
    if pinned is None:
        ledger.fail(f"no pinned φ digest for {workload.graph} at {args.edges} edges")
        return
    ledger.check(
        spec.phi_digest(graph, phi, args.seed, args.edges) == pinned,
        f"φ differs from the pinned {workload.graph}/{args.edges} decomposition",
    )


def verify(artifact_dir: str, workload: spec.Workload, args, ledger: Ledger) -> None:
    """φ must have the pinned digest (every edge, every level), and satisfy
    the bitruss definition at its top level and above it (independently of
    the pin)."""
    from repro.core.verification import verify_decomposition
    from repro.service.artifacts import load_artifact

    artifact = load_artifact(artifact_dir, mmap_mode="r")
    phi = np.asarray(artifact.phi)
    check_phi(artifact.graph, phi, workload, args, ledger)
    top = int(phi.max()) if len(phi) else 0
    levels = [top, top + 1]
    try:
        verify_decomposition(artifact.graph, phi, levels=levels)
        ledger.ok()
    except AssertionError as exc:
        ledger.fail(f"verify_decomposition at levels {levels}: {exc}")


def prepare_edges(graph: str, seed: int, edges: int, work: str, ledger: Ledger, reps: int) -> tuple:
    """Generate the edge list ``reps`` times; same seed, same bytes."""
    path = os.path.join(work, "edges.txt")
    times, digests = [], set()
    for _ in range(reps):
        times.append(timed_gen(graph, seed, edges, path))
        digests.add(spec.file_sha256(path))
    ledger.check(len(digests) == 1, "one seed generated different edge lists")
    return path, times


def run(workload: spec.Workload, args, work: str, ledger: Ledger) -> Dict[str, float]:
    edges_file, setup_times = prepare_edges(
        workload.graph, args.seed, args.edges, work, ledger,
        1 if args.trace else SETUP_REPS,
    )
    artifact = os.path.join(work, "artifact")
    metrics: Dict[str, float] = {"setup_s": median(setup_times)}
    if args.trace:
        results, layers = traced_pipelines(edges_file, artifact, args, work, reads=READS)
        ledger.ok(len(results))
        traced = results[1]
        metrics.update(layers)
        metrics.update(engine_metrics(traced["reads"]))
        metrics.update(read_metrics([traced]))
        ledger.ok(traced["read_latency"]["count"])
    else:
        reps = REPS[workload.graph]
        results = [
            run_pipeline(
                edges_file, artifact, seed=args.seed, num_edges=args.edges, reads=READS,
                read_seconds=args.seconds * READ_SHARE[workload.graph], inject=args.inject,
            )
            for _ in range(reps)
        ]
        ledger.ok(len(results))
        metrics["pipeline_s"] = median([r["pipeline_s"] for r in results])
        metrics["peak_rss_bytes"] = median([r["peak_rss_bytes"] for r in results])
        metrics.update(read_metrics(results))
        ledger.ok(sum(r["read_latency"]["count"] for r in results))
    ledger.check(
        len({r["phi_sha256"] for r in results}) == 1,
        "φ digest differs between repetitions",
    )
    verify(artifact, workload, args, ledger)
    metrics["pipeline_reps_s"] = [r["pipeline_s"] for r in results]
    return metrics
