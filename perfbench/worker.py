"""One measured unit of work in a fresh interpreter.

``worker.py gen``      writes a workload's edge list (timed by the parent
                       from spawn to exit: interpreter start plus input
                       generation);
``worker.py pipeline`` runs the batch path once — edge list → ingest →
                       ``bit-bu-csr`` decomposition → artifact save → mmap
                       open → first query — and, optionally, answers the
                       seeded point lookups that follow on the opened
                       engine (a fixed count, or for a fixed time).
                       Prints one JSON object.

A fresh process per pipeline makes its peak RSS its own and keeps one
repetition from warming the next.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import spec  # noqa: E402
from tracing import Tracer  # noqa: E402

#: The query that closes the pipeline ("first query").
FIRST_QUERY = {"op": "phi_histogram"}
#: The pipeline's engine keeps no result cache, so the lookups that follow
#: all take the same (uncached) path: first reads on a fresh artifact.
CACHE_SIZE = 0


def _gen(args: argparse.Namespace) -> int:
    spec.write_edge_list(args.out, args.graph, args.seed, args.edges)
    return 0


def _corrupt(artifact):
    """Benchmark self-test hook: bump φ of one bottom-level edge by one.

    The lowest-φ edge, far from the top levels that ``verify_decomposition``
    looks at, so only the pinned digest can see it.
    """
    from repro.service.artifacts import DecompositionArtifact

    phi = np.array(artifact.phi, copy=True)
    phi[int(np.argmin(phi))] += 1
    return DecompositionArtifact(
        graph=artifact.graph, phi=phi, algorithm=artifact.algorithm
    )


@contextmanager
def instrument(tracer: Tracer, counters: Dict[str, int]) -> Iterator[None]:
    """Spans around the public calls ``build_artifact`` and
    ``QueryEngine.load`` make, installed for the duration of one pipeline.

    The traced pipeline calls the same composites as the untraced one, so
    work a composite does outside these calls stays in the pipeline span's
    self time and lowers ``bench.coverage``.
    """
    from repro.core.peeling_engine import CSRPeelingEngine
    from repro.service import engine as engine_module
    from repro.service.artifacts import DecompositionArtifact

    def spanned(name: str, call):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return call(*args, **kwargs)

        return wrapper

    def sizes(call):
        def wrapper(self):
            blooms, indexed, links = call(self)
            counters.update({"core.blooms": blooms, "core.links": links})
            return blooms, indexed, links

        return wrapper

    build = CSRPeelingEngine.build.__func__
    from_decomposition = DecompositionArtifact.from_decomposition.__func__
    patches = [
        (CSRPeelingEngine, "build", classmethod(spanned("core.index_build", build))),
        (CSRPeelingEngine, "peel", spanned("core.peel", CSRPeelingEngine.peel)),
        (CSRPeelingEngine, "size_components", sizes(CSRPeelingEngine.size_components)),
        (
            DecompositionArtifact,
            "from_decomposition",
            classmethod(spanned("service.artifact", from_decomposition)),
        ),
        (engine_module, "load_artifact", spanned("service.open", engine_module.load_artifact)),
        (
            engine_module,
            "build_hierarchy",
            spanned("service.hierarchy", engine_module.build_hierarchy),
        ),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    for owner, name, replacement in patches:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def run_pipeline(args: argparse.Namespace, tracer: Tracer):
    """Edge list → first query through the composites a user calls.

    Traced, the same calls run under :func:`instrument` and the peel counts
    its support updates (``build_artifact`` forwards ``counter``); the
    untraced run does neither.
    """
    from repro.graph.io import load_edge_list_streaming
    from repro.service.artifacts import build_artifact, save_artifact
    from repro.service.engine import QueryEngine
    from repro.utils.stats import UpdateCounter

    counters: Dict[str, int] = {}
    extra = {"counter": UpdateCounter()} if tracer.enabled else {}
    probes = instrument(tracer, counters) if tracer.enabled else nullcontext()
    start = time.perf_counter()
    with probes, tracer.span("pipeline"):
        with tracer.span("graph.ingest"):
            graph = load_edge_list_streaming(args.edges_file)
        artifact = build_artifact(graph, "bit-bu-csr", **extra)
        if args.corrupt_phi:
            artifact = _corrupt(artifact)
        with tracer.span("service.save"):
            save_artifact(artifact, args.artifact, layout="dir")
        engine = QueryEngine.load(args.artifact, mmap_mode="r", cache_size=CACHE_SIZE)
        with tracer.span("service.first_query"):
            engine.batch([FIRST_QUERY])
    elapsed = time.perf_counter() - start
    if tracer.enabled:
        counters.update(
            {
                "graph.input_bytes": os.path.getsize(args.edges_file),
                "core.support_updates": extra["counter"].total,
                "service.artifact_bytes": sum(
                    os.path.getsize(os.path.join(args.artifact, name))
                    for name in os.listdir(args.artifact)
                ),
                "service.hierarchy_nodes": engine.hierarchy.num_nodes,
            }
        )
    return elapsed, engine, counters


def replay_reads(engine, kinds, queries, tracer: Tracer):
    """Answer resolved reads in process: engine call + JSON encoding.

    The same work a server does per request, minus HTTP, parsing and the
    coalescer.
    """
    from repro.server.http import jsonify

    names, engine_s, encode_s, sizes = [], [], [], []
    for name, query in zip(kinds, queries):
        t0 = time.perf_counter()
        with tracer.span(f"service.engine.{name}"):
            result = engine.batch([query])[0]
        t1 = time.perf_counter()
        with tracer.span("server.encode"):
            body = json.dumps(jsonify(result), separators=(",", ":")).encode()
        t2 = time.perf_counter()
        names.append(name)
        engine_s.append(t1 - t0)
        encode_s.append(t2 - t1)
        sizes.append(len(body))
    return {
        "kinds": names,
        "engine_s": engine_s,
        "encode_s": encode_s,
        "bytes": sizes,
        "cache": engine.cache_info(),
    }


def timed_lookups(engine, queries, seconds: float) -> List[float]:
    """Answer ``queries`` in process, cycling, for ``seconds``; latencies.

    The same per-read work as :func:`replay_reads`.  Bounded by time rather
    than count, so the lookups span a window of the host's speed instead
    of a fraction of a second of it.
    """
    from repro.server.http import jsonify

    latency: List[float] = []
    deadline = time.perf_counter() + seconds
    for query in itertools.cycle(queries):
        t0 = time.perf_counter()
        result = engine.batch([query])[0]
        json.dumps(jsonify(result), separators=(",", ":")).encode()
        t1 = time.perf_counter()
        latency.append(t1 - t0)
        if t1 >= deadline and len(latency) >= len(queries):
            return latency
    raise ValueError("no queries")


def _pipeline(args: argparse.Namespace) -> int:
    from repro.obs.bench import peak_rss_bytes

    tracer = Tracer(args.trace_out is not None)
    baseline = peak_rss_bytes()
    elapsed, engine, counters = run_pipeline(args, tracer)
    peak = peak_rss_bytes() - baseline
    phi = np.ascontiguousarray(engine.phi, dtype=np.int64)
    out = {
        "pipeline_s": elapsed,
        "peak_rss_bytes": peak,
        "phi_sha256": hashlib.sha256(phi.tobytes()).hexdigest(),
        "max_phi": int(phi.max()) if len(phi) else 0,
        "counters": counters,
    }
    if args.reads:
        resolver = spec.Resolver(engine.graph, engine.phi, args.seed, args.num_edges)
        schedule = spec.point_schedule(args.seed, args.reads)
        queries = resolver.queries(schedule)
        if args.read_seconds:
            latency = timed_lookups(engine, queries, args.read_seconds)
        else:
            out["reads"] = replay_reads(engine, schedule.kind_names(), queries, tracer)
            latency = [a + b for a, b in zip(out["reads"]["engine_s"], out["reads"]["encode_s"])]
        out["read_latency"] = {
            "read_p50_s": spec.percentile(latency, 50),
            "read_p99_s": spec.percentile(latency, 99),
            "count": len(latency),
        }
    if tracer.enabled:
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_gen = sub.add_parser("gen")
    p_gen.add_argument("--graph", choices=sorted(spec.GRAPHS), required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--edges", type=int, default=spec.NUM_EDGES)
    p_gen.add_argument("--out", required=True)
    p_pipe = sub.add_parser("pipeline")
    p_pipe.add_argument("--edges-file", required=True)
    p_pipe.add_argument("--artifact", required=True)
    p_pipe.add_argument("--seed", type=int, default=0)
    p_pipe.add_argument("--num-edges", type=int, required=True)
    p_pipe.add_argument("--reads", type=int, default=0)
    p_pipe.add_argument("--read-seconds", type=float, default=0.0)
    p_pipe.add_argument("--trace-out")
    p_pipe.add_argument("--corrupt-phi", action="store_true")
    args = parser.parse_args(argv)
    return _gen(args) if args.cmd == "gen" else _pipeline(args)


if __name__ == "__main__":
    sys.exit(main())
