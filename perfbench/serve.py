"""serve-read: ``repro-bitruss serve`` in its own process, open-loop load."""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import re
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import spec
import tracing
from batch import check_phi, engine_metrics, traced_pipelines
from common import ROOT, Ledger, child_env, mean, median, run_pipeline, timed_gen
from loadgen import LoadStats, OpenLoop, Request
from tracing import Tracer
from worker import replay_reads

DATASET = "g"
#: Server spawns timed per run (setup_s is their median).
SETUP_REPS = 3
#: One server answer in CHECK_EVERY is compared with the in-process engine.
CHECK_EVERY = 20
#: A step fails when more than this many seconds of arrivals wait unsent.
BACKLOG_LIMIT_S = 0.25
#: Batch pipelines run to build the served artifact; pipeline_s is their
#: median.
PREP_REPS = 3
#: Cache capacity of the in-process engines, matching ``serve``'s default.
SERVER_CACHE_SIZE = 1024
_SERVING = re.compile(r"serving .* on http://[0-9.]+:(\d+)")


class Server:
    """One ``repro-bitruss serve`` process; ``setup_s`` is spawn → healthy."""

    def __init__(self, artifact: str, work: str, *, tag: str) -> None:
        self.log_path = os.path.join(work, f"server-{tag}.log")
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--artifact", f"{DATASET}={artifact}", "--mmap", "--port", "0",
        ]
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self.port = self._wait_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _log_tail(self) -> str:
        with open(self.log_path, errors="replace") as log:
            return log.read()[-2000:]

    def _wait_port(self) -> int:
        deadline = time.perf_counter() + 150.0
        while time.perf_counter() < deadline:
            with open(self.log_path, errors="replace") as log:
                found = _SERVING.search(log.read())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self._log_tail()}")
            time.sleep(0.005)
        raise RuntimeError(f"server did not start:\n{self._log_tail()}")

    def _wait_healthy(self) -> None:
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server died:\n{self._log_tail()}")
            time.sleep(0.005)

    def get(self, path: str) -> Tuple[int, object]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            reply = conn.getresponse()
            return reply.status, json.loads(reply.read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def expected_answer(engine, query: Dict[str, object]) -> object:
    from repro.server.http import jsonify

    return jsonify(engine.batch([dict(query)])[0])


def read_requests(schedule: spec.Schedule, queries: List[Dict[str, object]]) -> List[Request]:
    return [
        Request(float(due), "GET", spec.http_path(DATASET, q), tag=(i, name, q))
        for i, (due, name, q) in enumerate(zip(schedule.due, schedule.kind_names(), queries))
    ]


class ReadChecker:
    """Accounts read replies; compares one in CHECK_EVERY with the engine."""

    def __init__(self, engine, ledger: Ledger, inject: str) -> None:
        self.engine, self.ledger, self.inject = engine, ledger, inject
        self.compared = 0

    def account(self, req: Request) -> None:
        if req.error or req.status != 200:
            self.ledger.fail(f"{req.path}: {req.error or req.status} {req.reply[:200]!r}")
            return
        self.ledger.ok()
        index, _name, query = req.tag  # type: ignore[misc]
        if index % CHECK_EVERY:
            return
        expected = expected_answer(self.engine, query)
        served = spec.canonical_json(req.json()["result"])
        if self.inject == "answer" and self.compared == 0:
            served = served.replace("1", "2", 1) if "1" in served else served + " "
        self.compared += 1
        self.ledger.check(
            served == spec.canonical_json(expected),
            f"{req.path}: server answer differs from the in-process engine",
        )


async def run_reads(loop: OpenLoop, requests: List[Request]) -> Tuple[List[Request], int]:
    """Release a read stream on an already started loop; wait for replies."""
    base = loop.now()
    for req in requests:
        req.due += base
    futures = await loop.feed(requests)
    backlog = loop.backlog()
    done = await asyncio.gather(*futures)
    return list(done), backlog


def read_latency_metrics(reads: List[Request]) -> Dict[str, float]:
    latency = [r.latency for r in reads]
    out = {"read_p50_s": spec.percentile(latency, 50)}
    if len(latency) >= spec.P99_REQUESTS:
        out["read_p99_s"] = spec.percentile(latency, 99)
    return out


def prepare(workload: spec.Workload, args, work: str, ledger: Ledger):
    """Edge list → artifact (the batch path, timed) → in-process engine."""
    from repro.service.engine import QueryEngine

    edges_file = os.path.join(work, "edges.txt")
    timed_gen(workload.graph, args.seed, args.edges, edges_file)
    artifact = os.path.join(work, "artifact")
    metrics: Dict[str, float] = {}
    if args.trace:
        results, layers = traced_pipelines(edges_file, artifact, args, work)
        metrics.update(layers)
    else:
        results = [
            run_pipeline(
                edges_file, artifact, seed=args.seed, num_edges=args.edges, inject=args.inject
            )
            for _ in range(PREP_REPS)
        ]
        metrics["pipeline_s"] = median([r["pipeline_s"] for r in results])
    ledger.ok(len(results))
    ledger.check(
        len({r["phi_sha256"] for r in results}) == 1, "φ digest differs between repetitions"
    )
    engine = QueryEngine.load(artifact, mmap_mode="r", cache_size=SERVER_CACHE_SIZE)
    check_phi(engine.graph, engine.phi, workload, args, ledger)
    return artifact, engine, metrics


def spawn(artifact: str, work: str, ledger: Ledger) -> Tuple[Server, float]:
    setups = []
    server = None
    for rep in range(SETUP_REPS):
        if server is not None:
            server.stop()
        server = Server(artifact, work, tag=str(rep))
        setups.append(server.setup_s)
        ledger.ok()
    assert server is not None
    return server, median(setups)


def server_vars(server: Server) -> Dict[str, object]:
    status, doc = server.get("/debug/vars")
    if status != 200:
        raise RuntimeError(f"/debug/vars answered {status}")
    return doc  # type: ignore[return-value]


def in_process_metrics(
    engine, kinds: List[str], queries, reads: List[Request], tracer: Tracer
) -> Dict[str, float]:
    """Engine and encode cost of the same reads, and the server's remainder."""
    engine.clear_cache()
    replay = replay_reads(engine, kinds, queries, tracer)
    out = engine_metrics(replay)
    del out["service.cache_hit_ratio"]  # the server's own ratio is scraped
    in_process = mean([a + b for a, b in zip(replay["engine_s"], replay["encode_s"])])
    out["server.overhead_s"] = mean([r.latency for r in reads]) - in_process
    return out


def scrape_ratios(server: Server) -> Dict[str, float]:
    status, doc = server.get("/metrics")
    cache = doc["datasets"][DATASET]["cache"]  # type: ignore[index]
    lookups = cache["hits"] + cache["misses"]
    coalescer = doc.get("coalescer", {})  # type: ignore[union-attr]
    submitted = coalescer.get("submitted", 0)
    return {
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "server.coalesce_ratio": coalescer.get("merged", 0) / submitted if submitted else 0.0,
    }


def health_metrics(loop: OpenLoop) -> Dict[str, float]:
    return {
        "bench.gen_lag_p99_s": spec.percentile(loop.stats.lags, 99),
        "bench.sent_ratio": loop.stats.sent / max(1, loop.stats.attempted),
    }


# -------------------------------------------------------------- serve-read


async def _serve_read_load(server: Server, args, engine, checker: ReadChecker):
    count = int(math.ceil(spec.SERVE_READ_RPS * args.seconds))
    if args.trace:
        count = max(count, spec.P99_REQUESTS)
    resolver = spec.Resolver(engine.graph, engine.phi, args.seed, args.edges)
    warmup = spec.read_schedule(args.seed, spec.SERVE_READ_RPS, spec.WARMUP_REQUESTS, stream=99)
    schedule = spec.read_schedule(args.seed, spec.SERVE_READ_RPS, count)
    queries = resolver.queries(schedule)
    loop = OpenLoop("127.0.0.1", server.port)
    await loop.start()
    try:
        warm, _ = await run_reads(loop, read_requests(warmup, resolver.queries(warmup)))
        for req in warm:
            checker.account(req)
        loop.stats = LoadStats()
        reads, backlog = await run_reads(loop, read_requests(schedule, queries))
        for req in reads:
            checker.account(req)
        metrics = read_latency_metrics(reads)
        metrics["read_samples"] = len(reads)
        if not args.trace:
            return metrics
        metrics.update(health_metrics(loop))
        metrics.update(scrape_ratios(server))
        steps = [(spec.SERVE_READ_RPS, metrics["read_p99_s"], backlog)]
        for i in range(1, spec.STEP_COUNT + 1):
            if not _step_passes(*steps[-1]):
                break
            await asyncio.sleep(0.5)  # let the previous step drain
            rate = spec.SERVE_READ_RPS * spec.STEP_FACTOR ** i
            step = spec.read_schedule(args.seed, rate, spec.STEP_REQUESTS, stream=i)
            done, backlog = await run_reads(loop, read_requests(step, resolver.queries(step)))
            for req in done:
                checker.account(req)
            steps.append((rate, spec.percentile([r.latency for r in done], 99), backlog))
        metrics["read_max_rps"] = _max_rate(steps)
        metrics["read_steps"] = [
            {"rps": rate, "p99_s": p99, "backlog": backlog} for rate, p99, backlog in steps
        ]
    finally:
        await loop.stop()
    metrics.update(
        in_process_metrics(engine, schedule.kind_names(), queries, reads, args.tracer)
    )
    return metrics


def _step_passes(rate: float, p99: float, backlog: int) -> bool:
    return p99 <= spec.READ_P99_LIMIT_S and backlog <= rate * BACKLOG_LIMIT_S


def _max_rate(steps: List[Tuple[float, float, int]]) -> float:
    """Highest passing rate, interpolated to where p99 crosses the limit."""
    limit = spec.READ_P99_LIMIT_S
    if _step_passes(*steps[-1]):
        return steps[-1][0]  # never failed: a lower bound
    rate, p99, _ = steps[-1]
    if len(steps) == 1:
        return rate * min(1.0, limit / p99)
    prev_rate, prev_p99, _ = steps[-2]
    if p99 <= limit or p99 <= prev_p99:
        return prev_rate  # failed on backlog alone
    frac = (limit - prev_p99) / (p99 - prev_p99)
    return prev_rate + frac * (rate - prev_rate)


def toggles(engine, seed: int, num_edges: int):
    """The seeded toggle sequence, resolved on the served artifact."""
    resolver = spec.Resolver(engine.graph, engine.phi, seed, num_edges)
    cheap, burst = resolver.mutation_edges(spec.mutation_plan(seed))
    return spec.toggle_sequence(cheap, burst)


def check_histogram(server: Server, engine, ledger: Ledger) -> None:
    """The served φ histogram must equal the in-process engine's."""
    status, doc = server.get(f"/{DATASET}/histogram")
    expected = {str(k): v for k, v in engine.phi_histogram().items()}
    ledger.check(
        status == 200
        and spec.canonical_json(doc["result"]) == spec.canonical_json(expected),  # type: ignore[index]
        "served φ histogram differs from the in-process engine's",
    )


def run_serve_read(workload: spec.Workload, args, work: str, ledger: Ledger) -> Dict[str, float]:
    artifact, engine, metrics = prepare(workload, args, work, ledger)
    server, metrics["setup_s"] = spawn(artifact, work, ledger)
    try:
        checker = ReadChecker(engine, ledger, args.inject)
        metrics.update(asyncio.run(_serve_read_load(server, args, engine, checker)))
        metrics["peak_rss_bytes"] = server_vars(server)["process"]["max_rss_bytes"]
        check_histogram(server, engine, ledger)
    finally:
        server.stop()
    if args.trace:
        # The write path's layers, measured in process on the same artifact.
        metrics.update(
            replay_mutations(
                artifact, toggles(engine, args.seed, args.edges), args.tracer, ledger
            )
        )
    return metrics


def replay_mutations(artifact_dir: str, sequence, tracer: Tracer, ledger: Ledger) -> Dict[str, float]:
    """The toggle sequence replayed in process through the maintenance layer.

    Mirrors the server's update manager: a clean tracker repairs each op in
    place and publishes (snapshot → artifact → engine); a dirty one applies
    support-only; the end of a dirty burst is one rebuild and a reseed.
    The sequence restores the base graph, so φ must end equal to the base
    artifact's, edge for edge.
    """
    from repro.maintenance.dynamic import DynamicBipartiteGraph
    from repro.service.artifacts import (
        DecompositionArtifact,
        load_artifact,
        phi_by_endpoints,
    )
    from repro.service.engine import QueryEngine

    artifact = load_artifact(artifact_dir, mmap_mode="r")
    graph = artifact.graph
    with tracer.span("maintenance.attach"):
        dynamic = DynamicBipartiteGraph(
            graph.num_upper,
            graph.num_lower,
            [graph.edge_endpoints(e) for e in range(graph.num_edges)],
        )
        dynamic.enable_incremental(artifact.phi_by_endpoints())
    tracker = dynamic.tracker
    counts = dict.fromkeys(
        ("patched", "fallbacks", "predicted_fallbacks", "rebuilds"), 0
    )
    for i, toggle in enumerate(sequence):
        ops = ([toggle.edge], []) if toggle.op == "insert" else ([], [toggle.edge])
        if not tracker.dirty:
            with tracer.span("maintenance.apply_batch"):
                outcome = dynamic.apply_batch(
                    *ops, max_region_fraction=0.15, patch_watchers=False
                )
            if outcome.batch is not None:
                counts["predicted_fallbacks"] += outcome.batch.predicted_fallbacks
            if not outcome.incremental:
                counts["fallbacks"] += 1
            else:
                counts["patched"] += 1
                with tracer.span("service.publish"):
                    snap, phi = tracker.phi_snapshot()
                    QueryEngine(
                        DecompositionArtifact(graph=snap, phi=phi, algorithm=artifact.algorithm),
                        cache_size=SERVER_CACHE_SIZE,
                        allow_stale=True,
                    )
        else:
            with tracer.span("maintenance.apply_batch"):
                dynamic.apply_batch(*ops, incremental=False, patch_watchers=False)
        burst_ends = i + 1 == len(sequence) or sequence[i + 1].phase != toggle.phase
        if burst_ends and toggle.phase == "burst" and tracker.dirty:
            with tracer.span("maintenance.rebuild"):
                rebuilt = dynamic.rebuild("bit-bu-csr", snapshot=dynamic.snapshot(), register=False)
                tracker.reseed(rebuilt.phi_by_endpoints())
            counts["rebuilds"] += 1
    snap, phi = tracker.phi_snapshot()
    ledger.check(
        phi_by_endpoints(snap, phi) == artifact.phi_by_endpoints(),
        "φ after the toggles differs from the base artifact's",
    )
    walls = tracing.durations(tracer.spans)
    out = {
        "maintenance.attach_s": mean(walls["maintenance.attach"]),
        "maintenance.apply_batch_s": mean(walls["maintenance.apply_batch"]),
        "service.publish_s": mean(walls.get("service.publish", [])),
        "maintenance.rebuild_s": mean(walls.get("maintenance.rebuild", [])),
    }
    out.update({f"maintenance.{name}": value for name, value in counts.items()})
    return out
