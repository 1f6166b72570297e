"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing (the package is pure Python and runs from ``src/``), makes
every input from ``--seed``, checks the program's outputs, and prints one
JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  A copy of the result, stamped with the seed
and the machine, goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import END_TO_END, OUT, PER_LAYER, SRC, Ledger, emit  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Per-layer metrics of layers a workload does not run (reported as 0).
NOT_RUN = {
    "batch": (
        "server.overhead_s", "server.coalesce_ratio", "bench.gen_lag_p99_s",
        "bench.sent_ratio", "read_max_rps", "maintenance.attach_s",
        "maintenance.apply_batch_s", "maintenance.patched",
        "maintenance.fallbacks", "maintenance.predicted_fallbacks",
        "maintenance.rebuilds", "service.publish_s", "maintenance.rebuild_s",
    ),
    "serve-read": (),
}


def parse_args(argv=None) -> argparse.Namespace:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/tests): a smaller graph, and deliberately
    # corrupted outputs that the checks must catch.
    parser.add_argument("--edges", type=int, default=spec.NUM_EDGES, help=argparse.SUPPRESS)
    parser.add_argument(
        "--inject", choices=("none", "phi", "answer"), default="none", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def stamp(args: argparse.Namespace) -> dict:
    from repro.obs.bench import EnvFingerprint

    env = EnvFingerprint.collect().to_dict()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": env["cpu_model"],
        "python": env["python"],
        "numpy": env["numpy"],
        "env": env,
    }


def _terminate(signum, frame) -> None:
    # Unwind through the finally blocks that stop the server and workers.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)

    import batch
    import serve
    import spec

    workload = spec.WORKLOADS[args.workload]
    runner = {"batch": batch.run, "serve-read": serve.run_serve_read}[workload.kind]
    args.tracer = Tracer(bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    ledger = Ledger()
    started = time.perf_counter()
    try:
        metrics = runner(workload, args, work, ledger)
        if args.trace:
            for name in NOT_RUN[workload.kind]:
                metrics.setdefault(name, 0.0)
            metrics["error_rate"] = ledger.failed / max(1, ledger.attempted)
        result = emit(metrics, ledger, PER_LAYER if args.trace else END_TO_END)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        # Spans: the traced pipeline's (from its worker) and this process's.
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(OUT, f"{name}.pipeline-spans.jsonl"))
        if args.tracer.spans:
            args.tracer.dump(os.path.join(OUT, f"{name}.spans.jsonl"))
        record = {
            **stamp(args),
            "wall_s": time.perf_counter() - started,
            "all_metrics": metrics,
            "mismatches": ledger.mismatches,
            **result,
        }
        with open(os.path.join(OUT, f"{name}.json"), "w") as handle:
            json.dump(record, handle, indent=1, default=float)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "nproc", "cpu_model", "python", "numpy")}))
    print(json.dumps(result))
    if not result["correct"]:
        print(f"perfbench: {args.workload} seed {args.seed}: INCORRECT: {ledger.mismatches[:5]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
