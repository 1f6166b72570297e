"""Tests of the benchmark itself: seeded inputs and its correctness gates.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402

SMALL = 6000  # edges: the same shapes, small enough for a unit test


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ determinism


@pytest.mark.parametrize("graph", sorted(spec.GRAPHS))
def test_edge_list_is_a_pure_function_of_the_seed(tmp_path, graph):
    paths = [tmp_path / f"{i}.txt" for i in range(3)]
    spec.write_edge_list(str(paths[0]), graph, 5, SMALL)
    spec.write_edge_list(str(paths[1]), graph, 5, SMALL)
    spec.write_edge_list(str(paths[2]), graph, 6, SMALL)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_seeds_relabel_one_fixed_graph():
    """Different seeds give different edge lists of the same shape."""
    a, b = spec.edge_array("sparse", 1, SMALL), spec.edge_array("sparse", 2, SMALL)
    assert not np.array_equal(a, b)
    side = SMALL // 2
    for col in (0, 1):
        assert np.array_equal(
            np.sort(np.bincount(a[:, col], minlength=side)),
            np.sort(np.bincount(b[:, col], minlength=side)),
        )


def test_request_schedule_is_a_pure_function_of_the_seed():
    one = spec.read_schedule(9, spec.SERVE_READ_RPS, 1000).to_bytes()
    assert one == spec.read_schedule(9, spec.SERVE_READ_RPS, 1000).to_bytes()
    assert one != spec.read_schedule(10, spec.SERVE_READ_RPS, 1000).to_bytes()
    assert spec.point_schedule(9, 500).to_bytes() == spec.point_schedule(9, 500).to_bytes()
    assert spec.point_schedule(9, 500).to_bytes() != spec.point_schedule(10, 500).to_bytes()


def test_mutation_sequence_is_a_pure_function_of_the_seed():
    assert spec.mutation_plan(4).to_bytes() == spec.mutation_plan(4).to_bytes()
    assert spec.mutation_plan(4).to_bytes() != spec.mutation_plan(5).to_bytes()


def _small_artifact(seed: int):
    from repro.graph.io import edges_to_csr_chunked
    from repro.service.artifacts import build_artifact

    graph = edges_to_csr_chunked([spec.edge_array("sparse", seed, SMALL)])
    return build_artifact(graph, "bit-bu-csr")


def test_schedule_keeps_the_mix_exactly():
    schedule = spec.read_schedule(9, spec.SERVE_READ_RPS, 525)
    counts = np.bincount(schedule.kind, minlength=len(spec.READ_MIX))
    for (_, share), count in zip(spec.READ_MIX, counts):
        assert abs(count - share * 525) < 1
    for k in range(len(spec.READ_MIX)):
        draws = np.sort(schedule.draw[schedule.kind == k, 0])
        strata = np.floor(draws * len(draws)).astype(int)
        assert np.array_equal(strata, np.arange(len(draws)))


def test_resolved_reads_and_toggles_repeat_per_seed():
    artifact = _small_artifact(3)
    runs = []
    for _ in range(2):
        resolver = spec.Resolver(artifact.graph, artifact.phi, 3, SMALL)
        cheap, burst = resolver.mutation_edges(spec.mutation_plan(3))
        schedule = spec.read_schedule(3, spec.SERVE_READ_RPS, 300)
        runs.append((resolver.queries(schedule), cheap, burst))
    assert runs[0] == runs[1]
    _, cheap, burst = runs[0]
    assert len(set(burst)) == len(burst) == spec.RW_BURST_OPS
    assert burst[0] == tuple(
        int(x) for x in artifact.graph.edge_endpoints(int(np.argmax(artifact.phi)))
    )


def test_batch_lookups_ask_the_same_base_edges_under_every_seed():
    """Seeds relabel and reorder the batch lookups, never change them."""
    asked = []
    for seed in (3, 4):
        artifact = _small_artifact(seed)
        resolver = spec.Resolver(artifact.graph, artifact.phi, seed, SMALL)
        queries = resolver.queries(spec.point_schedule(seed, 500))
        _, perm_u, perm_l = spec._relabelling(seed, SMALL)
        base_u, base_l = np.argsort(perm_u), np.argsort(perm_l)
        asked.append(
            [(int(base_u[q["edge"][0]]), int(base_l[q["edge"][1]])) for q in queries]
        )
    assert asked[0] != asked[1]
    assert sorted(asked[0]) == sorted(asked[1])


def test_toggle_sequence_returns_the_graph_to_its_base_state():
    cheap, burst = (0, 0), [(i, i + 1) for i in range(spec.RW_BURST_OPS)]
    net = {}
    for toggle in spec.toggle_sequence(cheap, burst):
        net[toggle.edge] = net.get(toggle.edge, 0) + (1 if toggle.op == "insert" else -1)
        assert net[toggle.edge] in (-1, 0)
    assert set(net.values()) == {0}


@pytest.mark.parametrize("graph", sorted(spec.GRAPHS))
def test_pinned_small_digests_are_seed_invariant_and_verified(graph):
    """The pins hold on every seed and belong to a fully verified φ."""
    from repro.core.verification import verify_decomposition
    from repro.graph.io import edges_to_csr_chunked
    from repro.service.artifacts import build_artifact

    pinned = spec.PHI_DIGESTS[(graph, SMALL)]
    for seed in (3, 11):
        g = edges_to_csr_chunked([spec.edge_array(graph, seed, SMALL)])
        phi = build_artifact(g, "bit-bu-csr").phi
        verify_decomposition(g, phi)
        assert spec.phi_digest(g, phi, seed, SMALL) == pinned
        bumped = np.array(phi, copy=True)
        bumped[int(np.argmin(bumped))] += 1
        assert spec.phi_digest(g, bumped, seed, SMALL) != pinned


def test_percentiles_need_ten_samples_beyond():
    assert spec.percentile(list(range(1, 1001)), 99) == 990
    assert spec.percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        spec.percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        spec.percentile(list(range(99)), 90)


# ----------------------------------------------------- correctness gates


def test_clean_batch_run_is_correct():
    proc = run_bench(
        "--workload", "batch-sparse", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--edges", str(SMALL),
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}


def test_traced_batch_run_reports_every_layer():
    proc = run_bench(
        "--workload", "batch-sparse", "--seed", "3", "--seconds", "1",
        "--trace", "1", "--edges", str(SMALL),
    )
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {metric["name"] for metric in declared}
    assert 0.9 <= metrics["bench.coverage"]["value"] < 1.0
    for name in ("core.index_build_s", "core.peel_s", "service.open_s", "service.hierarchy_s"):
        assert metrics[name]["value"] > 0
    assert metrics["core.support_updates"]["value"] > 0


def test_corrupted_phi_fails_the_run():
    proc = run_bench(
        "--workload", "batch-sparse", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--edges", str(SMALL), "--inject", "phi",
    )
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["correct"] is False and result["failed"] >= 1
    # A bottom-level edge: the pinned digest sees it, the top-level check
    # cannot.
    assert "differs from the pinned" in proc.stderr
    assert "verify_decomposition" not in proc.stderr


def test_corrupted_server_answer_fails_the_run():
    proc = run_bench(
        "--workload", "serve-read", "--seed", "3", "--seconds", "5",
        "--trace", "0", "--edges", str(SMALL), "--inject", "answer",
    )
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["correct"] is False and result["failed"] >= 1
    assert "differs from the in-process engine" in proc.stderr


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(
        "--workload", "batch-sparse", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
