"""Ablation — butterfly-counting implementations.

Not a paper figure: quantifies the implementation choices DESIGN.md calls
out for the counting substrate (the paper's [8]).  Three counters produce
identical outputs:

* ``naive``       — list-intersection enumeration (the pre-[8] style),
* ``scalar``      — vertex-priority wedge processing (dict inner loops),
* ``vectorized``  — the same traversal as one sort-based wedge pass
  (:mod:`repro.butterfly.vectorized`).

Expected shape: scalar beats naive everywhere (the [8] claim); vectorized
beats scalar on every graph here, sparse rows included, because the pass
runs no Python loop per start or middle vertex (measured 9x dense-er,
12x skewed-cl, 10x sparse-cl on a 2-core Intel Xeon VM).
"""

import time

import numpy as np
import pytest

from benchmarks._shared import Contract, Metric, format_table, write_result
from repro.butterfly.counting import count_per_edge, count_per_edge_naive
from repro.butterfly.vectorized import count_per_edge_vectorized
from repro.graph.generators import chung_lu_bipartite, erdos_renyi_bipartite

GRAPHS = {
    "dense-er": lambda: erdos_renyi_bipartite(250, 250, 15000, seed=1),
    "skewed-cl": lambda: chung_lu_bipartite(
        1500, 60, 8000, exponent_upper=2.4, exponent_lower=1.8, seed=2
    ),
    "sparse-cl": lambda: chung_lu_bipartite(
        2000, 2000, 8000, exponent_upper=2.2, exponent_lower=2.2, seed=3
    ),
}

COUNTERS = {
    "naive": count_per_edge_naive,
    "scalar": count_per_edge,
    "vectorized": count_per_edge_vectorized,
}


def _measure(graph, fn):
    start = time.perf_counter()
    result = fn(graph)
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="ablation-counting")
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_counting_ablation(benchmark, graph_name):
    graph = GRAPHS[graph_name]()

    def run_all():
        out = {}
        for name, fn in COUNTERS.items():
            out[name] = _measure(graph, fn)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    supports = [sup for _t, sup in results.values()]
    for other in supports[1:]:
        np.testing.assert_array_equal(supports[0], other)
    # the [8]-style counter must beat naive enumeration
    assert results["scalar"][0] < results["naive"][0]


@pytest.mark.benchmark(group="ablation-counting")
def test_counting_ablation_report(benchmark):
    def collect():
        table = {}
        for graph_name, make in GRAPHS.items():
            graph = make()
            table[graph_name] = {
                name: _measure(graph, fn)[0] for name, fn in COUNTERS.items()
            }
        return table

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = [
        [name] + [f"{times[c]:.3f}" for c in COUNTERS]
        for name, times in table.items()
    ]
    lines = [
        "Ablation: butterfly-counting implementations (seconds)",
        "expected: scalar (vertex-priority, [8]) < naive; vectorized",
        "fastest on every graph, sparse rows included",
        "",
    ]
    lines += format_table(["graph"] + list(COUNTERS), rows)
    metrics = [
        Metric(f"{counter}_seconds_{name}", times[counter], "seconds", "lower")
        for name, times in table.items()
        for counter in ("scalar", "vectorized")
    ]
    worst_edge = min(
        times["naive"] / max(times["scalar"], 1e-9)
        for times in table.values()
    )
    print(
        "\n"
        + write_result(
            "ablation_counting",
            lines,
            bench="ablation_counting",
            metrics=metrics,
            contracts=[
                Contract(
                    "scalar_beats_naive", worst_edge > 1.0, 1.0, worst_edge
                )
            ],
        )
    )
