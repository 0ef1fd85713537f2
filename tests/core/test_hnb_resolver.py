"""Phase-2 resolver: one bitmask ``maxCL(G[HNB])`` for every caller.

``induced_maximal_cliques`` builds an ``HNB`` set's masks straight from
a ``vertex -> neighbours`` mapping.  Its per-set list must equal
``list(tomita_maximal_cliques(G[HNB], kernel=k))`` — same cliques, same
order — for both kernels, whichever provider served the adjacency, and
it must report the kernel metrics the materialised path reported.
"""

import random

import pytest

from repro import metrics
from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.core.categories import InMemoryPeripheryAdjacency, resolve_hnb_cliques
from repro.kernel import KERNELS, induced_maximal_cliques
from repro.storage.diskgraph import DiskGraph
from repro.storage.partitions import HnbPartitionStore

from tests.helpers import seeded_gnp


def reference(graph, members, kernel):
    return list(tomita_maximal_cliques(graph.induced_subgraph(members), kernel=kernel))


def adjacency_of(graph):
    return {v: graph.neighbors(v) for v in graph.vertices()}


def random_sets(graph, rng, count):
    vertices = sorted(graph.vertices())
    return [
        frozenset(rng.sample(vertices, rng.randint(1, min(12, len(vertices)))))
        for _ in range(count)
    ]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(6))
def test_random_sets_match_tomita_in_order(kernel, seed):
    rng = random.Random(seed)
    graph = seeded_gnp(30, rng.choice([0.2, 0.45, 0.8]), seed=seed)
    adjacency = adjacency_of(graph)
    for members in random_sets(graph, rng, 25):
        assert induced_maximal_cliques(adjacency, members) == reference(
            graph, members, kernel
        )


@pytest.mark.parametrize("kernel", KERNELS)
def test_singletons(kernel):
    graph = seeded_gnp(10, 0.5, seed=3)
    adjacency = adjacency_of(graph)
    for v in graph.vertices():
        members = frozenset({v})
        assert induced_maximal_cliques(adjacency, members) == [members]
        assert reference(graph, members, kernel) == [members]


@pytest.mark.parametrize("kernel", KERNELS)
def test_set_without_internal_edges(kernel):
    graph = seeded_gnp(40, 0.3, seed=5)
    # Greedy independent set: every member is a maximal clique alone.
    independent: list[int] = []
    for v in sorted(graph.vertices()):
        if not any(u in graph.neighbors(v) for u in independent):
            independent.append(v)
    assert len(independent) >= 3
    result = induced_maximal_cliques(adjacency_of(graph), independent)
    assert result == [frozenset({v}) for v in independent]
    assert result == reference(graph, independent, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_hub_neighbourhood_reaching_outside_the_set(kernel):
    graph = seeded_gnp(40, 0.25, seed=9)
    for v in range(1, 40):
        graph.add_edge(0, v)  # vertex 0 sees every other vertex
    members = frozenset({0, 3, 7, 11, 19, 23})
    assert len(graph.neighbors(0) - members) > 20
    assert induced_maximal_cliques(adjacency_of(graph), members) == reference(
        graph, members, kernel
    )


def test_member_without_entry_is_isolated_and_asymmetric_lists_symmetrise():
    # 3 has no entry; 1 lists 2 but 2 does not list 1.
    adjacency = {1: {2}, 2: set()}
    assert induced_maximal_cliques(adjacency, {1, 2, 3}) == [
        frozenset({1, 2}), frozenset({3})
    ]


def _kernel_metrics(snapshot):
    histogram = next(
        entry for entry in snapshot["metrics"]
        if entry["name"] == "repro_kernel_subproblem_size"
    )
    return (
        metrics.counter_value(snapshot, "repro_kernel_subproblems_total"),
        metrics.counter_value(snapshot, "repro_kernel_cliques_total"),
        histogram["counts"],
        histogram["sum"],
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_metrics_match_the_materialised_path(kernel):
    graph = seeded_gnp(30, 0.4, seed=17)
    sets = random_sets(graph, random.Random(17), 40)
    previous = metrics.get_registry()
    try:
        snapshots = []
        for run in ("resolver", "reference"):
            metrics.set_registry(metrics.MetricsRegistry())
            for members in sets:
                if run == "resolver":
                    induced_maximal_cliques(adjacency_of(graph), members)
                else:
                    reference(graph, members, kernel)
            snapshots.append(metrics.get_registry().snapshot())
    finally:
        metrics.set_registry(previous)
    assert _kernel_metrics(snapshots[0]) == _kernel_metrics(snapshots[1])


@pytest.fixture
def spilled(tmp_path):
    graph = seeded_gnp(60, 0.3, seed=23)
    disk = DiskGraph.create(tmp_path / "g.bin", graph)
    store = HnbPartitionStore.build(
        disk, sorted(graph.vertices()), tmp_path / "parts",
        memory_budget_units=40, max_resident=2,
    )
    yield graph, store
    store.close()


@pytest.mark.parametrize("kernel", KERNELS)
def test_sets_spanning_several_spill_partitions(spilled, kernel):
    graph, store = spilled
    assert store.num_partitions > 4
    rng = random.Random(29)
    sets = random_sets(graph, rng, 30)
    spanning = [s for s in sets if len(store.partitions_for(s)) > store.max_resident]
    assert spanning, "no set spans more partitions than stay resident"
    resolved = resolve_hnb_cliques(sets, store)
    for members in sets:
        assert resolved[members] == reference(graph, members, kernel)
    assert resolve_hnb_cliques(sets, InMemoryPeripheryAdjacency(graph)) == resolved


def test_store_loads_partitions_in_first_appearance_order(spilled, monkeypatch):
    graph, store = spilled
    sets = random_sets(graph, random.Random(31), 20)
    requested = []
    load = store._load_raw
    monkeypatch.setattr(store, "_load_raw", lambda index: requested.append(index) or load(index))
    resolve_hnb_cliques(sets, store)
    expected = [
        index
        for members in sets
        for index in dict.fromkeys(
            next(iter(store.partitions_for([v]))) for v in members
        )
    ]
    assert requested == expected
