"""Worker-side spill cache: one read per spill file per worker per step.

Lift workers keep parsed spill partitions in an LRU scoped to the step's
descriptor token and bounded by the driver store's ``max_resident``.
These tests pin the three properties that make it up: chunks sharing
partitions stop re-reading them (and the reported pages say so), the
bound holds, and a run whose steps need more partitions than stay
resident still streams exactly what the serial driver streams.
"""

import random
from dataclasses import replace

import pytest

from repro.core.categories import resolve_hnb_cliques
from repro.core.extmce import ExtMCE, ExtMCEConfig
from repro.core.hstar import extract_hstar_graph
from repro.parallel import ParallelExtMCE
from repro.parallel import executor as executor_mod
from repro.parallel.executor import WorkerContext
from repro.parallel.merge import merge_lift_results
from repro.metrics import counter_value
from repro.parallel.partition import LiftTask, chunk_lift_tasks
from repro.storage.diskgraph import DiskGraph
from repro.storage.pagestore import PAGE_SIZE_BYTES
from repro.storage.partitions import HnbPartitionStore

from tests.helpers import seeded_gnp, step_executor


def pages_of(path) -> int:
    return (path.stat().st_size + PAGE_SIZE_BYTES - 1) // PAGE_SIZE_BYTES


@pytest.fixture
def lift(tmp_path):
    """A store of several partitions and tasks whose chunks share them."""
    graph = seeded_gnp(60, 0.3, seed=41)
    disk = DiskGraph.create(tmp_path / "g.bin", graph)
    store = HnbPartitionStore.build(
        disk, sorted(graph.vertices()), tmp_path / "parts",
        memory_budget_units=200, max_resident=16,
    )
    assert 3 <= store.num_partitions <= store.max_resident
    rng = random.Random(41)
    ordered = [frozenset(rng.sample(range(60), 6)) for _ in range(48)]
    tasks = [
        LiftTask(
            index=index,
            shared=tuple(sorted(shared)),
            partition_indices=tuple(sorted(store.partitions_for(shared))),
        )
        for index, shared in enumerate(ordered)
    ]
    star = extract_hstar_graph(graph)
    yield store, ordered, tasks, star
    store.close()


def run_lift(executor, store, tasks, workers):
    chunks = chunk_lift_tasks(tasks, store, 8 * workers)
    assert len(chunks) > 1
    return merge_lift_results(tasks, executor.map_lift(chunks))


def test_inline_chunks_share_one_read_per_file(lift):
    store, ordered, tasks, star = lift
    with step_executor(1, star) as executor:
        resolved, pages = run_lift(executor, store, tasks, workers=2)
    assert resolved == resolve_hnb_cliques(ordered, store)
    touched = {p for task in tasks for p in task.partition_indices}
    paths = store.partition_paths()
    assert pages == sum(pages_of(paths[p]) for p in touched)


def test_pool_workers_read_each_file_once_per_step(lift):
    store, ordered, tasks, star = lift
    events = []
    with step_executor(
        2, star,
        on_event=lambda event, **fields: events.append((event, fields)),
    ) as executor:
        resolved, pages = run_lift(executor, store, tasks, workers=2)
    assert resolved == resolve_hnb_cliques(ordered, store)
    touched = {p for task in tasks for p in task.partition_indices}
    loads: dict[str, int] = {}
    reported = 0
    for name, fields in events:
        if name == "lift_chunk_completed":
            worker = fields["worker"]
            loads[worker] = loads.get(worker, 0) + fields["partitions_loaded"]
            reported += fields["pages_read"]
    assert loads and all(w.startswith("worker_") for w in loads)
    for worker, count in loads.items():
        assert count <= len(touched), f"{worker} re-read spill files"
    assert reported == pages
    assert pages <= 2 * sum(pages_of(store.partition_paths()[p]) for p in touched)


def test_worker_cache_never_exceeds_max_resident(lift, monkeypatch):
    store, ordered, tasks, _ = lift
    bound = 2
    context = WorkerContext()
    original = executor_mod.read_partition_file
    resident_at_read = []

    def counting_read(path):
        resident_at_read.append(len(context._spill))
        return original(path)

    monkeypatch.setattr(executor_mod, "read_partition_file", counting_read)
    monkeypatch.setattr(executor_mod, "_CONTEXT", context)
    chunks = chunk_lift_tasks(tasks, store, 1)
    chunk = chunks[0]
    assert chunk.max_resident == store.max_resident
    tight = replace(chunk, max_resident=bound)
    assert any(len(task.partition_indices) > bound for task in tight.tasks)
    envelope = executor_mod._run_lift_chunk({"token": "step-1"}, tight)
    results, pages = envelope["results"]
    assert max(resident_at_read) < bound  # room is made before each read
    assert len(context._spill) <= bound
    expected = resolve_hnb_cliques(ordered, store)
    for index, cliques in results:
        assert [frozenset(c) for c in cliques] == expected[ordered[index]]
    assert pages == context.pages_read
    # A new step token drops the previous step's partitions.
    context.spill_partition("step-2", chunk.paths[min(chunk.paths)], bound)
    assert len(context._spill) == 1
    context.release_graphs()
    assert len(context._spill) == 0


@pytest.mark.usefixtures("force_fanout")
def test_tight_budget_two_workers_stream_matches_serial(
    tmp_path, monkeypatch, live_metrics
):
    graph = seeded_gnp(90, 0.2, seed=43)
    disk = DiskGraph.create(tmp_path / "g.bin", graph)
    budget = graph.num_edges + graph.num_vertices
    built = []
    build = HnbPartitionStore.build.__func__

    def recording_build(cls, *args, **kwargs):
        store = build(cls, *args, **kwargs)
        built.append((store.num_partitions, store.max_resident))
        return store

    monkeypatch.setattr(HnbPartitionStore, "build", classmethod(recording_build))
    serial = list(
        ExtMCE(
            disk,
            ExtMCEConfig(workdir=tmp_path / "serial", memory_budget_units=budget),
        ).enumerate_cliques()
    )
    algo = ParallelExtMCE(
        disk,
        ExtMCEConfig(
            workdir=tmp_path / "parallel",
            memory_budget_units=budget,
            workers=2,
        ),
    )
    parallel = list(algo.enumerate_cliques())
    assert any(partitions > resident for partitions, resident in built)
    assert parallel == serial
    assert counter_value(live_metrics.snapshot(), "repro_parallel_chunks_total") > 0
