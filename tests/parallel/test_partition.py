"""Unit tests for the work partitioner."""

import pytest

from repro.core.hstar import extract_hstar_graph
from repro.parallel.partition import (
    chunk_lift_tasks,
    chunk_tree_tasks,
    lift_tasks,
    serialize_star,
    tree_tasks,
)
from repro.storage.diskgraph import DiskGraph
from repro.storage.partitions import HnbPartitionStore

from tests.helpers import figure1_graph, seeded_gnp


@pytest.fixture
def star():
    return extract_hstar_graph(figure1_graph())


class TestTreeTasks:
    def test_one_core_task_per_core_vertex(self, star):
        tasks = tree_tasks(star)
        core = [t for t in tasks if t.kind == "core"]
        assert sorted(t.vertex for t in core) == sorted(star.core)

    def test_one_anchor_task_per_connected_periphery_vertex(self, star):
        tasks = tree_tasks(star)
        anchors = [t for t in tasks if t.kind == "anchor"]
        # Every periphery vertex of the star graph neighbors some core
        # vertex by definition, so each gets an anchor task.
        assert sorted(t.vertex for t in anchors) == sorted(star.periphery)
        for task in anchors:
            assert set(task.anchors) <= set(star.core)

    def test_indices_are_dense_and_ordered(self, star):
        tasks = tree_tasks(star)
        assert [t.index for t in tasks] == list(range(len(tasks)))

    def test_chunking_partitions_tasks(self, star):
        tasks = tree_tasks(star)
        chunks = chunk_tree_tasks(tasks, 6)
        flattened = sorted(t.index for chunk in chunks for t in chunk)
        assert flattened == [t.index for t in tasks]
        assert len(chunks) == min(6, len(tasks))

    def test_chunking_empty(self):
        assert chunk_tree_tasks([], 4) == []


class TestLiftTasks:
    @pytest.fixture
    def store(self, tmp_path):
        graph = seeded_gnp(40, 0.2, seed=11)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        star = extract_hstar_graph(disk)
        members = sorted(star.periphery)
        store = HnbPartitionStore.build(
            disk, members, tmp_path / "parts", memory_budget_units=24
        )
        yield star, store
        store.close()

    def test_tasks_follow_input_order(self, store):
        star, store = store
        sets = [star.common_periphery([v]) for v in sorted(star.core)]
        sets = [s for s in sets if s]
        tasks = lift_tasks(sets, store)
        assert [t.index for t in tasks] == list(range(len(tasks)))
        for task, shared in zip(tasks, sets):
            assert set(task.shared) == set(shared)
            assert set(task.partition_indices) == set(store.partitions_for(shared))

    def test_chunks_cover_all_tasks_with_local_paths(self, store):
        star, store = store
        sets = [star.common_periphery([v]) for v in sorted(star.core)]
        sets = [s for s in sets if s]
        tasks = lift_tasks(sets, store)
        chunks = chunk_lift_tasks(tasks, store, 4)
        seen = sorted(t.index for chunk in chunks for t in chunk.tasks)
        assert seen == [t.index for t in tasks]
        assert len(chunks) <= 4
        for chunk in chunks:
            needed = {i for t in chunk.tasks for i in t.partition_indices}
            assert needed == set(chunk.paths)

    def test_empty_tasks(self, store):
        _, store = store
        assert chunk_lift_tasks([], store, 4) == []


class TestSerializeStar:
    def test_payload_carries_only_csr_arrays(self, star):
        import pickle

        payload = serialize_star(star)
        assert set(payload) == {"labels", "indptr", "indices"}
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_bitset_payload_rehydrates_the_core_graph(self, star):
        import pickle

        from repro.kernel import CompactGraph

        payload = pickle.loads(pickle.dumps(serialize_star(star)))
        compact = CompactGraph.from_csr(
            payload["labels"], payload["indptr"], payload["indices"]
        )
        reference = star.core_compact()
        assert compact.labels == reference.labels
        assert compact.masks == reference.masks

    def test_bitset_payload_is_smaller_on_a_real_star(self):
        import pickle

        star = extract_hstar_graph(seeded_gnp(120, 0.2, seed=5))
        neighbor_tuples = {
            v: tuple(sorted(star.core_neighbors(v))) for v in sorted(star.core)
        }
        assert len(pickle.dumps(serialize_star(star))) < len(
            pickle.dumps(neighbor_tuples)
        )
