"""Neighbor-partition spill files (paper Section 4.2.3).

Computing ``maxCL(HNB(C1))`` in Algorithm 2 needs the edges *between*
h-neighbors, which the H*-graph deliberately omits.  The paper's solution:
order the h-neighbor leaves of ``T_H*`` by DFS traversal, split them into
partitions whose adjacency lists fit the available memory ``N``, write each
partition to consecutive disk pages in one pass over ``G``, and load one
partition at a time.

This module reproduces that machinery over :class:`DiskGraph`:

* :meth:`HnbPartitionStore.build` reads ``G`` once.  That scan appends
  each h-neighbor's within-``Hnb`` record to a staging file and learns
  its within-``Hnb`` degree (which places the partition boundaries; the
  paper assumes it is known).  After the scan, the boundaries are laid
  along the DFS order and one streamed read of the staging file copies
  every record's bytes into its partition file.  ExtMCE makes that scan
  its whole step pass: the same read also writes the residual graph
  ``G_{k+1} = G_k − core_k`` through :meth:`DiskGraph.rewrite_without`
  and offers every surviving record to step ``k+1``'s L*-sampler, so a
  recursion step costs one scan of ``G_k``.
* :meth:`HnbPartitionStore.neighbor_sets` serves an ``HNB`` set by
  loading the partitions that contain its members, charging resident
  partitions to the memory model and evicting least-recently-used ones.
  Its result feeds the phase-2 bitmask resolver
  (:func:`repro.kernel.induced_maximal_cliques`) directly;
  :meth:`~HnbPartitionStore.induced_subgraph` wraps the same lookup as
  an :class:`AdjacencyGraph`.

Spill files hold headerless DiskGraph format-v2 records, written and read
by the same codec as ``G`` (:mod:`repro.storage.format`).  Each record's
CRC32 covers its header and neighbors, so a torn write or a flipped bit
anywhere in a record fails typed instead of becoming a wrong ``maxCL``
input, i.e. a silently wrong clique stream.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

from repro.errors import StorageError, StorageFormatError
from repro.graph.adjacency import AdjacencyGraph
from repro.storage.diskgraph import DiskGraph
from repro.storage.format import VertexRecord, decode_records, encode_record
from repro.storage.memory import MemoryModel
from repro.storage.pagestore import PageStore


def parse_partition_records(
    data: bytes, verify: bool = True
) -> dict[int, frozenset[int]]:
    """Decode a partition file's record stream to ``vertex -> neighbors``.

    Raises :class:`~repro.errors.StorageFormatError` on truncation and
    :class:`~repro.errors.CorruptDataError` on a checksum mismatch —
    never returns a partial or damaged adjacency silently.
    """

    def records():
        end = yield from decode_records(data, checksum=True, verify=verify)
        if end != len(data):
            raise StorageFormatError(
                f"truncated partition record at byte {end} of {len(data)}"
            )

    return {record.vertex: frozenset(record.neighbors) for record in records()}


def read_partition_file(
    path: str | Path, verify: bool = True
) -> dict[int, frozenset[int]]:
    """Read one spill file directly, bypassing :class:`PageStore`.

    This is the worker-side entry point of :mod:`repro.parallel`: worker
    processes must not share the driver's append-mode store handles or its
    :class:`~repro.storage.iostats.IOStats`, so they open the (read-only,
    already fully written) partition files themselves.  Pages read this
    way are reported back to the driver and merged into its I/O counters
    after the fan-out, keeping the metered totals honest.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"partition file {path} does not exist")
    return parse_partition_records(path.read_bytes(), verify=verify)


class HnbPartitionStore:
    """Partitioned on-disk adjacency among a designated vertex set."""

    def __init__(
        self,
        directory: Path,
        partitions: list[list[int]],
        stores: list[PageStore],
        memory: MemoryModel | None,
        max_resident: int,
    ) -> None:
        self._directory = directory
        self._partitions = partitions
        self._stores = stores
        self._memory = memory
        self._max_resident = max_resident
        self._partition_of = {
            v: index for index, members in enumerate(partitions) for v in members
        }
        # LRU order of resident partition indices (most recent last).
        self._resident: dict[int, dict[int, frozenset[int]]] = {}
        self._resident_units: dict[int, int] = {}
        self._lru: list[int] = []
        self.partition_loads = 0
        #: The residual graph the spill pass wrote (``None`` unless
        #: :meth:`build` was given a ``residual_path``).
        self.residual: DiskGraph | None = None
        if memory is not None:
            memory.add_reclaimer(self._reclaim_one)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        disk_graph: DiskGraph,
        members: Sequence[int],
        directory: str | Path,
        memory_budget_units: int,
        memory: MemoryModel | None = None,
        max_resident: int = 4,
        *,
        removed: Iterable[int] = (),
        residual_path: str | Path | None = None,
        on_survivor: Callable[[int, Sequence[int], int], None] | None = None,
    ) -> "HnbPartitionStore":
        """Spill the within-``members`` adjacency of ``disk_graph``.

        ``members`` is the h-neighbor list in DFS-leaf order (duplicates
        allowed; first occurrence wins).  ``memory_budget_units`` bounds
        the size of each partition, measured in stored vertex ids.

        One scan of ``disk_graph`` stages every member's within-member
        record, in vertex order, in one file of ``directory`` and notes
        its size and ``1 + inner degree``.  Partition boundaries are then
        placed along the DFS order, and one streamed read of the staging
        file copies each record's bytes unchanged into its partition
        file.  The staging file is deleted before this returns.

        With ``residual_path``, the scan is also the residual rewrite:
        it writes ``disk_graph.rewrite_without(removed, residual_path)``
        and hands every surviving record ``(vertex, residual neighbors,
        original degree)`` to ``on_survivor``.  The residual is then
        :attr:`residual`.
        """
        if memory_budget_units <= 0:
            raise StorageError(
                f"partition memory budget must be positive, got {memory_budget_units}"
            )
        ordered = list(dict.fromkeys(members))
        member_set = set(ordered)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        staging = PageStore(
            directory / "hnb_staging.bin",
            disk_graph.io_stats,
            fault_plan=disk_graph.fault_plan,
        )
        # Per staged member, in vertex order: (record bytes, 1 + inner degree).
        staged: dict[int, tuple[int, int]] = {}
        buffer = bytearray()

        def stage(record: VertexRecord) -> None:
            vertex = record.vertex
            if vertex not in member_set:
                return
            inner = [u for u in record.neighbors if u in member_set]
            data = encode_record(vertex, inner, record.original_degree, checksum=True)
            staged[vertex] = (len(data), 1 + len(inner))
            buffer.extend(data)
            if len(buffer) >= 1 << 20:
                staging.append(bytes(buffer))
                buffer.clear()

        try:
            # The one scan of the graph.
            staging.write_all(b"")
            residual = None
            if residual_path is None:
                for record in disk_graph.scan():
                    stage(record)
            else:

                def visit(record: VertexRecord, survivors) -> None:
                    stage(record)
                    if survivors is not None and on_survivor is not None:
                        on_survivor(record.vertex, survivors, record.original_degree)

                residual = disk_graph.rewrite_without(
                    removed, residual_path, visit=visit
                )
            if buffer:
                staging.append(bytes(buffer))

            # Place partition boundaries along the DFS order; a member
            # with no record in the graph costs one unit.
            partitions: list[list[int]] = []
            current: list[int] = []
            current_units = 0
            for v in ordered:
                units = staged[v][1] if v in staged else 1
                if current and current_units + units > memory_budget_units:
                    partitions.append(current)
                    current = []
                    current_units = 0
                current.append(v)
                current_units += units
            if current:
                partitions.append(current)

            stores = [
                PageStore(
                    directory / f"hnb_part_{index:05d}.bin",
                    disk_graph.io_stats,
                    fault_plan=disk_graph.fault_plan,
                )
                for index in range(len(partitions))
            ]
            for store in stores:
                store.write_all(b"")
            partition_of = {
                v: index for index, group in enumerate(partitions) for v in group
            }
            cls._distribute(staging, staged, partition_of, stores)
        finally:
            staging.delete()
        built = cls(directory, partitions, stores, memory, max_resident)
        built.residual = residual
        return built

    @staticmethod
    def _distribute(
        staging: PageStore,
        staged: dict[int, tuple[int, int]],
        partition_of: dict[int, int],
        stores: list[PageStore],
    ) -> None:
        """Copy each staged record's bytes, unchanged and in vertex order,
        into its partition file: one streamed read of ``staging`` (a
        spill read, not a scan of ``G``), 1 MiB write buffers."""
        buffers: list[bytearray] = [bytearray() for _ in stores]
        spans = iter(staged.items())
        pending = bytearray()
        span = next(spans, None)
        for chunk in staging.scan_chunks():
            pending += chunk
            offset = 0
            with memoryview(pending) as view:
                while span is not None and offset + span[1][0] <= len(view):
                    vertex, (size, _) = span
                    buffer = buffers[partition_of[vertex]]
                    buffer += view[offset : offset + size]
                    offset += size
                    if len(buffer) >= 1 << 20:
                        stores[partition_of[vertex]].append(bytes(buffer))
                        buffer.clear()
                    span = next(spans, None)
            del pending[:offset]
        if span is not None or pending:
            raise StorageFormatError(
                f"staging file {staging.path} does not hold the records the "
                f"step pass wrote ({len(pending)} unmatched bytes)"
            )
        for store, buffer in zip(stores, buffers):
            if buffer:
                store.append(bytes(buffer))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of spill partitions."""
        return len(self._partitions)

    @property
    def max_resident(self) -> int:
        """Most partitions held in memory at once; lift workers cap their
        own spill caches with it too."""
        return self._max_resident

    @property
    def io_stats(self):
        """The I/O counters the spill files report to (``None`` when the
        store has no partitions).  The parallel driver folds worker-side
        page reads back in here."""
        return self._stores[0].io_stats if self._stores else None

    def partition_paths(self) -> list[Path]:
        """Filesystem location of every spill file, by partition index.

        Workers re-open these read-only (:func:`read_partition_file`)
        instead of sharing the driver's store handles.
        """
        return [store.path for store in self._stores]

    def partitions_for(self, vertices: Iterable[int]) -> frozenset[int]:
        """Indices of the partitions covering ``vertices``.

        Callers batching many ``HNB`` queries sort them by this key so
        consecutive queries hit resident partitions (the locality the
        paper's DFS-leaf partition order provides).
        """
        indices: set[int] = set()
        for v in vertices:
            index = self._partition_of.get(v)
            if index is None:
                raise StorageError(f"vertex {v} is not covered by the partition store")
            indices.add(index)
        return frozenset(indices)

    def partition_sizes(self) -> list[int]:
        """Per-partition on-disk size in approximate units (8-byte ids)."""
        return [
            self._partition_units_on_disk(index)
            for index in range(len(self._partitions))
        ]

    def neighbor_sets(self, vertices: Iterable[int]) -> dict[int, frozenset[int]]:
        """Each requested vertex's within-member neighbours.

        Loads (and meters) every partition containing a requested vertex,
        in order of first appearance in ``vertices``, through the LRU.
        Unknown vertices — ones outside the member set — raise
        :class:`~repro.errors.StorageError`, since silently returning an
        empty neighborhood would corrupt clique maximality decisions.
        """
        wanted = list(dict.fromkeys(vertices))
        by_partition: dict[int, list[int]] = {}
        for v in wanted:
            index = self._partition_of.get(v)
            if index is None:
                raise StorageError(f"vertex {v} is not covered by the partition store")
            by_partition.setdefault(index, []).append(v)
        adjacency: dict[int, frozenset[int]] = dict.fromkeys(wanted, frozenset())
        for index, group in by_partition.items():
            loaded = self._load_raw(index)
            for v in group:
                if v in loaded:
                    adjacency[v] = loaded[v]
        return adjacency

    def induced_subgraph(self, vertices: Iterable[int]) -> AdjacencyGraph:
        """The subgraph induced on ``vertices`` by within-member edges
        (same loads and errors as :meth:`neighbor_sets`)."""
        adjacency = self.neighbor_sets(vertices)
        wanted = set(adjacency)
        graph = AdjacencyGraph()
        for v in adjacency:
            graph.add_vertex(v)
        for v, neighbors in adjacency.items():
            for u in neighbors & wanted:
                graph.add_edge(v, u)
        return graph

    def close(self) -> None:
        """Evict all resident partitions, delete the spill files, and
        remove the spill directory once nothing else is left in it."""
        for index in list(self._resident):
            self._evict(index)
        if self._memory is not None:
            self._memory.remove_reclaimer(self._reclaim_one)
        for store in self._stores:
            store.delete()
        try:
            self._directory.rmdir()
        except OSError:  # holds other files, or is already gone
            pass

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _load_raw(self, index: int) -> dict[int, frozenset[int]]:
        if index in self._resident:
            self._lru.remove(index)
            self._lru.append(index)
            return self._resident[index]
        while len(self._resident) >= self._max_resident:
            self._evict(self._lru[0])
        loaded = parse_partition_records(self._stores[index].read_all())
        units = sum(1 + len(neighbors) for neighbors in loaded.values())
        if self._memory is not None:
            # Memory pressure may reclaim resident partitions; the one
            # being loaded is not in the LRU yet and cannot be victimised.
            self._memory.allocate(units, label="hnb partition")
        self._resident[index] = loaded
        self._resident_units[index] = units
        self._lru.append(index)
        self.partition_loads += 1
        return loaded

    def _reclaim_one(self) -> bool:
        """Memory-pressure hook: drop the least-recently-used partition."""
        if not self._lru:
            return False
        self._evict(self._lru[0])
        return True

    def _evict(self, index: int) -> None:
        self._resident.pop(index, None)
        self._lru.remove(index)
        units = self._resident_units.pop(index, 0)
        if self._memory is not None:
            self._memory.release(units, label="hnb partition")

    def _partition_units_on_disk(self, index: int) -> int:
        size = self._stores[index].size_bytes()
        return size // 8  # ids are 8 bytes; headers approximate to ids
