"""Persisted clique index over the ExtMCE stream.

The paper motivates maximal clique enumeration as a *reusable* result —
an index that downstream analyses query, not a one-shot report (Section
1).  This package is that index: :func:`build_index` streams cliques
into an on-disk layout (delta-encoded, CRC32-checksummed records plus an
inverted vertex→clique-id postings file and a size-ordered id table
for top-k), :func:`merge_index` writes
the next generation of an index from its base plus a change set, and
:class:`CliqueIndex` answers containment, edge, membership and top-k
queries through bounded page caches.  :mod:`repro.service` builds the concurrent query engine
and network server on top.
"""

from repro.index.builder import (
    CliqueIndexSink,
    IndexBuildReport,
    build_index,
    merge_index,
)
from repro.index.format import MANIFEST_SCHEMA
from repro.index.reader import CliqueIndex

__all__ = [
    "CliqueIndex",
    "CliqueIndexSink",
    "IndexBuildReport",
    "MANIFEST_SCHEMA",
    "build_index",
    "merge_index",
]
