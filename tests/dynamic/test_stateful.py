"""Stateful property tests: dynamic structures vs. a model oracle.

Hypothesis drives arbitrary interleavings of insertions and deletions
against :class:`StixDynamicMCE` and :class:`HStarMaintainer`, checking
after every step that the maintained state equals what a from-scratch
recomputation would give.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from repro.baselines.bron_kerbosch import tomita_maximal_cliques
from repro.baselines.stix import StixDynamicMCE
from repro.core.clique_tree import enumerate_star_cliques
from repro.dynamic.maintainer import HStarMaintainer

VERTICES = st.integers(min_value=0, max_value=9)


class StixMachine(RuleBasedStateMachine):
    """Stix maintainer must always hold exactly the maximal cliques."""

    def __init__(self):
        super().__init__()
        self.algo = StixDynamicMCE(indexed=False)
        self.shadow = StixDynamicMCE(indexed=True)
        self.present: set[tuple[int, int]] = set()

    @rule(u=VERTICES, v=VERTICES)
    def insert(self, u, v):
        if u == v:
            return
        edge = (min(u, v), max(u, v))
        if edge in self.present:
            return
        self.algo.insert_edge(*edge)
        self.shadow.insert_edge(*edge)
        self.present.add(edge)

    @precondition(lambda self: self.present)
    @rule(data=st.data())
    def delete(self, data):
        edge = data.draw(st.sampled_from(sorted(self.present)))
        self.algo.delete_edge(*edge)
        self.shadow.delete_edge(*edge)
        self.present.discard(edge)

    @rule(v=VERTICES)
    def add_vertex(self, v):
        self.algo.add_vertex(v)
        self.shadow.add_vertex(v)

    @invariant()
    def matches_oracle(self):
        oracle = set(tomita_maximal_cliques(self.algo.graph))
        assert set(self.algo.cliques()) == oracle
        assert set(self.shadow.cliques()) == oracle


class MaintainerMachine(RuleBasedStateMachine):
    """T_H* maintenance must track the star graph's true clique set."""

    def __init__(self):
        super().__init__()
        self.maintainer = HStarMaintainer()
        self.present: set[tuple[int, int]] = set()

    @rule(u=VERTICES, v=VERTICES)
    def insert(self, u, v):
        if u == v:
            return
        edge = (min(u, v), max(u, v))
        if edge in self.present:
            return
        self.maintainer.insert_edge(*edge)
        self.present.add(edge)

    @precondition(lambda self: self.present)
    @rule(data=st.data())
    def delete(self, data):
        edge = data.draw(st.sampled_from(sorted(self.present)))
        self.maintainer.delete_edge(*edge)
        self.present.discard(edge)

    @precondition(lambda self: self.present)
    @rule(data=st.data())
    def delete_vertex(self, data):
        vertices = sorted({v for edge in self.present for v in edge})
        vertex = data.draw(st.sampled_from(vertices))
        self.maintainer.delete_vertex(vertex)
        self.present = {e for e in self.present if vertex not in e}

    @invariant()
    def tree_matches_star(self):
        star = self.maintainer.star()
        expected = set(enumerate_star_cliques(star))
        assert set(self.maintainer.star_cliques()) == expected

    @invariant()
    def h_index_matches_sorted_degrees(self):
        degrees = sorted(
            (self.maintainer.graph.degree(v) for v in self.maintainer.graph.vertices()),
            reverse=True,
        )
        h = sum(1 for rank, degree in enumerate(degrees, start=1) if degree >= rank)
        assert self.maintainer._current_h_index() == h
        assert self.maintainer.h == h

    @invariant()
    def core_is_valid_h_set(self):
        g = self.maintainer.graph
        h = self.maintainer.h
        core = self.maintainer.core
        assert len(core) == h
        assert all(g.degree(v) >= h for v in core)
        assert all(g.degree(v) <= h for v in g.vertices() if v not in core)


TestStixMachine = StixMachine.TestCase
TestStixMachine.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)

TestMaintainerMachine = MaintainerMachine.TestCase
TestMaintainerMachine.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
