"""The inline-or-fan-out cost model, and how the driver follows it."""

from __future__ import annotations

import gc
import math
import multiprocessing
import os

import pytest

from repro import DiskGraph, ExtMCE, ExtMCEConfig, ParallelExtMCE, load_trace
from repro.faults import FaultPlan, FaultRule
from repro.generators import defective_clique_communities
from repro.metrics import counter_value
from repro.parallel import driver as driver_mod
from repro.parallel import shm as shm_mod
from repro.parallel.costmodel import (
    FANOUT,
    INLINE,
    CostModel,
    PhaseRates,
    Plan,
    best_chunks,
    fanout_seconds,
    plan_phase,
)
from repro.parallel.scheduler import ParallelEngine

from tests.helpers import forced_fanout, metered, seeded_gnp

#: Rates measured in-process on a 2-CPU host for the perfbench community
#: graph at two workers: the tree from an exploratory fan-out, the lift's
#: fan-out side from the 4,000-vertex scaling graph.
COMMUNITY_TREE = PhaseRates(
    inline_s_per_unit=5.7e-6,
    driver_s_per_unit=9.2e-6,
    worker_s_per_unit=1.13e-5,
    dispatch_s_per_chunk=1.7e-3,
    dispatch_floor_s=1.7e-3,
    engine_start_s=0.019,
)
COMMUNITY_LIFT = PhaseRates(
    inline_s_per_unit=1.07e-5,
    driver_s_per_unit=1.6e-6,
    worker_s_per_unit=6.9e-6,
    dispatch_s_per_chunk=3.6e-3,
    dispatch_floor_s=1.7e-3,
    engine_start_s=0.019,
)
#: Step 1 of that graph: |G_H*| + |H| = 462 + 24 tree units, and 42
#: distinct HNB sets weighing Σ (1 + |HNB|) = 473 lift units.
COMMUNITY_STEP1 = {"tree": 486, "lift": 473}


class TestPlanPhase:
    @pytest.mark.parametrize("engine_running", [False, True])
    def test_community_step_one_runs_inline(self, engine_running):
        for phase, rates in (("tree", COMMUNITY_TREE), ("lift", COMMUNITY_LIFT)):
            plan = plan_phase(rates, COMMUNITY_STEP1[phase], 2, engine_running)
            assert plan.mode == INLINE, phase
            assert plan.chunks == 0
            assert plan.predicted_fanout_s > plan.predicted_inline_s

    def test_inline_dominated_phase_fans_out(self):
        rates = PhaseRates(
            inline_s_per_unit=1e-4,
            driver_s_per_unit=1e-6,
            worker_s_per_unit=1e-4,
            dispatch_s_per_chunk=1e-3,
            engine_start_s=0.05,
        )
        plan = plan_phase(rates, 10_000, 2, engine_running=False)
        assert plan.mode == FANOUT
        # c* = sqrt((1 - 1/2) * 1.0 s / 1 ms) = 22.4
        assert plan.chunks in (22, 23)
        assert plan.predicted_inline_s == pytest.approx(1.0)
        assert plan.predicted_fanout_s == pytest.approx(0.605, abs=1e-3)

    def test_chunks_grow_with_the_work_per_dispatch(self):
        rates = PhaseRates(
            inline_s_per_unit=1e-4,
            driver_s_per_unit=0.0,
            worker_s_per_unit=1e-4,
            dispatch_s_per_chunk=1e-3,
        )
        small = plan_phase(rates, 1_000, 4, engine_running=True)
        large = plan_phase(rates, 100_000, 4, engine_running=True)
        assert small.mode == large.mode == FANOUT
        assert 4 <= small.chunks < large.chunks

    def test_nothing_to_split_runs_inline(self):
        assert plan_phase(COMMUNITY_TREE, 10**6, 1, True) == Plan(
            INLINE, 0, COMMUNITY_TREE.inline_s_per_unit * 10**6, None
        )
        assert plan_phase(COMMUNITY_TREE, 0, 2, True).mode == INLINE

    def test_no_inline_rate_runs_inline_first(self):
        plan = plan_phase(PhaseRates(), 10**6, 2, engine_running=True)
        assert plan == Plan(INLINE, 0, None, None)

    def test_first_fanout_explores_into_one_chunk_per_worker(self):
        plan = plan_phase(PhaseRates(inline_s_per_unit=1e-6), 100, 3, False)
        assert plan.mode == FANOUT
        assert plan.chunks == 3

    def test_unmeasured_phase_stays_inline_when_its_best_case_loses(self):
        # The other phase measured a 5 ms dispatch and a 30 ms engine
        # start; 20 ms of inline work cannot win even with free driver
        # work and workers as fast as inline.
        rates = PhaseRates(
            inline_s_per_unit=2e-5, dispatch_floor_s=5e-3, engine_start_s=0.03
        )
        plan = plan_phase(rates, 1_000, 2, engine_running=False)
        assert plan.mode == INLINE
        assert plan.predicted_fanout_s > plan.predicted_inline_s
        # 2 s of inline work can.
        assert plan_phase(rates, 100_000, 2, engine_running=False).mode == FANOUT

    def test_engine_start_counts_only_without_a_running_pool(self):
        rates = PhaseRates(
            inline_s_per_unit=1e-5,
            driver_s_per_unit=0.0,
            worker_s_per_unit=1e-5,
            dispatch_s_per_chunk=1e-4,
            engine_start_s=1.0,
        )
        cold = plan_phase(rates, 10_000, 2, engine_running=False)
        warm = plan_phase(rates, 10_000, 2, engine_running=True)
        assert cold.mode == INLINE
        assert warm.mode == FANOUT
        assert cold.predicted_fanout_s == pytest.approx(warm.predicted_fanout_s + 1.0)

    @pytest.mark.parametrize("units", [1, 5, 40, 900, 50_000])
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_best_chunks_minimises_the_prediction(self, units, workers):
        rates = PhaseRates(
            inline_s_per_unit=1e-5,
            driver_s_per_unit=1e-6,
            worker_s_per_unit=2e-5,
            dispatch_s_per_chunk=2e-4,
        )
        chosen = best_chunks(rates, units, workers)
        upper = max(workers, units)
        assert workers <= chosen <= upper
        brute = min(
            range(workers, upper + 1),
            key=lambda c: fanout_seconds(rates, units, workers, c),
        )
        assert math.isclose(
            fanout_seconds(rates, units, workers, chosen),
            fanout_seconds(rates, units, workers, brute),
        )


class TestCostModel:
    def test_rates_start_unmeasured(self):
        assert CostModel().rates("tree", 2) == PhaseRates()

    def test_inline_rate_is_seconds_per_unit(self):
        model = CostModel()
        model.observe_inline("lift", 2, 100, 0.2)
        model.observe_inline("lift", 2, 300, 0.2)
        model.observe_inline("lift", 2, 0, 5.0)  # nothing to learn from
        assert model.rates("lift", 2).inline_s_per_unit == pytest.approx(1e-3)
        assert model.rates("tree", 2).inline_s_per_unit is None
        assert model.rates("lift", 4).inline_s_per_unit is None

    def test_fanout_rates_split_driver_worker_and_dispatch(self):
        model = CostModel()
        model.observe_fanout(
            "tree", 2, 1_000,
            driver_s=0.05, map_s=0.12,
            busy_s={"worker_a": 0.1, "worker_b": 0.06}, chunks=4,
        )
        rates = model.rates("tree", 2)
        assert rates.driver_s_per_unit == pytest.approx(5e-5)
        assert rates.worker_s_per_unit == pytest.approx(1.6e-4)
        # The map outlasted its busiest worker by 20 ms over 4 chunks.
        assert rates.dispatch_s_per_chunk == pytest.approx(5e-3)
        assert rates.dispatch_floor_s == pytest.approx(5e-3)
        assert model.rates("lift", 2).dispatch_s_per_chunk is None
        assert model.rates("lift", 2).dispatch_floor_s == pytest.approx(5e-3)
        assert model.rates("lift", 3).dispatch_floor_s == 0.0

    def test_engine_start_is_the_mean_per_worker_count(self):
        model = CostModel()
        model.observe_engine_start(2, 0.01)
        model.observe_engine_start(2, 0.03)
        model.observe_engine_start(4, 0.5)
        assert model.rates("tree", 2).engine_start_s == pytest.approx(0.02)
        assert model.rates("lift", 4).engine_start_s == pytest.approx(0.5)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def _graph():
    return defective_clique_communities(70, seed=3, community_min=8, community_max=12)


def _serial(graph, tmp_path):
    disk = DiskGraph.create(tmp_path / "serial.bin", graph)
    return list(ExtMCE(disk, ExtMCEConfig(workdir=tmp_path / "ws")).enumerate_cliques())


def _parallel(graph, tmp_path):
    """A traced, metered 2-worker run: (metrics snapshot, stream, trace)."""
    disk = DiskGraph.create(tmp_path / "parallel.bin", graph)
    config = ExtMCEConfig(
        workdir=tmp_path / "wp",
        workers=2,
        trace_path=tmp_path / "trace.jsonl",
    )
    with metered() as registry:
        stream = list(ParallelExtMCE(disk, config).enumerate_cliques())
    return registry.snapshot(), stream, load_trace(tmp_path / "trace.jsonl")


def _fanned_out_phases(snapshot):
    return counter_value(snapshot, "repro_parallel_phases_total", {"mode": FANOUT})


def _decisions(events):
    return [e for e in events if e["event"] == "parallel_decision"]


@pytest.fixture
def fresh_model(monkeypatch):
    model = CostModel()
    monkeypatch.setattr(ParallelExtMCE, "cost_model", model)
    return model


def _segments():
    return {e for e in os.listdir("/dev/shm") if e.startswith(shm_mod.SEGMENT_PREFIX)}


class TestDriverFollowsThePlan:
    def test_all_inline_run_starts_no_process_and_publishes_nothing(
        self, tmp_path, monkeypatch
    ):
        def inline(rates, units, workers, engine_running):
            return Plan(INLINE, 0, None, None)

        def no_engine(*args, **kwargs):
            raise AssertionError("an all-inline run started the engine")

        def no_pool(*args, **kwargs):
            raise AssertionError("an all-inline run forked a pool")

        monkeypatch.setattr(driver_mod, "plan_phase", inline)
        monkeypatch.setattr(driver_mod, "ParallelEngine", no_engine)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        graph = _graph()
        before = _segments() if os.path.isdir("/dev/shm") else set()
        snapshot, stream, events = _parallel(graph, tmp_path)
        assert stream == _serial(graph, tmp_path)
        assert multiprocessing.active_children() == []
        if os.path.isdir("/dev/shm"):
            assert _segments() <= before
        assert counter_value(
            snapshot, "repro_parallel_chunks_total"
        ) == _fanned_out_phases(snapshot) == 0
        assert counter_value(
            snapshot, "repro_parallel_shm_bytes_total"
        ) == counter_value(snapshot, "repro_parallel_payload_bytes_total") == 0
        decisions = _decisions(events)
        assert {e["mode"] for e in decisions} == {INLINE}
        assert not any(e["event"] == "parallel_step_completed" for e in events)

    def test_one_decision_per_step_and_phase(self, tmp_path, fresh_model):
        graph = _graph()
        snapshot, stream, events = _parallel(graph, tmp_path)
        assert stream == _serial(graph, tmp_path)
        decisions = _decisions(events)
        steps = [e["step"] for e in events if e["event"] == "step_completed"]
        assert sorted((e["step"], e["phase"]) for e in decisions) == sorted(
            (step, phase) for step in steps for phase in ("tree", "lift")
        )
        for event in decisions:
            assert event["actual_s"] >= 0
            assert (event["chunks"] > 0) == (event["mode"] == FANOUT)
        fanned = [e for e in decisions if e["mode"] == FANOUT]
        assert len(fanned) == _fanned_out_phases(snapshot)
        assert counter_value(snapshot, "repro_parallel_phases_total") == len(decisions)
        chunk_events = [
            e for e in events
            if e["event"] in ("tree_chunk_completed", "lift_chunk_completed")
        ]
        assert counter_value(snapshot, "repro_parallel_chunks_total") == len(
            chunk_events
        )

    def test_fresh_model_measures_inline_then_explores_once(
        self, tmp_path, fresh_model
    ):
        snapshot, _, events = _parallel(_graph(), tmp_path)
        decisions = {(e["step"], e["phase"]): e for e in _decisions(events)}
        # Step 1 learns the inline rates; step 2's tree fans out once to
        # learn the pool's, with one chunk per worker.
        assert decisions[1, "tree"]["mode"] == INLINE
        assert decisions[1, "tree"]["predicted_inline_s"] is None
        assert decisions[1, "lift"]["mode"] == INLINE
        assert decisions[2, "tree"]["mode"] == FANOUT
        assert decisions[2, "tree"]["chunks"] == 2
        rates = fresh_model.rates("tree", 2)
        assert rates.dispatch_s_per_chunk is not None
        assert rates.engine_start_s > 0
        assert counter_value(snapshot, "repro_parallel_chunks_total") >= 1

    @pytest.mark.usefixtures("force_fanout")
    def test_forced_fanout_publishes_every_step_through_shm(self, tmp_path):
        graph = seeded_gnp(60, 0.15, seed=5)
        snapshot, stream, events = _parallel(graph, tmp_path)
        assert stream == _serial(graph, tmp_path)
        steps = [e for e in events if e["event"] == "parallel_step_completed"]
        assert steps and all(e["shm_bytes"] > 0 for e in steps)
        assert counter_value(snapshot, "repro_parallel_inband_payloads_total") == 0
        assert {e["mode"] for e in _decisions(events) if e["units"]} == {FANOUT}

    @pytest.mark.usefixtures("force_fanout")
    def test_fanouts_that_recovered_from_faults_teach_nothing(
        self, tmp_path, fresh_model
    ):
        graph = seeded_gnp(60, 0.15, seed=5)
        disk = DiskGraph.create(tmp_path / "g.bin", graph)
        plan = FaultPlan([FaultRule("chunk", "worker_error", max_firings=10**6)])
        config = ExtMCEConfig(
            workdir=tmp_path / "w", workers=2, fault_plan=plan, max_retries=0
        )
        algo = ParallelExtMCE(disk, config)
        with metered() as registry:
            assert list(algo.enumerate_cliques()) == _serial(graph, tmp_path)
        assert counter_value(
            registry.snapshot(), "repro_parallel_inline_chunks_total"
        ) > 0
        for phase in ("tree", "lift"):
            assert fresh_model.rates(phase, 2).dispatch_s_per_chunk is None

    def test_lift_only_fanout_publishes_no_graph(self, tmp_path, monkeypatch):
        def lift_only(self, phase, units):
            if phase == "lift" and units > 0:
                return Plan(FANOUT, 2, None, None)
            return Plan(INLINE, 0, None, None)

        monkeypatch.setattr(ParallelExtMCE, "_plan", lift_only)
        graph = seeded_gnp(60, 0.15, seed=5)
        snapshot, stream, _ = _parallel(graph, tmp_path)
        assert stream == _serial(graph, tmp_path)
        assert counter_value(snapshot, "repro_parallel_chunks_total") > 0
        assert counter_value(snapshot, "repro_parallel_shm_bytes_total") == 0
        assert counter_value(snapshot, "repro_parallel_inband_payloads_total") == 0

    def test_fanouts_that_never_reached_a_pool_teach_nothing(
        self, tmp_path, fresh_model, monkeypatch
    ):
        monkeypatch.setattr(ParallelEngine, "_create_pool", lambda self: None)
        graph = seeded_gnp(70, 0.15, seed=6)
        with forced_fanout():
            snapshot, stream, events = _parallel(graph, tmp_path)
        assert stream == _serial(graph, tmp_path)
        # Every chunk ran in the driver: no fan-out rate, no pool start.
        assert all(tally.chunks == 0 for tally in fresh_model._tallies.values())
        for phase in ("tree", "lift"):
            rates = fresh_model.rates(phase, 2)
            assert rates.dispatch_s_per_chunk is None
            assert rates.engine_start_s == 0.0
        steps = [e for e in events if e["event"] == "parallel_step_completed"]
        assert steps and all(e["fell_back"] for e in steps)
        assert counter_value(
            snapshot, "repro_parallel_fallback_steps_total"
        ) == len(steps)

def test_pool_forks_with_the_collector_frozen_and_unfreezes_after(monkeypatch):
    counts = []
    real_pool = multiprocessing.Pool

    def recording_pool(*args, **kwargs):
        counts.append(gc.get_freeze_count())
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    with ParallelEngine(2, sweep=False) as engine:
        assert engine.pool is not None
    assert counts and counts[0] > 0
    assert gc.get_freeze_count() == 0
