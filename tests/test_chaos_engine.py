"""Unit tests for the chaos engine: schedules, budgets, sampler,
partition helpers, client backoff, the Byzantine swap machinery and the
campaign's participant seam."""

import functools
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.bftsmart.byzantine import Silent
from repro.chaos import (
    ChaosBudgetError,
    CrashReplica,
    DropKind,
    Rejuvenate,
    Schedule,
    SwapByzantine,
    get_scenario,
    run_campaign,
    sample_schedule,
    swap_replica_behaviour,
)
from repro.chaos.campaign import (
    CampaignConfig,
    FleetParticipant,
    HealParticipant,
    IdsParticipant,
)
from repro.chaos import shrink
from repro.chaos.monitors import InvariantMonitor, default_monitors
from repro.core import SmartScadaConfig, build_smartscada
from repro.net import ConstantLatency, Network, NetworkTrace
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# schedules and budgets
# ---------------------------------------------------------------------------

def test_budget_rejects_overlapping_replica_faults():
    schedule = Schedule([
        CrashReplica(at=1.0, duration=3.0, index=0),
        SwapByzantine(at=2.0, duration=3.0, index=1, behaviour="silent"),
    ])
    assert schedule.max_simultaneous_replica_faults(10.0) == 2
    with pytest.raises(ChaosBudgetError):
        schedule.validate_budget(f=1, horizon=10.0)
    # Explicit overload opt-in lifts the check.
    schedule.validate_budget(f=1, horizon=10.0, allow_overload=True)


def test_budget_allows_sequential_faults():
    schedule = Schedule([
        CrashReplica(at=1.0, duration=1.0, index=0),
        CrashReplica(at=2.0, duration=1.0, index=1),  # starts as #0 heals
        Rejuvenate(at=4.0, index=2),
    ])
    assert schedule.max_simultaneous_replica_faults(10.0) == 1
    schedule.validate_budget(f=1, horizon=10.0)


def test_network_faults_are_outside_the_budget():
    # BFT safety must hold under arbitrary network behaviour: pile on.
    schedule = Schedule([
        DropKind(at=0.0, duration=5.0, kind="WriteValue"),
        DropKind(at=0.0, duration=5.0, kind="WriteResult"),
        CrashReplica(at=1.0, duration=1.0, index=0),
    ])
    assert schedule.max_simultaneous_replica_faults(10.0) == 1


def test_open_ended_fault_charges_to_horizon():
    schedule = Schedule([CrashReplica(at=1.0, index=0)])  # no duration
    action = schedule.actions[0]
    assert action.end(6.0) == 6.0
    assert action.fault_interval(6.0) == (1.0, 6.0, 1)


def test_schedule_sorts_actions_by_time():
    schedule = Schedule([
        CrashReplica(at=3.0, duration=1.0, index=1),
        CrashReplica(at=1.0, duration=1.0, index=0),
    ])
    assert [a.at for a in schedule] == [1.0, 3.0]


# ---------------------------------------------------------------------------
# the seeded sampler
# ---------------------------------------------------------------------------

def test_sampler_is_deterministic_per_seed():
    a = sample_schedule(123)
    b = sample_schedule(123)
    assert [repr(x) for x in a] == [repr(x) for x in b]
    c = sample_schedule(124)
    assert [repr(x) for x in a] != [repr(x) for x in c]


def test_sampled_schedules_respect_the_budget():
    for seed in range(30):
        schedule = sample_schedule(seed, horizon=6.0, f=1)
        assert schedule.max_simultaneous_replica_faults(6.0) <= 1
        assert 1 <= len(schedule) <= 5


# ---------------------------------------------------------------------------
# partition/heal helpers and injector counters
# ---------------------------------------------------------------------------

def _net():
    sim = Simulator(seed=5)
    net = Network(sim, latency=ConstantLatency(0.001), trace=NetworkTrace(enabled=False))
    return sim, net


def test_partition_helper_blocks_cross_group_traffic():
    sim, net = _net()
    seen = []
    for name in ("a", "b", "c"):
        net.endpoint(name).set_handler(
            lambda payload, src, name=name: seen.append((name, payload))
        )
    rule = net.faults.partition([["a"], ["b", "c"]])
    net.endpoint("a").send("b", "cross")   # dropped
    net.endpoint("b").send("c", "inside")  # same group: delivered
    sim.run()
    assert seen == [("c", "inside")]
    assert net.faults.stats()["partitions_active"] == 1

    healed = net.faults.heal(rule)
    assert healed == 1
    net.endpoint("a").send("b", "after-heal")
    sim.run()
    assert ("b", "after-heal") in seen
    assert net.faults.stats()["partitions_active"] == 0


def test_heal_without_argument_lifts_all_partitions():
    sim, net = _net()
    net.endpoint("a"), net.endpoint("b"), net.endpoint("c")
    net.faults.partition([["a"], ["b"]])
    net.faults.partition([["b"], ["c"]])
    assert net.faults.heal() == 2
    assert net.faults.rules == []


def test_injector_counters_reach_simulator_stats():
    sim, net = _net()
    net.endpoint("a")
    net.endpoint("b").set_handler(lambda payload, src: None)
    from repro.net import Drop

    net.faults.add(Drop(kind="str"))
    net.endpoint("a").send("b", "dropped")
    net.endpoint("a").send("b", 42)  # int: passes
    sim.run()
    stats = sim.stats()["net.faults"]
    assert stats["total_fired"] == 1
    assert stats["fired"] == {"Drop": 1}
    assert stats["rules_active"] == 1


# ---------------------------------------------------------------------------
# client retransmission backoff
# ---------------------------------------------------------------------------

def test_backoff_grows_and_caps():
    sim = Simulator(seed=9)
    system = build_smartscada(sim, config=SmartScadaConfig())
    proxy = system.proxy_hmi.bft
    t = proxy.invoke_timeout
    delays = [proxy._retransmission_delay(attempts) for attempts in range(1, 8)]
    # Exponential growth with a deterministic jitter in [1.0, 1.1).
    assert t * 1.0 <= delays[0] <= t * 1.1
    assert t * 2.0 <= delays[1] <= t * 2.2
    assert t * 4.0 <= delays[2] <= t * 4.4
    # Capped at 4x from the third retransmission on.
    for delay in delays[3:]:
        assert t * 4.0 <= delay <= t * 4.4


def test_backoff_jitter_is_seed_deterministic():
    def sample(seed):
        sim = Simulator(seed=seed)
        system = build_smartscada(sim, config=SmartScadaConfig())
        proxy = system.proxy_hmi.bft
        return [proxy._retransmission_delay(a) for a in range(1, 6)]

    assert sample(11) == sample(11)
    assert sample(11) != sample(12)


# ---------------------------------------------------------------------------
# runtime Byzantine swap
# ---------------------------------------------------------------------------

def test_swap_replica_behaviour_roundtrip():
    sim = Simulator(seed=21)
    system = build_smartscada(sim, config=SmartScadaConfig())
    system.frontend.add_item("sensor", initial=0)
    system.start()

    swapped = swap_replica_behaviour(system, 2, "silent")
    assert isinstance(swapped.replica.behaviour, Silent)
    assert system.proxy_masters[2] is swapped

    back = swap_replica_behaviour(system, 2, "honest")
    assert back.replica.behaviour is None
    # The group keeps deciding with the restored replica.
    for i in range(5):
        system.frontend.inject_update("sensor", i)
        sim.run(until=sim.now + 0.05)
    sim.run(until=sim.now + 2.0)
    live = [pm.replica for pm in system.proxy_masters if pm.replica.active]
    assert len({r.last_decided for r in live}) == 1


def test_swap_rejects_unknown_behaviour():
    sim = Simulator(seed=22)
    system = build_smartscada(sim, config=SmartScadaConfig())
    with pytest.raises(ValueError, match="unknown behaviour"):
        swap_replica_behaviour(system, 0, "gaslighting")


# ---------------------------------------------------------------------------
# the participant seam: one monitor list, walked in order
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _plain_run(scenario_name: str):
    scenario = get_scenario(scenario_name)
    return run_campaign(scenario.schedule(), scenario.config(seed=4))


@pytest.mark.parametrize(
    "scenario_name, flag",
    [
        ("leader-crash", "trace_spans"),
        ("leader-crash", "trace_dump"),
        ("leader-crash", "ids"),
        ("leader-crash", "fleet"),
        ("shard-leader-kills", "trace_spans"),
        ("shard-leader-kills", "fleet"),
        # Detections under a planted compromise and through a benign
        # leader change.
        ("ids-falsifying", "ids"),
        ("benign-kill-leader", "ids"),
    ],
)
def test_passive_participants_leave_the_run_untouched(
    scenario_name, flag, tmp_path
):
    scenario = get_scenario(scenario_name)
    value = str(tmp_path / "dump.json") if flag == "trace_dump" else True
    observed = run_campaign(
        scenario.schedule(), scenario.config(seed=4, **{flag: value})
    )
    plain = _plain_run(scenario_name)
    assert observed.fingerprint() == plain.fingerprint()
    assert observed.events_dispatched == plain.events_dispatched


def test_participants_poll_in_list_order_ids_heal_scoreboard():
    """The scoreboard samples after the orchestrator acted on the same
    tick, so a participant behind it never sees a stale action count —
    and participants passed through ``monitors=`` behave exactly like
    the ones the ``heal`` / ``fleet`` flags append."""
    scenario = get_scenario("heal-evict-falsifying")
    flagged = scenario.config(seed=3, fleet=True)
    fleet = FleetParticipant()
    ticks = []

    class Recorder(InvariantMonitor):
        def poll(self, ctx) -> None:
            ticks.append((
                len(ctx.orchestrator.actions),
                fleet.scoreboard.latest.heal_actions,
                ctx.orchestrator.evictions,
            ))

    explicit = run_campaign(
        scenario.schedule(),
        replace(flagged, heal=False, fleet=False, trace_spans=True),
        monitors=default_monitors()
        + [IdsParticipant(), HealParticipant(), fleet, Recorder()],
    )
    assert explicit.evictions == 1
    assert all(acted == sampled for acted, sampled, _ in ticks)
    # The tick the orchestrator decided, and the tick the eviction is in.
    assert ticks[0][0] == 0 and ticks[-1][0] >= 1
    assert [evicted for _, _, evicted in ticks][-1] == 1

    by_flags = run_campaign(scenario.schedule(), flagged)
    assert explicit.fingerprint() == by_flags.fingerprint()
    assert explicit.heal_actions == by_flags.heal_actions
    assert explicit.fleet == by_flags.fleet


def test_participant_report_fields_land_on_the_campaign_report():
    class Reporter(InvariantMonitor):
        def __init__(self, fields):
            self.fields = fields

        def report(self, ctx) -> dict:
            return self.fields

    config = CampaignConfig(seed=1, horizon=0.5)
    report = run_campaign(
        Schedule([]), config, monitors=[Reporter({"evictions": 7})]
    )
    assert report.evictions == 7
    # An unknown field is an error, not silently dropped.
    with pytest.raises(TypeError, match="bogus"):
        run_campaign(Schedule([]), config, monitors=[Reporter({"bogus": 1})])


# ---------------------------------------------------------------------------
# shrinking a heal campaign: the orchestrator's story is pinned
# ---------------------------------------------------------------------------

def _failing_report(*targets):
    """A stand-in violating report whose orchestrator evicted ``targets``."""
    return SimpleNamespace(ok=False, heal_actions=[
        {"kind": "evict", "target": target, "outcome": "completed"}
        for target in targets
    ])


def test_fails_rejects_a_candidate_whose_heal_signature_changed(monkeypatch):
    monkeypatch.setattr(
        shrink, "run_campaign", lambda schedule, config: _failing_report("replica-1")
    )
    counter = [0]
    kept = shrink._heal_signature(_failing_report("replica-1"))
    moved = shrink._heal_signature(_failing_report("replica-2"))
    assert shrink._fails(Schedule(), CampaignConfig(), counter, kept) is not None
    assert shrink._fails(Schedule(), CampaignConfig(), counter, moved) is None
    assert shrink._fails(Schedule(), CampaignConfig(), counter) is not None
    assert counter == [3]


@pytest.mark.parametrize("heal, removed", [(True, 0), (False, 1)])
def test_shrink_pins_the_heal_signature_exactly_when_heal_is_on(
    monkeypatch, heal, removed
):
    """Dropping either action keeps the violation but moves the eviction:
    a heal campaign may not shrink (whether ``heal`` came from a flag or
    the scenario's overrides), any other campaign may."""
    monkeypatch.setattr(
        shrink,
        "run_campaign",
        lambda schedule, config: _failing_report(f"replica-{len(schedule)}"),
    )
    schedule = Schedule([Rejuvenate(at=1.0, index=1), Rejuvenate(at=2.0, index=2)])
    result = shrink.shrink_schedule(schedule, CampaignConfig(heal=heal))
    assert result.removed_actions == removed
