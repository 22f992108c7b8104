"""Unit-level tests for the recovery orchestrator (scripted detector).

The campaign-level drills (``tests/test_heal_campaign.py``) prove the
closed loop end to end; these tests script the detector so each policy
mechanism is pinned in isolation: the corroboration threshold, the full
escalation ladder, quorum-guard refusal with the blocked-streak alarm,
and the liveness-probe restart path.

Every case also runs through the other deployment entry point (the
sharded builder at one shard), at the bottom of the file.
"""

import pytest

from repro.core import SmartScadaConfig, build_smartscada
from repro.core.recovery import RejuvenationScheduler
from repro.heal import HealConfig, RecoveryOrchestrator
from repro.heal import orchestrator as heal_orchestrator
from repro.ids.detectors import Detection, Verdict
from repro.neoscada import HandlerChain, Monitor
from repro.core import ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator


class ScriptedDetector:
    """A stand-in detector whose verdict stream the test controls."""

    def __init__(self) -> None:
        self.streaks: dict = {}  # (kind, entity) -> streak count

    def assert_condition(self, kind: str, entity: str, uid: str = "d1") -> None:
        self.streaks[(kind, entity, uid)] = (
            self.streaks.get((kind, entity, uid), 0) + 1
        )

    def clear(self) -> None:
        self.streaks = {}

    def verdicts(self, min_streak: int = 1, kinds=None):
        out = []
        for (kind, entity, uid), streak in sorted(self.streaks.items()):
            if streak < min_streak:
                continue
            if kinds is not None and kind not in kinds:
                continue
            out.append(
                Verdict(
                    detection=Detection(
                        time=0.0,
                        kind=kind,
                        entity=entity,
                        score=2.0,
                        detector="scripted",
                        uid=uid,
                    ),
                    streak=streak,
                    peak_score=2.0,
                )
            )
        return out


def classic(sim, config):
    return build_smartscada(sim, config=config)


def one_shard_fleet(sim, config):
    return build_sharded_scada(sim, config=ShardedScadaConfig(shards=1, base=config))


def build(seed=51, durability=False, heal_config=None, deploy=classic):
    sim = Simulator(seed=seed)
    system = deploy(sim, SmartScadaConfig(durability=durability))
    system.frontend.add_item("sensor", initial=0)
    system.attach_handlers("sensor", lambda: HandlerChain([Monitor(high=100.0)]))
    system.start()
    detector = ScriptedDetector()
    # No handler_config: replicas the orchestrator boots get the chain
    # above back from the deployment itself.
    orchestrator = RecoveryOrchestrator(
        sim,
        system.net,
        system,
        detector=detector,
        config=heal_config or HealConfig(),
    )
    return sim, system, detector, orchestrator


def drive(sim, orchestrator, seconds, grid=0.1):
    deadline = sim.now + seconds

    def poller():
        while sim.now < deadline:
            orchestrator.poll()
            yield sim.timeout(grid)

    sim.process(poller())
    sim.run(until=deadline)


def traffic(sim, system):
    def feeder():
        value = 0
        while True:
            yield sim.timeout(0.05)
            value += 1
            system.frontend.inject_update("sensor", value % 90)

    sim.process(feeder())


def test_corroboration_threshold_gates_every_action(deploy=classic):
    """A verdict below the corroboration streak triggers nothing — one
    noisy detection can never start a recovery action."""
    sim, system, detector, orch = build(deploy=deploy)
    traffic(sim, system)
    detector.assert_condition("byzantine-stuttering", "replica-2")
    detector.assert_condition("byzantine-stuttering", "replica-2")
    drive(sim, orch, 1.0)  # streak 2 < CORROBORATION_POLLS 3
    assert orch.actions == []
    detector.assert_condition("byzantine-stuttering", "replica-2")
    drive(sim, orch, 1.0)
    assert [a.kind for a in orch.actions] == ["rejuvenate"]


def test_ladder_escalates_rejuvenate_then_evict(deploy=classic):
    """A condition that survives the reimage climbs the default ladder:
    rejuvenate in place first, then evict-and-replace. Once evicted, the
    entity is terminal — further assertions (stale detector state) are
    ignored rather than re-acted on."""
    sim, system, detector, orch = build(deploy=deploy)
    traffic(sim, system)

    def keep_asserting():
        while True:
            detector.assert_condition("byzantine-stuttering", "replica-2")
            yield sim.timeout(0.1)

    sim.process(keep_asserting())
    # A context, not the fixture: the sharded case below calls this
    # function directly.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heal_orchestrator, "COOLDOWN", 0.5)
        drive(sim, orch, 12.0)
    kinds = [a.kind for a in orch.actions]
    assert kinds == ["rejuvenate", "evict"]
    assert [a.outcome for a in orch.actions] == ["completed", "completed"]
    # The patched cooldown is read at call time: the eviction follows the
    # reimage after 0.5 s and a poll or two, not after the default 1.5 s.
    rejuvenate, evict = orch.actions
    assert evict.time - rejuvenate.completed_at < 1.0
    assert system.retired == {"replica-2"}
    assert orch.evictions == 1
    # After eviction the spare serves in its place and the group is 2f+1.
    addresses = orch.admin.proxy.view.addresses
    assert "replica-2" not in addresses
    assert "replica-4" in addresses


def test_alarm_rung_is_terminal_and_fires_once(deploy=classic):
    """Kinds automation cannot fix (client-side injection) go straight
    to a single operator alarm, however long the condition persists."""
    sim, system, detector, orch = build(deploy=deploy)
    traffic(sim, system)

    def keep_asserting():
        while True:
            detector.assert_condition("write-burst", "hmi-1")
            yield sim.timeout(0.1)

    sim.process(keep_asserting())
    drive(sim, orch, 4.0)
    assert [(a.kind, a.outcome) for a in orch.actions] == [
        ("alarm", "raised"),
    ]
    assert orch.alarms == 1


def test_quorum_guard_blocks_and_escalates_to_alarm(deploy=classic):
    """With a replica already down, acting would leave 2 < 2f+1 live —
    every attempt must be refused, then turn into an operator alarm."""
    sim, system, detector, orch = build(
        heal_config=HealConfig(blocked_alarm_after=3), deploy=deploy
    )
    traffic(sim, system)
    system.net.crash("replica-3")

    def keep_asserting():
        while True:
            detector.assert_condition("byzantine-lying", "replica-2")
            yield sim.timeout(0.1)

    sim.process(keep_asserting())
    drive(sim, orch, 4.0)
    blocked = [a for a in orch.actions if a.outcome == "blocked"]
    alarms = [a for a in orch.actions if a.outcome == "raised"]
    assert len(blocked) >= 3
    assert all(a.kind == "evict" for a in blocked)
    assert all("2f+1" in a.detail for a in blocked)
    assert len(alarms) == 1
    assert orch.evictions == 0
    assert all(pm.replica.active for pm in system.proxy_masters)


def test_probe_restarts_process_dead_replica(deploy=classic):
    """Process dead + machine answering the probe = restart from disk.
    (A crashed *machine* — endpoint down — is left alone.)"""
    sim, system, detector, orch = build(durability=True, deploy=deploy)
    traffic(sim, system)
    sim.run(until=sim.now + 1.0)
    system.proxy_masters[1].replica.halt()  # process dies, endpoint stays up
    drive(sim, orch, 5.0)
    restarts = [a for a in orch.actions if a.kind == "restart"]
    assert len(restarts) == 1
    assert restarts[0].target == "replica-1"
    assert restarts[0].trigger == "probe"
    assert restarts[0].outcome == "completed"
    assert "durable disk" in restarts[0].detail
    fresh = [pm for pm in system.proxy_masters if pm.index == 1][-1]
    assert fresh.replica.active


def test_machine_down_is_left_to_infrastructure(deploy=classic):
    sim, system, detector, orch = build(deploy=deploy)
    traffic(sim, system)
    system.net.crash("replica-1")
    drive(sim, orch, 3.0)
    assert orch.actions == []


def test_proactive_recovery_resumes_after_an_eviction(deploy=classic):
    """Regression: the rejuvenation scheduler walked the flat replica list
    and found the evicted (halted) replica "down" at every slot, so one
    heal eviction vetoed proactive recovery forever. Membership has one
    owner now: the scheduler cycles the group's current members."""
    sim, system, detector, orch = build(deploy=deploy)
    traffic(sim, system)

    def keep_asserting():
        while True:
            detector.assert_condition("byzantine-lying", "replica-2")
            yield sim.timeout(0.1)

    sim.process(keep_asserting())
    drive(sim, orch, 5.0)
    assert [(a.kind, a.outcome) for a in orch.actions] == [("evict", "completed")]
    assert [pm.address for pm in system.group(0)] == [
        "replica-0", "replica-1", "replica-3", "replica-4",
    ]
    # The heal spare was configured like its peers without being told how.
    assert "sensor" in system.proxy_masters[4].master.chains
    assert len(set(system.state_digests())) == 1

    scheduler = RejuvenationScheduler(system, period=1.0, settle_time=1.0)
    scheduler.start()
    sim.run(until=sim.now + 8.5)  # slots at +1, +3, +5, +7
    scheduler.stop()
    assert scheduler.skip_log == []
    assert scheduler.rejuvenations == 4  # one full cycle: 0, 1, 3 and the spare
    assert scheduler.recovered_in_time == 4
    assert not system.proxy_masters[2].replica.active  # retired stays retired
    sim.run(until=sim.now + 2.0)
    assert len(system.state_digests()) == 4
    assert len(set(system.state_digests())) == 1


_CASES = [
    test_corroboration_threshold_gates_every_action,
    test_ladder_escalates_rejuvenate_then_evict,
    test_alarm_rung_is_terminal_and_fires_once,
    test_quorum_guard_blocks_and_escalates_to_alarm,
    test_probe_restarts_process_dead_replica,
    test_machine_down_is_left_to_infrastructure,
    test_proactive_recovery_resumes_after_an_eviction,
]


@pytest.mark.parametrize("case", _CASES, ids=lambda case: case.__name__)
def test_same_verdict_through_the_sharded_entry_point(case):
    case(deploy=one_shard_fleet)
