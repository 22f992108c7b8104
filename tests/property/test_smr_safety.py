"""Property tests of state-machine-replication safety under faults.

Hypothesis generates fault schedules (crashes, recoveries, message loss)
and client workloads; after the dust settles, the invariants every SMR
system must keep are checked:

- **Agreement**: all live replicas hold identical service state.
- **Validity**: the final state is exactly the sum of the acknowledged
  operations plus possibly some unacknowledged-but-decided ones — never
  an operation nobody issued, never an acknowledged one missing.
- **Linearity**: the counter equals the number of distinct executed
  requests (no duplication despite retransmissions).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Drop, Network
from repro.sim import Simulator
from repro.wire import decode, encode

fault_schedules = st.lists(
    st.tuples(
        st.sampled_from(["crash", "recover", "drop-consensus", "none"]),
        st.integers(min_value=0, max_value=3),  # which replica
        st.floats(min_value=0.1, max_value=1.0),  # delay before the action
    ),
    max_size=4,
)


@given(
    schedule=fault_schedules,
    operations=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_agreement_and_validity_under_faults(schedule, operations, seed):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0004))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=0.5, sync_timeout=1.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)

    crashed: set = set()

    def runnable(action, index):
        # Never exceed f=1 *simultaneous* crashes — beyond the model,
        # nothing is promised.
        if action == "crash":
            return len(crashed) == 0
        return True

    def chaos():
        for action, index, delay in schedule:
            yield sim.timeout(delay)
            address = f"replica-{index}"
            if action == "crash" and runnable(action, index):
                crashed.add(address)
                net.crash(address)
            elif action == "recover" and address in crashed:
                crashed.discard(address)
                net.recover(address)
            elif action == "drop-consensus":
                net.faults.add(Drop(src=address, kind="WriteMsg", max_count=5))
        return True

    acknowledged = []

    def client():
        for i in range(operations):
            try:
                value = yield proxy.invoke_ordered(encode(("add", 1)))
            except TimeoutError:
                continue  # unacknowledged: decided or not, either is valid
            acknowledged.append(decode(value))
        return True

    sim.process(chaos())
    client_proc = sim.process(client())
    sim.run(until=60.0, stop_on=client_proc)
    # Heal everything and let stragglers converge.
    for address in list(crashed):
        net.recover(address)
    net.faults.clear()

    def poke():
        # One final acknowledged operation forces full convergence.
        result = yield proxy.invoke_ordered(encode(("add", 0)))
        return decode(result)

    sim.run_process(poke(), until=sim.now + 30)
    for _ in range(60):
        sim.run(until=sim.now + 0.5)
        if len({r.last_decided for r in replicas}) == 1 and len(
            {r.executed_cid for r in replicas}
        ) == 1:
            break

    values = {r.service.value for r in replicas}
    # Agreement: one state across all replicas.
    assert len(values) == 1, f"replicas diverged: {values}"
    final = values.pop()
    # Validity: every acknowledged op applied; nothing invented.
    assert final >= max(acknowledged, default=0)
    assert final <= operations
    # Linearity: acknowledgements were monotone (no double counting seen
    # by the client).
    assert acknowledged == sorted(acknowledged)
