"""Smoke tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_demo_command_succeeds(capsys):
    assert main(["demo", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "HMI temperature : 95" in out
    assert "replica states identical across n=4: True" in out


def test_steps_command_prints_both_flows(capsys):
    assert main(["steps"]) == 0
    out = capsys.readouterr().out
    assert "update flow through neoscada (2 network hops)" in out
    assert "update flow through smartscada" in out
    assert "write flow through smartscada" in out
    assert "Propose" in out


def test_fig8_command_fast_window(capsys):
    assert main(["fig8", "--duration", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8 — full reproduction" in out
    assert "8(c) synchronous writes" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_chaos_list_shows_library(capsys):
    assert main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    assert "drop-write-value" in out
    assert "overbudget-falsify" in out
    assert "violation" in out


def test_chaos_single_scenario_run(capsys):
    assert main(["chaos", "leader-crash", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "chaos campaign: leader-crash" in out
    assert "expectation: pass — as expected" in out


def test_chaos_seed_sweep(capsys):
    assert main(["chaos", "drop-write-value", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    # One row per seed, all passing.
    assert out.count("PASS") == 2


def test_chaos_requires_scenario_name(capsys):
    assert main(["chaos"]) == 2


def test_shards_command_routes_and_converges(capsys):
    assert main(["shards", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "shard map (hash-partitioned, 2 groups)" in out
    assert "valve write     : success=True" in out
    assert "global AE merge" in out
    assert "shard 0         : n=4 states identical: True" in out
    assert "shard 1         : n=4 states identical: True" in out


def test_shards_command_live_split(capsys):
    assert main(["shards", "--shards", "2", "--split"]) == 0
    out = capsys.readouterr().out
    assert "split           : status=completed" in out
    assert "moved_items=2" in out
    # The target group grew by one replica and still converged.
    assert "n=5 states identical: True" in out


def test_chaos_json_verdicts(capsys):
    import json

    assert main(["chaos", "leader-crash", "--seed", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "leader-crash"
    assert payload["expectation"] == "pass"
    assert payload["as_expected"] is True
    (campaign,) = payload["campaigns"]
    assert campaign["seed"] == 3
    assert campaign["ok"] is True
    assert campaign["violations"] == []
    assert campaign["fingerprint"]


def test_chaos_json_reports_recoveries(capsys):
    import json

    assert main(["chaos", "crash-restart-intact", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (campaign,) = payload["campaigns"]
    assert campaign["restarts"] == 1
    (event,) = campaign["recoveries"]
    assert event["disk"] == "intact"
    assert event["settled_at"] is not None


def test_chaos_json_list(capsys):
    import json

    assert main(["chaos", "--list", "--json"]) == 0
    scenarios = json.loads(capsys.readouterr().out)
    names = {s["name"] for s in scenarios}
    assert {"leader-crash", "crash-restart-torn", "overbudget-falsify"} <= names


def test_trace_command_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    assert main(
        ["trace", "--duration", "0.3", "--out", str(out), "--seed", "2"]
    ) == 0
    text = capsys.readouterr().out
    assert "wrote" in text and "spans" in text
    assert "request autopsy" in text
    data = json.loads(out.read_text())
    assert isinstance(data["traceEvents"], list) and data["traceEvents"]
    phases = {e["ph"] for e in data["traceEvents"]}
    assert phases <= {"X", "M"} and "X" in phases


def test_trace_command_bft_micro_and_jsonl(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    assert main(
        [
            "trace", "--workload", "bft-micro", "--duration", "0.2",
            "--out", str(out), "--jsonl", str(jsonl),
        ]
    ) == 0
    lines = jsonl.read_text().splitlines()
    assert lines
    names = {json.loads(line)["name"] for line in lines}
    assert "consensus" in names and "request" in names


def test_trace_command_sharded_workload(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    assert main(
        [
            "trace", "--shards", "2", "--duration", "0.8",
            "--out", str(out), "--seed", "2",
        ]
    ) == 0
    text = capsys.readouterr().out
    assert "wrote" in text and "request autopsy" in text
    data = json.loads(out.read_text())
    # Spans landed on processes of both BFT groups: the trace really
    # crossed the shard tier.
    names = {
        e["args"]["name"]
        for e in data["traceEvents"]
        if e["ph"] == "M" and e.get("name") == "process_name"
    }
    assert any(n.startswith("s0-") for n in names)
    assert any(n.startswith("s1-") for n in names)


def test_trace_offers_rate_updates_per_second_at_every_shard_count(
    tmp_path, capsys, monkeypatch
):
    """``--rate`` is the offered update rate, whatever ``--shards`` is: the
    0.5 s of traffic after the 0.2 s start-up settle carries 100 x 0.5
    updates at one group and at two."""
    from repro.neoscada.frontend import Frontend

    injected = []
    inject = Frontend.inject_update

    def counting(self, item_id, *args, **kwargs):
        injected.append(item_id)
        return inject(self, item_id, *args, **kwargs)

    monkeypatch.setattr(Frontend, "inject_update", counting)
    counts = {}
    for shards in (1, 2):
        injected.clear()
        assert main(
            [
                "trace", "--shards", str(shards), "--rate", "100",
                "--duration", "0.7", "--out", str(tmp_path / "trace.json"),
            ]
        ) == 0
        counts[shards] = len(injected)
    capsys.readouterr()
    assert counts[1] == counts[2]
    assert abs(counts[1] - 100 * 0.5) <= 1, counts


def test_chaos_fleet_baseline_json(capsys):
    import json

    assert main(
        ["chaos", "fleet-baseline", "--seed", "5", "--fleet", "--json"]
    ) == 0
    (campaign,) = json.loads(capsys.readouterr().out)["campaigns"]
    fleet = campaign["fleet"]
    assert fleet["shards"] == 2
    assert fleet["status"] == "ok"
    assert fleet["transitions"] == []
    assert fleet["slo"]["violations"] == []
    assert campaign["writes"]["total"] > 0
    assert fleet["samples"]


def test_chaos_fleet_leader_kill_degrades_and_recovers(capsys):
    import json

    assert main(
        ["chaos", "fleet-leader-kill", "--seed", "42", "--fleet", "--json"]
    ) == 0
    (campaign,) = json.loads(capsys.readouterr().out)["campaigns"]
    fleet = campaign["fleet"]
    flips = [(t["scope"], t["to"]) for t in fleet["transitions"]]
    assert ("fleet", "degraded") in flips
    assert flips[-1] == ("fleet", "ok") and fleet["status"] == "ok"
    burned = {v["slo"] for v in fleet["slo"]["violations"]}
    assert "shard-availability" in burned


def test_chaos_fleet_board_and_html(tmp_path, capsys):
    html = tmp_path / "fleet.html"
    assert main(
        ["chaos", "fleet-baseline", "--html", str(html)]
    ) == 0
    out = capsys.readouterr().out
    assert "FLEET" in out and "slo-burn" in out
    assert "status transitions:" in out and "SLO violations: none" in out
    assert html.exists() and "s0" in html.read_text()


def test_fleet_is_a_chaos_view_not_a_verb(capsys):
    # The fleet scoreboard rides the campaign's poll grid under
    # ``chaos --fleet``: no verb of its own and no sampling interval a
    # zero could spin without advancing simulated time.
    for argv in (["fleet"], ["chaos", "fleet-baseline", "--interval", "0"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'fleet'" in err and "--interval" in err


@pytest.mark.parametrize("verb", ["chaos leader-crash", "ids", "heal"])
def test_sweeps_reject_fewer_than_one_seed(verb, capsys):
    # An empty sweep used to print an empty table and pass.
    with pytest.raises(SystemExit) as excinfo:
        main([*verb.split(), "--seeds", "0"])
    assert excinfo.value.code == 2
    assert "--seeds: must be at least 1" in capsys.readouterr().err


def test_heal_bench_writes_only_what_it_computed(tmp_path, capsys):
    import json

    out = tmp_path / "BENCH_MTTR.json"
    out.write_text(json.dumps({"mttr": {"stale": True}}))
    assert main(["heal", "--bench", "--output", str(out)]) == 0
    assert "acceptance" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["behaviours", "benign", "quorum_guard", "seeds"]


def test_chaos_fleet_flag_reports_scoreboard(capsys):
    import json

    assert main(
        ["chaos", "shard-leader-kills", "--seed", "4", "--json", "--fleet"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    (campaign,) = payload["campaigns"]
    assert campaign["ok"] is True
    assert campaign["fleet"]["shards"] == 2
    assert campaign["slo_violations"]


def test_chaos_trace_dump_on_violation(tmp_path, capsys):
    import json

    dump = tmp_path / "violation.json"
    # overbudget-falsify deliberately fails its expectation, producing
    # invariant violations — exactly the case the dump wiring targets.
    exit_code = main(
        ["chaos", "overbudget-falsify", "--trace-dump", str(dump), "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    (campaign,) = payload["campaigns"]
    assert campaign["violations"]
    # The falsifier *expects* to fail, so the verdict is as-expected.
    assert exit_code == 0 and payload["as_expected"] is True
    assert dump.exists()
    data = json.loads(dump.read_text())
    assert isinstance(data["traceEvents"], list)
