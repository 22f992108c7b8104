"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
fig8
    Regenerate the paper's Figure 8 (all three panels) and print the
    paper-vs-measured table. Accepts ``--duration`` to trade accuracy
    for speed.
demo
    Run the quickstart scenario (one update with an alarm, one write)
    against a fresh SMaRt-SCADA deployment and print what happened.
steps
    Replay one item update and one write through both systems and print
    the communication-step flows (Figures 3/4 vs 6/7).
shards
    Run the sharded deployment demo: N independent BFT groups behind
    one item namespace, hash-partitioned shard map, deterministic
    global AE order. ``--split`` exercises a live shard split.
chaos
    Run fault-drill campaigns against SMaRt-SCADA: a named scenario
    (``--list`` shows them), or ``random`` for seeded sampled schedules.
    ``--seeds N`` sweeps N seeds; ``--shrink`` minimizes a failing
    schedule and prints a replayable snippet; ``--json`` emits
    machine-readable verdicts for CI and tooling; ``--trace-dump PATH``
    dumps the span window around the first invariant violation. View
    flags add passive participants: ``--ids`` runs the trace-driven
    intrusion detector and reports its detections; ``--fleet`` samples
    the fleet health scoreboard and SLO burn rates (``fleet-*``
    scenarios run two groups for it) and prints the final board,
    ``--html PATH`` writes it as a static report.
ids
    Evaluate the intrusion detector (``repro.ids``) over the scenario
    library's IDS matrix: per-behaviour attack drills report detection
    latency, precision, recall and F1 against planted ground truth, and
    the benign suite must stay detection-free. ``--bench`` writes
    ``BENCH_IDS.json`` including the IDS-on vs tracing-only overhead
    ratio.
heal
    Evaluate closed-loop self-healing (``repro.heal``): IDS-driven
    evict-and-replace drills per behaviour, the benign suite that must
    not heal, and the quorum guard. ``--bench`` writes ``BENCH_MTTR.json``.
trace
    Trace a seeded workload end to end (``repro.obs``): writes a
    Perfetto-loadable Chrome trace-event file and prints phase-by-phase
    "request autopsies" of the slowest and median requests.

``chaos``, ``ids`` and ``heal`` are views over the campaign library
(``repro.chaos``): they pick scenarios and seeds, run them through
``sweep_seeds`` / ``run_scenario`` / ``run_heal_drill`` and render the
reports; none of them builds a schedule.
"""

from __future__ import annotations

import argparse
import sys


def _print_table(title: str, header: list, rows: list) -> None:
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print(f"\n=== {title} ===")
    line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))


def cmd_fig8(args) -> int:
    from repro.workloads import FIG8_HEADER, FIG8_TITLE, fig8_rows

    print(f"running Figure 8 ({args.duration:.1f}s measurement windows)...")
    _print_table(FIG8_TITLE, FIG8_HEADER, fig8_rows(args.duration))
    return 0


def cmd_demo(args) -> int:
    from repro.core import build_smartscada
    from repro.neoscada import HandlerChain, Monitor
    from repro.sim import Simulator

    sim = Simulator(seed=args.seed)
    system = build_smartscada(sim)
    system.frontend.add_item("plant.temperature", initial=20)
    system.frontend.add_item("plant.valve", initial=0, writable=True)
    system.attach_handlers(
        "plant.temperature", lambda: HandlerChain([Monitor(high=80.0)])
    )
    system.start()

    def scenario():
        system.frontend.inject_update("plant.temperature", 95)
        yield sim.timeout(0.5)
        print(f"HMI temperature : {system.hmi.value_of('plant.temperature')}")
        for alarm in system.hmi.alarms():
            print(f"HMI alarm       : {alarm.event_id}: {alarm.message}")
        result = yield system.hmi.write("plant.valve", 1)
        print(f"valve write     : success={result.success}")
        yield sim.timeout(0.5)
        return True

    sim.run_process(scenario(), until=30)
    identical = len(set(system.state_digests())) == 1
    print(f"replica states identical across n={len(system.proxy_masters)}: {identical}")
    return 0 if identical else 1


def cmd_shards(args) -> int:
    from repro.core import ShardSplitter, ShardedScadaConfig, build_sharded_scada
    from repro.neoscada import HandlerChain, Monitor
    from repro.sim import Simulator

    sim = Simulator(seed=args.seed)
    config = ShardedScadaConfig(shards=args.shards)
    system = build_sharded_scada(sim, config=config)
    items = [f"plant.sensor-{i}" for i in range(8)]
    for item in items:
        system.frontend.add_item(item, initial=20)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.frontend.add_item("plant.valve", initial=0, writable=True)
    system.start()

    _print_table(
        f"shard map (hash-partitioned, {args.shards} groups)",
        ["item", "shard", "group addresses"],
        [
            [item, system.shard_of(item),
             ", ".join(system.config.group_config(system.shard_of(item)).addresses)]
            for item in items + ["plant.valve"]
        ],
    )

    def scenario():
        for i, item in enumerate(items):
            system.frontend.inject_update(item, 90 if i % 2 == 0 else 30)
            yield sim.timeout(0.02)
        result = yield system.hmi.write("plant.valve", 1)
        print(f"\nvalve write     : success={result.success}")
        yield sim.timeout(0.5)
        if args.split:
            splitter = ShardSplitter(system)
            target = args.shards - 1
            moved = [it for it in items if system.shard_of(it) != target][:2]
            print(f"splitting {moved} out to shard {target} "
                  f"(growing the target group)...")
            report = yield from splitter.split(moved, target, grow_target=True)
            print(f"split           : status={report.status} "
                  f"moved_items={report.moved_items} "
                  f"moved_events={report.moved_events} epoch={report.epoch}")
            # Give the freshly joined spare time to finish state transfer.
            yield sim.timeout(2.0)
        return True

    sim.run_process(scenario(), until=60)
    system.flush_events()

    alarms = system.hmi.alarms()
    print(f"alarms delivered: {len(alarms)} (globally ordered)")
    for alarm in alarms[:4]:
        print(f"  {alarm.item_id}: {alarm.message}")
    caches = sim.stats()["shard.router"]
    print(f"router caches   : hits={caches['hits']} "
          f"misses={caches['misses']} "
          f"invalidations={caches['invalidations']}")
    stats = system.proxy_hmi.merger.stats
    print(f"global AE merge : offered={stats['offered']} "
          f"released={stats['released']} late={stats['late']}")
    ok = True
    for shard in range(args.shards):
        digests = set(system.state_digests(shard))
        members = len(system.group(shard))
        converged = len(digests) == 1
        ok = ok and converged
        print(f"shard {shard}         : n={members} "
              f"states identical: {converged}")
    return 0 if ok else 1


def cmd_steps(args) -> int:
    from repro.core import build_neoscada, build_smartscada, make_network
    from repro.sim import Simulator

    def trace(system_name, operation):
        sim = Simulator(seed=1)
        net = make_network(sim, trace=True)
        builder = build_neoscada if system_name == "neoscada" else build_smartscada
        system = builder(sim, net=net)
        system.frontend.add_item("item", initial=0, writable=True)
        system.start()
        net.trace.clear()
        if operation == "update":
            system.frontend.inject_update("item", 1)
            sim.run(until=sim.now + 1)
        else:

            def op():
                result = yield system.hmi.write("item", 1)
                return result

            sim.run_process(op(), until=sim.now + 10)
        return net.trace

    for operation in ("update", "write"):
        for system_name in ("neoscada", "smartscada"):
            net_trace = trace(system_name, operation)
            stages = []
            for hop in net_trace.hops:
                stage = (hop.kind, hop.src, hop.dst)
                if stage not in stages:
                    stages.append(stage)
            print(f"\n{operation} flow through {system_name} "
                  f"({net_trace.count()} network hops):")
            for kind, src, dst in stages:
                print(f"  {src:24s} -> {dst:24s} {kind}")
    return 0


def cmd_trace(args) -> int:
    from repro.obs.export import (
        autopsy,
        format_autopsy,
        pick_trace,
        validate_chrome_trace,
        write_chrome_trace,
        write_spans_jsonl,
    )
    from repro.obs.trace import install_tracer
    from repro.sim import Simulator

    sim = Simulator(seed=args.seed)
    tracer = install_tracer(sim)

    if args.workload == "bft-micro":
        from repro.workloads.profiler import start_bft_micro

        start_bft_micro(sim, args.rate, payload_size=256)
        sim.run(until=args.duration)
    else:
        # Fig8(a)-style SCADA updates at ``--rate`` plus one operator write
        # and a wildcard event query; with ``--shards`` > 1 the trace shows
        # ShardRouter resolution, scatter fan-out and the per-group
        # consensus rounds each request actually touched.
        from repro.chaos.campaign import sensor_value
        from repro.core.config import ShardedScadaConfig, SmartScadaConfig
        from repro.core.system import build_sharded_scada

        system = build_sharded_scada(
            sim,
            config=ShardedScadaConfig(
                shards=args.shards, base=SmartScadaConfig(durability=True)
            ),
        )
        sensors = [f"plant.s{i}" for i in range(4)]
        for sensor in sensors:
            system.frontend.add_item(sensor, initial=0)
        system.frontend.add_item("plant.actuator", initial=0, writable=True)
        system.start()
        tracer.clear()  # drop subscription churn; trace the steady state

        def update_traffic():
            interval = 1.0 / args.rate
            step = 0
            while True:
                yield sim.timeout(interval)
                step += 1
                j = step % len(sensors)
                system.frontend.inject_update(sensors[j], sensor_value(step, j))

        def operator_write():
            yield sim.timeout(args.duration / 2)
            result = yield system.hmi.write("plant.actuator", 42)
            events = yield system.hmi.query_events("*")
            return result.success and events is not None

        sim.process(update_traffic(), name="trace-updates")
        sim.process(operator_write(), name="trace-write")
        sim.run(until=args.duration)

    data = write_chrome_trace(args.out, tracer.spans, clock=sim.now)
    errors = validate_chrome_trace(data)
    if errors:
        for error in errors:
            print(f"invalid trace: {error}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.out}: {len(tracer.spans)} spans, "
        f"{len(tracer.trace_ids())} traces, {len(data['traceEvents'])} events "
        f"(load in Perfetto / chrome://tracing)"
    )
    if args.jsonl:
        lines = write_spans_jsonl(args.jsonl, tracer.spans)
        print(f"wrote {args.jsonl}: {lines} span lines")
    for which in ("slowest", "median"):
        trace_id = pick_trace(tracer, which)
        report = autopsy(tracer, trace_id) if trace_id is not None else None
        if report is None:
            print(f"no finished request trace to autopsy ({which})")
            continue
        print(f"\n[{which}]")
        print(format_autopsy(report))
    return 0


def _sweep(name: str, seeds, **views) -> list:
    """Reports of library scenario ``name`` over ``seeds``, one per seed;
    ``views`` are the config flags the caller adds on top of the
    scenario's own overrides."""
    from repro.chaos import get_scenario, sweep_seeds

    scenario = get_scenario(name)
    config = scenario.config(**views)
    return list(sweep_seeds(scenario.schedule(), seeds, config).values())


def _write_bench(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _print_fleet(seed: int, board: dict) -> None:
    """The fleet view of one campaign: final board, flips, SLO burns."""
    from repro.obs.report import render_scoreboard, render_transitions

    print(f"\nfleet scoreboard (seed {seed}):")
    print(render_scoreboard(board))
    print("status transitions:")
    print(render_transitions(board))
    violations = board["slo"]["violations"]
    print("SLO violations:" + ("" if violations else " none"))
    for violation in violations:
        shard = violation["shard"]
        print(f"  t={violation['time']:6.2f}s {violation['slo']}"
              f" burn={violation['burn_rate']:.2f}"
              + (f" shard=s{shard}" if shard is not None else ""))


def cmd_chaos(args) -> int:
    from dataclasses import replace as dc_replace

    from repro.chaos import (
        get_scenario,
        list_scenarios,
        sample_schedule,
        shrink_schedule,
        sweep_seeds,
    )
    from repro.chaos.campaign import CampaignConfig

    if args.list:
        if args.json:
            import json

            print(json.dumps([
                {
                    "name": s.name,
                    "expectation": "violation" if s.expect_violation else "pass",
                    "description": s.description,
                    # Config-object overrides (IdsConfig, HealConfig)
                    # serialize as their constructor-valid reprs.
                    "overrides": {
                        key: value
                        if isinstance(value, (bool, int, float, str,
                                              type(None)))
                        else repr(value)
                        for key, value in s.overrides.items()
                    },
                }
                for s in list_scenarios()
            ], indent=2))
            return 0
        _print_table(
            "chaos scenarios",
            ["name", "expects", "description"],
            [
                [s.name, "violation" if s.expect_violation else "pass",
                 s.description]
                for s in list_scenarios()
            ],
        )
        return 0

    if args.scenario is None:
        print("error: name a scenario (or 'random'); see --list", file=sys.stderr)
        return 2

    # View flags switch participants on; unset ones leave the scenario's
    # own overrides alone.
    fleet = args.fleet or args.html is not None
    views = {
        key: value
        for key, value in (("trace_dump", args.trace_dump), ("ids", args.ids),
                           ("heal", args.heal), ("fleet", fleet))
        if value
    }
    if args.scenario == "random":
        expect_violation = False
        build, config = sample_schedule, CampaignConfig(**views)
    else:
        scenario = get_scenario(args.scenario)
        expect_violation = scenario.expect_violation
        build, config = scenario.schedule(), scenario.config(**views)
    reports = sweep_seeds(build, range(args.seed, args.seed + args.seeds), config)

    rows = []
    campaigns = []
    as_expected = True
    failing = None
    for seed, report in reports.items():
        verdict = "PASS" if report.ok else "FAIL"
        if report.ok == expect_violation:
            as_expected = False
        if not report.ok and failing is None:
            failing = report
        rows.append([
            seed,
            verdict,
            len(report.schedule),
            f"{report.writes_succeeded}+{report.writes_failed_cleanly}f"
            f"/{report.writes_total}",
            report.fault_stats.get("total_fired", 0),
            ", ".join(report.violated_invariants()) or "-",
        ])
        campaigns.append({
            "seed": seed,
            "verdict": verdict,
            "ok": report.ok,
            "actions": len(report.schedule),
            "writes": {
                "total": report.writes_total,
                "succeeded": report.writes_succeeded,
                "failed_cleanly": report.writes_failed_cleanly,
            },
            "faults_fired": report.fault_stats.get("total_fired", 0),
            "violations": [
                {
                    "time": v.time,
                    "invariant": v.invariant,
                    "detail": v.detail,
                    "span_id": v.span_id,
                }
                for v in report.violations
            ],
            "restarts": report.restarts,
            "recoveries": report.recoveries,
            "rejuvenations": report.rejuvenations,
            "trace_dump": report.trace_dump,
            "trigger_fires": report.trigger_fires,
            "detections": [
                {
                    "time": d.time,
                    "kind": d.kind,
                    "entity": d.entity,
                    "score": d.score,
                    "detector": d.detector,
                }
                for d in report.detections
            ],
            "ids_score": report.ids_score,
            "heal_actions": report.heal_actions,
            "evictions": report.evictions,
            "fleet": report.fleet,
            "slo_violations": report.slo_violations,
            "fingerprint": report.fingerprint(),
        })

    if args.html is not None:
        from repro.obs.report import write_html_report

        write_html_report(
            reports[args.seed].fleet,
            args.html,
            title=f"Fleet report — {args.scenario}, seed {args.seed}",
        )

    shrunk = None
    if failing is not None and args.shrink:
        if not args.json:
            print("shrinking the failing schedule...")
        shrunk = shrink_schedule(
            failing.schedule, dc_replace(config, seed=failing.seed)
        )

    if args.json:
        import json

        print(json.dumps({
            "scenario": args.scenario,
            "expectation": "violation" if expect_violation else "pass",
            "as_expected": as_expected,
            "campaigns": campaigns,
            "shrink": None if shrunk is None else {
                "runs": shrunk.runs,
                "removed_actions": shrunk.removed_actions,
                "schedule": shrunk.schedule.describe(),
                "snippet": shrunk.snippet,
            },
        }, indent=2))
        return 0 if as_expected else 1

    _print_table(
        f"chaos campaign: {args.scenario}",
        ["seed", "verdict", "actions", "writes", "faults fired", "violations"],
        rows,
    )
    if args.ids:
        detected = [
            (c["seed"], d) for c in campaigns for d in c["detections"]
        ]
        if detected:
            print("\nintrusion detections:")
            for seed, d in detected:
                print(f"  seed={seed} t={d['time']:6.2f}s {d['kind']:24s} "
                      f"{d['entity']:12s} score={d['score']:.2f} "
                      f"({d['detector']})")
        else:
            print("\nintrusion detections: none")
    if args.heal:
        acted = [
            (c["seed"], a) for c in campaigns for a in c["heal_actions"]
        ]
        if acted:
            print("\nrecovery orchestrator actions:")
            for seed, a in acted:
                print(f"  seed={seed} t={a['time']:6.2f}s {a['kind']:10s} "
                      f"{a['target']:12s} {a['outcome']:12s} {a['detail']}")
        else:
            print("\nrecovery orchestrator actions: none")
    if fleet:
        for c in campaigns:
            _print_fleet(c["seed"], c["fleet"])
        if args.html is not None:
            print(f"wrote {args.html}")
    if failing is not None:
        print("\nfirst failing campaign:")
        for violation in failing.violations:
            print(f"  t={violation.time:6.2f}s  {violation.invariant}: "
                  f"{violation.detail}")
        if shrunk is not None:
            print(f"minimal schedule after {shrunk.runs} runs "
                  f"({shrunk.removed_actions} actions removed):")
            print(shrunk.schedule.describe())
            print("\nreplay snippet:\n")
            print(shrunk.snippet)
    status = "as expected" if as_expected else "NOT as expected"
    print(f"\nexpectation: "
          f"{'violation' if expect_violation else 'pass'} — {status}")
    return 0 if as_expected else 1


def cmd_ids(args) -> int:
    import time

    from repro.chaos import BENIGN_DRILLS, IDS_ATTACK_DRILLS, run_scenario

    seeds = range(args.seed, args.seed + args.seeds)

    attack_rows = []
    behaviours_out = {}
    for label, name in IDS_ATTACK_DRILLS:
        recalls, precisions, f1s, latencies = [], [], [], []
        episodes = detected = false_positives = 0
        for report in _sweep(name, seeds, ids=True):
            entry = report.ids_score["behaviours"].get(label)
            if entry is None:
                entry = {"episodes": 0, "detected": 0, "recall": 0.0,
                         "precision": 0.0, "f1": 0.0, "mean_latency": None}
            episodes += entry["episodes"]
            detected += entry["detected"]
            recalls.append(entry["recall"])
            precisions.append(entry["precision"])
            f1s.append(entry["f1"])
            if entry["mean_latency"] is not None:
                latencies.append(entry["mean_latency"])
            false_positives += report.ids_score["false_positive_count"]
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
        summary = {
            "episodes": episodes,
            "detected": detected,
            "recall": round(mean(recalls), 4),
            "precision": round(mean(precisions), 4),
            "f1": round(mean(f1s), 4),
            "mean_latency": round(mean(latencies), 4) if latencies else None,
            "false_positives": false_positives,
        }
        behaviours_out[label] = summary
        attack_rows.append([
            label, episodes, detected,
            f"{summary['recall']:.2f}", f"{summary['precision']:.2f}",
            f"{summary['f1']:.2f}",
            f"{summary['mean_latency']:.2f}s" if latencies else "-",
            false_positives,
        ])

    benign_rows = []
    benign_out = {}
    benign_total = 0
    for label, name in BENIGN_DRILLS:
        detections = sum(
            len(report.detections) for report in _sweep(name, seeds, ids=True)
        )
        benign_out[label] = detections
        benign_total += detections
        benign_rows.append([label, len(seeds), detections,
                            "clean" if detections == 0 else "FALSE POSITIVES"])

    # Overhead: the lying drill with tracing only vs tracing + IDS (three
    # timed runs each, best-of to damp scheduler noise).
    def _best_wall(**views) -> float:
        walls = []
        for _ in range(3):
            started = time.perf_counter()
            run_scenario("ids-lying", seed=args.seed, **views)
            walls.append(time.perf_counter() - started)
        return min(walls)

    trace_wall = _best_wall(trace_spans=True)
    ids_wall = _best_wall(ids=True)
    overhead = ids_wall / trace_wall if trace_wall > 0 else 1.0

    _print_table(
        "intrusion detection vs planted ground truth "
        f"({len(seeds)} seeds per drill)",
        ["drill", "episodes", "detected", "recall", "precision", "f1",
         "latency", "FPs"],
        attack_rows,
    )
    _print_table(
        "benign fault suite (must stay detection-free)",
        ["drill", "runs", "detections", "verdict"],
        benign_rows,
    )
    print(f"\nIDS overhead vs tracing-only baseline: {overhead:.2f}x "
          f"({ids_wall:.2f}s vs {trace_wall:.2f}s wall)")

    if args.bench:
        _write_bench(args.output, {
            "seeds": list(seeds),
            "behaviours": behaviours_out,
            "benign": {
                "drills": benign_out,
                "false_positives": benign_total,
            },
            "overhead": {
                "ids_wall_s": round(ids_wall, 4),
                "trace_wall_s": round(trace_wall, 4),
                "ratio": round(overhead, 4),
            },
        })

    core = ("silent", "lying", "falsifying")
    ok = (
        all(behaviours_out[b]["f1"] >= 0.9 for b in core)
        and benign_total == 0
    )
    print(f"\nacceptance (F1>=0.9 for {', '.join(core)}; benign clean): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_heal(args) -> int:
    """Closed-loop recovery evaluation: evict drills, benign suite, guard."""
    from repro.chaos import BENIGN_DRILLS, run_heal_drill, run_scenario

    seeds = range(args.seed, args.seed + args.seeds)

    attack_rows = []
    behaviours_out = {}
    attacks_ok = True
    for behaviour in ("silent", "stuttering", "lying", "falsifying",
                      "equivocating"):
        drills = [run_heal_drill(behaviour, seed) for seed in seeds]
        green = not any(d["violations"] for d in drills)
        evictions = sum(d["evictions"] for d in drills)
        detect_lat, heal_lat, recovered = (
            [d[key] for d in drills if d[key] is not None]
            for key in ("detect_latency", "heal_latency", "recovered")
        )
        mean = lambda xs: sum(xs) / len(xs) if xs else None  # noqa: E731
        summary = {
            "runs": len(seeds),
            "evictions": evictions,
            "monitors_green": green,
            "mean_detect_latency": (
                round(mean(detect_lat), 4) if detect_lat else None
            ),
            "mean_heal_latency": (
                round(mean(heal_lat), 4) if heal_lat else None
            ),
            "throughput_recovered": (
                round(mean(recovered), 4) if recovered else None
            ),
        }
        behaviours_out[behaviour] = summary
        row_ok = (
            green
            and evictions == len(seeds)
            and (not recovered or mean(recovered) >= 0.9)
        )
        attacks_ok = attacks_ok and row_ok
        attack_rows.append([
            behaviour,
            evictions,
            "green" if green else "VIOLATED",
            f"{summary['mean_detect_latency']:.2f}s"
            if detect_lat else "-",
            f"{summary['mean_heal_latency']:.2f}s" if heal_lat else "-",
            f"{mean(recovered) * 100:.0f}%" if recovered else "-",
            "PASS" if row_ok else "FAIL",
        ])

    benign_rows = []
    benign_out = {}
    benign_actions = 0
    for label, name in BENIGN_DRILLS:
        reports = _sweep(name, seeds, heal=True, write_interval=0.25)
        green = all(report.ok for report in reports)
        actions = sum(len(report.heal_actions) for report in reports)
        evictions = sum(report.evictions for report in reports)
        benign_out[label] = {"heal_actions": actions, "evictions": evictions}
        benign_actions += actions
        benign_rows.append([
            label, len(seeds), actions, evictions,
            "clean" if actions == 0 and green else "UNEXPECTED ACTIONS",
        ])

    # The quorum-guard drill: a double fault where every action must be
    # refused and the orchestrator must escalate to an operator alarm
    # without ever eroding the quorum.
    guard = run_scenario("heal-quorum-guard", seed=args.seed)
    guard_blocked = sum(
        1 for a in guard.heal_actions if a["outcome"] == "blocked"
    )
    guard_alarms = sum(
        1 for a in guard.heal_actions if a["outcome"] == "raised"
    )
    guard_ok = (
        guard.ok
        and guard.evictions == 0
        and guard_blocked > 0
        and guard_alarms > 0
    )
    guard_out = {
        "ok": guard.ok,
        "evictions": guard.evictions,
        "blocked": guard_blocked,
        "alarms": guard_alarms,
    }

    _print_table(
        f"closed-loop recovery under attack ({len(seeds)} seeds per drill)",
        ["behaviour", "evicted", "monitors", "detect", "heal",
         "ops recovered", "verdict"],
        attack_rows,
    )
    _print_table(
        "benign fault suite (orchestrator must stay idle)",
        ["drill", "runs", "heal actions", "evictions", "verdict"],
        benign_rows,
    )
    print(f"\nquorum guard drill: blocked={guard_blocked} "
          f"alarms={guard_alarms} evictions={guard.evictions} "
          f"monitors={'green' if guard.ok else 'VIOLATED'} "
          f"-> {'PASS' if guard_ok else 'FAIL'}")

    if args.bench:
        # Only what this run computed: the file is overwritten, never
        # merged into, so no stale block from another writer survives.
        _write_bench(args.output, {
            "seeds": list(seeds),
            "behaviours": behaviours_out,
            "benign": {
                "drills": benign_out,
                "heal_actions": benign_actions,
            },
            "quorum_guard": guard_out,
        })

    ok = attacks_ok and benign_actions == 0 and guard_ok
    print(f"\nacceptance (all five behaviours evicted with monitors green "
          f"and ops recovered; benign idle; guard safe): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _seed_count(text: str) -> int:
    """``--seeds``: a sweep that runs no seed proves nothing."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_sweep_flags(parser, seeds: int) -> None:
    """``--seed``/``--seeds``, shared by every verb that sweeps seeds."""
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed of the sweep (default 0)")
    parser.add_argument("--seeds", type=_seed_count, default=seeds,
                        help=f"consecutive seeds to sweep, at least 1 "
                             f"(default {seeds})")


def _add_bench_flags(parser, output: str) -> None:
    parser.add_argument("--bench", action="store_true",
                        help="write the benchmark summary JSON")
    parser.add_argument("--output", default=output,
                        help=f"bench output path (default {output})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMaRt-SCADA reproduction (Nogueira et al., DSN 2018)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig8 = subparsers.add_parser("fig8", help="regenerate the paper's Figure 8")
    fig8.add_argument("--duration", type=float, default=2.0,
                      help="measurement window per point, seconds (default 2)")
    fig8.set_defaults(func=cmd_fig8)

    demo = subparsers.add_parser("demo", help="run the quickstart scenario")
    demo.add_argument("--seed", type=int, default=42)
    demo.set_defaults(func=cmd_demo)

    steps = subparsers.add_parser(
        "steps", help="print the message-flow steps (Figures 3/4/6/7)"
    )
    steps.set_defaults(func=cmd_steps)

    shards = subparsers.add_parser(
        "shards", help="run the sharded deployment demo (N BFT groups, "
                       "one namespace, global AE order)"
    )
    shards.add_argument("--shards", type=int, default=2,
                        help="number of independent replica groups (default 2)")
    shards.add_argument("--seed", type=int, default=42)
    shards.add_argument("--split", action="store_true",
                        help="also perform a live shard split mid-run "
                             "(moves two items, grows the target group)")
    shards.set_defaults(func=cmd_shards)

    chaos = subparsers.add_parser(
        "chaos", help="run fault-drill campaigns (see chaos --list)"
    )
    chaos.add_argument("scenario", nargs="?", default=None,
                       help="scenario name, or 'random' for sampled schedules")
    chaos.add_argument("--list", action="store_true",
                       help="list the scenario library and exit")
    _add_sweep_flags(chaos, seeds=1)
    chaos.add_argument("--shrink", action="store_true",
                       help="minimize the first failing schedule")
    chaos.add_argument("--json", action="store_true",
                       help="emit machine-readable verdicts on stdout "
                            "(for CI and tooling)")
    chaos.add_argument("--trace-dump", default=None, metavar="PATH",
                       help="install the span tracer and, on the first "
                            "invariant violation, dump the surrounding "
                            "span window as Chrome trace JSON to PATH")
    chaos.add_argument("--ids", action="store_true",
                       help="run the online intrusion detector alongside "
                            "the campaign and report any detections")
    chaos.add_argument("--heal", action="store_true",
                       help="close the loop: run the recovery orchestrator "
                            "on the detector's verdicts and report its "
                            "action log")
    chaos.add_argument("--fleet", action="store_true",
                       help="sample the fleet health scoreboard + SLO "
                            "burn-rate engine alongside the campaign "
                            "(passive: fingerprints are unchanged)")
    chaos.add_argument("--html", default=None, metavar="PATH",
                       help="write the first seed's fleet scoreboard as a "
                            "static HTML report (implies --fleet)")
    chaos.set_defaults(func=cmd_chaos)

    ids = subparsers.add_parser(
        "ids", help="evaluate the trace-driven intrusion detector"
    )
    _add_sweep_flags(ids, seeds=2)
    _add_bench_flags(ids, "BENCH_IDS.json")
    ids.set_defaults(func=cmd_ids)

    heal = subparsers.add_parser(
        "heal", help="evaluate closed-loop self-healing (IDS -> recovery)"
    )
    _add_sweep_flags(heal, seeds=1)
    _add_bench_flags(heal, "BENCH_MTTR.json")
    heal.set_defaults(func=cmd_heal)

    trace = subparsers.add_parser(
        "trace", help="trace a seeded workload and print request autopsies"
    )
    trace.add_argument("--workload", choices=("scada", "bft-micro"),
                       default="scada",
                       help="fig8(a)-style SCADA updates + one operator "
                            "write and event query (default), or the §V-B "
                            "BFT echo microbenchmark")
    trace.add_argument("--duration", type=float, default=1.0,
                       help="simulated seconds to trace (default 1.0)")
    trace.add_argument("--rate", type=float, default=50.0,
                       help="offered request rate per second (default 50)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event output file "
                            "(default trace.json)")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also write one span per line as JSONL")
    trace.add_argument("--shards", type=int, default=1,
                       help="BFT groups for the scada workload; >1 traces "
                            "cross-shard routing, scatter-gather and the "
                            "global AE merge (default 1)")
    trace.set_defaults(func=cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
