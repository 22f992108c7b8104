#!/usr/bin/env python3
"""The SMaRt-SCADA benchmark: one command, six workloads, two clocks.

One workload, one process (what the benchmark contract runs)::

    python3 bench/run.py --workload update --seed 1 --seconds 10 --trace 0

prints every end-to-end metric by name with its unit, checks the
outputs, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 1`` prints the per-layer metrics instead, from
three further passes: plain, under the layer wrappers of ``trace.py``,
and under the program's own simulated-time tracer.

Every workload, each in fresh sequential child processes::

    python3 bench/run.py --seed 1 --repeats 5 --trace 1 --out bench/out/latest.json

writes one result file that ``compare.py`` reads. See ``README.md``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    # Never fall back to some other installed ``repro``: the benchmark
    # measures the source tree it sits in, or nothing.
    sys.exit(f"bench/run.py: no program to measure at {REPO_ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from hostclock import calibrated, spin  # noqa: E402

#: Spins run around each timed piece of set-up (see ``measure_setup``).
SETUP_SPINS = 6
#: Host speed just before the imports, which cannot be sampled during them.
_PRE_IMPORT_SPIN_S = [spin()[1] for _ in range(SETUP_SPINS)]

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from trace import LayerTracer  # noqa: E402

from repro.perf import PERF  # noqa: E402

#: Imports are part of what a user waits for before the first event.
_IMPORT_WALL_S = time.perf_counter() - _PROCESS_START - sum(_PRE_IMPORT_SPIN_S)

#: Builds timed for ``setup_s`` (median).
SETUP_BUILDS = 5


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def measure_setup(name: str, seed: int) -> dict:
    """Imports (once) plus the median of several deployment builds.

    Wall time, because that is what a user waits for, rescaled by the
    calibration spins run before the imports and around the builds (see
    ``hostclock``).
    """
    builds = []
    spin_wall = list(_PRE_IMPORT_SPIN_S)
    for _ in range(SETUP_BUILDS):
        spin_wall.extend(spin()[1] for _ in range(SETUP_SPINS))
        started = time.perf_counter()
        workloads.build(name, seed)
        builds.append(time.perf_counter() - started)
    raw = _IMPORT_WALL_S + statistics.median(builds)
    return {
        "setup_s": calibrated(raw, sum(spin_wall), len(spin_wall)),
        "raw_setup_s": raw,
        "import_s": _IMPORT_WALL_S,
        "build_s": statistics.median(builds),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Tracing off: passes until ``seconds`` of measuring, medians reported."""
    spec = workloads.WORKLOADS[name]
    setup = measure_setup(name, seed)
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(name, seed, scale))
        if time.perf_counter() - started >= seconds:
            break
    results = []
    for steps in passes:
        results.extend(checks.check_pass(name, spec, steps))
    results.extend(
        checks.check_identical(name, "simulated results identical in every pass", passes)
    )
    attempted, failed = metrics.failures(passes)
    values = metrics.end_to_end(passes, setup["setup_s"], peak_rss_mb())
    host = [metrics.host_metrics(steps) for steps in passes]
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "checks": results,
        "detail": {
            "passes": len(passes),
            "latency_samples": metrics.latency_samples(passes[0]),
            "setup": setup,
            "host_per_pass": host,
            "outputs_digest": {
                step: result.outputs_digest for step, result in passes[0].items()
            },
        },
    }


def run_traced(name: str, seed: int, scale: float = 1.0, out_dir=OUT_DIR) -> dict:
    """Per-layer numbers: a plain pass, a wrapped pass, a phase-traced pass."""
    spec = workloads.WORKLOADS[name]
    untraced = workloads.run_pass(name, seed, scale)
    layer_tracer = LayerTracer()
    layer_tracer.install()  # before the build: handlers are bound at construction
    try:
        wrapped = workloads.run_pass(name, seed, scale, layer_tracer=layer_tracer)
    finally:
        layer_tracer.restore()
    phased = workloads.run_pass(name, seed, scale, sim_tracing=True)
    baseline = workloads.run_baseline(name, seed, scale)

    results = checks.check_pass(name, spec, wrapped)
    results.extend(
        checks.check_identical(
            name,
            "tracing is passive: plain, wrapped and phase-traced passes agree",
            [untraced, wrapped, phased],
        )
    )
    results.extend(checks.check_trace(name, layer_tracer))
    attempted, failed = metrics.failures([wrapped])
    values = metrics.per_layer(untraced, wrapped, layer_tracer, phased, baseline)

    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{name}.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, **layer_tracer.to_dict()}, handle)
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "checks": results,
        "detail": {
            "trace_file": str(trace_path),
            "call_counts": layer_tracer.call_counts(),
            "counters": {step: r.counters for step, r in wrapped.items()},
        },
    }


def report(result: dict, manifest: dict) -> dict:
    """Print one workload's result; returns the contract's final object."""
    section = manifest["per_layer" if result["trace"] else "end_to_end"]
    shaped = metrics.shaped(result["values"], section)
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    for name, entry in shaped.items():
        print(f"  {name:38s} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in result["detail"].items():
        if key not in ("call_counts", "counters", "host_per_pass"):
            print(f"  ({key}: {value})")
    for pass_host in result["detail"].get("host_per_pass", ()):
        print(
            "  (pass: raw {raw_cpu_s_per_sim_s:.4f} cpu-s/sim-s, "
            "{raw_wall_s_per_sim_s:.4f} wall-s/sim-s, spin {spin_ms:.3f} ms)".format(
                **pass_host
            )
        )
    bad = checks.failed(result["checks"])
    for line in bad:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"  checks: {len(result['checks']) - len(bad)} passed, {len(bad)} failed")
    return {
        "correct": not bad,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": shaped,
    }


# ---------------------------------------------------------------------------
# every workload, fresh child processes
# ---------------------------------------------------------------------------


def fingerprint(args) -> dict:
    def git(*command) -> str:
        try:
            return subprocess.run(
                ["git", *command],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    status = git("status", "--porcelain")
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": status != "" if status != "unknown" else "unknown",
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "event_kernel": PERF.kernel,
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "workloads": workloads.WORKLOADS,
    }


def _child(name: str, seed: int, seconds: float, trace: int, out: pathlib.Path) -> dict:
    """Run one workload in a fresh interpreter; never two at a time."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name}: child exited with {done.returncode}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    out.unlink()
    return result


def _quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "min": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
    }


def run_all(args, manifest: dict) -> int:
    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    scratch = out_path.with_suffix(".child.json")
    document = {"fingerprint": fingerprint(args), "workloads": {}}
    for name in workloads.WORKLOADS:
        repeats = [
            _child(name, args.seed, args.seconds, 0, scratch)
            for _ in range(args.repeats)
        ]
        first = repeats[0]["values"]
        for other in repeats[1:]:
            for metric, value in first.items():
                if metric.startswith("sim_") and other["values"][metric] != value:
                    raise SystemExit(
                        f"{name}: {metric} differs between repeats "
                        f"({value!r} vs {other['values'][metric]!r})"
                    )
        entry = {
            "end_to_end": {
                metric: {
                    "values": [r["values"][metric] for r in repeats],
                    **_quartiles([r["values"][metric] for r in repeats]),
                }
                for metric in first
            },
            "attempted": sum(r["attempted"] for r in repeats),
            "failed": sum(r["failed"] for r in repeats),
            "detail": repeats[0]["detail"],
        }
        if args.trace:
            traced = _child(name, args.seed, args.seconds, 1, scratch)
            entry["per_layer"] = traced["values"]
            entry["call_counts"] = traced["detail"]["call_counts"]
            entry["trace_file"] = traced["detail"]["trace_file"]
        document["workloads"][name] = entry
        print(f"== {name}: {entry['failed']} failed of {entry['attempted']} attempted")
        for metric, stats in entry["end_to_end"].items():
            unit = next(
                m["unit"] for m in manifest["end_to_end"] if m["name"] == metric
            )
            print(
                f"  {metric:26s} {stats['median']:>14.6g} {unit:6s} "
                f"[q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  min {stats['min']:.6g}]"
            )
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:38s} {value:>14.6g}")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    manifest = metrics.load_manifest()
    names = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5, help="child processes per workload")
    parser.add_argument("--out", help="write the full result here as JSON")
    args = parser.parse_args(argv)
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json and bench/workloads.py name different workloads")

    if args.workload is None:
        args.out = args.out or str(OUT_DIR / "latest.json")
        return run_all(args, manifest)

    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds)
    final = report(result, manifest)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({**result, "checks": checks.failed(result["checks"])}, handle)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
