#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of the same
code), B the candidate. One row per (workload, end-to-end metric) with
both medians and quartiles, B/A with its base, the metric's bound from
``BENCHMARK.json`` and a verdict:

``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    either side's quartile spread is wider than the bound, so the runs
    cannot tell a change of that size from noise. Never read this as
    "unchanged".
``improved``
    B's median is better than A's by more than both sides' spread.
``unchanged``
    none of the above.

Simulated-time metrics repeat exactly for a seed, so their spread is 0
and any difference shows. Per-layer metrics and traced call counts are
listed side by side, without verdicts: they explain, they do not gate.
Exit code 1 when any row regressed.
"""

from __future__ import annotations

import json
import pathlib
import sys

MANIFEST_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Fingerprint fields that make two results incomparable when they differ.
SAME_OR_WARN = ("python", "implementation", "platform", "nproc", "event_kernel", "seed")


def spread(stats: dict) -> float:
    """Quartile distance as a share of the median."""
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def _cell(stats: dict) -> str:
    return f"{stats['median']:.6g} [{stats['q1']:.6g},{stats['q3']:.6g}]"


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(verdict, worse_by)``; ``worse_by`` is a share of A's median."""
    base = a["median"]
    worse_by = (b["median"] - base) / base if base else 0.0
    if better == "higher":
        worse_by = -worse_by
    noise = max(spread(a), spread(b))
    if worse_by > bound:
        return "regressed", worse_by
    if noise > bound:
        return "unresolved", worse_by
    if -worse_by > noise and b["median"] != base:
        return "improved", worse_by
    return "unchanged", worse_by


def compare(doc_a: dict, doc_b: dict, manifest: dict, out=sys.stdout) -> list:
    """Print the comparison; returns the rows as dicts."""
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    for field in SAME_OR_WARN:
        left, right = doc_a["fingerprint"].get(field), doc_b["fingerprint"].get(field)
        if left != right:
            print(f"WARNING: {field} differs: A={left!r} B={right!r}", file=out)
    for side, doc in (("A", doc_a), ("B", doc_b)):
        fp = doc["fingerprint"]
        print(
            f"{side}: commit {fp.get('git_commit')} dirty={fp.get('git_dirty')} "
            f"python {fp.get('python')} kernel {fp.get('event_kernel')} "
            f"seed {fp.get('seed')} repeats {fp.get('repeats')}",
            file=out,
        )
    rows = []
    header = (
        f"{'workload':10s} {'metric':24s} {'A median [q1,q3]':>36s} "
        f"{'B median [q1,q3]':>36s} {'B/A':>8s} {'bound':>6s}  verdict"
    )
    print(header, file=out)
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:10s} missing from B", file=out)
            continue
        for metric, a in entry_a["end_to_end"].items():
            b = entry_b["end_to_end"][metric]
            spec = bounds[metric]
            what, worse_by = verdict(a, b, spec["better"], spec["bound"])
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "verdict": what,
                    "ratio": ratio,
                    "worse_by": worse_by,
                }
            )
            print(
                f"{name:10s} {metric:24s} {_cell(a):>36s} {_cell(b):>36s} "
                f"{ratio:8.4f} {spec['bound']:6.0%}  {what}"
                f"  (base A = {a['median']:.6g} {spec['unit']})",
                file=out,
            )
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if entry["failed"]:
                print(
                    f"{name:10s} {side}: {entry['failed']} failed of "
                    f"{entry['attempted']} attempted",
                    file=out,
                )
        _explain(name, entry_a, entry_b, out)
    return rows


def _explain(name: str, entry_a: dict, entry_b: dict, out) -> None:
    """Per-layer values and traced call counts, side by side."""
    layers_a, layers_b = entry_a.get("per_layer"), entry_b.get("per_layer")
    if not layers_a or not layers_b:
        return
    for metric, value_a in layers_a.items():
        value_b = layers_b.get(metric)
        if value_a == value_b:
            continue
        ratio = f"{value_b / value_a:.4f}" if value_a and value_b is not None else "-"
        print(
            f"{name:10s}   {metric:38s} A={value_a:.6g} B={value_b:.6g} "
            f"B/A={ratio} (base A)",
            file=out,
        )
    calls_a, calls_b = entry_a.get("call_counts", {}), entry_b.get("call_counts", {})
    moved = sorted(
        key for key in set(calls_a) | set(calls_b) if calls_a.get(key) != calls_b.get(key)
    )
    if moved:
        for key in moved:
            print(
                f"{name:10s}   calls {key}: A={calls_a.get(key, 0)} "
                f"B={calls_b.get(key, 0)}",
                file=out,
            )
    else:
        print(f"{name:10s}   traced call counts identical ({len(calls_a)} targets)", file=out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(MANIFEST_PATH, encoding="utf-8") as handle:
        manifest = json.load(handle)
    rows = compare(documents[0], documents[1], manifest)
    counts: dict = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("verdicts: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
