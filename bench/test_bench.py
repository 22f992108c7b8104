"""Tests of the benchmark itself (not of the program): shape, names, wrappers.

Run with ``python -m pytest bench/test_bench.py``. Windows are shrunk
through the ``scale`` function argument, never through the environment,
so the whole file takes a few seconds.
"""

from __future__ import annotations

import io
import json
import re

import pytest

import run  # noqa: F401  (puts src/ and bench/ on sys.path)
import checks
import compare
import metrics
import workloads
from trace import TARGETS, LayerTracer, WrapTargetMissing, _resolve

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Window scale of the smoke runs: 2 % of the real simulated windows.
TINY = 0.02
#: The fault schedule only means what it says when the restart comes after
#: the leader change (request_timeout is not scaled), so that workload is
#: shrunk less.
SMOKE_SCALE = {name: TINY for name in workloads.WORKLOADS} | {"failover": 0.6}


@pytest.fixture(scope="module")
def manifest() -> dict:
    return metrics.load_manifest()


def test_manifest_has_the_contract_shape(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert manifest["paths"] == ["bench"]
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[section]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_manifest_and_workloads_agree(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    for entry in manifest["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]]["why"]


def test_end_to_end_result_matches_the_schema(manifest):
    result = run.run_end_to_end("update", seed=3, seconds=0, scale=TINY)
    final = run.report(result, manifest)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert list(final["metrics"]) == [m["name"] for m in manifest["end_to_end"]]
    for entry in manifest["end_to_end"]:
        reported = final["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert isinstance(reported["value"], float) and reported["value"] > 0
    json.dumps(final)  # serialisable as the contract's last line


def test_traced_result_matches_the_schema(manifest, tmp_path):
    result = run.run_traced("write", seed=3, scale=TINY, out_dir=tmp_path)
    final = run.report(result, manifest)
    assert final["correct"] is True
    assert list(final["metrics"]) == [m["name"] for m in manifest["per_layer"]]
    shares = [
        entry["value"]
        for name, entry in final["metrics"].items()
        if name.endswith(".cpu_share")
    ]
    assert sum(shares) == pytest.approx(1.0)
    # The SCADA layers ran, the ones this workload does not build did not.
    assert final["metrics"]["neoscada.cpu_share"]["value"] > 0
    assert final["metrics"]["storage.cpu_share"]["value"] == 0
    with open(tmp_path / "trace-write.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["raw_spans"] and len(trace["raw_spans"]) <= trace["raw_span_cap"]
    assert {t["layer"] for t in trace["targets"]} >= {"wire", "crypto", "sim", "net"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_passes_its_output_checks(name):
    scale = SMOKE_SCALE[name]
    steps = workloads.run_pass(name, seed=5, scale=scale)
    results = checks.check_pass(name, workloads.WORKLOADS[name], steps)
    assert checks.failed(results) == []
    again = workloads.run_pass(name, seed=5, scale=scale)
    assert checks.failed(checks.check_identical(name, "repeatable", [steps, again])) == []


def test_output_checks_notice_a_lost_update():
    steps = workloads.run_pass("update", seed=5, scale=TINY)
    steps["ref"].failures["lost"] = 1
    bad = checks.failed(checks.check_pass("update", workloads.WORKLOADS["update"], steps))
    assert len(bad) == 1 and "exactly once" in bad[0]


def test_install_then_restore_leaves_every_attribute_identical():
    originals = {target: _resolve(target) for target, _size_of in TARGETS}
    tracer = LayerTracer()
    tracer.install()
    patched = tracer.patched_attributes()
    assert len(patched) >= len(TARGETS)  # functions are patched in every importer
    assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    tracer.restore()
    assert tracer.patched_attributes() == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    for target, (owner, attr, original) in originals.items():
        assert vars(owner)[attr] is original, target


def test_a_vanished_wrap_target_raises_and_patches_nothing():
    gone = TARGETS + (("repro.wire.codec:Codec.no_such_entry_point", None),)
    tracer = LayerTracer(gone)
    with pytest.raises(WrapTargetMissing, match="no_such_entry_point"):
        tracer.install()
    assert tracer.patched_attributes() == []
    with pytest.raises(WrapTargetMissing):
        LayerTracer((("repro.no_such_layer.module:thing", None),)).install()


def _document(cpu: list, ops: float) -> dict:
    def stats(values):
        ordered = sorted(values)
        return {
            "values": values,
            "median": ordered[len(ordered) // 2],
            "q1": ordered[len(ordered) // 4],
            "q3": ordered[(3 * len(ordered)) // 4],
            "min": ordered[0],
        }

    return {
        "fingerprint": {"python": "3.11", "seed": 1},
        "workloads": {
            "update": {
                "end_to_end": {
                    "host_cpu_s_per_sim_s": stats(cpu),
                    "sim_ops_per_s": stats([ops] * len(cpu)),
                },
                "attempted": 10,
                "failed": 0,
            }
        },
    }


def test_compare_verdicts(manifest):
    steady = [1.00, 1.01, 1.00, 0.99, 1.00]
    cases = {
        "unchanged": (_document(steady, 943.5), _document(steady, 943.5)),
        "regressed": (_document(steady, 943.5), _document([1.5] * 5, 900.0)),
        "improved": (_document(steady, 943.5), _document([0.8] * 5, 990.0)),
    }
    for expected, (a, b) in cases.items():
        rows = compare.compare(a, b, manifest, out=io.StringIO())
        assert {row["verdict"] for row in rows} == {expected}, expected
    noisy = [0.6, 0.8, 1.0, 1.2, 1.4]
    rows = compare.compare(
        _document(noisy, 943.5), _document(noisy, 943.5), manifest, out=io.StringIO()
    )
    by_metric = {row["metric"]: row["verdict"] for row in rows}
    assert by_metric == {
        "host_cpu_s_per_sim_s": "unresolved",
        "sim_ops_per_s": "unchanged",
    }
