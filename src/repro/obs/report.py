"""Render fleet scoreboard state for operators: ASCII and static HTML.

Every renderer is a pure function over a scoreboard snapshot — the
JSON-safe dict :meth:`~repro.obs.fleet.FleetScoreboard.to_dict` returns,
which a campaign report carries as ``CampaignReport.fleet`` — with no
simulator access and no side effect beyond the optional file write.
"""

from __future__ import annotations

import html
import json

_STATUS_MARK = {"ok": "·", "degraded": "!", "critical": "X", "unknown": "?"}


def _fmt_ms(seconds) -> str:
    if seconds is None:
        return "-"
    try:
        value = float(seconds)
    except (TypeError, ValueError):
        return "-"
    if value != value:  # nan
        return "-"
    return f"{value * 1000:.1f}ms"


def render_scoreboard(board: dict, width: int = 72) -> str:
    """The ASCII board of the latest sample: one row per shard plus a
    fleet footer."""
    sample = board["latest"]
    if sample is None:
        return "fleet scoreboard: no samples yet"
    lines = []
    bar = "-" * width
    lines.append(bar)
    lines.append(
        f" FLEET t={sample['time']:8.3f}s  status={sample['status'].upper():9s}"
        f" shards={len(sample['shards'])}  violations={sample['violations']}"
    )
    lines.append(bar)
    header = (
        f" {'shard':5s} {'st':2s} {'live':>6s} {'leader':16s}"
        f" {'chg':>3s} {'decided':>8s} {'occ':>5s}"
    )
    lines.append(header)
    for health in sample["shards"]:
        lines.append(
            f" s{health['shard']:<4d} {_STATUS_MARK.get(health['status'], '?'):2s}"
            f" {health['live']}/{health['n']:<4d}"
            f" {health['leader'] or '-':16s}"
            f" {health['leader_changes']:>3d}"
            f" {health['decided']:>8d}"
            f" {health['pipeline_occupancy']:>5.2f}"
        )
        for reason in health["reasons"]:
            lines.append(f"        - {reason}")
    lines.append(bar)
    latency = sample["write_latency"] or {}
    lines.append(
        f" writes={latency.get('count', 0):<6d}"
        f" p50={_fmt_ms(_quantile_of(latency, 0.5)):>8s}"
        f" p99={_fmt_ms(_quantile_of(latency, 0.99)):>8s}"
        f" ae-age={_fmt_ms(sample['freshness_age']):>8s}"
        f" holdback={sample['holdback'].get('pending', 0)}"
    )
    router = sample["router"]
    if router:
        lines.append(
            f" router hit-rate={router.get('hit_rate', 1.0):.2%}"
            f" (hits={router.get('hits', 0)} misses={router.get('misses', 0)}"
            f" invalidations={router.get('invalidations', 0)})"
        )
    lines.append(
        f" ids-detections={sample['detections']}"
        f" heal-actions={sample['heal_actions']}"
    )
    if sample["burn"]:
        burning = {k: v for k, v in sample["burn"].items() if v > 0}
        shown = burning or sample["burn"]
        lines.append(
            " slo-burn " + "  ".join(
                f"{name}={rate:.2f}" for name, rate in sorted(shown.items())
            )
        )
    for violation in sample["new_violations"]:
        shard = violation["shard"]
        lines.append(
            f" !! SLO {violation['slo']} burn={violation['burn_rate']:.2f}"
            + (f" shard=s{shard}" if shard is not None else "")
        )
    lines.append(bar)
    return "\n".join(lines)


def _quantile_of(summary: dict, q: float):
    """Approximate a quantile from a histogram *summary* dict.

    The summary carries cumulative bucket counts, not the Histogram
    object, so this reuses the same clamped interpolation on the dict
    shape (good enough for a status line).
    """
    count = summary.get("count", 0)
    if not count:
        return None
    buckets = summary.get("buckets", {})
    lo = summary.get("min", 0.0)
    target = q * count
    seen = 0
    for bound, n in buckets.items():
        if not n:
            continue
        hi = summary.get("max", lo) if bound == "+inf" else float(bound)
        hi = min(hi, summary.get("max", hi))
        if seen + n >= target:
            start = max(lo, summary.get("min", lo))
            if hi < start:
                hi = start
            return start + (hi - start) * (target - seen) / n
        seen += n
        lo = hi
    return summary.get("max")


def render_transitions(board: dict) -> str:
    """The status-flip log as aligned text lines."""
    if not board["transitions"]:
        return " (no status transitions)"
    return "\n".join(
        f" t={t['time']:8.3f}s  {t['scope']:6s} {t['from']} -> {t['to']}"
        for t in board["transitions"]
    )


def write_html_report(data: dict, path: str, title: str = "Fleet report") -> str:
    """Write a dependency-free static HTML report; returns ``path``."""
    latest = data.get("latest") or {}
    shard_rows = "".join(
        "<tr class='{status}'><td>s{shard}</td><td>{status}</td>"
        "<td>{live}/{n}</td><td>{leader}</td><td>{leader_changes}</td>"
        "<td>{decided}</td><td>{occ:.2f}</td><td>{reasons}</td></tr>".format(
            shard=h["shard"],
            status=h["status"],
            live=h["live"],
            n=h["n"],
            leader=html.escape(h["leader"] or "-"),
            leader_changes=h["leader_changes"],
            decided=h["decided"],
            occ=h["pipeline_occupancy"],
            reasons=html.escape("; ".join(h["reasons"]) or "-"),
        )
        for h in latest.get("shards", [])
    )
    transition_rows = "".join(
        "<tr><td>{time:.3f}s</td><td>{scope}</td>"
        "<td>{frm} → {to}</td></tr>".format(
            time=t["time"], scope=t["scope"], frm=t["from"], to=t["to"]
        )
        for t in data.get("transitions", [])
    ) or "<tr><td colspan='3'>none</td></tr>"
    slo = data.get("slo") or {}
    violation_rows = "".join(
        "<tr><td>{time:.3f}s</td><td>{slo}</td><td>{kind}</td>"
        "<td>{shard}</td><td>{burn_rate:.2f}</td></tr>".format(
            time=v["time"],
            slo=html.escape(v["slo"]),
            kind=v["kind"],
            shard=("-" if v["shard"] is None else f"s{v['shard']}"),
            burn_rate=v["burn_rate"],
        )
        for v in slo.get("violations", [])
    ) or "<tr><td colspan='5'>none</td></tr>"
    document = f"""<!doctype html>
<html><head><meta charset="utf-8"><title>{html.escape(title)}</title>
<style>
body {{ font-family: monospace; margin: 2em; background: #111; color: #ddd; }}
h1, h2 {{ color: #fff; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
td, th {{ border: 1px solid #444; padding: 4px 10px; text-align: left; }}
tr.ok td:nth-child(2) {{ color: #6c6; }}
tr.degraded td:nth-child(2) {{ color: #fc6; }}
tr.critical td:nth-child(2) {{ color: #f66; }}
pre {{ background: #1a1a1a; padding: 1em; overflow-x: auto; }}
</style></head><body>
<h1>{html.escape(title)}</h1>
<p>status: <strong>{html.escape(data.get("status", "unknown"))}</strong>
 · shards: {data.get("shards", 0)} · samples: {data.get("samples", 0)}</p>
<h2>Shard health (latest sample)</h2>
<table><tr><th>shard</th><th>status</th><th>live</th><th>leader</th>
<th>leader chg</th><th>decided</th><th>occupancy</th><th>reasons</th></tr>
{shard_rows}</table>
<h2>Status transitions</h2>
<table><tr><th>time</th><th>scope</th><th>change</th></tr>
{transition_rows}</table>
<h2>SLO violations</h2>
<table><tr><th>time</th><th>slo</th><th>kind</th><th>shard</th>
<th>burn</th></tr>
{violation_rows}</table>
<h2>Raw snapshot</h2>
<pre>{html.escape(json.dumps(data, indent=2, default=str))}</pre>
</body></html>
"""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    return path
