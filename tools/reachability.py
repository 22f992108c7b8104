#!/usr/bin/env python3
"""Reachability census: ``python tools/reachability.py [docs/REACHABILITY.md]``.

Runs the product drivers (every ``BENCHMARK.json`` workload with and without
``--trace``, every ``python -m repro`` / ``bench/run.py`` line of the CI workflow,
every CLI subcommand and library scenario, the examples), tier-1 and then
``benchmarks/``, each in a child process whose ``sys.settrace`` hook records the
``src/`` functions called, ``os.cpu_count()`` children at a time, and rewrites
the output file below ``MARK``. The part
above it is hand-written and holds the ``| `module:qualname*` ... | verdict |``
rows (first ``fnmatch`` wins); exit 1 = a driver exited non-zero or a
product-unreached function matches none.
"""

import ast
import fnmatch
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MARK = "<!-- generated by tools/reachability.py: do not edit below -->"
GROUPS = ("product", "tier-1 only", "`benchmarks/` only", "nothing")
NO_VERDICT = "**NO VERDICT**"
CLI = (
    "fig8 --duration 0.3", "demo", "steps", "shards", "ids", "heal",
    "trace --shards 2", "trace --workload bft-micro",
    "chaos fleet-leader-kill --fleet --html fleet.html",
    "chaos leader-crash --ids --fleet", "chaos heal-evict-lying --heal",
    "chaos overbudget-falsify --shrink", "chaos overbudget-falsify --shrink --heal",
)


def child(hits_path: str, argv: list) -> None:
    """Run one driver as ``__main__``; append the src functions it called."""
    seen = set()
    sys.settrace(lambda frame, event, arg: seen.add(frame.f_code))
    try:
        if argv[0] == "-m":
            sys.path[0], sys.argv = os.getcwd(), argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.path[0], sys.argv = os.path.dirname(argv[0]), argv
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.settrace(None)
        hits = [(os.path.relpath(code.co_filename, SRC), code.co_firstlineno)
                for code in seen if code.co_filename.startswith(str(SRC))]
        with open(hits_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(hits) + "\n")


def drivers() -> list:
    """One list of command lines per group, in ``GROUPS`` order."""
    sys.path.insert(0, str(SRC))
    from repro.chaos import list_scenarios
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    product = [f"bench/run.py --workload {w['name']} --seed 1 --seconds 1 --trace {trace}"
               for w in workloads for trace in (0, 1)]
    product += re.findall(r"^\s*(?:run: )?python3? ((?:-m repro|bench/run\.py)[^|>\n]*)", ci, re.M)
    product += [f"-m repro chaos {s.name} --json" for s in list_scenarios()]
    product += ["-m repro " + line for line in CLI]
    product += [f"examples/{path.name}" for path in sorted((ROOT / "examples").glob("*.py"))]
    pytest = "-m pytest -q -p no:cacheprovider "
    return [product, [pytest + "tests"], [pytest + "benchmarks --benchmark-only"]]


def functions(path: pathlib.Path):
    """``(qualname, first line, own lines)`` per def; nested defs own their lines."""
    found = []
    def visit(node, prefix: str) -> None:
        for sub in ast.iter_child_nodes(node):
            named = isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if named and not isinstance(sub, ast.ClassDef):
                first = min(n.lineno for n in [*sub.decorator_list, sub])
                found.append((prefix + sub.name, first, set(range(sub.lineno, sub.end_lineno + 1))))
            visit(sub, prefix + sub.name + "." if named else prefix)

    visit(ast.parse(path.read_text()), "")
    claimed = set()
    for name, first, span in sorted(found, key=lambda f: len(f[2])):
        yield name, first, len(span - claimed)
        claimed |= span


def main(out_path: pathlib.Path) -> int:
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="reachability-"))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    failed = []

    def run(group: str, line: str, hits_path: pathlib.Path, cwd: pathlib.Path) -> None:
        print(f"[{group}] {line}", file=sys.stderr)
        argv = [str(ROOT / word) if word.endswith(".py") else word for word in line.split()]
        command = [sys.executable, __file__, "--child", str(hits_path), *argv]
        done = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
        if done.returncode:
            failed.append(f"exit {done.returncode}: {line}")

    def run_pytest(groups) -> None:
        # The two pytest groups share the repo root: one after the other.
        for group, lines, hits_path in groups:
            for line in lines:
                run(group, line, hits_path, ROOT)

    # Each product driver writes into its own cwd and its own hits file,
    # so they run os.cpu_count() at a time beside the pytest groups.
    product, *pytest_groups = drivers()
    hits = [[scratch / f"hits-product-{i}.jsonl" for i in range(len(product))]]
    hits += [[scratch / f"hits-{i}.jsonl"] for i in range(1, len(GROUPS) - 1)]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        jobs = [pool.submit(run_pytest, zip(GROUPS[1:], pytest_groups, (h[0] for h in hits[1:])))]
        for line, hits_path in zip(product, hits[0]):
            cwd = scratch / hits_path.stem  # CLI and examples write into the cwd
            cwd.mkdir()
            jobs.append(pool.submit(run, GROUPS[0], line, hits_path, cwd))
        for job in jobs:
            job.result()
    reached = [
        {tuple(hit) for path in paths
         for line in path.read_text().splitlines() for hit in json.loads(line)}
        for paths in hits
    ]

    head = out_path.read_text().split(MARK)[0] if out_path.exists() else ""
    rows = re.findall(r"^\| (`[^|]+`) \| (.+?) \|$", head, re.M)
    verdicts = [(p, text) for cell, text in rows for p in re.findall(r"`([^`]+)`", cell)]
    # listed: group -> verdict -> [(function, own lines)]
    table, listed = [], {group: {} for group in GROUPS[1:]}
    for path in sorted(SRC.rglob("*.py")):
        rel = os.path.relpath(path, SRC)
        module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
        counts = dict.fromkeys(GROUPS, 0)
        for name, first, size in functions(path):
            group = next((g for g, hits in zip(GROUPS, reached) if (rel, first) in hits), GROUPS[3])
            counts[group] += size
            if group != GROUPS[0]:
                key = f"{module}:{name}"
                verdict = next((t for p, t in verdicts if fnmatch.fnmatchcase(key, p)), NO_VERDICT)
                listed[group].setdefault(verdict, []).append((key, size))
        if any(counts.values()):
            table.append([f"`{module}`", *counts.values()])

    total = [sum(column) for column in zip(*(row[1:] for row in table))]
    table.append(["**total**", *total])
    unreached = sum(len(hit) for by_verdict in listed.values() for hit in by_verdict.values())
    text = [MARK, "", "## Headline", "",
            f"Product drivers reach {100 * total[0] / sum(total):.1f} % of the {sum(total)} "
            f"function lines in `src/`: {sum(total[1:])} lines in {unreached} functions are "
            f"product-unreached, {total[3]} of them reached by nothing.", "",
            "## Function lines per module", "",
            "| module | " + " | ".join(GROUPS) + " |", "|---|" + "---:|" * len(GROUPS)]
    text += ["| " + " | ".join(map(str, row)) + " |" for row in table]
    for group, by_verdict in listed.items():
        text += ["", f"## Reached by {group}", ""]
        for verdict, hit in by_verdict.items():
            text.append(f"- {verdict} — {len(hit)} functions, {sum(n for _, n in hit)} lines: "
                        + ", ".join(f"`{key}`" for key, _ in hit))
    out_path.write_text(head + "\n".join(text) + "\n")
    missing = sum(len(by_verdict.get(NO_VERDICT, ())) for by_verdict in listed.values())
    print(*sorted(failed), f"{out_path}: {missing} functions without a verdict", sep="\n", file=sys.stderr)
    return 1 if failed or missing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2], sys.argv[3:]))
    sys.exit(main(pathlib.Path(*sys.argv[1:2] or [ROOT / "docs" / "REACHABILITY.md"])))
