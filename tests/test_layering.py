"""The package graph is a DAG, and this file is where its order lives.

SMaRt-SCADA is a layering argument: BFT-SMaRt knows nothing of SCADA,
NeoSCADA nothing of BFT-SMaRt, and the proxies hide replication from
both. Every ``repro`` module belongs to exactly one layer of
:data:`LAYERS`; an import may reach its own layer or one below, never
above — at module level, inside a function, or under ``TYPE_CHECKING``.
A ``repro`` import inside a function is refused too (outside the CLI),
since that is how a cycle hides. :data:`ALLOWED` lists the two
exceptions ``bench/`` pins, each with the ROADMAP item that deletes it.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Bottom to top. The first tuple is the leaves anything may import.
LAYERS = (
    ("repro.perf", "repro.obs.metrics", "repro.obs.trace"),
    ("repro.sim",),
    ("repro.wire",),
    ("repro.net",),
    ("repro.crypto",),
    ("repro.storage",),
    ("repro.bftsmart",),
    ("repro.neoscada",),
    ("repro.shard",),
    ("repro.core",),
    ("repro.ids",),
    ("repro.heal",),
    ("repro.obs",),
    ("repro.chaos",),
    ("repro.workloads",),
    ("repro.__main__", "repro"),
)

#: ``(importing function, imported module)`` -> the ROADMAP item that
#: deletes the import. Both are forced by names ``bench/`` pins.
ALLOWED = {
    # bench/workloads.py imports ShardedScadaConfig and
    # build_sharded_scada from repro.shard.
    ("repro.shard.__getattr__", "repro.core"): "[benchmark] Finish one benchmark: re-point",
    # bench/trace.py wraps Simulator and RingSimulator as two classes.
    ("repro.sim.kernel.Simulator.__new__", "repro.sim.fastkernel"): "[benchmark] Finish one benchmark: re-point",
}

MODULES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def layer(module: str) -> int:
    best, rank = "", None
    for index, prefixes in enumerate(LAYERS):
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
                best, rank = prefix, index
    return rank


def _targets(node, module: str, is_package: bool):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parts = module.split(".")[: len(module.split(".")) - node.level + is_package]
        base = ".".join(parts + ([node.module] if node.module else []))
    # ``from repro.x import y`` where y is a submodule imports repro.x.y.
    return list(
        dict.fromkeys(
            f"{base}.{a.name}" if f"{base}.{a.name}" in MODULES else base
            for a in node.names
        )
    )


def repro_imports():
    """Yield ``(module, scope, target, lineno)`` for every ``repro`` import."""
    for module, path in MODULES.items():
        is_package = path.name == "__init__.py"

        def walk(node, scope, in_function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    yield from walk(child, f"{scope}.{child.name}", in_function or inner)
                    continue
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    for target in _targets(child, module, is_package):
                        if target.split(".")[0] == "repro":
                            yield module, scope if in_function else None, target, child.lineno
                yield from walk(child, scope, in_function)

        yield from walk(ast.parse(path.read_text()), module, False)


def test_every_module_has_a_layer():
    assert [m for m in MODULES if layer(m) is None] == []


def test_no_import_reaches_a_higher_layer():
    upward = [
        f"{module}:{line} -> {target}"
        for module, scope, target, line in repro_imports()
        if layer(target) > layer(module) and (scope, target) not in ALLOWED
    ]
    assert not upward, "\n".join(upward)


def test_no_function_level_repro_import_outside_the_cli():
    hidden = [
        f"{scope}:{line} -> {target}"
        for module, scope, target, line in repro_imports()
        if scope is not None and module != "repro.__main__" and (scope, target) not in ALLOWED
    ]
    assert not hidden, "\n".join(hidden)


def test_allow_list_entries_are_still_needed():
    seen = {(scope, target) for _module, scope, target, _line in repro_imports()}
    assert set(ALLOWED) <= seen


@pytest.mark.parametrize("package", sorted(m for m, p in MODULES.items() if p.name == "__init__.py"))
def test_package_imports_in_a_fresh_interpreter(package):
    # Import order cycles (a partially initialised module) only show up
    # when the package is the first thing a process imports.
    result = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
