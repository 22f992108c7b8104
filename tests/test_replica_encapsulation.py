"""Nothing subclasses the replica, and nothing outside bftsmart reaches in.

Misbehaviour has one seam: ``ServiceReplica.behaviour``, a
:class:`repro.bftsmart.byzantine.Behaviour` value the replica consults at
ingress, proposing, replying and pushing. A subclass that overrides
private methods instead breaks silently when they move, and misses every
send site it did not override — so no ``class …(ServiceReplica)`` may
exist in ``src/``, ``tests/``, ``examples/``, ``tools/`` or
``benchmarks/``.

Outside ``src/repro/bftsmart/`` no module may name a ``_``-prefixed
attribute of ``ServiceReplica`` on anything but ``self`` (the replica's
public surface — ``last_reply``, ``stats``, ``active``, … — is what other
layers read). ``bench/`` is exempt: the names it pins belong to the
benchmark item (``tests/test_bench_contract.py``). So are the white-box
tests in :data:`WHITE_BOX`, each of which pins or watches one replica
mechanism by its private name.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPLICA = ROOT / "src" / "repro" / "bftsmart" / "replica.py"
SCANNED = ("src", "tests", "examples", "tools", "benchmarks")

#: Test modules allowed to name replica privates -> the mechanism they pin.
WHITE_BOX = {
    "tests/test_backpressure_batching.py": "the backpressure predicate, the leader's pool and the executor's queue",
    "tests/test_shard_determinism.py": "backpressure pinned off, to compare with the parent rule",
    "tests/test_bftsmart_leaderchange.py": "the watchdog's deadline-aware sleep",
    "tests/property/test_memo_soundness.py": "the request verifier against a memo-free reference",
}


def _modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text("utf-8"))


def _replica_privates() -> set:
    """Every ``_name`` ServiceReplica defines: methods, class and instance
    attributes."""
    tree = ast.parse(REPLICA.read_text("utf-8"))
    cls = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ServiceReplica"
    )
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _private_uses(tree, privates: set) -> list:
    uses = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in privates
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            uses.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and any(
            isinstance(arg, ast.Name) and arg.id == "ServiceReplica" for arg in node.args
        ):
            # setattr(ServiceReplica, "_name", ...), monkeypatch.setattr too
            uses.extend(
                (node.lineno, repr(arg.value))
                for arg in node.args
                if isinstance(arg, ast.Constant) and arg.value in privates
            )
    return uses


def test_nothing_subclasses_service_replica():
    subclasses = [
        f"{path}:{node.lineno}: class {node.name}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).split(".")[-1] == "ServiceReplica" for base in node.bases)
    ]
    assert not subclasses, (
        "set replica.behaviour to a repro.bftsmart.byzantine.Behaviour instead: "
        + "; ".join(subclasses)
    )


def test_no_module_outside_bftsmart_names_a_replica_private():
    privates = _replica_privates()
    assert {"_on_network_message", "_execute_one", "_propose_batch"} <= privates
    offenders = [
        f"{path}:{line}: {text}"
        for path, tree in _modules()
        if not path.startswith("src/repro/bftsmart/") and path not in WHITE_BOX
        for line, text in _private_uses(tree, privates)
    ]
    assert not offenders, "; ".join(offenders)


def test_every_white_box_exemption_is_still_needed():
    privates = _replica_privates()
    modules = dict(_modules())
    unused = [path for path in WHITE_BOX if not _private_uses(modules[path], privates)]
    assert not unused, f"drop from WHITE_BOX: {unused}"
