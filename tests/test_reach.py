"""Every top-level function and class in ``src/ngc_lab`` is reached by code that runs.

The roots are the module-level statements of ``src/ngc_lab`` (among them
``cli.EXPERIMENTS`` and the command line entry point; imports do not count, so
an ``__init__`` export alone reaches nothing), ``tests/test_acceptance.py``,
``bench/`` (with the ``"module.name"`` span strings it traces) and
``scripts/``.  A definition is reached once reached code mentions its name,
as a bare name or as an attribute.  Matching on names alone can only count
too much as reached, so the guard never fails on code that runs.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ngc_lab"
ROOTS = ["tests/test_acceptance.py", "bench/*.py", "scripts/*.py"]

ALLOWED = {
    # the checked gadget algebra the one-pass builders are pinned to
    "gadgets.graph_of",
    "gadgets.concat",
    "gadgets.group_map",
    "gadgets.make_block",
    "gadgets.make_segment",
    "gadgets.make_perm_matching",
    "gadgets.make_xor_matching",
    "gadgets.make_perm_xor",
    # the batched model's activity event, which the good-group probability tests check
    "partitions.active_segments",
    "partitions.SegmentReport",
}

SPAN = re.compile(r"[a-z_]+(\.[A-Za-z_]\w*)+")


def _names(tree: ast.AST, spans: bool = False) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif spans and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if SPAN.fullmatch(node.value):
                out.update(node.value.split(".")[1:])
    return out


def unreached() -> set[str]:
    """``module.name`` of each top-level function or class no root reaches."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    named: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((f"{path.stem}.{stmt.name}", stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                named |= _names(stmt)
    roots = [path for pattern in ROOTS for path in sorted(ROOT.glob(pattern))]
    assert len(roots) > 2, f"no root files under {ROOT}"
    for path in roots:
        named |= _names(ast.parse(path.read_text(encoding="utf-8")), spans=True)
    todo = list(named)
    while todo:
        for _, node in defs.pop(todo.pop(), ()):
            new = _names(node) - named
            named |= new
            todo.extend(new)
    return {qualified for found in defs.values() for qualified, _ in found}


def test_src_holds_only_reachable_code():
    found = unreached()
    assert sorted(found - ALLOWED) == [], "top-level definitions nothing reaches"
    assert sorted(ALLOWED - found) == [], "allowlist entries that are gone or now reached"
