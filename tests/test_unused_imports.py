"""Every name a module of src/egolog or a demo imports is read in that file.

An ast scan in place of a linter's unused-import rule: a name is read
where it is loaded (alone or as the root of an attribute chain),
including in annotations, quoted ones among them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "egolog"
DEMOS = ROOT / "demos"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= read_names(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py")),
    ids=lambda path: path.name if path.parent == SRC else f"demos/{path.name}",
)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    read = read_names(tree)
    unread = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert unread == {}, f"{path.name}: names never read, by import line: {unread}"
