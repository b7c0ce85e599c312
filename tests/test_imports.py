"""Every import under src/betasieve/ is used by the module that makes it."""
import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "betasieve"
# an import kept on purpose says why after the code: "# noqa: F401 -- reason"
KEPT = re.compile(r"#\s*noqa:\s*F401\b\W*\w")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not KEPT.search(lines[alias.lineno - 1]):
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_and_kept_imports():
    source = (
        "import math\n"
        "import os.path\n"
        "from json import dumps, loads\n"
        "from csv import writer  # noqa: F401 -- re-exported for callers\n"
        "from csv import reader  # noqa: F401\n"
        "__all__ = ['loads']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 1: math", "line 3: dumps", "line 5: reader"]
