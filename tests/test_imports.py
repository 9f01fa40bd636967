"""Source hygiene: no module of alblab imports a name it never uses.

No linter is a dependency, so this reads each module's syntax tree with
the standard library.  An import line marked ``# noqa: F401`` is a
deliberate re-export and is exempt.
"""

import ast
from pathlib import Path

import pytest

import alblab

SRC = Path(alblab.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations:   # a quoted annotation names what it uses inside the string
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("import os\nfrom typing import Callable\nimport numpy as np\n"
              "from .words import concat_mul  # noqa: F401\n"
              "def f(x: 'np.ndarray') -> None:\n    return os.sep\n")
    assert unused_imports(source) == ["Callable (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
