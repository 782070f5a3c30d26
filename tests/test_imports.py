"""Guards against stale imports and a stale ``__all__`` (no linter is required)."""

import ast
import re
import types
from pathlib import Path

import pytest

import cosetcodes

MODULES = sorted(p for p in Path(cosetcodes.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = "from functools import lru_cache, reduce\n\n@lru_cache\ndef f(): pass\n"
    assert unused_imports(source) == ["reduce (line 1)"]


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(cosetcodes).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(cosetcodes.__all__)) == len(cosetcodes.__all__)
    assert set(cosetcodes.__all__) == public


def test_readme_library_api_lists_all():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`", section, re.MULTILINE) == cosetcodes.__all__
