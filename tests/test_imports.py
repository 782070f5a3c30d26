"""Guards against stale imports, unread constants, import cycles, a stale
``__all__``, costly import paths, a second place that catches budget
refusals, a second packed slot count, base-p digits formed outside
``galois``, the field's exp/log tables read outside ``galois`` and
``codes``, and caches kept in instance dicts (no linter is required)."""

import ast
import os
import re
import subprocess
import sys
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


def module_constants(source: str) -> set[str]:
    """The UPPER_CASE names that the module's top-level statements assign."""
    found = set()
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found |= {n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name) and n.id.isupper()}
    return found


def unread_constants(sources: dict[str, str]) -> list[str]:
    """module.NAME for each module constant that no module reads, as a
    name or as an attribute."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, source in sources.items()
                  for name in module_constants(source) if name not in read)


def test_every_module_constant_is_read():
    sources = {p.stem: p.read_text() for p in Path(cosetcodes.__file__).parent.glob("*.py")}
    assert unread_constants(sources) == []


def test_the_guard_sees_an_unread_constant():
    sources = {"a": "LIMIT = 3\nSTALE: int = 4\nWIDTH, DEPTH = 1, 2\n_cache = {}\n\n"
                    "def f(x):\n    return x < LIMIT\n",
               "b": "from . import a\nDEPTH = a.WIDTH\n"}
    assert unread_constants(sources) == ["a.DEPTH", "a.STALE", "b.DEPTH"]


def holders(sources: dict[str, str], matches) -> list[str]:
    """module.function for each node that ``matches``, module by module in
    name order; the function is the innermost one that holds the node."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.append(f"{module}.{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, source in sorted(sources.items()):
        visit(ast.parse(source), module, "<module>")
    return found


def budget_handlers(sources: dict[str, str]) -> list[str]:
    """module.function for each ``except`` handler that names
    BudgetExceededError, as a name or an attribute, alone or in a tuple."""

    def names_budget(node):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        return "BudgetExceededError" in names

    return holders(sources, names_budget)


def slot_counters(sources: dict[str, str]) -> list[str]:
    """module.function for each call of bitwise_count, as a name or an attribute."""

    def counts_slots(node):
        func = getattr(node, "func", None)  # only a call has one
        return getattr(func, "attr", getattr(func, "id", None)) == "bitwise_count"

    return holders(sources, counts_slots)


def test_budget_refusals_are_caught_in_one_place():
    # a refusal becomes a "bound only" result in linalg.within_budget alone
    sources = {p.stem: p.read_text() for p in Path(cosetcodes.__file__).parent.glob("*.py")}
    assert budget_handlers(sources) == ["linalg.within_budget"]


def test_the_guard_sees_a_second_budget_handler():
    sources = {"a": "def f(g):\n    try:\n        return g()\n"
                    "    except BudgetExceededError as exc:\n        return str(exc)\n",
               "b": "from . import linalg\n\nclass C:\n    def h(self, g):\n        try:\n"
                    "            g()\n        except (ValueError, linalg.BudgetExceededError):\n"
                    "            pass\n        except KeyError:\n            pass\n"}
    assert budget_handlers(sources) == ["a.f", "b.h"]


def test_packed_slots_are_counted_in_one_place():
    # linalg._walk is the one walk that weighs packed words
    sources = {p.stem: p.read_text() for p in Path(cosetcodes.__file__).parent.glob("*.py")}
    assert slot_counters(sources) == ["linalg._walk"]


def test_the_guard_sees_a_second_slot_count():
    sources = {"a": "import numpy as np\n\ndef _walk(x):\n    return np.bitwise_count(x)\n",
               "b": "from numpy import bitwise_count\n\nclass Buckets:\n"
                    "    def weigh(self, x):\n        return bitwise_count(x).sum()\n"}
    assert slot_counters(sources) == ["a._walk", "b.weigh"]


def digit_formers(sources: dict[str, str]) -> list[str]:
    """module.function for each ``X // Y % Z`` expression and each call of
    divmod, as a name or an attribute: the ways a base-p digit is formed."""

    def forms_digits(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            return isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.FloorDiv)
        func = getattr(node, "func", None)  # only a call has one
        return getattr(func, "attr", getattr(func, "id", None)) == "divmod"

    return holders(sources, forms_digits)


def test_base_p_digits_are_formed_in_one_module():
    # galois is the one home of the digit model
    sources = {p.stem: p.read_text() for p in Path(cosetcodes.__file__).parent.glob("*.py")}
    found = digit_formers(sources)
    assert found and {name.split(".")[0] for name in found} == {"galois"}, found


def test_the_guard_sees_a_second_digit_former():
    sources = {"a": "def _int_to_digits(v, p):\n    return divmod(v, p)\n",
               "b": "import numpy as np\n\nclass K:\n    def digits(self, t):\n"
                    "        return [t // self.q**i % self.q for i in range(3)]\n\n"
                    "def split(t, q):\n    return np.divmod(t, q), t % q // 2, t // q\n"}
    assert digit_formers(sources) == ["a._int_to_digits", "b.digits", "b.split"]


def log_table_readers(sources: dict[str, str]) -> list[str]:
    """module.function for each read of an ``exp_np`` or ``log_np`` attribute."""

    def reads_log_tables(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in ("exp_np", "log_np"))

    return holders(sources, reads_log_tables)


def test_exp_and_log_tables_are_read_in_two_modules():
    # galois builds the tables and its lookups; codes evaluates the trace rows on them
    sources = {p.stem: p.read_text() for p in Path(cosetcodes.__file__).parent.glob("*.py")}
    found = log_table_readers(sources)
    assert {name.split(".")[0] for name in found} == {"codes", "galois"}, found


def test_the_guard_sees_a_second_log_table_reader():
    sources = {"a": "class Field:\n    def __init__(self, t):\n        self.exp_np = t\n\n"
                    "    def mul(self, x, y):\n        return self.exp_np[self.log_np[x] + y]\n",
               "b": "def rows(ctx, b):\n    return ctx.log_np[b]\n\n"
                    "def table(ctx):\n    exp_np = ctx.exp\n    return exp_np\n"}
    assert log_table_readers(sources) == ["a.mul", "a.mul", "b.rows"]


def instance_dict_caches(sources: dict[str, str]) -> list[str]:
    """module.Class.name for each ``self.name = {}`` or ``self.name = dict()``,
    annotated or not, in a method of a class of the module."""
    found = []
    for module, source in sorted(sources.items()):
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                else:
                    continue
                empty = isinstance(value, ast.Dict) and not value.keys or (
                    isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict")
                if (empty and isinstance(target, ast.Attribute)
                        and getattr(target.value, "id", None) == "self"):
                    found.append(f"{module}.{cls.name}.{target.attr}")
    return found


def test_no_instance_dict_caches():
    # per-field lookups are cached by functools (make_field, frobenius_lookup,
    # subfield_view, subfield_power_basis), not in a dict on the instance
    sources = {p.stem: p.read_text() for p in Path(cosetcodes.__file__).parent.glob("*.py")}
    assert instance_dict_caches(sources) == []


def test_the_guard_sees_an_instance_dict_cache():
    sources = {"a": "class Field:\n    def __init__(self, p):\n        self.p = p\n"
                    "        self._views: dict[int, tuple] = {}\n"
                    "        self._bases = dict()\n        self._args = {'p': p}\n",
               "b": "_cache = {}\n\nclass Table:\n    def fill(self, other):\n"
                    "        other.seen = {}\n        self.rows = {}\n"}
    assert instance_dict_caches(sources) == ["a.Field._views", "a.Field._bases", "b.Table.rows"]


def package_imports(source: str, modules: set[str]) -> set[str]:
    """The package modules that a module of the package imports, counting
    every import statement, also those under ``if TYPE_CHECKING:``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module
                                                 and node.module.startswith("cosetcodes")):
            module = (node.module or "").removeprefix("cosetcodes").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import name: a module, or a name of __init__
                found |= {a.name if a.name in modules else "__init__" for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("cosetcodes.")}
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph as a closed path of nodes, or [] if it has none."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for succ in sorted(graph.get(node, ())):
            cycle = visit(succ)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return []


def test_package_import_graph_has_no_cycle():
    sources = {p.stem: p.read_text() for p in Path(cosetcodes.__file__).parent.glob("*.py")}
    graph = {name: package_imports(src, set(sources)) for name, src in sources.items()}
    assert all(graph[name] <= set(sources) for name in graph)
    assert import_cycle(graph) == []
    assert graph["galois"] == set()
    assert graph["linalg"] == {"galois"}  # the digit model and its Field annotations


def test_the_guard_sees_an_import_cycle():
    modules = {"a", "b", "c"}
    graph = {"a": package_imports("from .b import f\n", modules),
             "b": package_imports("from typing import TYPE_CHECKING\n"
                                  "if TYPE_CHECKING:\n    from . import c\n", modules),
             "c": package_imports("import cosetcodes.a\n", modules)}
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    assert import_cycle({**graph, "c": set()}) == []


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(cosetcodes).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(cosetcodes.__all__)) == len(cosetcodes.__all__)
    assert set(cosetcodes.__all__) == public


def test_readme_library_api_lists_all():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`", section, re.MULTILINE) == cosetcodes.__all__


def test_verifying_a_dual_does_not_import_numpy_ma():
    # numpy.ma costs about 20 ms on its first import; np.setdiff1d pulls it in
    script = ("import sys\n"
              "from cosetcodes import duality\n"
              "from cosetcodes.cosets import compute_cosets\n"
              "duality.hermitian_dual(compute_cosets(4, 21).family([0, 1]), 2)\n"
              "print('numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
