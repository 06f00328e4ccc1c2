"""Every name a library module imports is used in it (`__init__.py` only
re-exports), no library module imports the stdlib `random`, and every
top-level function or class a library module defines is named outside its
own def, so no dead kernel lingers; field products run through one
loop, which only `gf65536.matmul_stack` calls; the oracle reads blocks
of states through one loop, `oracle._no_short_state`; one constant,
`model.BLOCK`, caps how many rows a block holds; and one function,
`model.block_size`, reads it and the byte bound `model.BLOCK_BYTES`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvcode"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    # a quoted annotation such as "Params" names what it quotes
    quoted = [ast.parse(node.value, mode="eval") for ann in annotations for node in ast.walk(ann)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = {node.id for root in [tree] + quoted for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from typing import Iterator, Sequence\nimport os\n\ndef f(x: 'Sequence') -> None:\n    pass\n"
    assert unused_imports(source) == ["line 1: Iterator", "line 2: os"]


def imports_random(source: str) -> bool:
    """Whether a module imports the stdlib random module or a name from it."""
    return any(isinstance(node, ast.Import) and any(a.name.split(".")[0] == "random"
                                                    for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.level == 0
               and (node.module or "").split(".")[0] == "random"
               for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_random(path):
    """Every seeded draw goes through model.seeded_words."""
    assert not imports_random(path.read_text())


def test_the_check_sees_a_random_import():
    assert [imports_random(source) for source in (
        "import random", "import os, random as r", "from random import Random",
        "def f():\n    import random.x\n", "from . import random", "import numpy.random",
        "x = 'random'")] == [True, True, True, True, False, False, False]


def names_in(node: ast.AST) -> set[str]:
    """Every identifier node names: as a name, an attribute, an imported name
    or a string that is an identifier (the tracer names its targets so)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            names.add(sub.value)
    return names


def unnamed_definitions(library: dict[str, str], others: list[str]) -> list[str]:
    """'module: name' for every top-level function or class of a library
    module (file name -> source) that nothing names outside its own def:
    neither the library's other statements nor the other sources."""
    named = set().union(*(names_in(ast.parse(source)) for source in others))
    defined = []
    for module, source in library.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                named |= names_in(node) - {node.name}
            else:
                named |= names_in(node)
    return [f"{module}: {name}" for module, name in defined if name not in named]


def test_every_definition_is_named_outside_its_own_def():
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for folder in ("tests", "perfbench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unnamed_definitions(library, others) == []


def test_the_check_sees_a_dead_definition():
    library = {"a.py": "def used():\n    pass\n\ndef dead(n):\n    return dead(n - 1)\n\n"
                       "def traced():\n    pass\n\nclass Gone:\n    pass\n",
               "b.py": "from .a import used\n"}
    assert unnamed_definitions(library, ["TARGETS = [('a', 'traced')]"]) == [
        "a.py: dead", "a.py: Gone"]


def globals_read(source: str) -> dict[str, set[str]]:
    """For each top-level function of a module, the other top-level names
    of the module (functions and assigned globals) that it reads."""
    tree = ast.parse(source)
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    top = {node.name for node in functions} | {
        name.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    return {node.name: {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load) and sub.id in top} - {node.name}
            for node in functions}


def test_one_field_product_kernel():
    """`_sum_products`, the loop of field products, has one caller,
    `matmul_stack`, and `matmul` reaches products only through it."""
    calls = globals_read((SRC / "gf65536.py").read_text())
    assert [name for name, called in calls.items() if "_sum_products" in called] == [
        "matmul_stack"]
    assert calls["matmul"] == {"matmul_stack"}
    assert not any("_sum_products" in names_in(ast.parse(path.read_text()))
                   for path in MODULES if path.name != "gf65536.py")


def test_the_check_sees_a_second_product_loop():
    source = ("_EXP, _LOG = 1, 2\n\ndef kernel(x):\n    return _EXP[x]\n\n"
              "def stack(x):\n    return kernel(x)\n\n"
              "def wide(x):\n    y = _LOG[x]\n    return kernel(y) + stack(y)\n")
    assert globals_read(source) == {"kernel": {"_EXP"}, "stack": {"kernel"},
                                    "wide": {"_LOG", "kernel", "stack"}}


def block_loops(source: str, kernel: str = "rank_masks") -> list[str]:
    """The top-level functions of a module that call `kernel` inside a loop:
    a for or while statement or a comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and kernel in names_in(call.func)
                    for loop in ast.walk(node) if isinstance(loop, loops)
                    for call in ast.walk(loop))]


def test_one_block_loop_in_the_oracle():
    """The rounded-strategy certificate and `strategy_feasible` check states
    block by block through one loop."""
    assert block_loops((SRC / "oracle.py").read_text()) == ["_no_short_state"]


def test_the_check_sees_a_second_block_loop():
    source = ("def whole(p):\n    return rank_masks(p, 0, 4)\n\n"
              "def loop(p):\n    for lo in range(0, 4, 2):\n        rank_masks(p, lo, lo + 2)\n\n"
              "def drained(p):\n    while True:\n        model.rank_masks(p, 0, 1)\n\n"
              "def listed(p):\n    return [rank_masks(p, lo, lo + 1) for lo in range(4)]\n")
    assert block_loops(source) == ["loop", "drained", "listed"]


def block_sizes(library: dict[str, str]) -> list[str]:
    """'module: name' for every module-level name of a library module
    (file name -> source) that is assigned and is BLOCK or ends in _BLOCK."""
    return [f"{module}: {name.id}" for module, source in library.items()
            for node in ast.parse(source).body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for name in ast.walk(target) if isinstance(name, ast.Name)
            and (name.id == "BLOCK" or name.id.endswith("_BLOCK"))]


def test_one_block_size():
    """Every block kernel's cap is model.BLOCK; model.BLOCK_BYTES bounds a
    block's bytes, not its rows."""
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert block_sizes(library) == ["model.py: BLOCK"]


def test_the_check_sees_a_second_block_size():
    library = {"model.py": "BLOCK = 1024\n",
               "verifier.py": "_BLOCK_BYTES = 1 << 22\n_BLOCK = 512\n\n"
                              "def f():\n    _BLOCK = 7\n    return _BLOCK\n",
               "oracle.py": "from .model import BLOCK\nSTEP, ORACLE_BLOCK = 1, 1 << 10\n"}
    assert block_sizes(library) == ["model.py: BLOCK", "verifier.py: _BLOCK",
                                    "oracle.py: ORACLE_BLOCK"]


def block_rule_readers(library: dict[str, str]) -> list[str]:
    """'module: function' for every top-level function or class of a library
    module (file name -> source) that reads BLOCK or BLOCK_BYTES, as a name
    or an attribute, and 'module: <module>' for a read outside them."""
    rule = {"BLOCK", "BLOCK_BYTES"}
    found = []
    for module, source in library.items():
        for node in ast.parse(source).body:
            where = getattr(node, "name", "<module>")
            if any(isinstance(sub, ast.Name) and sub.id in rule and isinstance(sub.ctx, ast.Load)
                   or isinstance(sub, ast.Attribute) and sub.attr in rule
                   for sub in ast.walk(node)) and f"{module}: {where}" not in found:
                found.append(f"{module}: {where}")
    return found


def test_one_block_rule():
    """Every block walk, the verifier's blocks of both layers, the oracle's
    blocks and the bit-exact product slices, takes its size from
    model.block_size; no other code computes one from BLOCK or BLOCK_BYTES."""
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert block_rule_readers(library) == ["model.py: block_size"]


def test_the_check_sees_a_second_block_rule():
    library = {"model.py": "BLOCK = 1024\nBLOCK_BYTES = 1 << 22\n\n"
                           "def block_size(b):\n    return max(1, min(BLOCK, BLOCK_BYTES // b))\n",
               "verifier.py": "def _verify_range(p):\n    return min(model.BLOCK, 8 * p.k_bits)\n\n"
                              "def ok(p):\n    return block_size(9)\n",
               "oracle.py": "from .model import BLOCK_BYTES\nSTEP = BLOCK_BYTES // 2\n"}
    assert block_rule_readers(library) == ["model.py: block_size", "verifier.py: _verify_range",
                                           "oracle.py: <module>"]
