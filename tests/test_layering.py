"""Each store's format is known in one module only.

- The order's bitset up-set and down-set rows, their componentwise build
  (``Poset.from_vectors``), the lattice test on them and the level views
  (the lowest and shifted maps, the leveled elements): ``poset.py``.
- The flow network's paired forward and residual arcs (``adj``, ``to``,
  ``cap``): ``flow.py``; ``gk.py`` asks it for paths and potentials.

numpy only builds the dense views kept for tests and oracles
(``leq_matrix``, ``cover_matrix``), so only ``poset.py`` may import it, and
only inside a function: loading the package never loads numpy.  No module
imports a private name (``_bool_rows``, ``_two_step`` ...) from
``poset.py``, or reads a ``_``-prefixed attribute of anything but ``self``
or ``cls`` that its own source does not define.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tamari"


def _imports(path: Path, in_functions: bool = True):
    """(module, name) for every import in a file; name is None for ``import m``.
    With ``in_functions`` false, only those run when the module is loaded."""
    todo = [ast.parse(path.read_text(), filename=str(path))]
    for node in todo:  # todo grows while it is read
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name
        elif not in_functions and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo.extend(ast.iter_child_nodes(node))


def test_sources_are_found():
    assert (SRC / "poset.py").is_file()
    assert len(list(SRC.glob("*.py"))) > 5


def test_only_poset_imports_numpy():
    users = sorted(
        path.name
        for path in SRC.glob("*.py")
        if any(module.split(".")[0] == "numpy" for module, _ in _imports(path))
    )
    assert users == ["poset.py"]
    loaded = [module for module, _ in _imports(SRC / "poset.py", in_functions=False)]
    assert "numpy" not in {module.split(".")[0] for module in loaded}
    assert "functools" in loaded  # the module-level imports are seen


def test_no_module_imports_private_poset_names():
    bad = [
        (path.name, name)
        for path in SRC.glob("*.py")
        for module, name in _imports(path)
        if module in (".poset", "tamari.poset") and name is not None and name.startswith("_")
    ]
    assert bad == []


def _defined_names(tree: ast.AST) -> set[str]:
    """Names a module defines: functions, classes, methods and attributes
    it assigns (``x._name = ...`` included)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_private_attributes_are_read_only_where_defined():
    bad = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = _defined_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if node.attr.startswith("__") and node.attr.endswith("__"):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            if node.attr not in own:
                bad.append((path.name, node.lineno, node.attr))
    assert bad == []


def test_gk_leaves_the_arc_store_to_flow():
    tree = ast.parse((SRC / "gk.py").read_text())
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("adj", "to", "cap")
    ]
    assert reads == []
