"""Where the order's storage format is known: only ``poset.py``.

numpy is the format's packing tool, so only ``poset.py`` may import it, and
no other module may import a private name (``_bit_rows``, ``_bool_rows``
...) from it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tamari"


def _imports(path: Path):
    """(module, name) for every import in a file; name is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name


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


def test_no_module_imports_private_poset_names():
    bad = [
        (path.name, name)
        for path in SRC.glob("*.py")
        for module, name in _imports(path)
        if module in (".poset", "tamari.poset") and name is not None and name.startswith("_")
    ]
    assert bad == []
