import ast
import sys
from pathlib import Path

import bbecho

# pyproject.toml declares numpy as the one runtime dependency
_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bbecho"}


def _imported_roots(path: Path) -> set[str]:
    """The top-level name of every module that one source file imports;
    a relative import is bbecho itself."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("bbecho" if node.level else node.module.split(".")[0])
    return roots


def test_numpy_is_the_only_runtime_dependency():
    sources = sorted(Path(bbecho.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    outside = {path.name: sorted(_imported_roots(path) - _ALLOWED) for path in sources}
    assert {name: roots for name, roots in outside.items() if roots} == {}


def test_the_scan_sees_a_deferred_import(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("from . import echo\n\n\ndef f():\n    import scipy.linalg\n")
    assert _imported_roots(source) - _ALLOWED == {"scipy"}
