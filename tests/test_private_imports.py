"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gesdispatch"


def private_imports(source: str) -> list[str]:
    """`module:name` for each `_name` (not a dunder) pulled from a package
    module by a relative or `gesdispatch.` import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("gesdispatch"):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{'.' * node.level}{node.module or ''}:{alias.name}")
    return found


def test_guard_sees_private_imports():
    src = "from .optimizer import _extract, solve\nfrom gesdispatch.lp import _SENSES\n" \
          "from . import __version__\nfrom numpy import _core\n"
    assert private_imports(src) == [".optimizer:_extract", "gesdispatch.lp:_SENSES"]


def test_no_module_imports_private_names():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    offenders = {f.name: private_imports(f.read_text()) for f in files}
    assert {k: v for k, v in offenders.items() if v} == {}
