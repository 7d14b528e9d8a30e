"""Every module under src/byzbench uses each name it imports.

A name imported and never used is a second home for it, which grows back
unseen unless a check fails. The only exceptions are the aliases below, each
named with the file that imports it from that module.
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "byzbench"

# (module, name) -> the file that reads the name from that module.
_KEPT = {
    ("byzbench.flsim", "CleanSpec"): "tests/test_acceptance.py",
    ("byzbench.aggregators", "AGGREGATOR_KINDS"): "benchmarks/micro.py",
}


def _unused(source: str) -> set[str]:
    """The names `source` imports (a `from __future__` import aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def _modules() -> dict[str, Path]:
    """Every module of the package by its dotted name."""
    modules = {}
    for path in sorted(_PACKAGE.rglob("*.py")):
        parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def test_every_module_uses_what_it_imports():
    unused = {
        (module, name)
        for module, path in _modules().items()
        for name in _unused(path.read_text(encoding="utf-8"))
    }
    assert unused == set(_KEPT)


def test_every_kept_alias_is_read_where_the_list_says():
    for (module, name), caller in _KEPT.items():
        tree = ast.parse((_ROOT / caller).read_text(encoding="utf-8"))
        short = module.rsplit(".", 1)[1]
        assert any(
            (isinstance(node, ast.ImportFrom) and node.module == module
             and name in {alias.name for alias in node.names})
            or (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.value, ast.Name) and node.value.id == short)
            for node in ast.walk(tree)
        ), f"{caller} does not read {module}.{name}"


def test_a_planted_unused_import_is_found():
    assert _unused("from __future__ import annotations\nimport os.path\nprint(1)\n") == {"os"}
    flsim = _modules()["byzbench.flsim"].read_text(encoding="utf-8")
    planted = flsim.replace("from .specs import", "from .specs import DatasetSpec,", 1)
    assert _unused(planted) == {"CleanSpec", "DatasetSpec"}
