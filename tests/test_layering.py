"""Import layering, read from the sources: the oracle stays a separate
implementation that shares no code with the structures, no structure
module reaches up into the replay harness or the CLI, and no module
imports a name it does not use (a re-export for other modules to import)."""

import ast
from pathlib import Path

import cfcolor

SRC = Path(cfcolor.__file__).parent
FRONT = {"harness", "cli", "__init__", "__main__"}


def _cfcolor_imports(module: str) -> set[str]:
    """The cfcolor modules a module of the package imports by name."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("cfcolor.")}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("cfcolor"):
                continue
            parts = base.split(".")[1:] if node.level == 0 else [p for p in base.split(".") if p]
            if parts:
                out.add(parts[0])
            else:   # from . import x, or from cfcolor import x
                out |= {a.name for a in node.names}
    return out


def test_oracle_imports_only_geom():
    assert _cfcolor_imports("oracle") <= {"geom"}


def test_no_structure_module_imports_the_harness_or_cli():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in FRONT)
    assert {"anchored", "cells", "framework", "oracle", "rects", "squares", "unimax"} <= set(modules)
    for module in modules:
        assert not _cfcolor_imports(module) & {"harness", "cli"}, module


def test_the_import_reader_sees_every_form():
    # the reader itself, on the harness and the CLI, which do import these
    assert {"oracle", "framework", "geom"} <= _cfcolor_imports("harness")
    assert "harness" in _cfcolor_imports("cli")


def _unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_every_imported_name_is_used():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert {"cli", "framework", "harness", "rects"} <= set(modules)
    for module in modules:
        assert _unused_imports((SRC / f"{module}.py").read_text()) == [], module


def test_the_unused_import_reader_sees_every_form():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom .geom import Pt, AxisRect as R\n"
              "def f(p: Pt) -> None:\n    return os.sep\n")
    assert _unused_imports(source) == ["R", "j"]
