"""The package's public surface: __all__ lists exactly the names it exports,
and every package name the benchmark scripts import exists."""

from __future__ import annotations

import ast
import importlib
from contextlib import suppress
from pathlib import Path
from types import ModuleType

import pytest

import qutrit_heat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_equals_the_public_names():
    for name in qutrit_heat.__all__:
        assert hasattr(qutrit_heat, name), name
    public = {name for name, value in vars(qutrit_heat).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert len(set(qutrit_heat.__all__)) == len(qutrit_heat.__all__)
    assert set(qutrit_heat.__all__) == public


def package_imports(source: str):
    """(module, name) of each qutrit_heat import in source; name is None for
    `import module`."""
    def ours(module) -> bool:
        return (module or "").split(".")[0] == "qutrit_heat"

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and ours(node.module):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if ours(alias.name))


@pytest.mark.parametrize("script", ["check.py", "workloads.py", "tracing.py"])
def test_benchmark_imports_resolve(script):
    imports = list(package_imports((PERFBENCH / script).read_text()))
    assert imports
    for module, name in imports:
        imported = importlib.import_module(module)
        if name is not None:
            with suppress(ImportError):  # `from package import submodule`
                importlib.import_module(f"{module}.{name}")
            assert hasattr(imported, name), f"{script}: from {module} import {name}"
