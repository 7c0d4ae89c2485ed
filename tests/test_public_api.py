"""The package's public surface: __all__ lists exactly the names it exports,
every package name the benchmark scripts import exists, and every name the
README lists as removed stays removed."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from contextlib import suppress
from pathlib import Path
from types import ModuleType

import pytest

import qutrit_heat

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def removed_names() -> list[str]:
    """The names in the "removed" column of the README migration table that
    are bare or module-qualified (`name`, `module.name`); call signatures,
    which name a function that changed rather than went, are left out."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| removed | use instead |") + 2  # past the header rule
    cells = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells += re.findall(r"`([^`]+)`", line.split("|")[1])
    return [c for c in cells if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?", c)]


def test_removed_names_stay_removed():
    names = removed_names()
    assert {"run_map", "transport.circulation_from_currents", "filter_width_advisories"} <= set(names)
    modules = [qutrit_heat] + [importlib.import_module(f"qutrit_heat.{m.name}")
                               for m in pkgutil.iter_modules(qutrit_heat.__path__)]
    for name in names:
        module, _, attr = name.rpartition(".")
        if module:
            importlib.import_module(f"qutrit_heat.{module}")  # the module it names exists
        # gone from the package and from every module, not only from the one named
        assert not [m.__name__ for m in modules if hasattr(m, attr)], name
