"""The package's public surface: __all__ lists exactly the names it exports."""

from __future__ import annotations

from types import ModuleType

import qutrit_heat


def test_all_equals_the_public_names():
    for name in qutrit_heat.__all__:
        assert hasattr(qutrit_heat, name), name
    public = {name for name, value in vars(qutrit_heat).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert len(set(qutrit_heat.__all__)) == len(qutrit_heat.__all__)
    assert set(qutrit_heat.__all__) == public
