"""What each preset shows, counted from its CSV and pinned in figure_facts.json.

Bytes are pinned for two small presets only, and they depend on the host's
numpy dispatch; these counts do not. Per preset: the rows, the flagged rows
and the rows per flag, each regime label's count, and per metric column the
cells that are exactly +1, exactly -1, positive, negative and empty. They
are the paper's claims as cells: an ideal diode (|R| = 1), a perfect
circulator (|C| = 1), and a circulation whose sign the flux reverses.

To regenerate the table after a deliberate change, run this file as a
script from the repository root: python tests/test_figure_facts.py
"""

from __future__ import annotations

import io
import json
from collections import Counter
from pathlib import Path

import pytest

from qutrit_heat import PRESETS, preset, write_sweep

TABLE = Path(__file__).with_name("figure_facts.json")


def figure_facts(name: str) -> dict:
    """The facts of preset `name`, from the text write_sweep writes."""
    spec = preset(name)
    buffer = io.StringIO()
    write_sweep(spec, buffer)
    header, *lines = buffer.getvalue().splitlines()
    columns = header.split(",")
    rows = [line.split(",") for line in lines]
    flags = [row[-1] for row in rows]
    metrics = {}
    for metric in spec.metrics:
        at = columns.index(metric)
        cells = [row[at] for row in rows]
        values = [float(cell) for cell in cells if cell]
        metrics[metric] = {
            "+1": sum(v == 1.0 for v in values),
            "-1": sum(v == -1.0 for v in values),
            "positive": sum(v > 0.0 for v in values),
            "negative": sum(v < 0.0 for v in values),
            "empty": len(cells) - len(values),
        }
    return {
        "rows": len(rows),
        "flagged": sum(bool(f) for f in flags),
        "flags": dict(sorted(Counter(e for f in flags if f for e in f.split(";")).items())),
        "regimes": dict(sorted(Counter(row[-3] for row in rows).items())),  # regime, residual, flags
        "metrics": metrics,
    }


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_every_preset(table):
    assert sorted(table) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_shows_its_facts(table, name):
    assert figure_facts(name) == table[name]


if __name__ == "__main__":
    TABLE.write_text(json.dumps({name: figure_facts(name) for name in sorted(PRESETS)}, indent=1) + "\n")
