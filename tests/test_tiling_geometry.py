"""Pinned tiling geometry of the shipped winners.

Steady-state detection stops the scheduler at the first recurring
snapshot and tiles the warm-up prefix plus one period out to the
requested cycles.  The reference-scheduler property compares expanded
traces, so it cannot see *where* detection fired; this test can.
``tests/data/tiling_geometry.json`` holds ``(prefix_cycles,
period_cycles)`` at 1600 cycles for every shipped winner
(``configs/*/results/individuals/*.txt``) on every preset of its ISA,
recorded before the scheduler's state key was flattened.  A change to
the state key or to the snapshot schedule that moves detection by one
cycle fails here, even when the expanded trace stays equal.

Regenerate (only when the snapshot rule is meant to change) with
``PYTHONPATH=src python -m tests.test_tiling_geometry``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cpu.microarch import PRESETS
from repro.cpu.pipeline import PipelineSimulator
from repro.isa import assembler_for

ROOT = Path(__file__).resolve().parents[1]
GEOMETRY = Path(__file__).resolve().parent / "data" / "tiling_geometry.json"
CYCLES = 1600


def geometry_rows():
    """One ``[individual, preset, prefix_cycles, period_cycles]`` row
    per shipped winner and preset of its ISA, in a fixed order."""
    rows = []
    for path in sorted(ROOT.glob("configs/*/results/individuals/*.txt")):
        isa = "x86" if path.parts[-4].startswith("x86") else "arm"
        source = path.read_text()
        program = assembler_for(isa).assemble(source, name=path.name)
        for preset in sorted(PRESETS):
            arch = PRESETS[preset]
            if arch.isa != isa:
                continue
            trace = PipelineSimulator(arch).execute(program, CYCLES)
            rows.append([path.relative_to(ROOT).as_posix(), preset,
                         trace.prefix_cycles, trace.period_cycles])
    return rows


def test_geometry_matches_the_pinned_file():
    pinned = json.loads(GEOMETRY.read_text())
    assert pinned["cycles"] == CYCLES
    rows = pinned["rows"]
    # All 80 winners, both tiled and untiled runs.
    assert len({row[0] for row in rows}) == 80
    assert {row[3] > 0 for row in rows} == {True, False}
    assert geometry_rows() == rows


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(row) for row in geometry_rows())
    GEOMETRY.write_text(f'{{"cycles": {CYCLES}, "rows": [\n{lines}\n]}}\n')
