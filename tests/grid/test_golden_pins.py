"""Golden pins on outputs that both grid engines share through cell memory.

The dense ≡ sparse differential gates compare the two engines with each
other, so a change inside ``CellMemory`` or the ALU control -- code both
engines run -- can shift both outputs together and still pass them.
These tests compare against committed files instead:

* ``golden/lifecycle_seed2004.txt`` is the stdout of
  ``lifecycle --jobs 3 --instructions 48 --seed 2004``, checked on both
  ``--grid-engine`` values.
* ``golden/scrub_stats.json`` holds ``stats()`` of dense
  :class:`GridSimulator` image jobs under memory upsets with scrubbing,
  the one path where stored flag copies really disagree.

To re-record after a deliberate behaviour change, run this module as a
script from the repository root (``PYTHONPATH=src python
tests/grid/test_golden_pins.py``) and review the diff of ``golden/``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
LIFECYCLE_ARGV = [
    "lifecycle", "--jobs", "3", "--instructions", "48", "--seed", "2004",
]
#: (memory_upset_rate, scrub_interval) of the pinned dense image jobs.
SCRUB_SCENARIOS = ((3e-4, 8), (2e-3, 8))


def scrub_records():
    """One JSON-ready record per scenario of :data:`SCRUB_SCENARIOS`."""
    from repro.grid.simulator import GridSimulator
    from repro.workloads.bitmap import gradient
    from repro.workloads.imaging import reverse_video

    records = []
    for rate, interval in SCRUB_SCENARIOS:
        sim = GridSimulator(rows=2, cols=2, seed=5, memory_upset_rate=rate,
                            scrub_interval=interval)
        outcome = sim.run_image_job(gradient(8, 8), reverse_video())
        records.append({
            "memory_upset_rate": rate,
            "scrub_interval": interval,
            "stats": dataclasses.asdict(sim.stats()),
            "scrub_corrections": sim.scrub_corrections,
            "output_pixels": outcome.output.pixels,
        })
    # Round-trip so tuples compare equal to the JSON lists they became.
    return json.loads(json.dumps(records))


@pytest.mark.parametrize("engine", ("dense", "sparse"))
def test_lifecycle_stdout_matches_golden(engine, capsys):
    from repro.cli import main

    assert main(LIFECYCLE_ARGV + ["--grid-engine", engine]) == 0
    expected = (GOLDEN / "lifecycle_seed2004.txt").read_text()
    assert capsys.readouterr().out == expected


def test_scrubbed_dense_stats_match_golden():
    expected = json.loads((GOLDEN / "scrub_stats.json").read_text())
    assert scrub_records() == expected


if __name__ == "__main__":
    import contextlib
    import io

    from repro.cli import main

    GOLDEN.mkdir(exist_ok=True)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(LIFECYCLE_ARGV)
    (GOLDEN / "lifecycle_seed2004.txt").write_text(buffer.getvalue())
    (GOLDEN / "scrub_stats.json").write_text(
        json.dumps(scrub_records(), indent=1) + "\n"
    )
