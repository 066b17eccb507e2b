"""Record the workloads' reference outputs, confirmed against oracle tiers.

Run from the repository root::

    python3 perfbench/record_references.py           # confirm only
    python3 perfbench/record_references.py --write   # and (re)write references/

For every seed in ``workloads.REFERENCE_SEEDS`` each workload runs once
on its benchmarked tier and is confirmed against a tier that shares none
of its fast path:

* figures: at seed 2004 the output must equal its section of
  ``results/full_report.txt``; at every seed four fault percents per
  variant are recomputed on the scalar campaign tier;
* lifecycle: every point is recomputed on the dense grid engine;
* fleet: every region is soaked again on the dense grid engine and the
  region outcomes are merged (this takes several minutes per seed).

Nothing is written unless every confirmation holds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_environment()

import workloads  # noqa: E402

FULL_REPORT = ROOT / "results" / "full_report.txt"
REPORT_SECTIONS = {"fig7_batched": "Figure 7", "fig9_compiled": "Figure 9"}
SCALAR_PERCENTS = (0.5, 3, 10, 50)


def report_section(label: str) -> str:
    """The body of ``== label ==`` in ``results/full_report.txt``."""
    text = FULL_REPORT.read_text(encoding="utf-8")
    start = text.index(f"== {label} ==\n") + len(f"== {label} ==\n")
    end = text.find("\n\n== ", start)
    return text[start:end].rstrip("\n") + "\n"


def confirm_figure(wl: workloads.FigureWorkload, output, seed: int) -> None:
    if seed == 2004 and wl.render(output) != report_section(REPORT_SECTIONS[wl.name]):
        raise SystemExit(f"{wl.name}: differs from results/full_report.txt")
    n = len(wl.percents)
    points = [
        v * n + wl.percents.index(percent)
        for v in range(len(wl.variants))
        for percent in SCALAR_PERCENTS
    ]
    if not all(wl.oracle(output, seed, points)):
        raise SystemExit(f"{wl.name}: differs from the scalar campaign tier")


def confirm_lifecycle(wl: workloads.LifecycleWorkload, output, seed: int) -> None:
    if not all(wl.oracle(output, seed, range(len(wl.points)))):
        raise SystemExit(f"{wl.name}: sparse sweep differs from dense engine")


def confirm_fleet(wl: workloads.FleetWorkload, output, seed: int) -> None:
    from repro.experiments.fleet import merge_outcomes, run_fleet_region, shard_fleet

    outcomes = [
        run_fleet_region(region, grid_engine="dense", **wl.soak_options())
        for region in shard_fleet(wl.ROWS, wl.COLS, wl.REGIONS, seed)
    ]
    if merge_outcomes(wl.ROWS, wl.COLS, outcomes) != output:
        raise SystemExit(f"{wl.name}: sparse fleet differs from dense engine")


CONFIRM = {
    "fig9_compiled": confirm_figure,
    "fig7_batched": confirm_figure,
    "lifecycle_sparse": confirm_lifecycle,
    "fleet_soak": confirm_fleet,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOAD_NAMES))
    args = parser.parse_args()
    for name in args.workload:
        wl = workloads.make(name)
        for seed in workloads.REFERENCE_SEEDS:
            output = wl.run(seed)
            CONFIRM[name](wl, output, seed)
            print(f"{name} seed {seed}: confirmed", flush=True)
            if args.write:
                wl.reference_path(seed).parent.mkdir(exist_ok=True)
                wl.reference_path(seed).write_text(wl.render(output), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
