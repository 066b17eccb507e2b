"""The benchmark's four workloads, driven through the program's public API.

Each workload runs one user-facing computation per *pass* with
``jobs=1``, names the *items* that per-item latency is measured over,
and checks its output three ways:

* against a recorded reference, for the seeds that have one
  (``references/``; at seed 2004 the figures are the sections of
  ``results/full_report.txt``);
* against every other pass of the same run (the program is
  deterministic in its seed);
* against an oracle tier that shares no fast-path code, on a sample of
  items chosen by the seed: the scalar campaign tier for the figures,
  the dense grid engine for the lifecycle sweep, closed-form invariants
  for the fleet soak (a dense fleet pass takes minutes; its references
  were confirmed against the dense engine when they were recorded).

No part of the program is imported at module level, so the set-up
probe can time ``import repro`` from a cold interpreter first.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

REFERENCES = Path(__file__).resolve().parent / "references"

#: Seeds with a recorded reference output for every workload.
REFERENCE_SEEDS = (2004, 1009)

STDDEV_NOTE = "paper reported a worst case of 24.51"


@dataclass(frozen=True)
class Work:
    """Simulated work done by one pass (for the throughput columns)."""

    instructions: int = 0
    cell_cycles: int = 0


class Workload:
    """One benchmark workload; subclasses fill in the program calls."""

    name: str = ""
    #: The entry point one call of which is one item.
    item_call: str = ""
    n_items: int = 0

    def item_names(self) -> List[str]:
        raise NotImplementedError

    def build(self) -> None:
        """Build the units and engines a pass reuses (set-up)."""
        raise NotImplementedError

    def run(self, seed: int) -> Any:
        """One full pass; returns the program's output object."""
        raise NotImplementedError

    def render(self, output: Any) -> str:
        """The output as the text that is compared byte for byte."""
        raise NotImplementedError

    def item_groups(self, text: str) -> List[str]:
        """``text`` split into the parts each item's correctness rests on.

        Returns ``n_items`` strings; item ``i`` is correct when its part
        equals the reference's part ``i``.
        """
        raise NotImplementedError

    def work(self, output: Any) -> Work:
        raise NotImplementedError

    def oracle(
        self, output: Any, seed: int, points: Optional[Sequence[int]] = None
    ) -> List[bool]:
        """Per-item verdicts from the independent oracle tier.

        ``points`` are the indices of the workload's points to recompute
        (figure: one per item; lifecycle: one per (process, policy)
        pair); ``None`` picks the seed-chosen sample a run checks.
        """
        raise NotImplementedError

    def reference_path(self, seed: int) -> Path:
        return REFERENCES / f"{self.name}-seed{seed}.txt"

    def reference(self, seed: int) -> Optional[str]:
        path = self.reference_path(seed)
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")


# -------------------------------------------------------------- campaigns


class FigureWorkload(Workload):
    """One of the paper's Figures 7-9 on one evaluation tier."""

    item_call = "repro.faults.campaign:FaultCampaign.run_workload_suite"

    def __init__(self, name: str, figure: str, backend: Optional[str]) -> None:
        from repro.experiments.figures import FIGURE_VARIANTS, PAPER_FAULT_PERCENTAGES

        self.name = name
        self.figure = figure
        self.backend = backend
        self.variants = FIGURE_VARIANTS[figure]
        self.percents = PAPER_FAULT_PERCENTAGES
        self.n_items = len(self.variants) * len(self.percents)

    def item_names(self) -> List[str]:
        return [f"{v}@{p:g}%" for v in self.variants for p in self.percents]

    def build(self) -> None:
        # One zero-fault, one-trial item per variant through the
        # executor: it builds each unit and its engine exactly where a
        # sweep looks them up, so later passes find them cached.
        from repro.perf import ALUSpec, CampaignWorkItem, PolicySpec, run_campaign_items

        run_campaign_items(
            [
                CampaignWorkItem(
                    alu=ALUSpec.variant(v),
                    policy=PolicySpec.exact(0.0),
                    trials_per_workload=1,
                    seed=0,
                    backend=self.backend,
                )
                for v in self.variants
            ]
        )
        if self.backend == "compiled":
            # Without a provider the program warns and runs the batched
            # tier, which would be timed here under the compiled name.
            from repro.kernels import get_provider, provider_failures

            if get_provider() is None:
                raise RuntimeError(
                    f"{self.name}: no compiled kernel provider loaded: "
                    + "; ".join(provider_failures())
                )

    def run(self, seed: int) -> Any:
        from repro.experiments.figures import run_figure

        return run_figure(self.figure, seed=seed, jobs=1, backend=self.backend)

    def render(self, output: Any) -> str:
        return (
            f"{output.to_text()}\n(max per-point stddev: "
            f"{output.max_stddev():.2f} points; {STDDEV_NOTE})\n"
        )

    def item_groups(self, text: str) -> List[str]:
        lines = text.splitlines()
        rows = lines[3 : 3 + len(self.percents)]
        cells = [row.split() for row in rows]
        # Items run variant-major; column 0 is the fault percent.  A
        # malformed table leaves items without a cell, so they fail.
        groups = []
        for v in range(len(self.variants)):
            for r in range(len(self.percents)):
                try:
                    groups.append(f"{cells[r][0]} {cells[r][v + 1]}")
                except IndexError:
                    groups.append("<missing>")
        if len(lines) != 4 + len(self.percents):
            groups = [g + "<shape>" for g in groups]
        return groups

    def work(self, output: Any) -> Work:
        from repro.workloads.bitmap import gradient
        from repro.workloads.imaging import paper_workloads

        per_trial = {len(w) for w in paper_workloads(gradient(8, 8)).values()}
        (instructions,) = per_trial
        return Work(instructions=sum(p.samples for p in output.points) * instructions)

    def oracle(
        self, output: Any, seed: int, points: Optional[Sequence[int]] = None
    ) -> List[bool]:
        # Points are recomputed on the scalar tier (object graph,
        # per-instruction masks); by default one seed-chosen nonzero
        # fault percent per variant.
        from repro.faults.campaign import FaultCampaign
        from repro.perf import ALUSpec, PolicySpec
        from repro.workloads.bitmap import gradient
        from repro.workloads.imaging import paper_workloads

        n = len(self.percents)
        if points is None:
            pick = random.Random(seed)
            points = [v * n + pick.randrange(1, n) for v in range(len(self.variants))]
        verdicts = [True] * self.n_items
        workloads = paper_workloads(gradient(8, 8))
        for item in points:
            variant, percent = self.variants[item // n], self.percents[item % n]
            campaign = FaultCampaign(
                ALUSpec.variant(variant).build(),
                PolicySpec.exact(percent / 100.0).build(),
                seed=seed,
            )
            stats = campaign.run_workload_suite(workloads, 5, backend="scalar").stats
            point = output.point(variant, percent)
            verdicts[item] = (
                (stats.mean, stats.stddev, stats.n)
                == (point.percent_correct, point.stddev, point.samples)
            )
        return verdicts


# -------------------------------------------------------------- lifecycle


def _grid_build() -> None:
    """Build a small sparse grid and run one job through it.

    Builds a cell's scalar ALU and memory, the sparse engine, watchdog
    and control processor once, so per-process caches are warm.
    """
    from repro.experiments.lifecycle import lifecycle_workload, self_healing_policy
    from repro.grid.simulator import GridSimulator

    config = self_healing_policy()
    sim = GridSimulator(
        rows=2,
        cols=2,
        heartbeat_decay=config.heartbeat_decay,
        lifecycle_policy=config.policy,
        n_words=8,
        grid_engine="sparse",
    )
    sim.run_instructions(lifecycle_workload(8), max_rounds=1)
    sim.watchdog.probe_quarantined()


class LifecycleWorkload(Workload):
    """The default ``lifecycle`` sweep on the sparse grid engine."""

    name = "lifecycle_sparse"
    item_call = "repro.grid.control:ControlProcessor.run_job"
    JOBS = 6
    CELLS = 4 * 4  # the sweep's default grid

    def __init__(self) -> None:
        from repro.experiments.lifecycle import (
            default_processes,
            permanent_policy,
            self_healing_policy,
        )

        self.processes = default_processes()
        self.policies = (permanent_policy(), self_healing_policy())
        self.points = [(p, c) for p in self.processes for c in self.policies]
        self.n_items = len(self.points) * self.JOBS

    def item_names(self) -> List[str]:
        return [
            f"{p.describe()}/{c.name}/job{j}"
            for p, c in self.points
            for j in range(self.JOBS)
        ]

    def build(self) -> None:
        _grid_build()

    def run(self, seed: int) -> Any:
        from repro.experiments.lifecycle import lifecycle_sweep

        return lifecycle_sweep(
            self.processes, self.policies, jobs=self.JOBS, seed=seed,
            grid_engine="sparse",
        )

    def render(self, output: Any) -> str:
        from repro.experiments.lifecycle import lifecycle_table_text

        return lifecycle_table_text(output) + "\n"

    def item_groups(self, text: str) -> List[str]:
        rows = text.splitlines()[2:]
        groups = []
        for i in range(len(self.points)):
            row = rows[i] if i < len(rows) else "<missing>"
            groups.extend([row] * self.JOBS)
        if len(rows) != len(self.points):
            groups = [g + "<shape>" for g in groups]
        return groups

    def work(self, output: Any) -> Work:
        return Work(
            instructions=sum(p.submitted for p in output),
            cell_cycles=self.CELLS * sum(p.total_cycles for p in output),
        )

    def oracle(
        self, output: Any, seed: int, points: Optional[Sequence[int]] = None
    ) -> List[bool]:
        # (process, policy) points rerun on the dense engine, which
        # ticks every cell every cycle; by default one seed-chosen point.
        from repro.experiments.lifecycle import run_lifecycle_point

        if points is None:
            points = [random.Random(seed).randrange(len(self.points))]
        verdicts = [True] * self.n_items
        for index in points:
            process, config = self.points[index]
            dense = run_lifecycle_point(
                process, config, jobs=self.JOBS, seed=seed, grid_engine="dense"
            )
            if dense != output[index]:
                for j in range(self.JOBS):
                    verdicts[index * self.JOBS + j] = False
        return verdicts


# ------------------------------------------------------------------ fleet


class FleetWorkload(Workload):
    """The smoke fleet of ``bench_ext_soak``: ~10^5 cells, rolling wave."""

    name = "fleet_soak"
    # An item is one region: its simulator build and both probe
    # intervals.  The intervals alone are bimodal (the second runs ~1.5x
    # the first), which put their median between two clusters.
    item_call = "repro.experiments.fleet:run_fleet_region"
    ROWS = COLS = 316
    REGIONS = 4
    TICKS = 100
    PROBE_INTERVAL = 50
    WAVE_PERIOD = 25
    THRESHOLD = 3

    n_items = REGIONS

    def item_names(self) -> List[str]:
        return [f"region{r}" for r in range(self.REGIONS)]

    def build(self) -> None:
        _grid_build()

    def soak_options(self) -> Dict[str, Any]:
        """Keyword arguments shared by ``run_fleet_soak`` and each region."""
        from repro.faults.temporal import TemporalFaultProcess

        return dict(
            ticks=self.TICKS,
            process=TemporalFaultProcess.transient(1e-6, errors_per_cycle=3),
            wave_period=self.WAVE_PERIOD,
            error_threshold=self.THRESHOLD,
            probe_interval=self.PROBE_INTERVAL,
        )

    def run(self, seed: int) -> Any:
        from repro.experiments.fleet import run_fleet_soak

        return run_fleet_soak(
            self.ROWS, self.COLS, regions=self.REGIONS, jobs=1, seed=seed,
            **self.soak_options(),
        )

    def render(self, output: Any) -> str:
        return json.dumps(asdict(output), sort_keys=True, indent=1) + "\n"

    def item_groups(self, text: str) -> List[str]:
        # The report is one aggregate: every item rests on all of it.
        return [text] * self.n_items

    def work(self, output: Any) -> Work:
        return Work(cell_cycles=output.total_cell_cycles)

    def oracle(
        self, output: Any, seed: int, points: Optional[Sequence[int]] = None
    ) -> List[bool]:
        # Closed-form invariants of the whole report; ``points`` is moot.
        waves = self.TICKS // self.WAVE_PERIOD
        checks = (
            output.cells == self.ROWS * self.COLS,
            output.regions == self.REGIONS,
            output.cycles == self.TICKS,
            output.total_cell_cycles == output.cells * output.cycles,
            # Every wave overwhelms one full column of every region.
            output.wave_hits == waves * self.ROWS * self.REGIONS,
            # Each hit cell is quarantined, and only those are readmitted.
            output.quarantines >= output.wave_hits,
            output.readmissions <= output.quarantines,
            0 < output.alive_cell_cycles <= output.total_cell_cycles,
            output.availability > 0.9,
        )
        return [all(checks)] * self.n_items


def all_workloads() -> Dict[str, Callable[[], Workload]]:
    """Workload factories by name, in the order ``--workload all`` runs them.

    Why each was chosen is recorded in ``BENCHMARK.json``.
    """
    return {
        "fig9_compiled": lambda: FigureWorkload("fig9_compiled", "figure9", "compiled"),
        "fig7_batched": lambda: FigureWorkload("fig7_batched", "figure7", None),
        "lifecycle_sparse": LifecycleWorkload,
        "fleet_soak": FleetWorkload,
    }


WORKLOAD_NAMES: Tuple[str, ...] = tuple(all_workloads())


def make(name: str) -> Workload:
    return all_workloads()[name]()


def check_pass(workload: Workload, text: str, expected: str) -> List[bool]:
    """Per-item verdicts of one pass's rendered output against ``expected``."""
    got = workload.item_groups(text)
    want = workload.item_groups(expected)
    verdicts = [g == w for g, w in zip(got, want)]
    if text != expected and all(verdicts):
        # Same cells, different bytes (a header or a footer): the
        # output as a whole is wrong, so every item is.
        verdicts = [False] * len(verdicts)
    return verdicts + [False] * (workload.n_items - len(verdicts))
