"""Tests of the benchmark itself.

Run from the repository root (about two minutes; the fleet passes
dominate)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_environment()

import record_references  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert "setup_s" in run.declared_units(BENCHMARK)
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    names = [m["name"] for g in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[g]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_figure_references_are_the_full_report_sections():
    for name, label in record_references.REPORT_SECTIONS.items():
        assert workloads.make(name).reference(2004) == record_references.report_section(label)


def test_every_reference_seed_is_recorded():
    for name in workloads.WORKLOAD_NAMES:
        for seed in workloads.REFERENCE_SEEDS:
            assert workloads.make(name).reference(seed) is not None, (name, seed)


def test_a_changed_figure_cell_fails_exactly_its_item():
    wl = workloads.make("fig9_compiled")
    reference = wl.reference(2004)
    lines = reference.splitlines(keepends=True)
    # Row of 0.5% (fourth percent), column alush (second variant).
    row = lines[3 + 3].split()
    row[2] = "12.3"
    lines[3 + 3] = "  ".join(row) + "\n"
    verdicts = workloads.check_pass(wl, "".join(lines), reference)
    assert [i for i, ok in enumerate(verdicts) if not ok] == [1 * 18 + 3]
    assert verdicts == workloads.check_pass(wl, "".join(lines), reference)


def test_a_changed_footer_fails_every_item():
    wl = workloads.make("fig7_batched")
    reference = wl.reference(2004)
    verdicts = workloads.check_pass(wl, reference.replace("15.10", "15.11"), reference)
    assert not any(verdicts)


def test_a_changed_lifecycle_row_fails_that_points_jobs():
    wl = workloads.make("lifecycle_sparse")
    reference = wl.reference(2004)
    lines = reference.splitlines(keepends=True)
    lines[2 + 4] = lines[2 + 4].replace("%", "#", 1)
    verdicts = workloads.check_pass(wl, "".join(lines), reference)
    assert [i for i, ok in enumerate(verdicts) if not ok] == list(range(24, 30))


def test_compiled_workload_refuses_to_time_the_batched_tier(monkeypatch):
    import repro.kernels

    monkeypatch.setattr(repro.kernels, "get_provider", lambda: None)
    with pytest.raises(RuntimeError, match="no compiled kernel provider"):
        workloads.make("fig9_compiled").build()


def test_peak_rss_restarts_for_the_next_workload():
    import numpy as np

    block = np.ones(64 * 2**20 // 8)  # 64 MiB, touched, then returned
    del block
    high = run.peak_rss_mb()
    run.reset_peak_rss()
    assert run.peak_rss_mb() < high - 32


@pytest.fixture(scope="module")
def traced():
    """Two traced passes of every workload at the default seed."""
    passes = {}
    for name in workloads.WORKLOAD_NAMES:
        wl = workloads.make(name)
        wl.build()
        passes[name] = []
        for _ in range(2):
            recorder = tracer.Recorder()
            wall, output, samples = run._run_pass(wl, 2004, recorder)
            passes[name].append((wl, wall, output, samples, recorder))
    return passes


def test_traced_outputs_equal_the_references(traced):
    for name, runs in traced.items():
        for wl, _wall, output, samples, _rec in runs:
            assert wl.render(output) == wl.reference(2004), name
            assert len(samples) == wl.n_items, name


def test_boundary_counts_repeat_exactly(traced):
    for name, (first, second) in traced.items():
        assert first[4].counts == second[4].counts, name
        assert first[4].counts, name


def test_boundary_counts_match_the_workloads(traced):
    fig9 = traced["fig9_compiled"][0][4].counts
    assert fig9["kernels.rows"] == 46080
    assert fig9["faults.mask.calls"] == 4 * 18 * 10
    assert fig9["faults.mask.uniforms"] > fig9["faults.mask.flips"] > 0
    assert traced["fig7_batched"][0][4].counts["alu.batched.rows"] == 46080
    lifecycle = traced["lifecycle_sparse"][0][4].counts
    assert lifecycle["grid.control.jobs"] == 36
    assert 0 < lifecycle["grid.control.results"] <= lifecycle["grid.control.enqueued"]
    fleet = traced["fleet_soak"][0][4].counts
    assert fleet["grid.watchdog.quarantines"] >= 4 * 316 * 4
    assert fleet["grid.engine.steps"] == 4 * 100


def test_layer_self_times_add_up_to_the_traced_wall(traced):
    for name, runs in traced.items():
        for _wl, wall, _out, _samples, recorder in runs:
            rows, top = recorder.self_times()
            assert all(seconds >= 0 for seconds in rows.values()), name
            assert sum(rows.values()) == pytest.approx(top, rel=1e-9), name
            assert 0 < top <= wall, name


def test_oracle_checks_the_points_it_is_given(traced):
    wl, _wall, output, _samples, _rec = traced["lifecycle_sparse"][0]
    assert all(wl.oracle(output, 2004, range(len(wl.points))))
    # Point 2 recomputed at another seed disagrees: exactly its jobs fail.
    verdicts = wl.oracle(output, 1009, [2])
    assert [i for i, ok in enumerate(verdicts) if not ok] == list(range(12, 18))


def test_spans_nest_and_carry_item_ids(traced):
    wl, _wall, _out, _samples, recorder = traced["fig9_compiled"][0]
    spans = recorder.spans
    for name_id, start, end, parent, _item in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    suites = [s for s in spans if recorder.names[s[0]].endswith("run_workload_suite")]
    assert [s[4] for s in suites] == wl.item_names()


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7_batched", "--seconds", "0", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_every_declared_metric(trace, group):
    proc = _run_benchmark(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program():
    bare = ROOT / ".bench_build" / "perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run_benchmark(bare, "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
