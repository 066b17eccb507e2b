"""The repository benchmark: paper-figure campaigns and the self-healing grid.

Run from the repository root::

    python3 perfbench/run.py                          # all four workloads
    python3 perfbench/run.py --workload fig9_compiled --seed 7
    python3 perfbench/run.py --workload fleet_soak --trace 1

Each workload runs in this one process with ``jobs=1``.  A run

1. imports ``repro`` and ``repro.cli`` and builds the workload's units
   and engines (this compiles the C kernel into ``.bench_build/`` the
   first time);
2. repeats full passes of the workload for about ``--seconds``
   (default: ``run_seconds`` in ``BENCHMARK.json``), reporting the
   median pass as ``wall_s`` and per-item latency pooled over all
   passes;
3. between passes, times the set-up of step 1 in fresh child processes
   with the kernel cache warm, and reports their median as ``setup_s``;
4. checks every pass's output (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes instead and prints the per-layer metrics of
the median traced pass: self times from spans recorded around each
layer's public entry point, counts taken at those boundaries,
``untimed_s`` and ``obs.trace_overhead``.  Its spans are written to
``.bench_build/perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: Fresh-process set-ups timed per run, spread over its passes;
#: ``setup_s`` is their median.
SETUP_PROBES = 7

#: The program is single-process here (``jobs=1``); pin the NumPy/BLAS
#: thread pools so no library spreads work over the machine's cores.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def declared() -> Dict[str, Any]:
    """``BENCHMARK.json``: the run length and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def reset_peak_rss() -> None:
    """Restart the kernel's high-water mark of this process's memory.

    After this, ``VmHWM`` counts from the current resident size, so a
    later workload in the same process reports its own peak.
    """
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def prepare_environment() -> None:
    """Confine the run to the checkout and pin thread pools.

    Must run before NumPy is imported (this process and its children).
    """
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    for name in THREAD_ENV:
        os.environ[name] = "1"
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ.pop("REPRO_BACKEND", None)
    os.environ.pop("REPRO_GRID_ENGINE", None)
    # Byte-compile once per checkout, into the build directory, so set-up
    # times an import from cached bytecode (as for an installed package)
    # whatever the caller's PYTHONDONTWRITEBYTECODE says.
    pycache = str(BUILD / "pycache")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = pycache
    sys.dont_write_bytecode = False
    sys.pycache_prefix = pycache
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def _timed_setup(name: str) -> Tuple[float, float, Any]:
    """Import the program, then build the workload: (import_s, build_s, workload)."""
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.cli  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workload = workloads.make(name)
    built_start = time.perf_counter()
    workload.build()
    done = time.perf_counter()
    return imported - start, done - built_start, workload


def _probe_setup(name: str) -> Tuple[float, float]:
    """Time one set-up in a fresh interpreter (the kernel cache is warm)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"], probe["engine_build_s"]


class CheckedRun:
    """Runs a workload's passes and keeps per-item correctness."""

    def __init__(self, workload: Any, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.expected: Optional[str] = workload.reference(seed)
        self.has_reference = self.expected is not None
        self.first_output: Any = None
        self.attempted = 0
        self.raised = 0
        self.passes: List[List[bool]] = []

    def run_pass(self, recorder: Any = None) -> Optional[Tuple[float, Any, List[float]]]:
        """One checked pass: (wall, output, item samples), or None if it raised."""
        wl = self.workload
        self.attempted += wl.n_items
        try:
            wall, output, samples = _run_pass(wl, self.seed, recorder)
        except Exception:
            traceback.print_exc()
            self.raised += wl.n_items
            return None
        text = wl.render(output)
        if self.first_output is None:
            self.first_output = output
            if self.expected is None:
                self.expected = text
        import workloads

        ok = workloads.check_pass(wl, text, self.expected)
        if len(samples) != wl.n_items:
            ok = [False] * wl.n_items
        self.passes.append(ok)
        return wall, output, samples

    def finish(self) -> Tuple[int, int]:
        """Apply the oracle to the first pass; return (attempted, failed)."""
        if self.first_output is None:
            raise RuntimeError(f"every pass of {self.workload.name} raised")
        oracle = self.workload.oracle(self.first_output, self.seed)
        failed = self.raised
        for ok in self.passes:
            failed += sum(1 for a, b in zip(ok, oracle) if not (a and b))
        return self.attempted, failed


def _run_pass(workload: Any, seed: int, recorder: Any = None) -> Tuple[float, Any, List[float]]:
    """One pass under the item clock (and the span recorder, if given)."""
    from tracer import ItemClock

    clock = ItemClock(workload.item_call, workload.item_names(), recorder)
    with ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(recorder.installed())
        stack.enter_context(clock.installed())
        start = time.perf_counter()
        output = workload.run(seed)
        wall = time.perf_counter() - start
    return wall, output, clock.samples


def _more(measured: float, last: float, seconds: float) -> bool:
    """Whether another pass (or pair) as long as ``last`` fits the budget.

    ``measured`` is the time the passes so far took.  A pass is started
    when it would end at most half a pass after ``seconds``, so a run
    measures ``seconds`` on average.
    """
    return measured + last / 2 < seconds


class SetupProbes:
    """Fresh-process set-up timings, taken between a run's passes.

    The host's speed wanders over seconds; probes spread over the run
    sample the same stretch of time as its passes, where back-to-back
    probes would sample one moment of it.
    """

    def __init__(self, name: str, seconds: float) -> None:
        self.name = name
        self.seconds = seconds
        self.samples: List[Tuple[float, float]] = []

    def take_due(self, measured: float) -> None:
        """Take the probes due once passes have run for ``measured`` s."""
        done = min(measured / self.seconds, 1.0) if self.seconds > 0 else 1.0
        while len(self.samples) < math.ceil(SETUP_PROBES * done):
            self.samples.append(_probe_setup(self.name))

    def metrics(self) -> Dict[str, float]:
        self.take_due(self.seconds)
        probes = self.samples
        return {
            "setup_s": statistics.median(i + b for i, b in probes),
            "setup.import_s": statistics.median(i for i, _ in probes),
            "setup.engine_build_s": statistics.median(b for _, b in probes),
        }


def run_end_to_end(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    _, _, workload = _timed_setup(name)
    probes = SetupProbes(name, seconds)
    checked = CheckedRun(workload, seed)
    walls: List[float] = []
    samples: List[float] = []
    work = None
    while not walls or _more(sum(walls), walls[-1], seconds):
        result = checked.run_pass()
        if result is None:
            break
        wall, output, items = result
        walls.append(wall)
        samples.extend(items)
        work = workload.work(output)
        probes.take_due(sum(walls))
    setup = probes.metrics()
    peak_mb = peak_rss_mb()
    attempted, failed = checked.finish()
    wall_s = statistics.median(walls)
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "reference": checked.has_reference,
        "passes": len(walls),
        "walls": walls,
        "items": len(samples),
        "metrics": {
            "setup_s": setup["setup_s"],
            "wall_s": wall_s,
            "item_ms_p50": 1000.0 * statistics.median(samples),
            "item_ms_p90": 1000.0 * statistics.quantiles(samples, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_mb,
        },
        "instr_per_s": work.instructions / wall_s if work.instructions else None,
        "cell_cycles_per_s": work.cell_cycles / wall_s if work.cell_cycles else None,
    }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from tracer import ROWS, Recorder

    _, _, workload = _timed_setup(name)
    probes = SetupProbes(name, seconds)
    checked = CheckedRun(workload, seed)
    bare: List[float] = []
    traced: List[Tuple[float, Any, float]] = []
    measured = 0.0
    while not traced or _more(measured, bare[-1] + traced[-1][0], seconds):
        untraced = checked.run_pass()
        recorder = Recorder()
        origin = time.perf_counter()
        result = checked.run_pass(recorder)
        if untraced is None or result is None:
            break
        bare.append(untraced[0])
        traced.append((result[0], recorder, origin))
        measured += untraced[0] + result[0]
        probes.take_due(measured)
    setup = probes.metrics()
    attempted, failed = checked.finish()
    if not traced:
        raise RuntimeError(f"no traced pass of {name} completed")

    traced.sort(key=lambda t: t[0])
    wall, recorder, origin = traced[(len(traced) - 1) // 2]
    rows, top = recorder.self_times()
    c = recorder.counts.get
    metrics: Dict[str, float] = {
        "setup.import_s": setup["setup.import_s"],
        "setup.engine_build_s": setup["setup.engine_build_s"],
        "traced_wall_s": wall,
        "untimed_s": wall - top,
        "obs.trace_overhead": wall / statistics.median(bare) - 1.0,
        "faults.mask.self_s": rows["faults.mask"],
        "faults.mask.calls": c("faults.mask.calls", 0),
        "faults.mask.uniforms_per_flip": _ratio(
            c("faults.mask.uniforms", 0), c("faults.mask.flips", 0)
        ),
        "faults.packing.self_s": rows["faults.packing"],
        "faults.campaign.self_s": rows["faults.campaign"],
        "kernels.self_s": rows["kernels"],
        "kernels.rows": c("kernels.rows", 0),
        "kernels.bytes_moved": c("kernels.bytes_moved", 0),
        "alu.batched.self_s": rows["alu.batched"],
        "alu.batched.rows": c("alu.batched.rows", 0),
        "logic.batched.self_s": rows["logic.batched"],
        "perf.executor.self_s": rows["perf.executor"],
        "perf.executor.unit_builds": c("perf.executor.unit_builds", 0),
        "cell.memword.self_s": rows["cell.memword"],
        "cell.memword.decodes": c("cell.memword.decodes", 0),
        "alu.scalar.self_s": rows["alu.scalar"],
        "alu.scalar.calls": c("alu.scalar.calls", 0),
        "cell.aluctrl.self_s": rows["cell.aluctrl"],
        "cell.aluctrl.disagree_ratio": _ratio(
            c("cell.aluctrl.disagreed", 0), c("cell.aluctrl.computed", 0)
        ),
        "grid.engine.step_self_s": rows["grid.engine.step"],
        "grid.engine.steps": c("grid.engine.steps", 0),
        "grid.engine.scheduler_self_s": rows["grid.engine.scheduler"],
        "grid.bus.self_s": rows["grid.bus"],
        "grid.bus.ticks": c("grid.bus.ticks", 0),
        "grid.control.self_s": rows["grid.control"],
        "grid.control.delivery_ratio": _ratio(
            c("grid.control.results", 0), c("grid.control.enqueued", 0)
        ),
        "grid.control.retransmissions": c("grid.control.retransmissions", 0),
        "grid.simulator.build_s": rows["grid.simulator"],
        "grid.watchdog.poll_self_s": rows["grid.watchdog.poll"],
        "grid.watchdog.polls": c("grid.watchdog.polls", 0),
        "grid.watchdog.probe_self_s": rows["grid.watchdog.probe"],
        "grid.watchdog.quarantines": c("grid.watchdog.quarantines", 0),
        "grid.watchdog.readmissions": c("grid.watchdog.readmissions", 0),
        "cell.heartbeat.self_s": rows["cell.heartbeat"],
        "cell.heartbeat.credited_beats": c("cell.heartbeat.credited_beats", 0),
    }
    BUILD.mkdir(parents=True, exist_ok=True)
    spans_path = BUILD / f"spans-{name}-seed{seed}.jsonl"
    recorder.write_jsonl(str(spans_path), origin)
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "reference": checked.has_reference,
        "passes": len(traced),
        "rows": [(row, rows[row]) for row in ROWS] + [("untimed", wall - top)],
        "spans": len(recorder.spans),
        "spans_path": str(spans_path.relative_to(ROOT)),
        "metrics": metrics,
    }


# ---------------------------------------------------------------- output


def _fmt(value: Optional[float], digits: int = 4) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1e5:
        return f"{value:.4g}"
    return f"{value:.{digits}f}"


def print_end_to_end(results: List[Dict[str, Any]]) -> None:
    header = (
        "workload", "setup_s", "wall_s", "instr_per_s", "cell_cycles_per_s",
        "item_ms_p50", "item_ms_p90", "items", "peak_rss_mb", "error_rate",
    )
    units = ("", "s", "s", "1/s", "1/s", "ms", "ms", "count", "MB", "ratio")
    table = [header, units]
    for r in results:
        m = r["metrics"]
        table.append((
            r["workload"], _fmt(m["setup_s"]), _fmt(m["wall_s"]),
            _fmt(r["instr_per_s"], 0), _fmt(r["cell_cycles_per_s"], 0),
            _fmt(m["item_ms_p50"], 3), _fmt(m["item_ms_p90"], 3),
            f"{r['items']} ({r['passes']} passes)", _fmt(m["peak_rss_mb"], 1),
            _fmt(r["failed"] / r["attempted"]),
        ))
    widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    for r in results:
        source = "recorded reference" if r["reference"] else "first pass + oracle"
        walls = " ".join(f"{w:.3f}" for w in r["walls"])
        print(f"{r['workload']}: pass wall_s {walls}; outputs checked against {source}")


def print_traced(results: List[Dict[str, Any]]) -> None:
    for r in results:
        m = r["metrics"]
        wall = m["traced_wall_s"]
        print(
            f"{r['workload']}: traced wall_s {wall:.4f} s, "
            f"obs.trace_overhead {m['obs.trace_overhead']:+.3f}, "
            f"{r['spans']} spans -> {r['spans_path']}"
        )
        total = 0.0
        for row, seconds in r["rows"]:
            total += seconds
            if seconds:
                print(f"  {row:<24} {seconds:10.4f} s  {100 * seconds / wall:6.1f}%")
        print(f"  {'sum':<24} {total:10.4f} s  {100 * total / wall:6.1f}%")
        counts = [
            (k, v) for k, v in m.items()
            if not k.endswith("_s") and k != "obs.trace_overhead" and v
        ]
        for key, value in counts:
            print(f"  {key:<32} {value:g}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare_environment()

    if args.setup_probe:
        import_s, build_s, _ = _timed_setup(args.workload)
        print(json.dumps({"import_s": import_s, "engine_build_s": build_s}))
        return 0

    import workloads

    names = workloads.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in workloads.WORKLOAD_NAMES:
            parser.error(f"unknown workload {name!r}; have {', '.join(workloads.WORKLOAD_NAMES)}")
    spec = declared()
    units = declared_units(spec)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    measure = run_traced if args.trace else run_end_to_end
    results = []
    for i, name in enumerate(names):
        if i:
            reset_peak_rss()
        results.append(measure(name, args.seed, seconds))
    if args.trace:
        print_traced(results)
    else:
        print_end_to_end(results)

    metrics: Dict[str, Any] = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for key, value in r["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
