"""Span recorder and item clock, installed from outside the program.

Both work by replacing a layer's public entry point, at the attribute of
the class or module it is looked up through, with a wrapper; the
original is put back when the ``with`` block ends.  Nothing under
``src/`` is changed.

* :class:`Recorder` keeps one span per wrapped call -- name, start, end,
  parent span and item id -- in memory, plus counts taken from each
  call's arguments and return value.  A span's self time is its duration
  minus its direct children's, so the self times of all spans in a pass
  add up to the time covered by its top-level spans; ``untimed_s`` is
  the rest of the pass.
* :class:`ItemClock` times only the call that makes up one item (a
  campaign point, an image job, a fleet region), so untraced runs can
  report per-item latency while adding one wrapper call per item.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

_clock = time.perf_counter


def resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(
                f"{path}: {owner.__name__} no longer defines {attr!r}; "
                "the benchmark's entry-point table needs updating"
            )
    elif not hasattr(owner, attr):
        raise AttributeError(f"{path}: no attribute {attr!r}")
    return owner, attr


@contextmanager
def patched(replacements: Sequence[Tuple[str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Wrap each ``path``'s function with ``make(original)``; restore after."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for path, make in replacements:
            owner, attr = resolve(path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --------------------------------------------------------------- tracing


class _CountingGenerator:
    """Forwards to a NumPy ``Generator``, counting the values it draws."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.drawn = 0

    def __getattr__(self, name: str) -> Any:
        target = getattr(self._rng, name)
        if not callable(target):
            return target

        def draw(*args: Any, **kwargs: Any) -> Any:
            out = target(*args, **kwargs)
            self.drawn += int(np.size(out))
            return out

        return draw


def _count_mask(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
    self, n_sites, n_draws, rng = args
    counting = _CountingGenerator(rng)
    words = fn(self, n_sites, n_draws, counting, **kwargs)
    rec.add("faults.mask.calls", 1)
    rec.add("faults.mask.uniforms", counting.drawn)
    rec.add("faults.mask.flips", int(np.bitwise_count(words).sum()))
    return words


def _count_kernel(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
    values = fn(*args, **kwargs)
    _self, ops, a, b, words = args
    rec.add("kernels.rows", int(ops.shape[0]))
    rec.add(
        "kernels.bytes_moved",
        int(ops.nbytes + a.nbytes + b.nbytes + words.nbytes + values.nbytes),
    )
    return values


def _count_batched(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
    values = fn(*args, **kwargs)
    rec.add("alu.batched.rows", int(np.shape(args[1])[0]))
    return values


def _count_calls(key: str) -> Callable:
    def count(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
        out = fn(*args, **kwargs)
        rec.add(key, 1)
        return out

    return count


def _count_aluctrl(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
    report = fn(*args, **kwargs)
    if report.result_copies is not None:
        rec.add("cell.aluctrl.computed", 1)
        if report.copies_disagree:
            rec.add("cell.aluctrl.disagreed", 1)
    return report


def _count_job(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
    job = fn(*args, **kwargs)
    rec.add("grid.control.jobs", 1)
    rec.add("grid.control.results", len(job.results))
    rec.add("grid.control.enqueued", job.delivery.enqueued)
    rec.add("grid.control.retransmissions", job.delivery.retransmissions)
    return job


def _count_poll(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
    reports = fn(*args, **kwargs)
    rec.add("grid.watchdog.polls", 1)
    rec.add("grid.watchdog.quarantines", len(reports))
    return reports


def _count_probe(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
    from repro.grid.watchdog import CellState

    reports = fn(*args, **kwargs)
    rec.add(
        "grid.watchdog.readmissions",
        sum(1 for r in reports if r.outcome is CellState.ACTIVE),
    )
    return reports


def _count_beats(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict) -> Any:
    out = fn(*args, **kwargs)
    rec.add("cell.heartbeat.credited_beats", int(args[1]))
    return out


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped public entry point and the share-table row it feeds."""

    path: str
    row: str
    count: Optional[Callable] = None


#: Every layer entry point the traced run wraps.  ``pack_flags`` and
#: ``unpack_flags`` are imported by name into ``faults.mask`` and
#: ``faults.campaign``, and ``run_campaign_items`` into
#: ``experiments.figures``, so they are wrapped where they are looked up.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("repro.faults.mask:ExactFractionMask.generate_batch", "faults.mask", _count_mask),
    EntryPoint("repro.faults.mask:pack_flags", "faults.packing"),
    EntryPoint("repro.faults.campaign:unpack_flags", "faults.packing"),
    EntryPoint("repro.faults.campaign:FaultCampaign.run_workload_suite", "faults.campaign"),
    EntryPoint("repro.kernels.engine:CompiledEngine.values_words", "kernels", _count_kernel),
    EntryPoint("repro.alu.batched:BatchedEngine.values", "alu.batched", _count_batched),
    EntryPoint("repro.logic.batched:BatchedNetlist.evaluate", "logic.batched"),
    EntryPoint("repro.experiments.figures:run_campaign_items", "perf.executor"),
    EntryPoint("repro.perf.spec:ALUSpec.build", "perf.executor", _count_calls("perf.executor.unit_builds")),
    EntryPoint("repro.grid.simulator:GridSimulator.__init__", "grid.simulator"),
    EntryPoint("repro.grid.control:ControlProcessor.run_job", "grid.control", _count_job),
    EntryPoint("repro.grid.engine:SparseGrid.step", "grid.engine.step", _count_calls("grid.engine.steps")),
    EntryPoint("repro.grid.engine:TemporalScheduler.tick", "grid.engine.scheduler"),
    EntryPoint("repro.grid.bus:Bus.tick", "grid.bus", _count_calls("grid.bus.ticks")),
    EntryPoint("repro.grid.watchdog:Watchdog.poll", "grid.watchdog.poll", _count_poll),
    EntryPoint("repro.grid.watchdog:Watchdog.probe_quarantined", "grid.watchdog.probe", _count_probe),
    EntryPoint("repro.cell.memory:CellMemory.read", "cell.memword", _count_calls("cell.memword.decodes")),
    EntryPoint("repro.cell.aluctrl:ALUControl.step", "cell.aluctrl", _count_aluctrl),
    EntryPoint("repro.alu.nanobox:NanoBoxALU.compute", "alu.scalar", _count_calls("alu.scalar.calls")),
    EntryPoint("repro.cell.heartbeat:Heartbeat.credit_beats", "cell.heartbeat", _count_beats),
)

SPAN_FIELDS = ["id", "name", "start", "end", "parent", "item"]

#: Share-table rows, in print order.
ROWS: Tuple[str, ...] = tuple(dict.fromkeys(e.row for e in ENTRY_POINTS))


class Recorder:
    """In-memory spans and boundary counts for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = [e.path for e in ENTRY_POINTS]
        #: ``[name id, start, end, parent index or -1, item id]``
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self.item: Optional[str] = None
        self.counts: Dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrapper(self, name_id: int) -> Callable[[Callable], Callable]:
        spans, stack, count = self.spans, self._stack, ENTRY_POINTS[name_id].count

        def make(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = _clock()
                try:
                    if count is None:
                        return fn(*args, **kwargs)
                    return count(self, fn, args, kwargs)
                finally:
                    end = _clock()
                    stack.pop()
                    spans[index] = (name_id, start, end, parent, self.item)

            return traced

        return make

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        with patched([(e.path, self._wrapper(i)) for i, e in enumerate(ENTRY_POINTS)]):
            yield self

    # ------------------------------------------------------------ analysis

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Per-row self seconds and the summed top-level span seconds."""
        durations = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        top = 0.0
        for span, duration in zip(self.spans, durations):
            if span[3] < 0:
                top += duration
            else:
                child[span[3]] += duration
        rows = {row: 0.0 for row in ROWS}
        for span, duration, covered in zip(self.spans, durations, child):
            rows[ENTRY_POINTS[span[0]].row] += duration - covered
        return rows, top

    def write_jsonl(self, path: str, origin: float) -> None:
        """Spans as JSON lines, times in seconds from ``origin``.

        The first line names the fields and the entry points; each
        further line is one span ``[id, name index, start, end, parent
        id or null, item id]``, in the order the spans opened.
        """
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": SPAN_FIELDS, "names": self.names}) + "\n")
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                record = [
                    index,
                    name,
                    round(start - origin, 9),
                    round(end - origin, 9),
                    None if parent < 0 else parent,
                    item,
                ]
                out.write(json.dumps(record) + "\n")


# ------------------------------------------------------------ item clock


class ItemClock:
    """Per-item latency samples, and the current item id for spans.

    An item is one call of the entry point at ``path``; its latency runs
    from entry to return.
    """

    def __init__(self, path: str, names: Sequence[str],
                 recorder: Optional[Recorder] = None) -> None:
        self._path = path
        self._names = list(names)
        self._recorder = recorder
        self.samples: List[float] = []

    def _make(self, fn: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            index = len(self.samples)
            if self._recorder is not None:
                self._recorder.item = (
                    self._names[index] if index < len(self._names) else f"#{index}"
                )
            start = _clock()
            out = fn(*args, **kwargs)
            self.samples.append(_clock() - start)
            return out

        return timed

    @contextmanager
    def installed(self) -> Iterator["ItemClock"]:
        with patched([(self._path, self._make)]):
            yield self
