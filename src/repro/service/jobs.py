"""Job model: what the service runs, keyed the way checkpoints are.

A :class:`JobSpec` is a *validated, whitelisted* description of one
CLI-equivalent run -- kind (``sweep``/``grid``/``chaos``/``lifecycle``)
plus parameters.  The whitelist matters: the HTTP boundary must never
let a client smuggle arbitrary argv into a child process, so every
parameter is declared in :data:`PARAM_SPECS` with a type, an optional
value domain, and the exact flag it lowers to.  Anything else is a
validation error (HTTP 400), not a shell opportunity.

The **cache key** is the canonical :func:`repro.obs.provenance.
config_hash` of ``{"service-job": kind, "argv": spec.to_argv()}`` --
the same provenance discipline PR 5 gave artifacts and PR 6 gave
checkpoint run keys.  Because the argv is derived in a fixed parameter
order with defaults elided, two requests that mean the same run hash
identically regardless of JSON key order or explicit-vs-default
booleans, which is what makes result caching and single-flight
deduplication collapse them.

Resilience flags (checkpoint dir, resume, deadline) are deliberately
*not* part of the spec or its key: they change how a run executes, not
what it computes, exactly as the PR 7 backend seam is excluded from
checkpoint run keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.provenance import config_hash

__all__ = [
    "JOB_KINDS",
    "PARAM_SPECS",
    "JobRecord",
    "JobSpec",
    "JobState",
    "job_cache_key",
]

#: Job kinds the service accepts, in documentation order.  Each maps to
#: the CLI subcommand of the same name (all four are crash-safe: they
#: accept ``--checkpoint-dir/--resume/--deadline``).
JOB_KINDS = ("sweep", "grid", "chaos", "lifecycle")

_KILL_RE = re.compile(r"^\d+,\d+@\d+$")


def _int(minimum: Optional[int] = None, maximum: Optional[int] = None):
    def convert(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValueError(f"must be <= {maximum}, got {value}")
        return value

    return convert


def _float(minimum: Optional[float] = None):
    def convert(value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return float(value)

    return convert


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


def _choice(*allowed: str):
    def convert(value: Any) -> str:
        if value not in allowed:
            raise ValueError(f"expected one of {allowed}, got {value!r}")
        return str(value)

    return convert


def _list_of(item: Callable[[Any], Any], max_items: int = 32):
    def convert(value: Any) -> List[Any]:
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"expected a non-empty list, got {value!r}")
        if len(value) > max_items:
            raise ValueError(f"at most {max_items} items, got {len(value)}")
        return [item(v) for v in value]

    return convert


def _kill_spec(value: Any) -> str:
    if not isinstance(value, str) or not _KILL_RE.match(value):
        raise ValueError(
            f"expected 'row,col@cycle' (e.g. '1,1@40'), got {value!r}"
        )
    return value


#: ``kind -> (param -> (flag, converter, multivalue))``, in the fixed
#: order the canonical argv is assembled.  ``multivalue`` flags take a
#: list and lower to ``--flag v1 v2 ...``; boolean params lower to the
#: bare flag when true and nothing when false.
PARAM_SPECS: Dict[str, Dict[str, Tuple[str, Callable[[Any], Any], bool]]] = {
    "sweep": {
        "figure": ("--figure", _int(7, 9), False),
        "quick": ("--quick", _bool, False),
        "trials": ("--trials", _int(1, 100), False),
        "seed": ("--seed", _int(), False),
        "jobs": ("--jobs", _int(1, 64), False),
        "backend": ("--backend", _choice(
            "scalar", "batched", "compiled", "auto"
        ), False),
    },
    "grid": {
        "rows": ("--rows", _int(1, 64), False),
        "cols": ("--cols", _int(1, 64), False),
        "scheme": ("--scheme", _choice(
            "none", "parity", "hamming", "hsiao", "tmr", "5mr", "7mr"
        ), False),
        "workload": ("--workload", _choice(
            "reverse_video", "hue_shift", "brightness_boost", "threshold_mask"
        ), False),
        "image_size": ("--image-size", _int(1, 64), False),
        "fault_percent": ("--fault-percent", _float(0.0), False),
        "kill": ("--kill", _kill_spec, True),
        "adaptive": ("--adaptive", _bool, False),
        "rounds": ("--rounds", _int(1, 100), False),
        "seed": ("--seed", _int(), False),
    },
    "chaos": {
        "rates": ("--rates", _list_of(_float(0.0)), False),
        "rounds": ("--rounds", _list_of(_int(1, 16)), False),
        "drop_rate": ("--drop-rate", _float(0.0), False),
        "stall_rate": ("--stall-rate", _float(0.0), False),
        "rows": ("--rows", _int(1, 64), False),
        "cols": ("--cols", _int(1, 64), False),
        "instructions": ("--instructions", _int(1, 10000), False),
        "seed": ("--seed", _int(), False),
    },
    "lifecycle": {
        "processes": ("--processes", _list_of(_choice(
            "transient", "intermittent", "permanent"
        )), False),
        "rate": ("--rate", _float(0.0), False),
        "burst_length": ("--burst-length", _int(1, 1000), False),
        "decay": ("--decay", _float(0.0), False),
        "jobs": ("--jobs", _int(1, 64), False),
        "instructions": ("--instructions", _int(1, 10000), False),
        "rows": ("--rows", _int(1, 64), False),
        "cols": ("--cols", _int(1, 64), False),
        "seed": ("--seed", _int(), False),
    },
}

#: The ``--kill`` flag repeats per occurrence rather than taking a list.
_REPEATED_FLAGS = {"--kill"}


@dataclass(frozen=True)
class JobSpec:
    """One validated, cache-keyable job description.

    Build through :meth:`from_request` at the HTTP boundary (raises
    ``ValueError`` with a client-presentable message on anything off
    the whitelist); construct directly only from trusted code.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def from_request(
        cls, kind: Any, params: Optional[Mapping[str, Any]] = None
    ) -> "JobSpec":
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; valid kinds: {list(JOB_KINDS)}"
            )
        specs = PARAM_SPECS[kind]
        params = dict(params or {})
        normalized: List[Tuple[str, Any]] = []
        for name in specs:  # fixed declaration order => canonical argv
            if name not in params:
                continue
            _, convert, multivalue = specs[name]
            raw = params.pop(name)
            try:
                if multivalue:
                    value = _list_of(convert)(raw)
                else:
                    value = convert(raw)
            except ValueError as exc:
                raise ValueError(f"parameter {name!r}: {exc}") from None
            if value is False:
                continue  # an absent boolean flag, canonically
            if isinstance(value, list):
                value = tuple(value)
            normalized.append((name, value))
        if params:
            raise ValueError(
                f"unknown parameter(s) for {kind!r}: {sorted(params)}; "
                f"allowed: {sorted(specs)}"
            )
        return cls(kind=kind, params=tuple(normalized))

    def param_dict(self) -> Dict[str, Any]:
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in self.params
        }

    def to_argv(self) -> List[str]:
        """The exact child CLI argv this spec lowers to (canonical)."""
        argv: List[str] = [self.kind]
        specs = PARAM_SPECS[self.kind]
        for name, value in self.params:
            flag = specs[name][0]
            if value is True:
                argv.append(flag)
            elif isinstance(value, tuple):
                if flag in _REPEATED_FLAGS:
                    for item in value:
                        argv.extend((flag, _argv_str(item)))
                else:
                    argv.append(flag)
                    argv.extend(_argv_str(item) for item in value)
            else:
                argv.extend((flag, _argv_str(value)))
        return argv

    @property
    def cache_key(self) -> str:
        return job_cache_key(self)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.param_dict()}

    @classmethod
    def from_json(cls, document: Mapping[str, Any]) -> "JobSpec":
        return cls.from_request(
            document.get("kind"), document.get("params") or {}
        )


def _argv_str(value: Any) -> str:
    """Canonical string form of one argv value (floats via ``repr``-g)."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def job_cache_key(spec: JobSpec) -> str:
    """Content address of a job's result: canonical config hash.

    Derived from the canonical argv, so any two requests that lower to
    the same child command share one key -- the property the result
    cache, single-flight dedup, and checkpoint-directory sharing all
    rely on.
    """
    return config_hash({"service-job": spec.kind, "argv": spec.to_argv()})


class JobState:
    """The job lifecycle (string constants; journaled verbatim)::

        QUEUED ──► RUNNING ──► DONE       (artifact cached)
           │          │  ├───► PARTIAL    (deadline; artifact job-local)
           │          │  ├───► FAILED     (attempts exhausted / breaker)
           │          │  └───► QUEUED     (drain / worker death: requeued)
           └──────────┴──────► CANCELLED
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    PARTIAL = "partial"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job never leaves.
    TERMINAL = (DONE, PARTIAL, FAILED, CANCELLED)

    #: States the startup recovery scan re-enqueues.
    RESUMABLE = (QUEUED, RUNNING)


@dataclass
class JobRecord:
    """One job's full service-side history (journaled on every change).

    Timestamps are wall-clock (``time.time``) because they must stay
    meaningful across a server restart; everything latency-sensitive
    uses the manager's injected monotonic clock instead.
    """

    id: str
    spec: JobSpec
    cache_key: str
    state: str = JobState.QUEUED
    outcome: str = "fresh"  # "fresh" | "cached" | "resumed"
    attempts: int = 0
    deadline: Optional[float] = None
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    exit_status: Optional[int] = None
    error: Optional[str] = None
    result_bytes: Optional[int] = None
    result_sha256: Optional[str] = None
    incomplete: bool = False
    requeues: int = 0
    stderr_tail: str = ""

    def to_json(self) -> Dict[str, Any]:
        document = {
            "schema": "repro.service.job",
            "schema_version": 1,
            "id": self.id,
            "spec": self.spec.to_json(),
            "cache_key": self.cache_key,
            "state": self.state,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "deadline": self.deadline,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "exit_status": self.exit_status,
            "error": self.error,
            "result_bytes": self.result_bytes,
            "result_sha256": self.result_sha256,
            "incomplete": self.incomplete,
            "requeues": self.requeues,
            "stderr_tail": self.stderr_tail,
        }
        return document

    @classmethod
    def from_json(cls, document: Mapping[str, Any]) -> "JobRecord":
        spec = JobSpec.from_json(document["spec"])
        record = cls(
            id=str(document["id"]),
            spec=spec,
            cache_key=str(document.get("cache_key") or spec.cache_key),
        )
        for name in (
            "state", "outcome", "attempts", "deadline", "submitted_at",
            "started_at", "finished_at", "exit_status", "error",
            "result_bytes", "result_sha256", "incomplete", "requeues",
            "stderr_tail",
        ):
            if name in document:
                setattr(record, name, document[name])
        return record
