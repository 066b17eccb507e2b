"""Compiled-kernel provider chain: generated C, else nothing.

A *provider* is a named evaluator over a lowered plan
(:mod:`repro.kernels.plan`).  Probing order:

1. **cc** -- the generated C kernel (:mod:`repro.kernels.cbuild`), when
   a C compiler is on PATH;
2. none -- the compiled tier is unavailable and callers degrade to the
   batched NumPy tier (silently under ``auto``; with a one-time stderr
   warning when ``compiled`` was requested explicitly).

Every probe failure is captured, never raised: a missing or broken
toolchain can only cost speed, not correctness.  Probing is cached per
process; tests monkeypatch :func:`_build_cc` and call
:func:`reset_provider_cache` to exercise the degradation path.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.obs import get_observer


@dataclass(frozen=True)
class KernelProvider:
    """One live compiled-tier executor."""

    name: str  # "cc"
    eval_fn: Callable
    select_fn: Callable  # exact-fraction mask selection (cbuild.load_kernel)
    compile_seconds: float


#: Sentinel distinguishing "not probed yet" from "probed, unavailable".
_UNPROBED = object()

_provider = _UNPROBED
_failures: List[str] = []
_warned = False


def _build_cc() -> KernelProvider:
    """The generated-and-cached C extension via ctypes."""
    from repro.kernels.cbuild import build_library, load_kernel, self_test
    from repro.kernels.csrc import c_source

    start = time.perf_counter()
    eval_fn, select_fn = load_kernel(build_library(c_source()))
    self_test(eval_fn, select_fn)
    return KernelProvider(
        name="cc",
        eval_fn=eval_fn,
        select_fn=select_fn,
        compile_seconds=time.perf_counter() - start,
    )


def get_provider() -> Optional[KernelProvider]:
    """The process's compiled-tier provider, or ``None`` if unavailable.

    The first call probes (and compiles); the verdict is cached.
    Compile time lands on the ``kernel.jit_compile`` observability timer
    -- *outside* every campaign trial timer, so benchmark numbers never
    include first-call warmup.
    """
    global _provider
    if _provider is _UNPROBED:
        _provider = _probe()
    return _provider


def _probe() -> Optional[KernelProvider]:
    obs = get_observer()
    try:
        with obs.metrics.time("kernel.jit_compile"):
            provider = _build_cc()
    except Exception as exc:  # noqa: BLE001 - any failure means "none"
        _failures.append(f"cc: {exc!r}")
        obs.metrics.counter("kernel.provider.none").inc()
        return None
    obs.metrics.counter(f"kernel.provider.{provider.name}").inc()
    return provider


def provider_failures() -> List[str]:
    """Why each probed provider was rejected (diagnostics/tests)."""
    return list(_failures)


def reset_provider_cache() -> None:
    """Forget the probe verdict and warning state (tests only)."""
    global _provider, _warned
    _provider = _UNPROBED
    _failures.clear()
    _warned = False


def warn_compiled_unavailable(reason: str = "") -> None:
    """One-time stderr notice that an explicit ``compiled`` request fell
    back to the batched tier.  ``auto`` selection never calls this."""
    global _warned
    if _warned:
        return
    _warned = True
    detail = f" ({reason})" if reason else ""
    print(
        "repro.kernels: compiled backend unavailable"
        f"{detail}; falling back to the batched NumPy tier. "
        "Results are bit-identical, only slower.",
        file=sys.stderr,
    )
