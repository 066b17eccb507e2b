"""Compiled kernel tier: the raw-speed backend below the NumPy engine.

Three evaluation tiers share one contract -- bit- and stream-identical
``TrialResult``s for the same ``(seed, workload, trial)``:

* **scalar** -- the reference object graph, one instruction at a time;
* **batched** -- the vectorized NumPy engine (:mod:`repro.alu.batched`);
* **compiled** -- a lowered plan (:mod:`repro.kernels.plan`) run by a
  generated-and-cached C extension loaded via ``ctypes``
  (:mod:`repro.kernels.cbuild`).

``auto`` resolves to the fastest tier available at runtime; explicit
``compiled`` requests degrade to ``batched`` with a one-time stderr
warning when no C compiler is available.  The tier is chosen where a
campaign runs (:meth:`repro.faults.campaign.FaultCampaign.resolve_backend`)
and surfaced as ``sweep --backend`` and the ``REPRO_BACKEND``
environment variable.  Grid cells always run the scalar unit.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.engine import CompiledEngine, build_compiled_unit
from repro.kernels.plan import KernelPlan, build_plan
from repro.kernels.providers import (
    KernelProvider,
    get_provider,
    provider_failures,
    reset_provider_cache,
    warn_compiled_unavailable,
)

#: The backend seam's vocabulary, in increasing order of ambition.
BACKENDS = ("scalar", "batched", "compiled", "auto")

#: Environment default for ``sweep --backend`` (the flag still wins).
BACKEND_ENV = "REPRO_BACKEND"


def resolve_backend(backend: Optional[str]) -> str:
    """Canonicalise a backend request; ``None`` selects ``"scalar"``.

    ``"auto"`` stays symbolic here; it is resolved per *unit* (compiled
    when the unit lowers and a provider is live, batched otherwise).
    """
    if backend is None:
        return "scalar"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; valid: {BACKENDS}"
        )
    return backend


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "CompiledEngine",
    "KernelPlan",
    "KernelProvider",
    "build_compiled_unit",
    "build_plan",
    "get_provider",
    "provider_failures",
    "reset_provider_cache",
    "resolve_backend",
    "warn_compiled_unavailable",
]
