"""Provider probing and graceful degradation of the compiled tier.

The chain is generated C -> none; any failure is captured, not
raised.  ``auto`` degrades silently; an explicit ``compiled`` request
warns exactly once on stderr.  The probe verdict is cached per process,
so each test resets the cache around its monkeypatching (and the module
restores the real verdict afterwards for the rest of the suite).
"""

import numpy as np
import pytest

from repro.faults.campaign import FaultCampaign
from repro.faults.mask import ExactFractionMask
from repro.kernels import get_provider, provider_failures, reset_provider_cache
from repro.kernels import providers as providers_mod
from repro.kernels.cbuild import KernelBuildError
from repro.perf.spec import ALUSpec
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads


@pytest.fixture(autouse=True)
def fresh_probe():
    """Each test probes from scratch; the real verdict returns afterwards."""
    reset_provider_cache()
    yield
    reset_provider_cache()
    get_provider()  # re-warm for subsequent test modules


def _no_cc():
    raise KernelBuildError("no C compiler on PATH")


class TestProviderChain:
    def test_no_provider_at_all(self, monkeypatch):
        monkeypatch.setattr(providers_mod, "_build_cc", _no_cc)
        assert get_provider() is None
        failures = provider_failures()
        assert len(failures) == 1
        assert failures[0].startswith("cc: ")

    def test_probe_verdict_is_cached(self, monkeypatch):
        calls = []

        def counting_cc():
            calls.append(1)
            _no_cc()

        monkeypatch.setattr(providers_mod, "_build_cc", counting_cc)
        assert get_provider() is None
        assert get_provider() is None
        assert len(calls) == 1


    def test_wrong_select_fails_the_self_test(self, monkeypatch):
        """A kernel whose mask selection disagrees with the NumPy rule is
        rejected by the probe, like a wrong plan executor."""
        from repro.kernels import cbuild

        real_load = cbuild.load_kernel

        def skewed_load(lib_path):
            eval_fn, select_fn = real_load(lib_path)

            def off_by_one(block, n_sites, base, remainder):
                return select_fn(block, n_sites, base + 1, remainder)

            return eval_fn, off_by_one

        monkeypatch.setattr(cbuild, "load_kernel", skewed_load)
        assert get_provider() is None
        failures = provider_failures()
        assert len(failures) == 1
        assert failures[0].startswith("cc: ")
        assert "mask selection" in failures[0]


class TestDegradedCampaigns:
    @pytest.fixture
    def dead_tier(self, monkeypatch):
        monkeypatch.setattr(providers_mod, "_build_cc", _no_cc)

    @pytest.fixture
    def campaign(self):
        return FaultCampaign(
            ALUSpec.variant("alunn").build(), ExactFractionMask(0.05), seed=3
        )

    def test_auto_degrades_silently(self, dead_tier, campaign, capsys):
        assert campaign.resolve_backend("auto") == "batched"
        assert capsys.readouterr().err == ""

    def test_explicit_compiled_warns_once(self, dead_tier, campaign, capsys):
        assert campaign.resolve_backend("compiled") == "batched"
        first = capsys.readouterr().err
        assert "compiled backend unavailable" in first
        assert campaign.resolve_backend("compiled") == "batched"
        assert capsys.readouterr().err == ""

    def test_degraded_results_identical(self, dead_tier, campaign):
        workloads = paper_workloads(gradient(4, 4))
        degraded = campaign.run_workload_suite(workloads, 1, backend="compiled")
        batched = campaign.run_workload_suite(workloads, 1, backend="batched")
        assert degraded.trials == batched.trials

    def test_unsupported_unit_with_live_provider_is_silent(self, capsys):
        """Provider is live but the unit has no lowered form: mirrors the
        batched tier's silent scalar fallback, no warning."""
        assert get_provider() is not None
        campaign = FaultCampaign(
            ALUSpec.simplex("hamming-sec").build(),
            ExactFractionMask(0.05),
            seed=3,
        )
        assert campaign.resolve_backend("compiled") == "batched"
        assert capsys.readouterr().err == ""


class TestWarmupAccounting:
    def test_compile_time_lands_on_jit_timer(self):
        """First-call JIT/compile cost is excluded from trial timers by
        recording it under kernel.jit_compile / kernel.warmup instead."""
        from repro.kernels import build_compiled_unit
        from repro.obs import Observer, observing

        obs = Observer()
        with observing(obs):
            reset_provider_cache()
            assert get_provider() is not None
            engine = build_compiled_unit(ALUSpec.variant("alunn").build())
            assert engine is not None
            snapshot = obs.metrics.snapshot()
        timers = set(snapshot["histograms"])
        assert "kernel.jit_compile" in timers
        assert "kernel.warmup" in timers
        # No campaign trial timer fired during compile/warmup.
        assert not any(n.startswith("campaign.trial") for n in timers)
        assert snapshot["counters"]["kernel.provider.cc"] >= 1
        assert snapshot["counters"]["kernel.engines_built"] >= 1
