"""Unit tests for the Monte Carlo campaign runner."""

import pytest

from repro.alu.variants import build_alu
from repro.faults.campaign import CampaignResult, FaultCampaign, TrialResult
from repro.faults.mask import ExactFractionMask, FixedCountMask


@pytest.fixture(scope="module")
def streams(request):
    from repro.workloads.bitmap import gradient
    from repro.workloads.imaging import paper_workloads

    return paper_workloads(gradient(8, 8))


class TestTrialResult:
    def test_percent(self):
        assert TrialResult(64, 63, 0).percent_correct == pytest.approx(
            100 * 63 / 64
        )

    def test_empty_workload(self):
        assert TrialResult(0, 0, 0).percent_correct == 100.0


class TestZeroFaults:
    def test_all_variants_score_100(self, streams):
        for name in ("aluncmos", "alunn", "aluss"):
            campaign = FaultCampaign(
                build_alu(name), ExactFractionMask(0.0), seed=1
            )
            result = campaign.run_workload_suite(streams, 2)
            assert result.percent_correct == 100.0
            assert result.total_injected_faults == 0


class TestDeterminism:
    def test_same_seed_same_result(self, streams):
        alu = build_alu("alunn")
        r1 = FaultCampaign(alu, ExactFractionMask(0.05), seed=42).run_trials(
            streams["hue_shift"], 3
        )
        r2 = FaultCampaign(alu, ExactFractionMask(0.05), seed=42).run_trials(
            streams["hue_shift"], 3
        )
        assert [t.correct for t in r1.trials] == [t.correct for t in r2.trials]

    def test_different_seeds_draw_different_masks(self):
        import numpy as np

        policy = ExactFractionMask(0.05)
        masks_a = [
            policy.generate(512, np.random.default_rng([1, t])) for t in range(8)
        ]
        masks_b = [
            policy.generate(512, np.random.default_rng([2, t])) for t in range(8)
        ]
        assert masks_a != masks_b

    def test_trials_are_independent_streams(self, streams):
        alu = build_alu("alunn")
        campaign = FaultCampaign(alu, ExactFractionMask(0.10), seed=0)
        result = campaign.run_trials(streams["hue_shift"], 5)
        scores = [t.correct for t in result.trials]
        assert len(set(scores)) > 1  # not all identical


class TestScoring:
    def test_injected_fault_accounting(self, streams):
        alu = build_alu("alunn")  # 512 sites
        campaign = FaultCampaign(alu, FixedCountMask(3), seed=0)
        trial = campaign.run_workload(streams["reverse_video"])
        assert trial.injected_faults == 3 * 64

    def test_fixed_count_zero_perfect(self, streams):
        alu = build_alu("aluns")
        trial = FaultCampaign(alu, FixedCountMask(0), seed=0).run_workload(
            streams["reverse_video"]
        )
        assert trial.percent_correct == 100.0

    def test_suite_pools_all_trials(self, streams):
        alu = build_alu("aluns")
        result = FaultCampaign(alu, ExactFractionMask(0.01), seed=3).run_workload_suite(
            streams, trials_per_workload=5
        )
        assert result.stats.n == 10  # paper: 5 trials x 2 workloads

    def test_invalid_trial_count(self, streams):
        campaign = FaultCampaign(build_alu("alunn"), ExactFractionMask(0.0))
        with pytest.raises(ValueError):
            campaign.run_trials(streams["hue_shift"], 0)


class TestPaperOrdering:
    def test_tmr_beats_nocode_beats_cmos_at_3pct(self, streams):
        """The Figure 7 ranking at 3% injected faults."""
        scores = {}
        for name in ("aluncmos", "alunn", "aluns"):
            campaign = FaultCampaign(
                build_alu(name), ExactFractionMask(0.03), seed=7
            )
            scores[name] = campaign.run_workload_suite(streams, 5).percent_correct
        assert scores["aluns"] > scores["alunn"] > scores["aluncmos"]

    def test_hamming_below_nocode(self, streams):
        """The paper's surprising result: alunh < alunn."""
        scores = {}
        for name in ("alunh", "alunn"):
            campaign = FaultCampaign(
                build_alu(name), ExactFractionMask(0.02), seed=8
            )
            scores[name] = campaign.run_workload_suite(streams, 5).percent_correct
        assert scores["alunh"] < scores["alunn"]


class TestLayerTimers:
    """Suite timers split into mask drawing and unit evaluation, so an
    observed sweep reports where its time went."""

    @pytest.mark.parametrize(
        "backend, parent",
        [
            ("batched", "campaign.trial_batched"),
            ("compiled", "campaign.suite_compiled"),
        ],
    )
    def test_mask_and_eval_children(self, streams, backend, parent):
        from repro.kernels import get_provider
        from repro.obs import Observer, observing

        if backend == "compiled":
            assert get_provider() is not None
        campaign = FaultCampaign(
            build_alu("alunn"), ExactFractionMask(0.03), seed=4
        )
        obs = Observer()
        with observing(obs):
            campaign.run_workload_suite(streams, 2, backend=backend)
        timers = {h.name: h for h in obs.metrics.histograms()}
        runs = 4 if backend == "batched" else 1
        for name in (parent, "campaign.mask_draw", "campaign.kernel_eval"):
            assert timers[name].count == runs
        children = (
            timers["campaign.mask_draw"].total
            + timers["campaign.kernel_eval"].total
        )
        assert children <= timers[parent].total
