"""Unit tests for the ALU control loop."""

import numpy as np
import pytest

from repro.alu.nanobox import NanoBoxALU
from repro.cell.aluctrl import ALUControl, StepOutcome
from repro.cell.memory import CellMemory
from repro.cell.lutctrl import LUTFieldVoter
from repro.cell.memword import DATA_VALID_OFFSET, MemoryWord
from repro.faults.mask import ExactFractionMask


def pending_word(iid, op=0b010, a=0x0F, b=0xFF):
    return MemoryWord(
        instruction_id=iid,
        opcode=op,
        operand1=a,
        operand2=b,
        data_valid=True,
        to_be_computed=True,
    )


def make_ctrl(n_words=8, mask_source=None):
    memory = CellMemory(n_words)
    alu = NanoBoxALU(scheme="tmr")
    if mask_source is None:
        ctrl = ALUControl(memory, alu)
    else:
        ctrl = ALUControl(memory, alu, mask_source)
    return memory, ctrl


class TestStep:
    def test_skips_empty_words(self):
        _, ctrl = make_ctrl()
        report = ctrl.step()
        assert report.outcome is StepOutcome.SKIPPED
        assert ctrl.computed_total == 0

    def test_computes_pending_word(self):
        memory, ctrl = make_ctrl()
        memory.write(0, pending_word(5))
        report = ctrl.step()
        assert report.outcome is StepOutcome.COMPUTED
        assert report.result_copies == (0x0F ^ 0xFF,) * 3
        stored = memory.read(0)
        assert stored.result == 0x0F ^ 0xFF
        assert not stored.to_be_computed
        assert stored.data_valid  # stays valid for shift-out

    def test_does_not_recompute(self):
        memory, ctrl = make_ctrl(n_words=1)
        memory.write(0, pending_word(5))
        ctrl.step()
        assert ctrl.step().outcome is StepOutcome.SKIPPED
        assert ctrl.computed_total == 1

    def test_pointer_wraps(self):
        memory, ctrl = make_ctrl(n_words=2)
        assert ctrl.pointer == 0
        ctrl.step()
        ctrl.step()
        assert ctrl.pointer == 0

    def test_rejects_corrupt_opcode(self):
        memory, ctrl = make_ctrl()
        bad = MemoryWord(
            instruction_id=1,
            opcode=0b011,  # not in the ISA
            operand1=1,
            operand2=2,
            data_valid=True,
            to_be_computed=True,
        )
        memory.write(0, bad)
        report = ctrl.step()
        assert report.outcome is StepOutcome.REJECTED
        assert not memory.read(0).to_be_computed  # dropped, loop not wedged

    def test_invalid_copy_count(self):
        memory = CellMemory(1)
        with pytest.raises(ValueError):
            ALUControl(memory, NanoBoxALU(), copies=2)


class TestSweepAndDrain:
    def test_sweep_computes_all(self):
        memory, ctrl = make_ctrl(n_words=8)
        for i in range(5):
            memory.write(i, pending_word(i))
        assert ctrl.sweep() == 5
        assert list(memory.pending_words()) == []

    def test_drain_picks_up_late_arrivals(self):
        memory, ctrl = make_ctrl(n_words=4)
        memory.write(0, pending_word(0))
        ctrl.sweep()
        # Salvaged work arrives mid-compute with the flag set.
        memory.write(3, pending_word(99, op=0b111, a=1, b=2))
        total = ctrl.drain()
        assert total >= 1
        assert memory.read(3).result == 3

    def test_drain_raises_when_stuck(self):
        memory, ctrl = make_ctrl(n_words=2)

        class StubbornMemory:
            pass

        # A word that is re-marked pending every sweep would wedge drain;
        # simulate by re-setting the flag from a hostile mask each sweep.
        memory.write(0, pending_word(0))
        original_sweep = ctrl.sweep

        def sabotaging_sweep():
            count = original_sweep()
            memory.write(0, pending_word(0))  # undo completion
            return count

        ctrl.sweep = sabotaging_sweep
        with pytest.raises(RuntimeError, match="pending work remains"):
            ctrl.drain(max_sweeps=3)


class TestLUTControlIntegration:
    """ALU control driven through the fault-prone LUT field voter
    (paper §7's control-logic-in-LUTs, wired end to end)."""

    def test_fault_free_voter_transparent(self):
        from repro.cell.lutctrl import LUTFieldVoter

        memory = CellMemory(4)
        ctrl = ALUControl(
            memory, NanoBoxALU(scheme="tmr"), field_voter=LUTFieldVoter("tmr")
        )
        memory.write(0, pending_word(1))
        assert ctrl.step().outcome is StepOutcome.COMPUTED
        assert ctrl.control_misreads == 0

    def test_control_fault_skips_real_work(self):
        from repro.cell.lutctrl import LUTFieldVoter

        voter = LUTFieldVoter("none")
        # Corrupt the to_be_computed voter's (1,1,1) entry every step:
        # pending words read as already-computed and are skipped.
        seg = voter.site_space.segment("to_be_computed_voter")
        mask = seg.inject(1 << 7)
        memory = CellMemory(2)
        ctrl = ALUControl(
            memory,
            NanoBoxALU(scheme="tmr"),
            field_voter=voter,
            control_mask_source=lambda: mask,
        )
        memory.write(0, pending_word(1))
        report = ctrl.step()
        assert report.outcome is StepOutcome.SKIPPED
        assert ctrl.control_misreads == 1
        assert memory.read(0).to_be_computed  # work silently stranded

    def test_tmr_control_tables_mask_single_fault(self):
        from repro.cell.lutctrl import LUTFieldVoter

        voter = LUTFieldVoter("tmr")
        seg = voter.site_space.segment("to_be_computed_voter")
        mask = seg.inject(1 << 7)  # only copy 0 of the entry
        memory = CellMemory(2)
        ctrl = ALUControl(
            memory,
            NanoBoxALU(scheme="tmr"),
            field_voter=voter,
            control_mask_source=lambda: mask,
        )
        memory.write(0, pending_word(1))
        assert ctrl.step().outcome is StepOutcome.COMPUTED
        assert ctrl.control_misreads == 0


class TestRedundantCopies:
    def test_disagreement_detected_under_faults(self):
        rng = np.random.default_rng(0)
        alu = NanoBoxALU(scheme="none")
        policy = ExactFractionMask(0.10)
        memory = CellMemory(32)
        ctrl = ALUControl(
            memory, alu, mask_source=lambda: policy.generate(alu.site_count, rng)
        )
        for i in range(32):
            memory.write(i, pending_word(i, op=0b111, a=i * 7 & 0xFF, b=0x33))
        ctrl.sweep()
        assert ctrl.disagreements > 0

    def test_memory_vote_masks_single_bad_copy(self):
        """Even if one of the three stored copies is wrong, the voted
        result read at shift-out is right."""
        memory, _ = make_ctrl()
        memory.write(0, pending_word(1))
        raw = memory.read_raw(0)
        raw = MemoryWord.store_results(raw, (0xF0, 0x0F ^ 0xFF, 0xF0))
        memory.write_raw(0, raw)
        assert MemoryWord.voted_result(memory.read_raw(0)) == 0xF0 | (
            (0x0F ^ 0xFF) & 0xF0
        ) | ((0x0F ^ 0xFF) & 0xF0)
        # Clearer: two copies say 0xF0 -> vote is 0xF0.
        raw = MemoryWord.store_results(raw, (0xF0, 0x00, 0xF0))
        assert MemoryWord.voted_result(raw) == 0xF0


class TestCopyCount:
    @pytest.mark.parametrize("copies", (1, 3))
    def test_result_fills_all_three_slots(self, copies):
        """A single generated copy is stored in every result slot, so
        stale slots cannot outvote it."""
        memory = CellMemory(2)
        ctrl = ALUControl(memory, NanoBoxALU(scheme="none"), copies=copies)
        memory.write(0, pending_word(1, op=0b111, a=0x2B, b=0x2A))
        report = ctrl.step()
        assert report.outcome is StepOutcome.COMPUTED
        assert report.result_copies == (0x55,) * 3
        raw = memory.read_raw(0)
        assert MemoryWord.result_copies(raw) == (0x55,) * 3
        assert MemoryWord.voted_result(raw) == 0x55


def _field_voter_run():
    """48 steps over a 16-word memory: pending, completed, rejected and
    flag-disagreeing words, one RNG shared by the ALU and control masks."""
    rng = np.random.default_rng(2004)
    alu = NanoBoxALU(scheme="none")
    voter = LUTFieldVoter("none")
    alu_policy = ExactFractionMask(0.05)
    control_policy = ExactFractionMask(0.15)
    memory = CellMemory(16)
    ctrl = ALUControl(
        memory,
        alu,
        mask_source=lambda: alu_policy.generate(alu.site_count, rng),
        field_voter=voter,
        control_mask_source=lambda: control_policy.generate(
            voter.site_count, rng
        ),
    )
    for i in range(12):
        memory.write(i, MemoryWord(
            instruction_id=i, opcode=(0b000, 0b001, 0b010, 0b111)[i % 4],
            operand1=(37 * i) & 0xFF, operand2=(91 * i + 5) & 0xFF,
            result=0x5A if i >= 8 else 0,
            data_valid=True, to_be_computed=i < 8,
        ))
    memory.write(14, pending_word(14, op=0b011, a=1, b=2))
    # Rewrite the six flag bits (tbc copies high, dv copies low) so the
    # copies disagree.
    for i, flags in ((2, 0b011_110), (9, 0b001_011),
                     (12, 0b101_001), (13, 0b010_100)):
        raw = memory.read_raw(i) & ~(0b111_111 << DATA_VALID_OFFSET)
        memory.write_raw(i, raw | (flags << DATA_VALID_OFFSET))
    outcomes = "".join(ctrl.step().outcome.value[0] for _ in range(48))
    words = [memory.read_raw(i) for i in range(16)]
    return outcomes, ctrl.control_misreads, ctrl.computed_total, \
        ctrl.disagreements, words


class TestFieldVoterPinned:
    """Outcomes under a seeded control-fault mask, recorded before the
    flag vote was read from the stored bits: the voter still draws its
    mask once per step, in the same order as the ALU masks."""

    def test_outcomes_and_misreads_pinned(self):
        outcomes, misreads, computed, disagreements, words = _field_voter_run()
        assert outcomes == "ccsscccscssscsrsssscssssssscsssssscssssssscsssss"
        assert misreads == 19
        assert computed == 11
        assert disagreements == 8
        assert words == [
            4037477341486645248, 4263548901579620353, 4003567602718867458,
            4335748357084348419, 4359696110527184900, 4588024452595908613,
            4598122207819988998, 36317027412566016007, 4053310337938620424,
            6544525006874411017, 4561880394862034954, 4047659297188806667,
            576460752303423488, 11529215046068469760, 4035225266393120782,
            0,
        ]
