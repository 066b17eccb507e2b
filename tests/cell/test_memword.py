"""Unit tests for the memory word codec (paper Figure 4)."""

import random

import pytest

from repro.cell.memword import (
    DATA_VALID_OFFSET,
    MEMORY_WORD_BITS,
    MemoryWord,
    TO_BE_COMPUTED_OFFSET,
    majority_bit,
    word_flags,
)


def sample_word(**overrides):
    fields = dict(
        instruction_id=0x1234,
        opcode=0b111,
        operand1=0xAB,
        operand2=0x0C,
        result=0xB7,
        data_valid=True,
        to_be_computed=True,
    )
    fields.update(overrides)
    return MemoryWord(**fields)


class TestLayout:
    def test_total_width(self):
        # 16 + 3 + 8 + 8 + 24 + 3 + 3 = 65 bits.
        assert MEMORY_WORD_BITS == 65

    def test_flag_offsets_distinct(self):
        assert DATA_VALID_OFFSET != TO_BE_COMPUTED_OFFSET
        assert TO_BE_COMPUTED_OFFSET == DATA_VALID_OFFSET + 3


class TestMajorityBit:
    @pytest.mark.parametrize(
        "bits,expected",
        [((0, 0, 0), 0), ((1, 0, 0), 0), ((1, 1, 0), 1), ((1, 1, 1), 1)],
    )
    def test_values(self, bits, expected):
        assert majority_bit(bits) == expected


class TestPackUnpack:
    def test_roundtrip(self):
        word = sample_word()
        assert MemoryWord.unpack(word.pack()) == word

    def test_roundtrip_all_flags(self):
        for dv in (False, True):
            for tbc in (False, True):
                word = sample_word(data_valid=dv, to_be_computed=tbc)
                assert MemoryWord.unpack(word.pack()) == word

    def test_field_validation(self):
        with pytest.raises(ValueError):
            sample_word(instruction_id=1 << 16)
        with pytest.raises(ValueError):
            sample_word(opcode=8)
        with pytest.raises(ValueError):
            sample_word(operand1=256)
        with pytest.raises(ValueError):
            sample_word(result=-1)

    def test_unpack_range(self):
        with pytest.raises(ValueError):
            MemoryWord.unpack(1 << MEMORY_WORD_BITS)

    def test_empty_word_is_invalid(self):
        word = MemoryWord.unpack(0)
        assert not word.data_valid
        assert not word.to_be_computed


class TestTriplicatedFlags:
    def test_single_flag_copy_flip_masked(self):
        raw = sample_word().pack()
        for offset in (DATA_VALID_OFFSET, TO_BE_COMPUTED_OFFSET):
            for copy in range(3):
                corrupted = raw ^ (1 << (offset + copy))
                word = MemoryWord.unpack(corrupted)
                assert word.data_valid
                assert word.to_be_computed

    def test_two_flag_copies_flip_changes_verdict(self):
        raw = sample_word().pack()
        corrupted = raw ^ (0b11 << DATA_VALID_OFFSET)
        assert not MemoryWord.unpack(corrupted).data_valid


class TestResultCopies:
    def test_three_copies_written(self):
        raw = sample_word(result=0x5C).pack()
        assert MemoryWord.result_copies(raw) == (0x5C, 0x5C, 0x5C)

    def test_voted_result_masks_one_bad_copy(self):
        raw = sample_word(result=0x5C).pack()
        raw = MemoryWord.store_results(raw, (0x5C, 0xFF, 0x5C))
        assert MemoryWord.voted_result(raw) == 0x5C

    def test_voted_result_is_bitwise(self):
        raw = sample_word().pack()
        raw = MemoryWord.store_results(raw, (0b1100, 0b1010, 0b1001))
        assert MemoryWord.voted_result(raw) == 0b1000

    def test_store_results_validation(self):
        raw = sample_word().pack()
        with pytest.raises(ValueError):
            MemoryWord.store_results(raw, (0, 0, 256))

    def test_store_results_preserves_other_fields(self):
        raw = sample_word().pack()
        raw = MemoryWord.store_results(raw, (1, 2, 3))
        word = MemoryWord.unpack(raw)
        assert word.instruction_id == 0x1234
        assert word.operand1 == 0xAB


class TestFlagHelpers:
    def test_clear_to_be_computed(self):
        raw = sample_word().pack()
        cleared = MemoryWord.clear_to_be_computed(raw)
        assert not MemoryWord.unpack(cleared).to_be_computed
        # All three copies must be cleared, not just the majority.
        for copy in range(3):
            assert (cleared >> (TO_BE_COMPUTED_OFFSET + copy)) & 1 == 0

    def test_set_to_be_computed(self):
        raw = sample_word(to_be_computed=False).pack()
        raw = MemoryWord.set_to_be_computed(raw)
        assert MemoryWord.unpack(raw).to_be_computed

    def test_completed(self):
        word = sample_word()
        done = word.completed(0x42)
        assert done.result == 0x42
        assert not done.to_be_computed
        assert done.instruction_id == word.instruction_id


class TestWordFlags:
    def test_tbc_copies_sit_directly_above_dv_copies(self):
        assert TO_BE_COMPUTED_OFFSET == DATA_VALID_OFFSET + 3

    @pytest.mark.parametrize("flag_bits", range(64))
    def test_every_flag_pattern_votes_like_majority_and_unpack(self, flag_bits):
        """All 64 flag-bit patterns, each under random payload bits."""
        rng = random.Random(flag_bits)
        dv = majority_bit(tuple((flag_bits >> c) & 1 for c in range(3)))
        tbc = majority_bit(tuple((flag_bits >> (3 + c)) & 1 for c in range(3)))
        for _ in range(8):
            payload = rng.getrandbits(DATA_VALID_OFFSET)
            raw = payload | (flag_bits << DATA_VALID_OFFSET)
            assert raw >> MEMORY_WORD_BITS == 0
            assert word_flags(raw) == (bool(dv), bool(tbc))
            word = MemoryWord.unpack(raw)
            assert word_flags(raw) == (word.data_valid, word.to_be_computed)
