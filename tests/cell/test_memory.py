"""Unit tests for the processor-cell memory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cell.memory import CELL_MEMORY_WORDS, CellMemory
from repro.cell.memword import DATA_VALID_OFFSET, MEMORY_WORD_BITS, MemoryWord
from repro.coding.bits import popcount


def word(iid=1, tbc=True):
    return MemoryWord(
        instruction_id=iid,
        opcode=0b010,
        operand1=0x10,
        operand2=0xFF,
        data_valid=True,
        to_be_computed=tbc,
    )


class TestGeometry:
    def test_paper_default(self):
        memory = CellMemory()
        assert memory.n_words == CELL_MEMORY_WORDS == 32
        assert memory.site_count == 32 * MEMORY_WORD_BITS

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CellMemory(0)


class TestReadWrite:
    def test_roundtrip(self):
        memory = CellMemory(4)
        memory.write(2, word(7))
        assert memory.read(2).instruction_id == 7

    def test_index_bounds(self):
        memory = CellMemory(4)
        with pytest.raises(IndexError):
            memory.read(4)
        with pytest.raises(IndexError):
            memory.write_raw(-1, 0)

    def test_raw_width_enforced(self):
        memory = CellMemory(1)
        with pytest.raises(ValueError):
            memory.write_raw(0, 1 << MEMORY_WORD_BITS)

    def test_erase_and_clear(self):
        memory = CellMemory(4)
        memory.write(0, word(1))
        memory.write(1, word(2))
        memory.erase(0)
        assert not memory.read(0).data_valid
        memory.clear()
        assert memory.occupancy() == 0


class TestQueries:
    def test_free_slot_order(self):
        memory = CellMemory(4)
        assert memory.free_slot() == 0
        memory.write(0, word(1))
        assert memory.free_slot() == 1

    def test_free_slot_none_when_full(self):
        memory = CellMemory(2)
        memory.write(0, word(1))
        memory.write(1, word(2))
        assert memory.free_slot() is None

    def test_pending_and_completed(self):
        memory = CellMemory(4)
        memory.write(0, word(1, tbc=True))
        memory.write(1, word(2, tbc=False))
        assert list(memory.pending_words()) == [0]
        assert list(memory.completed_words()) == [1]

    def test_occupancy(self):
        memory = CellMemory(8)
        for i in range(3):
            memory.write(i, word(i))
        assert memory.occupancy() == 3


class TestFaultOverlay:
    def test_faults_persist(self):
        memory = CellMemory(2)
        memory.write(0, word(1))
        before = memory.read_raw(0)
        memory.apply_faults(1 << 0)  # flip instruction-ID bit 0 of word 0
        assert memory.read_raw(0) == before ^ 1
        # Persist across reads (unlike transient ALU masks).
        assert memory.read_raw(0) == before ^ 1

    def test_fault_targets_correct_word(self):
        memory = CellMemory(3)
        for i in range(3):
            memory.write(i, word(i + 1))
        raw1_before = memory.read_raw(1)
        memory.apply_faults(1 << MEMORY_WORD_BITS)  # first bit of word 1
        assert memory.read_raw(0) == word(1).pack()
        assert memory.read_raw(1) == raw1_before ^ 1
        assert memory.read_raw(2) == word(3).pack()

    def test_triplicated_flags_survive_single_upset(self):
        from repro.cell.memword import TO_BE_COMPUTED_OFFSET

        memory = CellMemory(1)
        memory.write(0, word(9))
        memory.apply_faults(1 << TO_BE_COMPUTED_OFFSET)
        assert memory.read(0).to_be_computed  # majority still true

    def test_oversized_mask_rejected(self):
        memory = CellMemory(1)
        with pytest.raises(ValueError):
            memory.apply_faults(1 << memory.site_count)

    def test_zero_mask_noop(self):
        memory = CellMemory(2)
        memory.write(0, word(1))
        memory.apply_faults(0)
        assert memory.read_raw(0) == word(1).pack()


# Raw words with any payload and any six flag bits, so the flag copies of
# a word may disagree; zero and canonical words are drawn often too.
raw_words = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=(1 << MEMORY_WORD_BITS) - 1),
    st.builds(
        lambda payload, flags: payload | (flags << DATA_VALID_OFFSET),
        st.integers(min_value=0, max_value=(1 << DATA_VALID_OFFSET) - 1),
        st.sampled_from((0b000_000, 0b111_111, 0b000_111, 0b011_110, 0b100_101)),
    ),
)
raw_memories = st.lists(raw_words, min_size=1, max_size=12)


def memory_of(raws):
    memory = CellMemory(len(raws))
    for i, raw in enumerate(raws):
        memory.write_raw(i, raw)
    return memory


def reference_scrub(raws):
    """Scrub defined through full decodes: (corrected bits, new words)."""
    corrected, out = 0, []
    for raw in raws:
        word = MemoryWord.unpack(raw)
        new = word.pack() if word.data_valid else 0
        corrected += popcount(new ^ raw)
        out.append(new)
    return corrected, out


class TestQueriesMatchFullDecode:
    """The flag-only queries agree with definitions through unpack."""

    @given(raw_memories)
    def test_queries(self, raws):
        memory = memory_of(raws)
        words = [MemoryWord.unpack(raw) for raw in raws]
        valid = [i for i, w in enumerate(words) if w.data_valid]
        pending = [i for i in valid if words[i].to_be_computed]
        completed = [i for i in valid if not words[i].to_be_computed]
        free = [i for i, w in enumerate(words) if not w.data_valid]
        assert memory.free_slot() == (free[0] if free else None)
        assert list(memory.pending_words()) == pending
        assert list(memory.completed_words()) == completed
        assert memory.work_counts() == (len(pending), len(completed))
        assert memory.occupancy() == len(valid)

    @given(raw_memories)
    def test_scrub(self, raws):
        memory = memory_of(raws)
        corrected, expected = reference_scrub(raws)
        assert memory.scrub() == corrected
        assert [memory.read_raw(i) for i in range(len(raws))] == expected
