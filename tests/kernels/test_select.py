"""Native exact-fraction selection = the NumPy rule, bit for bit.

The compiled tier draws each trial's uniform block in Python and hands
it to the kernel's ``repro_select_batch``, which selects and packs every
row's flipped sites.  These differential tests pin that the packed words
equal :func:`repro.faults.mask.select_numpy`'s for the same block, and
that the generator is left in the same state: across the paper's site
counts and fault percentages, rows with and without the rounding
uniform, blocks where the selection band misses the boundary, and
blocks with ties at and away from the boundary.
"""

import numpy as np
import pytest

from repro.experiments.figures import PAPER_FAULT_PERCENTAGES
from repro.faults.mask import ExactFractionMask
from repro.kernels import get_provider
from repro.kernels.cbuild import select_band

SITE_COUNTS = (1, 63, 64, 65, 192, 657, 1536, 5040)

#: Every paper percentage, plus fractions near 0, 1/2 and 1.
FRACTIONS = tuple(p / 100.0 for p in PAPER_FAULT_PERCENTAGES) + (
    1e-6, 0.4999, 0.5, 0.5001, 0.9999, 1.0,
)


@pytest.fixture(scope="module")
def select():
    """The live provider's selector; the environment has a C compiler."""
    provider = get_provider()
    assert provider is not None
    return provider.select_fn


class _BlockRng:
    """Stands in for the generator: ``random`` returns a fixed block."""

    def __init__(self, block):
        self._block = block

    def random(self, shape):
        assert shape == self._block.shape
        return self._block.copy()


def _split(fraction, n_sites):
    exact = fraction * n_sites
    return int(exact), exact - int(exact)


def _assert_same(select, policy, n_sites, block):
    native = policy.generate_batch(
        n_sites, block.shape[0], _BlockRng(block), select=select
    )
    reference = policy.generate_batch(n_sites, block.shape[0], _BlockRng(block))
    np.testing.assert_array_equal(native, reference)
    return native


class TestStreamDraws:
    @pytest.mark.parametrize("n_sites", SITE_COUNTS)
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_words_and_generator_state_match(self, select, n_sites, fraction):
        policy = ExactFractionMask(fraction)
        rng_native = np.random.default_rng(2004 + n_sites)
        rng_numpy = np.random.default_rng(2004 + n_sites)
        native = policy.generate_batch(n_sites, 64, rng_native, select=select)
        reference = policy.generate_batch(n_sites, 64, rng_numpy)
        np.testing.assert_array_equal(native, reference)
        assert native.shape == reference.shape
        assert rng_native.bit_generator.state == rng_numpy.bit_generator.state

    @pytest.mark.parametrize("n_sites", (192, 5040))
    def test_rounding_uniform_rows_both_ways(self, select, n_sites):
        """A fractional count gives a block with a rounding column; rows
        below the remainder flip one more site than rows above it."""
        policy = ExactFractionMask(0.5 / 100)
        base, remainder = _split(policy.fraction, n_sites)
        assert remainder > 0.0
        block = np.random.default_rng(7).random((64, n_sites + 1))
        block[::2, n_sites] = remainder / 2
        block[1::2, n_sites] = (1.0 + remainder) / 2
        words = _assert_same(select, policy, n_sites, block)
        counts = np.bitwise_count(words).sum(axis=1)
        assert set(counts[::2]) == {base + 1}
        assert set(counts[1::2]) == {base}

    def test_whole_number_count_has_no_rounding_column(self, select):
        policy = ExactFractionMask(0.25)
        base, remainder = _split(policy.fraction, 64)
        assert remainder == 0.0
        block = np.random.default_rng(5).random((32, 64))
        words = _assert_same(select, policy, 64, block)
        assert set(np.bitwise_count(words).sum(axis=1)) == {base}


class TestBandMisses:
    """Rows whose boundary lies outside ``select_band`` take the kernel's
    whole-row selection; the words must not change."""

    @pytest.mark.parametrize("n_sites", (65, 657, 5040))
    def test_boundary_below_and_above_the_band(self, select, n_sites):
        policy = ExactFractionMask(0.3)
        base, remainder = _split(policy.fraction, n_sites)
        lo, hi = select_band(n_sites, base)
        rng = np.random.default_rng(11)
        block = rng.random((4, n_sites + 1 if remainder > 0.0 else n_sites))
        # Row 0: every site below the band -> more than count below lo.
        block[0, :n_sites] = rng.uniform(0.0, lo, n_sites)
        # Row 1: every site above the band -> the band is empty.
        block[1, :n_sites] = rng.uniform(hi, 1.0, n_sites)
        # Row 2: every site inside the band.
        block[2, :n_sites] = rng.uniform(lo, hi, n_sites)
        _assert_same(select, policy, n_sites, block)


class TestTies:
    @staticmethod
    def _counts(block, n_sites, base, remainder):
        counts = np.full(block.shape[0], base)
        if block.shape[1] > n_sites:
            counts += block[:, n_sites] < remainder
        return counts

    @pytest.mark.parametrize("n_sites", (65, 192, 1536, 5040))
    @pytest.mark.parametrize("fraction", (0.005, 0.1, 0.3, 0.75))
    def test_boundary_tie_goes_to_numpy_rule(self, select, n_sites, fraction):
        policy = ExactFractionMask(fraction)
        base, remainder = _split(fraction, n_sites)
        cols = n_sites + 1 if remainder > 0.0 else n_sites
        block = np.random.default_rng(3).random((16, cols))
        counts = self._counts(block, n_sites, base, remainder)
        tied_rows = []
        for d in range(0, 16, 2):
            k = int(counts[d])
            if not 0 < k < n_sites:
                continue
            order = np.argsort(block[d, :n_sites], kind="stable")
            # The (k+1)-th smallest takes the k-th smallest's value.
            block[d, order[k]] = block[d, order[k - 1]]
            tied_rows.append(d)
        assert tied_rows
        _, tied = select(block, n_sites, base, remainder)
        np.testing.assert_array_equal(tied, tied_rows)
        words = _assert_same(select, policy, n_sites, block)
        counts_out = np.bitwise_count(words).sum(axis=1)
        np.testing.assert_array_equal(counts_out, counts)

    @pytest.mark.parametrize("n_sites", (192, 5040))
    def test_ties_away_from_the_boundary_stay_native(self, select, n_sites):
        """Equal uniforms inside the flipped set, or among the kept
        sites, leave the chosen set unique: no row is handed back."""
        policy = ExactFractionMask(0.3)
        base, remainder = _split(policy.fraction, n_sites)
        cols = n_sites + 1 if remainder > 0.0 else n_sites
        block = np.random.default_rng(9).random((8, cols))
        counts = self._counts(block, n_sites, base, remainder)
        for d in range(8):
            k = int(counts[d])
            order = np.argsort(block[d, :n_sites], kind="stable")
            block[d, order[1 : k - 1]] = block[d, order[0]]
            block[d, order[k + 2 :]] = block[d, order[k + 1]]
        _, tied = select(block, n_sites, base, remainder)
        assert tied.size == 0
        _assert_same(select, policy, n_sites, block)


class TestBlockShape:
    @pytest.mark.parametrize("shape", [(4, 63), (4, 66), (64,)])
    def test_block_that_does_not_fit_is_rejected(self, select, shape):
        """The kernel reads ``n_sites`` uniforms per row, plus one more
        when ``cols > n_sites``: any other shape never reaches it."""
        block = np.random.default_rng(0).random(shape)
        with pytest.raises(ValueError, match="does not fit 64 sites"):
            select(block, 64, 16, 0.0)
