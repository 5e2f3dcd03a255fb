"""BinSparX flips and sign repair, exercised through the grid-wide functions
on one-column tiles and single-row batches, plus the ADC width rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsparx.bnn import tile_weights
from binsparx.engine import Engine, EngineConfig
from binsparx.errors import ConfigError, ConfigWarning
from binsparx.sparsify import (
    adc_bits_required,
    postprocess,
    sparsify_activations,
    sparsify_tile,
)

from conftest import signed_dot

signed_vectors = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=129)


def _store_column(vec):
    """Static flip of one signed column as a one-column tile:
    (stored {0,1} column, flip bit, post-flip one-count)."""
    t = sparsify_tile(tile_weights(np.asarray(vec).reshape(-1, 1), len(vec)))
    return t.stored[0, :, 0], int(t.column_flip[0, 0]), int(t.sum_wprime[0, 0])


def _apply_activation(bits, n_logical=None):
    """Dynamic flip of one {0,1} vector as a single-row batch:
    (applied vector, flip bit, reported one-count)."""
    v = np.asarray(bits, dtype=np.int8).reshape(1, 1, -1)
    nl = v.shape[2] if n_logical is None else n_logical
    applied, sum_i, a_flip = sparsify_activations(v, np.array([nl]), True)
    return applied[0, 0], int(a_flip[0, 0]), int(sum_i[0, 0])


class TestWeightColumn:
    def test_positive_majority_flips(self):
        stored, flip, swp = _store_column([1, 1, 1, -1])
        assert stored.tolist() == [0, 0, 0, 1]
        assert flip == 1
        assert swp == 1

    def test_all_negative_unchanged(self):
        stored, flip, swp = _store_column([-1, -1, -1, -1])
        assert stored.tolist() == [0, 0, 0, 0]
        assert (flip, swp) == (0, 0)

    def test_tie_flips(self):
        # a balanced column counts as "majority +1" and is stored negated
        stored, flip, swp = _store_column([1, -1])
        assert stored.tolist() == [0, 1]
        assert flip == 1
        assert swp == 1

    @settings(max_examples=200, derandomize=True)
    @given(signed_vectors)
    def test_cap_always_holds(self, vec):
        stored, flip, swp = _store_column(vec)
        n = len(vec)
        assert swp == int(stored.sum())
        assert swp <= n // 2

    @settings(max_examples=200, derandomize=True)
    @given(signed_vectors)
    def test_involution(self, vec):
        # re-sparsifying a stored column either does nothing or (balanced
        # case) flips without changing the one count
        stored, _, swp = _store_column(vec)
        again, flip2, swp2 = _store_column(2 * stored.astype(np.int16) - 1)
        assert swp2 == swp
        if flip2:
            assert 2 * swp == len(vec)


class TestActivation:
    def test_majority_flips(self):
        applied, flip, report = _apply_activation([1, 1, 1, 0])
        assert applied.tolist() == [0, 0, 0, 1]
        assert flip == 1
        assert report == 1

    def test_tie_does_not_flip(self):
        applied, flip, report = _apply_activation([1, 1, 0, 0])
        assert applied.tolist() == [1, 1, 0, 0]
        assert flip == 0
        assert report == 2

    def test_all_zero(self):
        applied, flip, report = _apply_activation([0, 0, 0])
        assert applied.tolist() == [0, 0, 0]
        assert (flip, report) == (0, 0)

    def test_padding_stays_zero(self):
        # 3 logical rows of 5: two ones are a majority, the pad never turns on
        applied, flip, report = _apply_activation([1, 1, 0, 0, 0], n_logical=3)
        assert applied.tolist() == [0, 0, 1, 0, 0]
        assert (flip, report) == (1, 1)

    def test_disabled_never_flips(self):
        v = np.ones((2, 1, 4), dtype=np.int8)
        applied, sum_i, a_flip = sparsify_activations(v, np.array([4]), False)
        assert np.array_equal(applied, v)
        assert sum_i.tolist() == [[4], [4]]
        assert not a_flip.any()

    @settings(max_examples=200, derandomize=True)
    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=129))
    def test_cap_and_report(self, bits):
        n = len(bits)
        applied, flip, report = _apply_activation(bits)
        ones = int(applied.sum())
        assert ones <= (n + 1) // 2
        assert report == ones
        if flip:
            assert report == n - sum(bits)
        else:
            assert report == sum(bits)


def _pipeline_dot(i_signed, w_signed):
    """Run one (activation, column) pair through the full sparsified path."""
    stored, w_flip, swp = _store_column(w_signed)
    applied, a_flip, sum_i = _apply_activation((np.asarray(i_signed) + 1) // 2)
    raw = int(applied.astype(np.int64) @ stored.astype(np.int64))
    return int(postprocess(raw, sum_i, a_flip, swp, w_flip, len(i_signed))), raw


class TestPostprocess:
    def test_single_flip_negates(self):
        # corrected value 4*2 - 2*3 - 2*2 + 7 = 5 with flips (1,0) comes out -5
        assert postprocess(2, 3, 1, 2, 0, 7) == -5
        assert postprocess(2, 3, 0, 2, 0, 7) == 5
        assert postprocess(2, 3, 0, 2, 1, 7) == -5

    def test_double_flip_cancels(self):
        # both flips set: value 5 stays 5, since sum(I*W) = sum((-I)*(-W))
        assert postprocess(2, 3, 1, 2, 1, 7) == 5

    def test_flip_symmetry(self):
        # (activation_flip, column_flip) = (1,0) and (0,1) give identical outputs
        for raw in range(4):
            assert postprocess(raw, 2, 1, 2, 0, 6) == postprocess(raw, 2, 0, 2, 1, 6)

    def test_end_to_end_exactness_bulk(self, rng):
        # >= 10^4 random pairs, n = 64: the sparsified path is exact
        n = 64
        for _ in range(100):
            w = rng.choice([-1, 1], size=(n, 100))
            acts = rng.choice([-1, 1], size=n)
            tile = sparsify_tile(tile_weights(w, n))
            applied, sum_i, a_flip = sparsify_activations(
                ((acts + 1) // 2).reshape(1, 1, n), tile.n_logical, True
            )
            raws = applied[0, 0].astype(np.int64) @ tile.stored[0].astype(np.int64)
            got = postprocess(raws, sum_i[0, 0], a_flip[0, 0], tile.sum_wprime[0],
                              tile.column_flip[0], n)
            for c in range(100):
                assert got[c] == signed_dot(acts, w[:, c])

    @settings(max_examples=200, derandomize=True)
    @given(signed_vectors, st.randoms(use_true_random=False))
    def test_end_to_end_exactness_property(self, ivec, rnd):
        wvec = [rnd.choice([-1, 1]) for _ in ivec]
        got, raw = _pipeline_dot(ivec, wvec)
        assert got == signed_dot(ivec, wvec)
        assert raw <= (len(ivec) + 1) // 2  # the AND sum respects the cap


class TestTileSparsify:
    def test_matches_column_op(self, rng):
        # the grid-wide flip agrees with flipping each column on its own
        w = rng.choice([-1, 1], size=(40, 9))
        sp = sparsify_tile(tile_weights(w, 16))
        for c in range(9):
            for r in range(3):
                rows = w[r * 16 : (r + 1) * 16, c]
                stored, flip, swp = _store_column(rows)
                assert np.array_equal(sp.stored[r, : len(rows), c], stored)
                assert sp.column_flip[r, c] == flip
                assert sp.sum_wprime[r, c] == swp

    def test_padding_stays_zero(self, rng):
        w = rng.choice([-1, 1], size=(10, 5))
        sp = sparsify_tile(tile_weights(w, 16))
        assert sp.stored.shape == (1, 16, 5)
        assert sp.stored[0, 10:].sum() == 0
        assert sp.column_flip.shape == sp.sum_wprime.shape == (1, 5)
        assert sp.n_logical.tolist() == [10]

    def test_dense_tile_keeps_everything(self, rng):
        # sparsification off: the engine stores the mapped matrix unflipped
        w = rng.choice([-1, 1], size=(8, 4))
        dt = Engine(EngineConfig(n=8, m=4, binsparx=False, nonidealities=False)).prepare(w)
        assert np.array_equal(dt.stored[0], (w + 1) // 2)
        assert dt.column_flip.sum() == 0


class TestAdcBits:
    def test_standard_sizes(self):
        assert adc_bits_required(64, False) == 6
        assert adc_bits_required(64, True) == 5
        assert adc_bits_required(128, False) == 7
        assert adc_bits_required(8, True) == 2

    def test_degenerate_warns(self):
        with pytest.warns(ConfigWarning):
            assert adc_bits_required(2, True) == 0

    def test_non_power_of_two_rejected(self):
        for bad in (0, 1, 3, 63, 100):
            with pytest.raises(ConfigError):
                adc_bits_required(bad, True)
