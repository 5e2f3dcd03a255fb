import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsparx.bnn import BinaryTensor, tile_weights
from binsparx.errors import DomainError
from binsparx.sparsify import postprocess, sparsify_tile

from conftest import signed_dot, untile

signed_vectors = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=256)


def _stored_column(vec) -> list:
    """The {0,1} cells one signed column is stored as on a single tile."""
    return tile_weights(np.asarray(vec)[:, None], len(vec)).stored.ravel().tolist()


def _nandnet_dot(ivec, wvec) -> int:
    """Signed dot product from the {0,1} forms: one AND count, two one-counts."""
    i, w = ((np.asarray(v, dtype=np.int64) + 1) // 2 for v in (ivec, wvec))
    return int(postprocess(i @ w, i.sum(), False, w.sum(), False, len(i)))


class TestMapping:
    def test_basic_example(self):
        assert _stored_column([1, -1, 1]) == [1, 0, 1]

    def test_all_minus_one(self):
        assert _stored_column([-1] * 64) == [0] * 64

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            t = BinaryTensor(rng.choice([-1, 1], size=(rng.integers(1, 65), 1)))
            assert np.array_equal(untile(tile_weights(t, 64)), t.values)

    @settings(max_examples=150, derandomize=True)
    @given(signed_vectors)
    def test_round_trip_property(self, vec):
        t = BinaryTensor(np.array(vec)[:, None])
        assert np.array_equal(untile(tile_weights(t, 64)), t.values)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            BinaryTensor([1, 0, -1])
        with pytest.raises(DomainError):
            BinaryTensor([2])
        with pytest.raises(DomainError):
            BinaryTensor([1.5])

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint8])
    def test_wrapping_extremes_are_refused(self, dtype):
        # |x| of the most negative integer wraps to itself, so |x| != 1
        # still refuses it, as np.isin(a, (-1, 1)) did
        info = np.iinfo(dtype)
        for bad in {info.min, info.max, 0}:
            with pytest.raises(DomainError, match=str(bad)):
                BinaryTensor(np.array([1, bad, 1], dtype=dtype))
        if info.min < 0:
            assert BinaryTensor(np.array([1, -1], dtype=dtype)).values.tolist() == [1, -1]


class TestNandnetDot:
    def test_worked_example(self):
        # I=[+1,-1], W=[+1,+1]: 4*1 - 2*1 - 2*2 + 2 = 0
        assert _nandnet_dot([1, -1], [1, 1]) == 0

    def test_zero_activations(self, rng):
        w = rng.choice([-1, 1], 64)
        assert _nandnet_dot([-1] * 64, w) == -2 * int((w > 0).sum()) + 64

    def test_four_element_example(self):
        assert _nandnet_dot([1, -1, 1, 1], [-1, 1, 1, -1]) == -2

    @settings(max_examples=300, derandomize=True)
    @given(signed_vectors, st.randoms(use_true_random=False))
    def test_equals_signed_dot(self, ivec, rnd):
        wvec = [rnd.choice([-1, 1]) for _ in ivec]
        got = _nandnet_dot(ivec, wvec)
        assert got == signed_dot(ivec, wvec)
        assert got % 2 == len(ivec) % 2  # parity follows the vector length


class TestTiling:
    def test_exact_division(self, rng):
        w = BinaryTensor(rng.choice([-1, 1], size=(128, 128)))
        tiled = tile_weights(w, 64)
        assert tiled.stored.shape == (2, 64, 128)
        assert tiled.sum_wprime.shape == tiled.column_flip.shape == (2, 128)
        assert tiled.n_logical.tolist() == [64, 64]
        assert not tiled.column_flip.any()

    def test_padding_rule(self, rng):
        w = BinaryTensor(rng.choice([-1, 1], size=(65, 64)))
        tiled = tile_weights(w, 64)
        assert tiled.stored.shape[0] == 2
        assert tiled.n_logical.tolist() == [64, 1]
        # the 63 padded rows store 0
        assert tiled.stored[1, 1:].sum() == 0

    def test_untile_round_trip(self, rng):
        w = BinaryTensor(rng.choice([-1, 1], size=(100, 100)))
        tiled = tile_weights(w, 64)
        assert np.array_equal(untile(tiled), w.values)
        flipped = sparsify_tile(tiled)
        assert flipped.column_flip.any()
        assert np.array_equal(untile(flipped), w.values)

    def test_tiling_conservation(self, rng):
        # accumulating the exact per-tile accounting over row tiles must
        # reproduce the whole-matrix dot product for every output column
        w = BinaryTensor(rng.choice([-1, 1], size=(100, 30)))
        act = rng.choice([-1, 1], size=100)
        tiled = tile_weights(w, 64)
        row_tiles, n, cols = tiled.stored.shape
        act_mapped = (act + 1) // 2
        totals = np.zeros(cols, dtype=np.int64)
        for r in range(row_tiles):
            nl = int(tiled.n_logical[r])
            sub = act_mapped[r * n : r * n + nl]
            gates = np.zeros(n, dtype=np.int64)
            gates[:nl] = sub
            and_sums = gates @ tiled.stored[r].astype(np.int64)
            totals += 4 * and_sums - 2 * int(sub.sum()) - 2 * tiled.sum_wprime[r] + nl
        expect = act.astype(np.int64) @ w.values.astype(np.int64)
        assert np.array_equal(totals, expect)
