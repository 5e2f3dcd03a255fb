import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsparx.bnn import (
    BinaryTensor,
    MappedTensor,
    nandnet_dot,
    tile_weights,
    to_mapped,
    to_signed,
)
from binsparx.errors import DomainError, ShapeError
from binsparx.sparsify import sparsify_tile

from conftest import signed_dot

signed_vectors = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=256)


class TestMapping:
    def test_basic_example(self):
        assert to_mapped(BinaryTensor([1, -1, 1])).values.tolist() == [1, 0, 1]

    def test_all_minus_one(self):
        out = to_mapped(BinaryTensor([-1] * 64))
        assert out.values.tolist() == [0] * 64

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            t = BinaryTensor(rng.choice([-1, 1], size=rng.integers(1, 65)))
            back = to_signed(to_mapped(t))
            assert np.array_equal(back.values, t.values)

    @settings(max_examples=150, derandomize=True)
    @given(signed_vectors)
    def test_round_trip_property(self, vec):
        t = BinaryTensor(vec)
        assert np.array_equal(to_signed(to_mapped(t)).values, t.values)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            BinaryTensor([1, 0, -1])
        with pytest.raises(DomainError):
            BinaryTensor([2])
        with pytest.raises(DomainError):
            MappedTensor([1, -1])
        with pytest.raises(DomainError):
            BinaryTensor([1.5])


class TestNandnetDot:
    def test_worked_example(self):
        # I=[+1,-1], W=[+1,+1]: 4*1 - 2*1 - 2*2 + 2 = 0
        i = to_mapped(BinaryTensor([1, -1]))
        w = to_mapped(BinaryTensor([1, 1]))
        assert nandnet_dot(i, w, 2) == 0

    def test_zero_activations(self, rng):
        w = MappedTensor(rng.integers(0, 2, 64))
        i = MappedTensor(np.zeros(64, dtype=np.int8))
        assert nandnet_dot(i, w, 64) == -2 * int(w.values.sum()) + 64

    def test_four_element_example(self):
        i = to_mapped(BinaryTensor([1, -1, 1, 1]))
        w = to_mapped(BinaryTensor([-1, 1, 1, -1]))
        assert nandnet_dot(i, w, 4) == -2

    @settings(max_examples=300, derandomize=True)
    @given(signed_vectors, st.randoms(use_true_random=False))
    def test_equals_signed_dot(self, ivec, rnd):
        wvec = [rnd.choice([-1, 1]) for _ in ivec]
        n = len(ivec)
        got = nandnet_dot(to_mapped(BinaryTensor(ivec)), to_mapped(BinaryTensor(wvec)), n)
        assert got == signed_dot(ivec, wvec)
        assert got % 2 == n % 2  # parity follows the vector length

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nandnet_dot(MappedTensor([1, 0]), MappedTensor([1]), 2)
        with pytest.raises(ShapeError):
            nandnet_dot(MappedTensor([1, 0]), MappedTensor([1, 1]), 3)


class TestTiling:
    def test_exact_division(self, rng):
        w = BinaryTensor(rng.choice([-1, 1], size=(128, 128)))
        tiled = tile_weights(w, 64, 64)
        assert tiled.stored.shape == (2, 64, 2, 64)
        assert tiled.sum_wprime.shape == tiled.column_flip.shape == (2, 2, 64)
        assert tiled.n_logical.tolist() == [64, 64]
        assert not tiled.column_flip.any()

    def test_padding_rule(self, rng):
        w = BinaryTensor(rng.choice([-1, 1], size=(65, 64)))
        tiled = tile_weights(w, 64, 64)
        assert tiled.stored.shape[0] == 2
        assert tiled.n_logical.tolist() == [64, 1]
        # the 63 padded rows store 0
        assert tiled.stored[1, 1:].sum() == 0

    def test_untile_round_trip(self, rng):
        w = BinaryTensor(rng.choice([-1, 1], size=(100, 100)))
        tiled = tile_weights(w, 64, 64)
        assert np.array_equal(tiled.untile().values, w.values)
        flipped = sparsify_tile(tiled)
        assert flipped.column_flip.any()
        assert np.array_equal(flipped.untile().values, w.values)

    def test_tiling_conservation(self, rng):
        # accumulating the exact per-tile accounting over row tiles must
        # reproduce the whole-matrix dot product for every output column
        w = BinaryTensor(rng.choice([-1, 1], size=(100, 30)))
        act = rng.choice([-1, 1], size=100)
        tiled = tile_weights(w, 64, 16)
        row_tiles, n, col_tiles, m = tiled.stored.shape
        act_mapped = (act + 1) // 2
        totals = np.zeros(30, dtype=np.int64)
        for r in range(row_tiles):
            nl = int(tiled.n_logical[r])
            sub = act_mapped[r * n : r * n + nl]
            gates = np.zeros(n, dtype=np.int64)
            gates[:nl] = sub
            for c in range(col_tiles):
                ml = min(m, 30 - c * m)
                and_sums = gates @ tiled.stored[r, :, c, :].astype(np.int64)
                v = (
                    4 * and_sums[:ml]
                    - 2 * int(sub.sum())
                    - 2 * tiled.sum_wprime[r, c, :ml]
                    + nl
                )
                totals[c * m : c * m + ml] += v
        expect = act.astype(np.int64) @ w.values.astype(np.int64)
        assert np.array_equal(totals, expect)
