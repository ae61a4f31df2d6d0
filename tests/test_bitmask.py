"""Unit and property tests for multi-word bitmasks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine.bitmask import Bitmask, BitmaskVector


class TestBitmask:
    def test_set_and_test(self):
        mask = Bitmask(10, [3])
        assert mask.test(3)
        assert not mask.test(4)

    def test_bits_sorted(self):
        mask = Bitmask(200, [150, 3, 70])
        assert mask.bits() == [3, 70, 150]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Bitmask(8, [8])
        with pytest.raises(ValueError):
            Bitmask(8).test(-1)

    def test_words_are_read_only(self):
        for mask in (Bitmask(70, [3]), Bitmask.from_int(70, 1 << 65)):
            assert mask.words.flags.writeable is False
            with pytest.raises(ValueError):
                mask.words[0] = 0

    def test_to_int_matches_python_int(self):
        mask = Bitmask(130, [0, 64, 129])
        assert mask.to_int() == (1 << 0) | (1 << 64) | (1 << 129)

    def test_from_int_roundtrip(self):
        value = (1 << 5) | (1 << 77)
        mask = Bitmask.from_int(100, value)
        assert mask.to_int() == value
        assert mask.bits() == [5, 77]

    def test_is_zero(self):
        assert Bitmask(5).is_zero()
        assert not Bitmask(5, [0]).is_zero()

    def test_equality_and_hash(self):
        a = Bitmask(70, [69])
        b = Bitmask(70, [69])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Bitmask(70, [68])

    @given(
        st.sets(st.integers(min_value=0, max_value=199), max_size=12),
    )
    def test_roundtrip_property(self, bits):
        mask = Bitmask(200, bits)
        assert set(mask.bits()) == bits
        assert Bitmask.from_int(200, mask.to_int()) == mask


class TestBitmaskVector:
    def test_from_membership_and_disjoint(self):
        member = np.zeros((4, 70), dtype=bool)
        member[[0, 2], 65] = True
        vec = BitmaskVector.from_membership(member, 70)
        keep = vec.isdisjoint(Bitmask(70, [65]))
        assert keep.tolist() == [False, True, False, True]

    def test_disjoint_zero_mask_keeps_all(self):
        member = np.zeros((3, 10), dtype=bool)
        member[1, 2] = True
        vec = BitmaskVector.from_membership(member, 10)
        assert vec.isdisjoint(Bitmask(10)).all()

    def test_width_flexible_disjoint(self):
        vec = BitmaskVector.from_membership([[0, 0, 0, 1], [0, 0, 0, 0]], 10)
        # Wider mask: bits beyond the vector's width can never overlap.
        wide = Bitmask(200, [3, 190])
        assert vec.isdisjoint(wide).tolist() == [False, True]
        only_high = Bitmask(200, [190])
        assert vec.isdisjoint(only_high).all()
        # Narrower mask: implicitly zero-padded.
        vec128 = BitmaskVector.from_membership([[0, 0, 0], [0, 0, 1]], 128)
        assert vec128.isdisjoint(Bitmask(10, [2])).tolist() == [True, False]

    def test_row_mask(self):
        member = np.zeros((2, 130), dtype=bool)
        member[1, 128] = True
        vec = BitmaskVector.from_membership(member, 130)
        assert vec.row_mask(1).bits() == [128]
        assert vec.row_mask(0).is_zero()

    def test_take(self):
        member = np.zeros((3, 8), dtype=bool)
        member[2, 7] = True
        vec = BitmaskVector.from_membership(member, 8)
        taken = vec.take(np.array([2, 0]))
        assert len(taken) == 2
        assert taken.row_mask(0).bits() == [7]
        assert taken.row_mask(1).is_zero()

    def test_concat(self):
        a = BitmaskVector(1, 8)
        b = BitmaskVector.from_membership([[0, 0, 0, 0], [0, 0, 0, 1]], 8)
        merged = a.concat(b)
        assert len(merged) == 3
        assert merged.row_mask(2).bits() == [3]

    def test_concat_width_mismatch(self):
        with pytest.raises(ValueError):
            BitmaskVector(1, 8).concat(BitmaskVector(1, 9))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BitmaskVector(2, 8, words=np.zeros((3, 1), dtype=np.uint64))

    def test_out_of_range_bit(self):
        with pytest.raises(ValueError):
            BitmaskVector.from_membership(np.zeros((1, 9), dtype=bool), 8)
        with pytest.raises(ValueError):
            BitmaskVector.from_membership(np.zeros(8, dtype=bool), 8)

    def test_words_are_read_only(self):
        own = np.zeros((2, 1), dtype=np.uint64)
        base = BitmaskVector(2, 8, own)
        member = np.eye(2, 8, dtype=bool)
        for vec in (
            base,
            BitmaskVector(2, 8),
            BitmaskVector.from_membership(member, 8),
            base.take(np.array([1])),
            base.concat(base),
        ):
            assert vec.words.flags.writeable is False
            with pytest.raises(ValueError):
                vec.words[0, 0] = 1
        assert own.flags.writeable  # the caller's array keeps its flag

    @given(st.integers(0, 40), st.integers(1, 200), st.integers(0, 2**32))
    def test_from_membership_matches_bit_by_bit_packing(self, rows, bits, seed):
        member = np.random.default_rng(seed).random((rows, bits)) < 0.3
        words = np.zeros((rows, (bits + 63) // 64), dtype=np.uint64)
        for bit in range(bits):
            words[member[:, bit], bit // 64] |= np.uint64(1) << np.uint64(
                bit % 64
            )
        packed = BitmaskVector.from_membership(member, bits).words
        assert packed.dtype == np.uint64
        assert packed.tobytes() == words.tobytes()

    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=127), max_size=6),
            min_size=1,
            max_size=8,
        ),
        st.sets(st.integers(min_value=0, max_value=127), max_size=6),
    )
    def test_disjoint_matches_python_ints(self, row_bits, mask_bits):
        member = np.zeros((len(row_bits), 128), dtype=bool)
        for row, bits in enumerate(row_bits):
            member[row, list(bits)] = True
        vec = BitmaskVector.from_membership(member, 128)
        mask = Bitmask(128, mask_bits)
        expected = [not (bits & mask_bits) for bits in row_bits]
        assert vec.isdisjoint(mask).tolist() == expected
        # to_ints agrees with the python-int model too
        assert vec.to_ints() == [
            sum(1 << b for b in bits) for bits in row_bits
        ]
