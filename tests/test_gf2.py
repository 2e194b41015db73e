from __future__ import annotations

import numpy as np
import pytest

from graphstego.gf2 import as_bit_matrix, as_bits, gf2_rank, syndrome_index

from helpers import K5_PARITY_ROWS, mat_vec_mul


def test_as_bits_accepts_strings_and_sequences():
    assert np.array_equal(as_bits("0110"), [0, 1, 1, 0])
    assert np.array_equal(as_bits([1, 0, 1]), [1, 0, 1])
    assert as_bits("").size == 0
    assert as_bits("1").dtype == np.uint8


def test_as_bits_rejects_non_binary():
    with pytest.raises(ValueError):
        as_bits("0120")
    with pytest.raises(ValueError):
        as_bits([0, 1, 2])
    with pytest.raises(ValueError):
        as_bits("01a0")
    with pytest.raises(ValueError):
        as_bits([[0, 1], [1, 0]])


@pytest.mark.parametrize("bad", [2, 255])
def test_as_bits_rejects_non_binary_uint8(bad):
    arr = np.array([0, 1, bad, 0], dtype=np.uint8)
    with pytest.raises(ValueError, match="bit vector entries must be 0 or 1"):
        as_bits(arr)
    with pytest.raises(ValueError, match="bit matrix entries must be 0 or 1"):
        as_bit_matrix(arr.reshape(2, 2))
    # other dtypes keep their behaviour: 0/1 values pass, others fail
    assert as_bits(np.array([True, False])).tolist() == [1, 0]
    assert as_bits(np.array([1.0, 0.0])).tolist() == [1, 0]
    with pytest.raises(ValueError):
        as_bits(np.array([0, bad], dtype=np.int64))
    # the result is always a fresh array
    ok = np.array([0, 1], dtype=np.uint8)
    assert not np.shares_memory(as_bits(ok), ok)


def test_mat_vec_mul_reference_syndrome():
    # H(carrier) for the K5 reference code reads 1100
    h = as_bit_matrix(K5_PARITY_ROWS)
    assert np.array_equal(mat_vec_mul(h, "1101111011"), as_bits("1100"))


def test_mat_vec_mul_identity_and_zero():
    eye = np.eye(5, dtype=np.uint8)
    x = as_bits("10110")
    assert np.array_equal(mat_vec_mul(eye, x), x)
    assert not mat_vec_mul(np.zeros((3, 5), dtype=np.uint8), x).any()


def test_mat_vec_mul_is_linear():
    rng = np.random.default_rng(23)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        m = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        x = rng.integers(0, 2, cols, dtype=np.uint8)
        y = rng.integers(0, 2, cols, dtype=np.uint8)
        lhs = mat_vec_mul(m, x ^ y)
        rhs = mat_vec_mul(m, x) ^ mat_vec_mul(m, y)
        assert np.array_equal(lhs, rhs)


def test_mat_vec_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_vec_mul(np.eye(3, dtype=np.uint8), "01")


def test_rank_of_reference_parity_check_is_full():
    assert gf2_rank(as_bit_matrix(K5_PARITY_ROWS)) == 4


def test_rank_basics():
    assert gf2_rank(np.eye(6, dtype=np.uint8)) == 6
    assert gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0
    # duplicate rows collapse
    assert gf2_rank(as_bit_matrix(["101", "101", "011"])) == 2


def test_rank_invariant_under_row_shuffle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rows, cols = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        m = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        r = gf2_rank(m)
        assert r <= min(rows, cols)
        assert gf2_rank(m[rng.permutation(rows)]) == r


def test_syndrome_index_reads_bit0_as_msb():
    assert syndrome_index("1100") == 12
    assert syndrome_index("0001") == 1
    assert syndrome_index("0000") == 0
    assert syndrome_index("1111") == 15


def test_syndrome_index_inverts_format_strings():
    # tests and demos spell syndrome ``idx`` of width w as f"{idx:0{w}b}"
    for width in (1, 4, 9):
        for idx in range(1 << width):
            bits = as_bits(f"{idx:0{width}b}")
            assert bits.size == width
            assert syndrome_index(bits) == idx
