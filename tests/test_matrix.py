import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didnmf import matrix
from didnmf.matrix import (
    ColumnBlock,
    as_matrix,
    dmat_decode,
    dmat_encode,
    frob_norm_sq,
    partition_columns,
    read_csv_matrix,
    read_dmat,
    read_dmat_shape,
    write_csv_matrix,
    write_dmat,
)


def test_frob_norm_sq_identity():
    assert frob_norm_sq(np.eye(3)) == 3.0


def test_frob_norm_sq_examples():
    assert frob_norm_sq(np.zeros((4, 7))) == 0.0
    assert frob_norm_sq([[1.0, -2.0], [2.0, 0.0]]) == 9.0


def test_frob_norm_sq_transpose_invariant():
    # transposing permutes the summation order, so allow last-ulp wiggle
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 9))
    assert frob_norm_sq(a) == pytest.approx(frob_norm_sq(a.T), rel=1e-13)


def test_partition_columns_examples():
    assert partition_columns(10, 3) == [(0, 4), (4, 3), (7, 3)]
    assert partition_columns(6, 3) == [(0, 2), (2, 2), (4, 2)]
    assert partition_columns(5, 1) == [(0, 5)]


def test_partition_columns_rejects_p_over_n():
    with pytest.raises(ValueError):
        partition_columns(3, 4)
    with pytest.raises(ValueError):
        partition_columns(0, 1)


@given(n=st.integers(1, 500), p=st.integers(1, 64))
@settings(max_examples=200)
def test_partition_columns_covers_exactly(n, p):
    if p > n:
        with pytest.raises(ValueError):
            partition_columns(n, p)
        return
    ranges = partition_columns(n, p)
    assert len(ranges) == p
    sizes = [size for _, size in ranges]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    # contiguous, in order, extras at the front
    pos = 0
    for start, size in ranges:
        assert start == pos and size >= 1
        pos += size
    assert sizes == sorted(sizes, reverse=True)


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        as_matrix(np.ones(4))


def test_column_block_is_one_row_major_stack_of_x_and_c():
    # a block is one C-contiguous (M + K) x n array [X; C]; x_block and
    # c_block are its row views, each C-contiguous, and write through
    block = ColumnBlock(4, 3, 7)
    assert block.z.shape == (7, 7) and block.z.dtype == np.float64
    assert block.z.flags.c_contiguous
    assert block.x_block.shape == (4, 7) and block.c_block.shape == (3, 7)
    for part in (block.x_block, block.c_block):
        assert part.flags.c_contiguous and part.base is block.z
    assert block.c_block.ctypes.data == block.z.ctypes.data + 4 * 7 * 8
    block.x_block[...] = 1.0
    block.c_block[...] = 2.0
    assert np.array_equal(block.z, np.vstack([np.ones((4, 7)),
                                              np.full((3, 7), 2.0)]))


def test_dmat_roundtrip_exact():
    rng = np.random.default_rng(4)
    a = np.asfortranarray(rng.normal(size=(7, 3)))
    buf = dmat_encode(a)
    assert buf[:4] == b"DMAT"
    assert len(buf) == 24 + 8 * a.size
    back = dmat_decode(buf)
    assert np.array_equal(back, a)
    assert back.flags.c_contiguous


def test_dmat_rejects_corrupt_input():
    a = np.ones((2, 2))
    buf = dmat_encode(a)
    with pytest.raises(ValueError):
        dmat_decode(b"XMAT" + buf[4:])
    with pytest.raises(ValueError):
        dmat_decode(buf[:-3])
    with pytest.raises(ValueError):
        dmat_decode(buf[:10])


def test_dmat_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 9))
    path = tmp_path / "m.dmat"
    write_dmat(path, a)
    assert np.array_equal(read_dmat(path), a)


def test_dmat_column_ranges_equal_slices_of_the_whole(tmp_path):
    # a rank reads only its columns: one byte range at every start offset,
    # for every partition up to P=4
    rng = np.random.default_rng(7)
    a = np.asfortranarray(rng.normal(size=(3, 203)))
    path = tmp_path / "m.dmat"
    write_dmat(path, a)
    assert read_dmat_shape(path) == (3, 203)
    ranges = [r for p in (1, 2, 3, 4) for r in partition_columns(203, p)]
    ranges += [(start, 1 + start % 5) for start in range(8)] + [(203, 0)]
    for start, size in ranges:
        block = read_dmat(path, start, size)
        assert np.array_equal(block, a[:, start:start + size])
        assert block.flags.c_contiguous and block.dtype == np.float64
    for start, size in ((200, 4), (-1, 2), (0, 204)):
        with pytest.raises(ValueError, match="outside"):
            read_dmat(path, start, size)


def test_read_dmat_transposes_the_body_chunk_by_chunk(tmp_path):
    # read_dmat reads READ_CHUNK_BYTES of the column-major body at a time
    # and transposes each chunk into a row-major block. The file holds two
    # whole chunks of columns and 5 more; every range read equals the
    # body's columns, including ranges across one and two chunk boundaries
    rows = 3
    width = matrix.READ_CHUNK_BYTES // (8 * rows)
    n = 2 * width + 5
    assert n % width != 0
    a = np.random.default_rng(11).normal(size=(rows, n))
    path = tmp_path / "m.dmat"
    write_dmat(path, a)
    body = np.frombuffer(path.read_bytes()[24:], dtype="<f8")
    cols = body.reshape((n, rows)).T
    ranges = [(0, 1), (n - 1, 1), (0, n), (1, n - 1),
              (0, width - 1), (0, width), (0, width + 1), (7, width),
              (7, width + 1), (width - 2, width + 4), (3, 2 * width + 1)]
    for start, size in ranges:
        block = read_dmat(path, start, size)
        assert block.flags.c_contiguous and block.dtype == np.float64
        assert block.tobytes() == np.ascontiguousarray(
            cols[:, start:start + size]).tobytes(), (start, size)
    assert np.array_equal(read_dmat(path), a)


def test_read_dmat_reads_into_a_blocks_x_rows(tmp_path):
    # out= lands a column range in the X rows of a stacked block, leaves
    # its C rows alone, and is refused at any other shape or dtype
    a = np.random.default_rng(12).normal(size=(3, 50))
    path = tmp_path / "m.dmat"
    write_dmat(path, a)
    block = ColumnBlock(3, 2, 20)
    block.c_block[...] = 7.0
    assert read_dmat(path, 10, 20, out=block.x_block) is block.x_block
    assert np.array_equal(block.x_block, a[:, 10:30])
    assert (block.c_block == 7.0).all()
    for bad in (np.empty((3, 19)), np.empty((3, 20), dtype=np.float32)):
        with pytest.raises(ValueError, match="out is"):
            read_dmat(path, 10, 20, out=bad)


def test_read_dmat_holds_one_chunk_beside_the_block(tmp_path):
    # the transpose goes chunk by chunk into the result: the read's peak
    # allocation is the block and one chunk buffer, never two blocks
    path = tmp_path / "m.dmat"
    write_dmat(path, np.ones((4, 200_000)))
    tracemalloc.start()
    try:
        block = read_dmat(path, 1, 199_998)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block.nbytes + 2 * matrix.READ_CHUNK_BYTES, peak


def test_dmat_file_length_is_checked_against_its_header(tmp_path):
    path = tmp_path / "m.dmat"
    buf = dmat_encode(np.ones((2, 5)))
    for bad in (buf[:-8], buf + b"\0" * 8):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="length mismatch"):
            read_dmat_shape(path)
        with pytest.raises(ValueError, match="length mismatch"):
            read_dmat(path, 0, 1)


def test_csv_file_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 5))
    path = tmp_path / "m.csv"
    write_csv_matrix(path, a)
    assert np.array_equal(read_csv_matrix(path), a)


@given(st.lists(st.lists(st.floats(-1e12, 1e12, allow_nan=False, width=64),
                          min_size=1, max_size=6),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=50)
def test_dmat_roundtrip_property(rows):
    a = np.array(rows)
    assert np.array_equal(dmat_decode(dmat_encode(a)), a)
