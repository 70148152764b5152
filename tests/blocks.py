"""Column blocks cut from a whole X and C, for tests that drive a step
without the run harness."""

from didnmf.matrix import ColumnBlock, as_matrix, partition_columns


def make_column_blocks(X, C, p: int) -> list[ColumnBlock]:
    """Cut X and C into p stacked worker blocks, each holding copies."""
    X, C = as_matrix(X), as_matrix(C)
    if X.shape[1] != C.shape[1]:
        raise ValueError(
            f"X and C disagree on column count: {X.shape[1]} vs {C.shape[1]}")
    blocks = []
    for start, size in partition_columns(X.shape[1], p):
        block = ColumnBlock(X.shape[0], C.shape[0], size)
        block.x_block[...] = X[:, start:start + size]
        block.c_block[...] = C[:, start:start + size]
        blocks.append(block)
    return blocks
