"""Unoptimised einsum product sums: the oracles of
`quadrature.weighted_product_sum` and the routes built on it."""

import numpy as np

from blt.geometry import grid_points
from blt.quadrature import midpoint_axes


def einsum_product_sum(tables, subs, widths) -> np.ndarray:
    """Sum over the cells of the product of the tables times the product
    of the axes' widths, as one unoptimised einsum: each axis' widths are
    folded into the first table that reads it, and an axis no table reads
    contributes its width sum."""
    operands, folded = [], set()
    for table, sub in zip(tables, subs):
        for pos, a in enumerate(sub):
            if a not in folded:
                folded.add(a)
                w = widths[a]
                table = table * w.reshape(w.shape[:-1] + (1,) * pos + (-1,)
                                          + (1,) * (len(sub) - pos - 1))
        operands += [table, [Ellipsis, *sub]]
    total = np.einsum(*operands, [Ellipsis])
    for a, w in enumerate(widths):
        if a not in folded:
            total = total * w.sum(axis=-1)
    return total


def lattice_product_sum(blocks, exponents, d: int) -> float:
    """Sum of prod_j values_j^{p_j} over the intersection of the blocks'
    lattice boxes (0 when it is empty), as one einsum over the d axes.

    Block j is (values, axes, offset): values[i] sits at lattice index
    offset + i along the listed axes.
    """
    lo = np.full(d, np.iinfo(np.int64).min, dtype=np.int64)
    hi = np.full(d, np.iinfo(np.int64).max, dtype=np.int64)
    for values, axes, offset in blocks:
        for pos, k in enumerate(axes):
            lo[k] = max(lo[k], offset[pos])
            hi[k] = min(hi[k], offset[pos] + values.shape[pos])
    if lo.min() == np.iinfo(np.int64).min:
        raise ValueError("every lattice axis must be spanned by some block")
    if np.any(hi <= lo):
        return 0.0
    operands = []
    for (values, axes, offset), p in zip(blocks, exponents):
        window = tuple(
            slice(int(lo[k] - offset[pos]), int(hi[k] - offset[pos])) for pos, k in enumerate(axes)
        )
        operands += [np.power(values[window], p), axes]
    return float(np.einsum(*operands, []))


def einsum_separable_midpoint(factors, lo: np.ndarray, hi: np.ndarray, count: int) -> float:
    """Tensor midpoint rule for prod_k g_k(B_k x) on the box [lo, hi], each
    B_k a scaled coordinate projection, summed by one einsum: axes no
    factor reads contribute their cell count."""
    axes, cell = midpoint_axes(lo, hi, count)
    operands, read = [], set()
    for g, B in factors:
        sub = [int(a) for a in np.argmax(B != 0.0, axis=1)]
        entries = B[np.arange(len(sub)), sub]
        points = grid_points([b * axes[a] for b, a in zip(entries, sub)])
        operands += [g(points).reshape((count,) * len(sub)), sub]
        read.update(sub)
    free = lo.size - len(read)
    return float(np.einsum(*operands, []) * count**free * cell)
