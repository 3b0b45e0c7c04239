"""im2col / col2im helpers for the convolution layers and kernels.

Valid (no padding), stride-1 convolutions are all LeNet needs; keeping the
helpers specialised makes them simple enough to verify by hand in the tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["im2col", "col2im", "conv_output_size"]


def conv_output_size(input_size: int, kernel: int) -> int:
    """Spatial output size of a valid stride-1 convolution.

    >>> conv_output_size(32, 5)
    28
    """
    if kernel > input_size:
        raise ValueError(
            f"kernel {kernel} larger than input {input_size}"
        )
    return input_size - kernel + 1


def im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """Unfold ``(batch, ch, h, w)`` into ``(batch, out_h*out_w, ch*k*k)``.

    Row ``p`` of the unfolded matrix holds the receptive field of output
    position ``p`` flattened channel-major, so a convolution becomes a
    matmul with the flattened kernels.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel)
    out_w = conv_output_size(width, kernel)
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kernel, kernel), axis=(2, 3))
    # windows: (batch, ch, out_h, out_w, k, k)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, channels * kernel * kernel)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           kernel: int) -> np.ndarray:
    """Fold ``(batch, out_h*out_w, ch*k*k)`` back onto the input grid,
    accumulating overlaps — the adjoint of :func:`im2col`, used by the
    convolution backward pass."""
    batch, channels, height, width = x_shape
    out_h = conv_output_size(height, kernel)
    out_w = conv_output_size(width, kernel)
    expected = (batch, out_h * out_w, channels * kernel * kernel)
    if cols.shape != expected:
        raise ValueError(f"cols shape {cols.shape}, expected {expected}")
    blocks = cols.reshape(batch, out_h, out_w, channels, kernel, kernel)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for di in range(kernel):
        for dj in range(kernel):
            x[:, :, di:di + out_h, dj:dj + out_w] += \
                blocks[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return x
