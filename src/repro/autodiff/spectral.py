"""Spectral (Fourier-domain) primitives for the Fourier Neural Operator.

The spectral convolution is one fused autodiff operation computing

    X = FFT2(x)                                  (complex spectrum)
    Y[..., kept modes] = W * X[..., kept modes]  (learned complex multiply)
    y = Re(IFFT2(Y))

where the kept modes are rows ``[:modes1]`` and ``[-modes1:]`` of columns
``[:modes2]``.  It runs on the real FFT, in the input's precision (float32
gives complex64 spectra and weights, float64 gives complex128):

* ``X = rfft2(x)``: for real ``x`` its columns ``[:modes2]`` equal those of
  ``FFT2(x)``.
* ``y = irfft2(c * Y, s=(H, W))`` on the ``W // 2 + 1`` column half
  spectrum.  ``irfft2`` treats its input as one half of a Hermitian spectrum
  and counts every interior column twice, once for the column and once for
  its mirror image, while ``Re(IFFT2(Y))`` counts each column of ``Y`` once.
  The column factor ``c`` is therefore 1/2 on interior columns, and 1 on
  column 0 and on a kept Nyquist column (``2 * (modes2 - 1) == W``), which
  have no mirror image and of which ``irfft2`` keeps the real part, as the
  ``Re`` does.  With ``c`` the op computes the same function as the full
  transform, so trained weights keep their meaning.
* Both transforms are orthonormal (``norm="ortho"``).  The ``1 / (H W)`` of
  the inverse is then split evenly between the two, so the composition is
  unchanged and no pass, forward or backward, rescales by ``H W``.  NumPy
  2.4 also runs an unscaled float32 transform, the default forward
  direction, several times slower than a scaled one.

The adjoints are derived analytically (see the docstring of
:func:`spectral_conv2d`) and are validated against finite differences and
against the full-``FFT2`` formula in ``tests/autodiff/test_spectral.py``.
Keeping the whole pipeline in one op avoids having to support complex
tensors in the generic autodiff engine.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autodiff.tensor import Tensor


def _check_modes(modes1: int, modes2: int, height: int, width: int) -> None:
    # 2 * modes1 <= height guarantees the positive- and negative-frequency row
    # blocks do not overlap, which keeps the adjoint derivation exact.
    if 2 * modes1 > height or modes2 > width // 2 + 1:
        raise ValueError(
            f"Fourier modes ({modes1}, {modes2}) exceed the resolvable spectrum of a "
            f"{height}x{width} grid"
        )


def _mix_rows(modes: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Per kept mode, ``(B, C) @ (C, C')`` as one ``(1, C) @ (C, C')`` product per row.

    ``modes`` is ``(2, m1, m2, B, C)`` and ``matrices`` ``(2, m1, m2, C, C')``.
    Row by row, a batch item's result does not depend on how many items share
    the batch: a complex64 matrix product over ``B`` rows may add in a
    different order for a different ``B``.
    """
    return np.matmul(modes[..., None, :], matrices[..., None, :, :])[..., 0, :]


def spectral_conv2d(
    x: Tensor,
    weight_real: Tensor,
    weight_imag: Tensor,
    modes1: int,
    modes2: int,
) -> Tensor:
    """Fourier-space convolution used by FNO layers.

    Parameters
    ----------
    x:
        Input tensor of shape ``(B, C_in, H, W)``.
    weight_real, weight_imag:
        Real and imaginary parts of the complex spectral weights, each of
        shape ``(2, C_in, C_out, modes1, modes2)``.  Block 0 multiplies the
        low positive row-frequencies (``rows[:modes1]``) and block 1 the low
        negative row-frequencies (``rows[-modes1:]``); only the first
        ``modes2`` column frequencies are retained, as in the reference FNO
        implementation built on the real FFT.
    modes1, modes2:
        Number of retained Fourier modes along the two spatial axes.

    Notes
    -----
    Gradient derivation (per mode ``k``, dropping batch/channel indices):
    with the orthonormal DFT ``U = F / sqrt(H W)``, ``X = U x``, ``Y = W X`` on
    kept modes and ``y = Re(U^{-1} Y)`` (the same function as above: the two
    ``sqrt(H W)`` cancel), the adjoints under the real inner product are

    * ``dL/dY = U(dL/dy)`` on the kept modes, read from ``rfft2(dL/dy)``
      (``U`` is unitary)
    * ``dL/dW = conj(X) * dL/dY``  (stored as a complex number whose real and
      imaginary parts are the gradients of the real and imaginary weights)
    * ``dL/dX = conj(W) * dL/dY`` and ``dL/dx = Re(U^{-1}(dL/dX))``, computed
      as ``irfft2(c * dL/dX)`` with the forward's column factor ``c``.
    """
    x = Tensor.ensure(x)
    weight_real = Tensor.ensure(weight_real)
    weight_imag = Tensor.ensure(weight_imag)

    batch, in_channels, height, width = x.shape
    blocks, w_in, out_channels, m1, m2 = weight_real.shape
    if blocks != 2 or w_in != in_channels or m1 != modes1 or m2 != modes2:
        raise ValueError(
            "spectral weights must have shape (2, C_in, C_out, modes1, modes2); "
            f"got {weight_real.shape} for input with {in_channels} channels"
        )
    _check_modes(modes1, modes2, height, width)

    complex_dtype = np.result_type(x.data, weight_real.data, weight_imag.data, np.complex64)
    # The weights as one (C_in, C_out) matrix per kept mode: (2, m1, m2, C_in, C_out).
    weights = np.empty((2, modes1, modes2, in_channels, out_channels), complex_dtype)
    weights.real = weight_real.data.transpose(0, 3, 4, 1, 2)
    weights.imag = weight_imag.data.transpose(0, 3, 4, 1, 2)
    rows = (slice(None, modes1), slice(height - modes1, None))  # the two kept row blocks
    # The column factor c of the module docstring, on the m2 axis of a
    # (m1, m2, B, C) block of modes.
    column_factor = np.full((modes2, 1, 1), 0.5, weights.real.dtype)
    column_factor[0] = 1.0
    if 2 * (modes2 - 1) == width:
        column_factor[-1] = 1.0  # a kept Nyquist column

    def kept_modes(field: np.ndarray) -> np.ndarray:
        """The kept modes of ``U field`` as ``(2, m1, m2, B, C)``."""
        spectrum = np.fft.rfft2(field, axes=(-2, -1), norm="ortho")
        return np.stack([spectrum[:, :, block, :modes2].transpose(2, 3, 0, 1) for block in rows])

    def synthesise(modes: np.ndarray) -> np.ndarray:
        """``Re(U^{-1} M)`` for ``M`` equal to ``modes`` on the kept modes, zero elsewhere."""
        spectrum = np.zeros((batch, modes.shape[-1], height, width // 2 + 1), complex_dtype)
        for block, block_rows in enumerate(rows):
            scaled = modes[block] * column_factor
            spectrum[:, :, block_rows, :modes2] = scaled.transpose(2, 3, 0, 1)
        return np.fft.irfft2(spectrum, s=(height, width), axes=(-2, -1), norm="ortho")

    x_modes = kept_modes(x.data)
    out = synthesise(_mix_rows(x_modes, weights)).astype(x.data.dtype, copy=False)

    def backward(grad: np.ndarray) -> None:
        grad_modes = kept_modes(grad)  # dL/dY

        if weight_real.requires_grad or weight_imag.requires_grad:
            # Per kept mode, conj(X)^T (C_in, B) @ dL/dY (B, C_out).
            grad_w = np.matmul(np.conj(x_modes).swapaxes(-1, -2), grad_modes)
            grad_w = grad_w.transpose(0, 3, 4, 1, 2)  # back to (2, C_in, C_out, m1, m2)
            if weight_real.requires_grad:
                weight_real._accumulate(grad_w.real)
            if weight_imag.requires_grad:
                weight_imag._accumulate(grad_w.imag)

        if x.requires_grad:
            x._accumulate(synthesise(_mix_rows(grad_modes, np.conj(weights).swapaxes(-1, -2))))

    return Tensor._make(out, (x, weight_real, weight_imag), backward)


def fft_frequencies(height: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return the integer FFT frequency grids for a ``height``x``width`` field."""
    return np.fft.fftfreq(height) * height, np.fft.fftfreq(width) * width
