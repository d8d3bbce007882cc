"""Gradient and behaviour tests for the fused spectral convolution op."""

import numpy as np
import pytest

from repro.autodiff.spectral import fft_frequencies, spectral_conv2d
from repro.autodiff.tensor import Tensor
from tests.conftest import assert_gradients_close, numerical_gradient


def _random_weights(rng, in_channels, out_channels, modes):
    shape = (2, in_channels, out_channels, modes, modes)
    return rng.standard_normal(shape) * 0.2, rng.standard_normal(shape) * 0.2


class TestSpectralConv2d:
    def test_output_shape(self, rng):
        wr, wi = _random_weights(rng, 3, 5, 3)
        x = Tensor(rng.standard_normal((2, 3, 10, 10)))
        out = spectral_conv2d(x, Tensor(wr), Tensor(wi), 3, 3)
        assert out.shape == (2, 5, 10, 10)

    def test_rejects_bad_weight_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        with pytest.raises(ValueError):
            spectral_conv2d(x, Tensor(np.zeros((2, 3, 3, 2, 2))), Tensor(np.zeros((2, 3, 3, 2, 2))), 2, 2)

    def test_rejects_too_many_modes(self, rng):
        wr, wi = _random_weights(rng, 1, 1, 5)
        x = Tensor(rng.standard_normal((1, 1, 8, 8)))
        with pytest.raises(ValueError):
            spectral_conv2d(x, Tensor(wr), Tensor(wi), 5, 5)

    def test_linear_in_input(self, rng):
        wr, wi = _random_weights(rng, 2, 2, 2)
        a = rng.standard_normal((1, 2, 8, 8))
        b = rng.standard_normal((1, 2, 8, 8))
        out_sum = spectral_conv2d(Tensor(a + b), Tensor(wr), Tensor(wi), 2, 2).data
        out_a = spectral_conv2d(Tensor(a), Tensor(wr), Tensor(wi), 2, 2).data
        out_b = spectral_conv2d(Tensor(b), Tensor(wr), Tensor(wi), 2, 2).data
        np.testing.assert_allclose(out_sum, out_a + out_b, atol=1e-10)

    def test_constant_input_excites_only_dc_mode(self, rng):
        wr, wi = _random_weights(rng, 1, 1, 2)
        x = np.full((1, 1, 8, 8), 2.0)
        out = spectral_conv2d(Tensor(x), Tensor(wr), Tensor(wi), 2, 2).data
        # A constant field has spectral content only at the DC bin, so the
        # output must be spatially constant as well.
        assert np.abs(out - out.mean()).max() < 1e-10

    def test_gradcheck(self, rng):
        x = rng.standard_normal((2, 2, 8, 8))
        wr, wi = _random_weights(rng, 2, 3, 2)
        xt = Tensor(x.copy(), requires_grad=True)
        wrt = Tensor(wr.copy(), requires_grad=True)
        wit = Tensor(wi.copy(), requires_grad=True)
        (spectral_conv2d(xt, wrt, wit, 2, 2) ** 2).mean().backward()

        def scalar():
            return float((spectral_conv2d(Tensor(x), Tensor(wr), Tensor(wi), 2, 2) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))
        assert_gradients_close(wrt.grad, numerical_gradient(scalar, wr))
        assert_gradients_close(wit.grad, numerical_gradient(scalar, wi))

    def test_resolution_invariance_of_smooth_fields(self, rng):
        """The same spectral weights applied at two resolutions agree on smooth input."""
        wr, wi = _random_weights(rng, 1, 1, 3)
        xs_lo = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        xs_hi = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        field_lo = np.sin(xs_lo)[None, :] * np.cos(xs_lo)[:, None]
        field_hi = np.sin(xs_hi)[None, :] * np.cos(xs_hi)[:, None]
        out_lo = spectral_conv2d(Tensor(field_lo[None, None]), Tensor(wr), Tensor(wi), 3, 3).data
        out_hi = spectral_conv2d(Tensor(field_hi[None, None]), Tensor(wr), Tensor(wi), 3, 3).data
        # Compare at the shared sample locations (every other point of the fine grid).
        np.testing.assert_allclose(out_lo[0, 0], out_hi[0, 0, ::2, ::2], atol=0.3)

    def test_fft_frequencies_shapes(self):
        rows, cols = fft_frequencies(8, 6)
        assert len(rows) == 8 and len(cols) == 6
        assert rows[0] == 0


def _full_fft2_reference(x, wr, wi, modes1, modes2, upstream):
    """The spectral op and its three gradients on the full complex FFT in
    complex128, for the loss ``sum(out * upstream)``:
    ``out = Re(ifft2(Y))`` with ``Y = W * fft2(x)`` on the kept modes."""
    m1, m2 = modes1, modes2
    batch, _, height, width = x.shape
    out_channels = wr.shape[2]
    weights = wr.astype(np.complex128) + 1j * wi.astype(np.complex128)
    blocks = (slice(None, m1), slice(height - m1, None))
    x_ft = np.fft.fft2(x.astype(np.float64))
    out_ft = np.zeros((batch, out_channels, height, width), np.complex128)
    for k, rows in enumerate(blocks):
        out_ft[:, :, rows, :m2] = np.einsum("bixy,ioxy->boxy", x_ft[:, :, rows, :m2], weights[k])
    out = np.fft.ifft2(out_ft).real

    grad_ft = np.fft.fft2(upstream.astype(np.float64)) / (height * width)
    grad_w = np.empty_like(weights)
    grad_x_ft = np.zeros(x.shape, np.complex128)
    for k, rows in enumerate(blocks):
        g = grad_ft[:, :, rows, :m2]
        grad_w[k] = np.einsum("bixy,boxy->ioxy", np.conj(x_ft[:, :, rows, :m2]), g)
        grad_x_ft[:, :, rows, :m2] = np.einsum("boxy,ioxy->bixy", g, np.conj(weights[k]))
    grad_x = np.fft.ifft2(grad_x_ft).real * (height * width)
    return out, grad_x, grad_w.real, grad_w.imag


class TestAgainstFullFFT2:
    """The real-FFT op against the full complex-FFT formula it replaces."""

    CASES = {
        "even-W": (12, 10, 3, 4),
        "odd-W": (12, 11, 3, 4),
        "nyquist": (12, 10, 3, 6),  # modes2 = W // 2 + 1 keeps the Nyquist column
        "odd-W-widest": (12, 11, 3, 6),
        "one-column": (10, 10, 2, 1),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_output_and_gradients(self, rng, case):
        height, width, m1, m2 = self.CASES[case]
        x = rng.standard_normal((2, 3, height, width))
        wr = rng.standard_normal((2, 3, 4, m1, m2))
        wi = rng.standard_normal((2, 3, 4, m1, m2))
        upstream = rng.standard_normal((2, 4, height, width))
        expected = _full_fft2_reference(x, wr, wi, m1, m2, upstream)

        for dtype in (np.float64, np.float32):
            tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, wr, wi)]
            out = spectral_conv2d(*tensors, m1, m2)
            (out * Tensor(upstream.astype(dtype))).sum().backward()
            actual = [out.data] + [t.grad for t in tensors]
            for name, got, want in zip(("out", "x", "real", "imag"), actual, expected):
                assert got.dtype == dtype, name
                if dtype == np.float64:
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
                else:
                    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max(), name

    def test_float32_batch_rows_do_not_depend_on_the_batch(self, rng):
        """A batch item's output and input gradient are bitwise the same whether
        it runs alone or with others, so ``predict`` does not depend on its
        ``batch_size``."""
        x = rng.standard_normal((5, 8, 16, 16)).astype(np.float32)
        upstream = rng.standard_normal((5, 8, 16, 16)).astype(np.float32)
        wr, wi = (Tensor(a.astype(np.float32)) for a in _random_weights(rng, 8, 8, 4))

        def run(rows):
            xt = Tensor(x[rows], requires_grad=True)
            out = spectral_conv2d(xt, wr, wi, 4, 4)
            (out * Tensor(upstream[rows])).sum().backward()
            return out.data, xt.grad

        whole = run(slice(None))
        for rows in (slice(0, 1), slice(0, 2), slice(2, 5), slice(4, 5)):
            part = run(rows)
            np.testing.assert_array_equal(part[0], whole[0][rows])
            np.testing.assert_array_equal(part[1], whole[1][rows])

    def test_float32_hands_no_complex128_to_numpy_fft(self, rng, monkeypatch):
        calls = []
        for name in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
                     "fft", "ifft", "rfft", "irfft"):
            def spy(a, *args, _wrapped=getattr(np.fft, name), _name=name, **kwargs):
                result = _wrapped(a, *args, **kwargs)
                calls.append((_name, np.asarray(a).dtype, result.dtype))
                return result
            monkeypatch.setattr(np.fft, name, spy)

        x = Tensor(rng.standard_normal((2, 3, 12, 10)).astype(np.float32), requires_grad=True)
        wr, wi = (Tensor(a.astype(np.float32), requires_grad=True)
                  for a in _random_weights(rng, 3, 4, 3))
        (spectral_conv2d(x, wr, wi, 3, 3) ** 2).sum().backward()

        assert calls  # the spy saw the op's transforms
        for name, given, returned in calls:
            assert given in (np.float32, np.complex64), (name, given)
            assert returned in (np.float32, np.complex64), (name, returned)
        assert x.grad.dtype == wr.grad.dtype == wi.grad.dtype == np.float32
