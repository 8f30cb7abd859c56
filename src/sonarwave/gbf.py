"""Cylindrical and generalized (multi-harmonic) Bessel function evaluation.

The generalized Bessel function coefficients are the Fourier coefficients of
the unimodular generating function

    g(theta) = exp{ j sum_k Im[ w_k beta_k e^{j k theta} ] }

so that with unit weights the harmonic terms are ``beta_k sin(k theta)`` and
the single-harmonic case reduces to the cylindrical J_n.  Complex weights
rotate each harmonic's phase (and rescale its amplitude), which is how the
closed-form ambiguity series builds its mixed-argument coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .signal_core import ParameterError


class TruncationError(ParameterError):
    """Raised when a series truncation order cannot contain its support.

    ``suggested_k``, when set, is an order worth retrying with.
    """

    def __init__(self, msg, suggested_k=None):
        super().__init__(msg)
        self.suggested_k = suggested_k


@dataclass(frozen=True)
class GbfCoefficients:
    """Coefficient vector over orders -n_max..n_max."""

    orders: np.ndarray
    values: np.ndarray
    arg_count: int

    def __getitem__(self, n: int) -> complex:
        n_max = (len(self.values) - 1) // 2
        if abs(n) > n_max:
            return 0.0
        return self.values[n + n_max]

    @property
    def n_max(self) -> int:
        return (len(self.values) - 1) // 2


def bessel_j(n: int, x: float) -> float:
    """Cylindrical Bessel function of the first kind, integer order."""
    if abs(n) > 200 or abs(x) > 1e4:
        raise ParameterError("bessel_j domain is |n| <= 200, |x| <= 1e4")
    return float(jv(n, x))


def support_bound(betas) -> int:
    """Minimum acceptable order bound: sum_k k |beta_k| plus margin."""
    k = np.arange(1, len(betas) + 1)
    return int(np.ceil(np.sum(k * np.abs(betas)))) + 20


def _default_n_max(betas) -> int:
    """Order at which coefficients have decayed to machine level.

    Each harmonic k contributes support ~ k(|b| + 3|b|^(1/3)); the cube-root
    widening of the Bessel transition region matters for large arguments.
    """
    k = np.arange(1, len(betas) + 1)
    b = np.abs(betas)
    return int(np.ceil(np.sum(k * (b + 3.0 * np.cbrt(b) + 1.0)))) + 20


def gbf_coeffs(betas, n_max: int | None = None, weights=None) -> GbfCoefficients:
    """Generalized Bessel coefficients by FFT of the generating function.

    ``betas[k-1]`` is the k-th harmonic amplitude; optional complex
    ``weights`` multiply each harmonic before exponentiation.
    """
    betas = np.asarray(betas, dtype=np.complex128)
    if betas.ndim != 1 or len(betas) == 0:
        raise ParameterError("betas must be a nonempty 1-D sequence")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.complex128)
        if weights.shape != betas.shape:
            raise ParameterError("weights must match betas in length")
        betas = betas * weights
    bound = support_bound(betas)
    if n_max is None:
        n_max = _default_n_max(betas)
    elif n_max < bound:
        raise TruncationError(
            f"n_max={n_max} below the support bound {bound}"
        )
    values = _coeffs_fft(betas[None, :], n_max)[0]
    orders = np.arange(-n_max, n_max + 1)
    return GbfCoefficients(orders=orders, values=values, arg_count=len(betas))


def _coeffs_fft(beta_rows: np.ndarray, n_max: int, m: int | None = None) -> np.ndarray:
    """Batched coefficient computation.

    ``beta_rows`` has shape (batch, K) of complex harmonic amplitudes
    (weights already folded in).  Returns (batch, 2 n_max + 1) coefficient
    arrays ordered -n_max..n_max.
    """
    batch, k_count = beta_rows.shape
    if m is None:
        m = _fft_points(n_max, k_count)
    # Harmonic sum via inverse FFT of the (zero-padded) coefficient vector:
    # h(theta) = sum_k c_k e^{jk theta};  phase(theta) = Im h(theta).
    c = np.zeros((batch, m), dtype=np.complex128)
    c[:, 1 : k_count + 1] = beta_rows
    h = np.fft.ifft(c, axis=1) * m
    g = np.exp(1j * h.imag)
    coef = np.fft.fft(g, axis=1) / m
    out = np.empty((batch, 2 * n_max + 1), dtype=np.complex128)
    out[:, n_max:] = coef[:, : n_max + 1]
    out[:, :n_max] = coef[:, m - n_max :]
    return out


def _fft_points(n_max: int, k_count: int) -> int:
    """Default FFT length of :func:`_coeffs_fft` for ``k_count`` harmonics."""
    return 1 << int(np.ceil(np.log2(max(8 * n_max, 4 * k_count, 256))))
