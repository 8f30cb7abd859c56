"""Generalized (multi-harmonic) Bessel coefficients, cylindrical J_n included.

The generalized Bessel function coefficients are the Fourier coefficients of
the unimodular generating function

    g(theta) = exp{ j sum_k Im[ w_k beta_k e^{j k theta} ] }

so that with unit weights the harmonic terms are ``beta_k sin(k theta)`` and
the single-harmonic case reduces to the cylindrical J_n.  Complex weights
rotate each harmonic's phase (and rescale its amplitude).  Both closed forms
share this module's truncation rule (:func:`_tail_coeffs`) and its series
evaluator (:func:`_series_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if abs(n) > self.n_max:
            return 0.0
        return self.values[n + self.n_max]

    @property
    def n_max(self) -> int:
        return (len(self.values) - 1) // 2


def support_bound(betas) -> int:
    """Smallest explicit ``n_max`` accepted: sum_k k |beta_k| plus margin."""
    k = np.arange(1, len(betas) + 1)
    return int(np.ceil(np.sum(k * np.abs(betas)))) + 20


# Series energy left outside the kept orders.  Truncating there changes a
# unit-energy series by about sqrt(_TAIL) ~ 3e-7 in relative L2, inside the
# 1e-6 agreement the closed spectra are held to (acceptance criterion 5).
_TAIL = 1e-13

# Largest order estimate the truncation rule accepts.  The biggest estimate
# met so far is 1072 (benchmark af-closed and af-numeric pools, seeds 1-10;
# the specs/ corpus peaks at 353), so 2^14 leaves 15x headroom.  At the cap
# one AF delay already costs about 4 * (2^15)^2 = 4e9 flops per Doppler row,
# so a larger order is a pathological spec (say an sfm with f_m near 0):
# refusing it up front keeps the coefficient FFT from asking for gigabytes.
_N_MAX_CAP = 1 << 14

# Memory bound for every temporary of :func:`_series_sum`.
_CHUNK_BYTES = 1 << 26

# Order pairs with |mu| * (longest interval) below this bypass the Cauchy
# kernel of :func:`_series_sum` and are summed as exact sinc terms.  The
# kernel's endpoint terms cancel as mu -> 0, losing about eps / (pi |mu| L)
# per term, so this keeps the loss near 1e-13 of the longest interval.
_SINGULAR = 1e-3


def _tail_coeffs(betas: np.ndarray) -> np.ndarray:
    """Coefficients over orders -n..n: the one Bessel truncation rule.

    The coefficient FFT is sized from the first-order support estimate
    sum_k k |beta_k| + 3 cbrt(.) + 40 and resolves orders well past it, so
    n is the least order with sum_{|j| > n} |c_j|^2 below ``_TAIL``.  Only
    an n beyond the estimate doubles it and redoes the FFT.  An estimate
    beyond ``_N_MAX_CAP`` raises :class:`TruncationError` before any FFT.
    """
    k = np.arange(1, len(betas) + 1)
    weight = float(np.sum(k * np.abs(betas)))
    est = int(np.ceil(weight + 3.0 * np.cbrt(weight))) + 40
    while est <= _N_MAX_CAP:
        m = _fft_points(est, len(betas))
        half = m // 2 - 1
        coef = _coeffs_fft(betas[None, :], half, m=m)[0]
        p = np.abs(coef) ** 2
        # Energy beyond orders half - 1, half - 2, ..., 0.
        tail = np.cumsum((p + p[::-1])[:half])
        n = half - int(np.count_nonzero(tail < _TAIL))
        if n <= est:
            return coef[half - n : half + n + 1]
        est *= 2
    raise TruncationError(
        f"Bessel orders up to {est} exceed the cap of {_N_MAX_CAP}"
    )


def gbf_coeffs(betas, n_max: int | None = None, weights=None) -> GbfCoefficients:
    """Generalized Bessel coefficients by FFT of the generating function.

    ``betas[k-1]`` is the k-th harmonic amplitude; optional complex
    ``weights`` multiply each harmonic before exponentiation.  The orders
    come from the truncation rule unless ``n_max`` (>= support_bound) is set.
    """
    betas = np.asarray(betas, dtype=np.complex128)
    if betas.ndim != 1 or len(betas) == 0:
        raise ParameterError("betas must be a nonempty 1-D sequence")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.complex128)
        if weights.shape != betas.shape:
            raise ParameterError("weights must match betas in length")
        betas = betas * weights
    if n_max is None:
        values = _tail_coeffs(betas)
    elif n_max < support_bound(betas):
        raise TruncationError(
            f"n_max={n_max} below the support bound {support_bound(betas)}"
        )
    else:
        values = _coeffs_fft(betas[None, :], n_max)[0]
    orders = np.arange(len(values)) - len(values) // 2
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


def _series_sum(g1, g2, x, y, t1, t2) -> np.ndarray:
    """Per-order terms of a double harmonic series over P intervals.

    Returns the (P, M) array of
    sum_n g1_n g2_pm int_t1p^t2p exp(2j pi (x_n - y_m) t) dt for ``g1`` at
    ascending frequencies ``x`` (N), ``g2`` (P, M) at ascending ``y`` (M)
    and one interval [t1_p, t2_p] per row.

    Cauchy split: each integral is (e(t2) - e(t1)) / (2j pi mu_nm), with
    mu_nm = x_n - y_m, and e(t) factors by order, so the terms are
    (1/2j) [(A(t2) C) B(t2) - (A(t1) C) B(t1)] with A_n(t) =
    g1_n exp(2j pi x_n t), B_m(t) = g2_m exp(-2j pi y_m t) and the real
    kernel C_nm = 1 / (pi mu_nm): one real matrix product for every
    interval.  Pairs with |mu_nm| times the longest interval below
    ``_SINGULAR`` get C = 0 and are added as exact sinc terms instead.  C
    is built in blocks of orders n so that no temporary exceeds
    ``_CHUNK_BYTES``.
    """
    p_count, m_count = g2.shape
    length = t2 - t1
    center = 0.5 * (t1 + t2)
    # Endpoint factors, indexed (end, interval, order) with end 0 at t2 and
    # end 1 at t1; the left ones as one real (4P x N) matrix.
    ends = np.stack([t2, t1])[:, :, None]
    a = g1 * np.exp(2j * np.pi * ends * x)
    left = np.stack([a.real, a.imag], axis=1).reshape(4 * p_count, len(x))
    split = np.zeros((4 * p_count, m_count))
    exact = np.zeros((p_count, m_count), dtype=np.complex128)
    near = _SINGULAR / np.max(length)
    step = max(_CHUNK_BYTES // (8 * m_count), 1)
    pairs = max(_CHUNK_BYTES // (16 * p_count), 1)
    buf = np.empty((min(step, len(x)), m_count))
    for n0 in range(0, len(x), step):
        # Singular pairs: x and y ascend, so each x_n meets one run of y_m.
        xb = x[n0 : n0 + step]
        lo = np.searchsorted(y, xb - near, side="right")
        count = np.searchsorted(y, xb + near, side="left") - lo
        ni = np.repeat(np.arange(len(xb)), count)
        mj = np.arange(len(ni)) + np.repeat(lo - np.cumsum(count) + count, count)
        # Cauchy kernel 1 / (pi mu) in one reused buffer; singular -> 0.
        kern = np.subtract.outer(xb, y, out=buf[: len(xb)])
        kern[ni, mj] = np.inf
        np.divide(1.0 / np.pi, kern, out=kern)
        split += left[:, n0 : n0 + step] @ kern
        # Exact sinc terms of the singular pairs, in memory-bounded slices.
        ni += n0
        for s0 in range(0, len(ni), pairs):
            n_s, m_s = ni[s0 : s0 + pairs], mj[s0 : s0 + pairs]
            mu = x[n_s] - y[m_s]
            terms = np.outer(length, g1[n_s]) * np.sinc(np.outer(length, mu))
            terms *= np.exp(2j * np.pi * np.outer(center, mu))
            np.add.at(exact, (slice(None), m_s), terms)
    split = split.reshape(2, 2, p_count, m_count)
    at_end = (split[:, 0] + 1j * split[:, 1]) * np.exp(-2j * np.pi * ends * y)
    return g2 * ((at_end[0] - at_end[1]) / 2j + exact)
