"""Generalized (multi-harmonic) Bessel coefficients, cylindrical J_n included.

The generalized Bessel function coefficients are the Fourier coefficients of
the unimodular generating function

    g(theta) = exp{ j sum_k Im[ w_k beta_k e^{j k theta} ] }

so that with unit weights the harmonic terms are ``beta_k sin(k theta)`` and
the single-harmonic case reduces to the cylindrical J_n.  Complex weights
rotate each harmonic's phase (and rescale its amplitude).  Both closed forms
share this module's truncation rule (:func:`_tail_coeffs`), its Cauchy
kernel (:func:`_cauchy_sums`) and the exact terms of the pairs the kernel
leaves out (:func:`_pair_terms`).  The kernel's two grids are arithmetic
progressions (consecutive Bessel orders, or a spectrum's lines and its
uniform frequency grid): on equal grids it is Toeplitz and one FFT
convolution applies it; otherwise it is built in tiles, each by one exact
subtraction, with its left-out pairs found on that tile alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_core import ParameterError, _fast_len


class TruncationError(ParameterError):
    """Raised when a series truncation order cannot contain its support."""


@dataclass(frozen=True)
class GbfCoefficients:
    """Coefficient vector over orders -n_max..n_max."""

    orders: np.ndarray
    values: np.ndarray

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
# one AF Doppler row already builds a (2^15)^2 = 1e9-entry Cauchy kernel,
# so a larger order is a pathological spec (say an sfm with f_m near 0):
# refusing it up front keeps the coefficient FFT from asking for gigabytes.
_N_MAX_CAP = 1 << 14

# Memory bound for each block of :func:`_pair_terms`.
_CHUNK_BYTES = 1 << 26

# Doubles in one tile of the Cauchy kernel that :func:`_cauchy_sums` builds
# on unequal grids (equal ones take one FFT convolution), and the least
# tile side.  Each tile's search for left-out pairs is bounded by its size
# too, so a pass holds O(_TILE) memory beyond its sides and outputs.
# Measured on the benchmark's af-closed pool before equal grids took the
# FFT (2-vCPU VM, median per surface): 2^16 takes 23 ms of wall and CPU
# time alike, while smaller tiles pay numpy's per-call overhead (31 ms at
# 2^15, 84 ms at 2^12).  A side holds at most 4 real rows or columns, so
# at 2^16 each tile product is 2^18 multiply-adds, the most OpenBLAS keeps
# on one thread; from 2^17 up its second thread takes a share and spins
# between products, which doubles CPU time (65 ms at 2^17, 53 ms at 2^22)
# and gains no wall time.
_TILE = 1 << 16
_TILE_SIDE = 1 << 8

# Order pairs with |mu| * (longest interval) below this bypass the Cauchy
# kernel of :func:`_cauchy_sums` and are summed as exact sinc terms.  The
# kernel's endpoint terms cancel as mu -> 0, losing about eps / (pi |mu| L)
# per term, so this keeps the loss near 1e-13 of the longest interval.
_SINGULAR = 1e-3


def _tail_coeffs(betas: np.ndarray) -> np.ndarray:
    """Coefficients over orders -n..n: the one Bessel truncation rule.

    The coefficient FFT is sized from the first-order support estimate
    sum_k k |beta_k| + 3 cbrt(.) + 40, or the harmonic count K if larger
    (weak high harmonics still reach orders past K), and n is the least
    order with sum_{|j| > n} |c_j|^2 below ``_TAIL``.  An m-point FFT
    aliases order j onto j - m, so once 4 n <= m the kept orders' aliases
    come from orders beyond 3 n, inside the tail already measured, and n
    stands; only a larger n doubles the estimate and redoes the FFT.  An
    estimate beyond ``_N_MAX_CAP`` raises :class:`TruncationError` before
    any FFT.
    """
    k = np.arange(1, len(betas) + 1)
    weight = float(np.sum(k * np.abs(betas)))
    est = max(int(np.ceil(weight + 3.0 * np.cbrt(weight))) + 40, len(betas))
    while est <= _N_MAX_CAP:
        m = _fft_points(est, len(betas))
        half = m // 2 - 1
        coef = _coeffs_fft(betas[None, :], half, m=m)[0]
        p = np.abs(coef) ** 2
        # Energy beyond orders half - 1, half - 2, ..., 0.
        tail = np.cumsum((p + p[::-1])[:half])
        n = half - int(np.count_nonzero(tail < _TAIL))
        if 4 * n <= m:
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
    return GbfCoefficients(orders=orders, values=values)


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


def _singular_pairs(x: np.ndarray, y: np.ndarray, near: float):
    """Index arrays (n, m) of the pairs with |x_n - y_m| < ``near``.

    x and y ascend, so each x_n meets one run of y_m; the pairs come
    ordered by n.
    """
    lo = np.searchsorted(y, x - near, side="right")
    count = np.searchsorted(y, x + near, side="left") - lo
    ni = np.repeat(np.arange(len(x)), count)
    mj = np.arange(len(ni)) + np.repeat(lo - np.cumsum(count) + count, count)
    return ni, mj


def _cauchy_sums(x, y, near, left, right=None):
    """Both products of the Cauchy kernel C_nm = 1 / (pi (x_n - y_m)).

    Returns ``(left @ C, C @ right)`` for complex ``left`` (L, N) and
    ``right`` (M, R), at ``x`` (N) and ``y`` (M), each an ascending
    arithmetic progression; without ``right``, only ``left @ C``.  Pairs
    with |x_n - y_m| < ``near`` get C = 0; callers add them as exact terms
    (:func:`_pair_terms`).  This is the one place the kernel is applied.

    When x and y are equal and their step is at least ``near``, the pairs
    left out are exactly the diagonal and C_nm = kappa(n - m) is Toeplitz
    and antisymmetric, with kappa(k) = 1 / (pi h k) at step h and
    kappa(0) = 0, so both products are one FFT convolution.  Otherwise C is
    built in tiles of ``_TILE`` doubles over both n and m, each by one
    exact subtraction with its left-out pairs found on that tile alone, and
    applied to both sides as real products before the next is built: the
    kernel stays in cache, one pass costs O(N M) however many rows and
    columns the sides hold, and no pass holds more than a tile's pairs.
    """
    n_count, m_count = len(x), len(y)
    if np.array_equal(x, y) and np.all(np.diff(x) >= near):
        h = (x[-1] - x[0]) / max(n_count - 1, 1)
        size = _fast_len(2 * n_count - 1)
        kappa = np.zeros(size)
        kappa[1:n_count] = 1.0 / (np.pi * h * np.arange(1, n_count))
        kappa[size - n_count + 1 :] = -kappa[n_count - 1 : 0 : -1]
        sides = left if right is None else np.concatenate([left, right.T])
        # sum_n left_n C_nm = -(kappa * left)_m and sum_m C_nm right_m =
        # (kappa * right)_n, by antisymmetry.
        conv = np.fft.ifft(np.fft.fft(sides, size) * np.fft.fft(kappa))
        lc = -conv[: len(left), :n_count]
        if right is None:
            return lc
        # A copy, so that no view holds the whole convolution while the
        # caller works.
        return lc, conv[len(left) :, :n_count].T.copy()
    side = np.concatenate([left.real, left.imag])
    lc = np.zeros((len(side), m_count))
    if right is not None:
        other = np.concatenate([right.real, right.imag], axis=1)
        cr = np.zeros((n_count, other.shape[1]))
    cols = min(m_count, max(_TILE_SIDE, _TILE // n_count)) or 1
    rows = min(n_count, _TILE // cols)
    buf = np.empty(rows * cols)
    for n0 in range(0, n_count, rows):
        xb = x[n0 : n0 + rows]
        for m0 in range(0, m_count, cols):
            yb = y[m0 : m0 + cols]
            kern = np.subtract.outer(
                xb, yb, out=buf[: len(xb) * len(yb)].reshape(len(xb), len(yb))
            )
            if yb[0] < xb[-1] + near and yb[-1] > xb[0] - near:
                kern[_singular_pairs(xb, yb, near)] = np.inf
            np.divide(1.0 / np.pi, kern, out=kern)
            lc[:, m0 : m0 + cols] += side[:, n0 : n0 + rows] @ kern
            if right is not None:
                cr[n0 : n0 + rows] += kern @ other[m0 : m0 + cols]
    lc = lc[: len(left)] + 1j * lc[len(left) :]
    if right is None:
        return lc
    r = right.shape[1]
    return lc, cr[:, :r] + 1j * cr[:, r:]


def _pair_terms(g1, x, y, near, t1, t2):
    """Exact terms of the pairs :func:`_cauchy_sums` leaves out.

    Yields ``(m, terms)`` blocks over the pairs (n, m) with
    |x_n - y_m| < ``near``: ``terms`` is the (P, K) array of
    g1_n int_t1p^t2p exp(2j pi (x_n - y_m) t) dt as sinc terms, one row
    per interval, and ``m`` the pairs' y indices.  No block exceeds
    ``_CHUNK_BYTES``.
    """
    length = t2 - t1
    center = 0.5 * (t1 + t2)
    step = max(_CHUNK_BYTES // (8 * max(len(y), 1)), 1)
    pairs = max(_CHUNK_BYTES // (16 * len(length)), 1)
    for n0 in range(0, len(x), step):
        ni, mj = _singular_pairs(x[n0 : n0 + step], y, near)
        ni += n0
        for s0 in range(0, len(ni), pairs):
            n_s, m_s = ni[s0 : s0 + pairs], mj[s0 : s0 + pairs]
            mu = x[n_s] - y[m_s]
            terms = np.outer(length, g1[n_s]) * np.sinc(np.outer(length, mu))
            terms *= np.exp(2j * np.pi * np.outer(center, mu))
            yield m_s, terms
