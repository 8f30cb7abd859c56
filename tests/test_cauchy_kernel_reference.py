"""Side-by-side checks of the Cauchy kernel that both closed forms apply.

``_tiled_cauchy_sums`` builds every tile of C_nm = 1 / (pi (x_n - y_m))
by an exact broadcast subtraction, as ``gbf._cauchy_sums`` does off the
Toeplitz case, where the pairs left out are exactly the diagonal of equal
grids.  The kernel must reproduce it exactly off that case, and to
``RTOL`` of sum_n |w_n| max |C| for each output (a row of ``left @ C`` or
a column of ``C @ right``) on it, where one FFT convolution applies the
kernel (the eta = 1 Doppler row).  The cases are rows at eta < 1 and
eta > 1, pruned orders embedded at weight 0, N = 1 and M = 1, sizes that
are no multiple of the tile side, tiles that straddle the band of
left-out pairs, and a closed spectrum's lines against a grid that hits
them.  Real sides, as whole-period closed-AF rows pass, must equal the
complex call on the same vectors to ``RTOL_REAL`` in both branches.
"""

import tracemalloc

import numpy as np
import pytest
from test_closed_spectrum_reference import _on_lines_grid

from sonarwave.gbf import (
    _SINGULAR,
    _TILE,
    _TILE_SIDE,
    _cauchy_sums,
    _pair_terms,
    _singular_pairs,
    gbf_coeffs,
)
from sonarwave.waveforms import WaveformSpec, harmonic_series

RTOL = 1e-14
RTOL_REAL = 1e-15


def _tiled_cauchy_sums(x, y, near, left, right=None):
    """Both products of the Cauchy kernel C_nm = 1 / (pi (x_n - y_m)).

    Returns ``(left @ C, C @ right)`` for complex ``left`` (L, N) and
    ``right`` (M, R), at ascending ``x`` (N) and ``y`` (M); without
    ``right``, only ``left @ C``.  Pairs with |x_n - y_m| < ``near`` get
    C = 0; callers add them as exact terms (:func:`_pair_terms`).  This is
    the one place the kernel is built: in tiles of ``_TILE`` doubles over
    both n and m, each applied to both sides as real products before the
    next is built, so the kernel stays in cache and one pass costs O(N M)
    however many rows and columns the sides hold.
    """
    n_count, m_count = len(x), len(y)
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


def _sides(rng, n, m):
    left = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    right = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    return left, right


def _kernel_bounds(x, y, near):
    """max |C_nm| over the kept pairs, per column m and per row n (0 where
    none is kept)."""
    mu = np.abs(np.subtract.outer(x, y))
    mu[mu < near] = np.inf
    c = 1.0 / (np.pi * mu)
    return c.max(axis=0), c.max(axis=1)


def _assert_close(lc, cr, ref_lc, ref_cr, x, y, near, left, right):
    """Each output within RTOL of sum |w| max |C| over its own sum."""
    c_col, c_row = _kernel_bounds(x, y, near)
    scale_l = np.sum(np.abs(left), axis=1)[:, None] * c_col[None, :]
    scale_r = np.sum(np.abs(right), axis=0)[None, :] * c_row[:, None]
    assert np.all(np.abs(lc - ref_lc) <= RTOL * scale_l)
    assert np.all(np.abs(cr - ref_cr) <= RTOL * scale_r)


def _assert_matches(x, y, near, left, right):
    lc, cr = _cauchy_sums(x, y, near, left, right)
    ref_lc, ref_cr = _tiled_cauchy_sums(x, y, near, left, right)
    _assert_close(lc, cr, ref_lc, ref_cr, x, y, near, left, right)
    toeplitz = (np.array_equal(x, y)
                and len(_singular_pairs(x, y, near)[0]) == len(x))
    if not toeplitz:
        assert np.array_equal(lc, ref_lc) and np.array_equal(cr, ref_cr)
    assert np.array_equal(_cauchy_sums(x, y, near, left), lc)


def _af_row(orders, eta, f0=1.0 / 0.37, fc=2137.3):
    """x and y of one closed-AF Doppler row."""
    return fc * (1.0 - eta) + f0 * orders, f0 * eta * orders


@pytest.mark.parametrize("n", [1, 2, 89, 700, 1500])
def test_equal_grids(n):
    rng = np.random.default_rng(n)
    x, y = _af_row(np.arange(n) - n // 2.0, 1.0)
    assert np.array_equal(x, y)
    _assert_matches(x, y, 1e-3, *_sides(rng, n, n))


def test_equal_grids_with_wide_near_band():
    # near spans the step, so neighbours are left out too: not Toeplitz
    # with kappa(+-1) = 1 / (pi h).
    rng = np.random.default_rng(3)
    x, y = _af_row(np.arange(300) - 150.0, 1.0)
    assert len(_singular_pairs(x, y, 5.0)[0]) > len(x)
    _assert_matches(x, y, 5.0, *_sides(rng, 300, 300))


@pytest.mark.parametrize("eta", [1 - 2.7e-2, 1 - 1e-5, 1 + 1e-5, 1 + 2.7e-2])
@pytest.mark.parametrize("n", [300, 1100])
def test_doppler_rows(eta, n):
    rng = np.random.default_rng(n)
    x, y = _af_row(np.arange(n) - n // 2.0, eta)
    _assert_matches(x, y, 0.02, *_sides(rng, n, n))


def test_pruned_orders_at_zero_weight():
    # The closed AF keeps the contiguous range of orders with weight 0 on
    # pruned ones; the former kernel ran on the kept orders alone.
    rng = np.random.default_rng(5)
    orders = np.arange(900) - 450.0
    keep = rng.random(900) > 0.3
    keep[[0, -1]] = True
    for eta in (1.0, 1.0 + 3e-3):
        x, y = _af_row(orders, eta)
        left, right = _sides(rng, 900, 900)
        left[:, ~keep] = 0.0
        right[~keep] = 0.0
        ref = _tiled_cauchy_sums(
            x[keep], y[keep], 0.02, left[:, keep], right[keep])
        lc, cr = _cauchy_sums(x, y, 0.02, left, right)
        _assert_close(lc[:, keep], cr[keep], *ref, x[keep], y[keep], 0.02,
                      left[:, keep], right[keep])
        _assert_matches(x, y, 0.02, left, right)


def test_pair_search_memory_is_one_tile():
    # Every pair is left out, so the kernel is 0; a search for them over the
    # whole grid would hold N M index pairs (216 MB here).
    n = 3000
    x = 0.7 * np.arange(n)
    left, right = _sides(np.random.default_rng(8), n, n)
    tracemalloc.start()
    try:
        lc, cr = _cauchy_sums(x, x + 0.5, 1e9, left, right)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert not np.any(lc) and not np.any(cr)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 700), (700, 1), (1, 257), (3, 5)])
def test_single_order_or_frequency(n, m):
    rng = np.random.default_rng(n + m)
    x = 1000.1 + 0.7 * np.arange(n)
    y = 999.3 + 0.3 * np.arange(m)
    _assert_matches(x, y, 0.05, *_sides(rng, n, m))


@pytest.mark.parametrize("n, m", [(257, 1023), (513, 513), (1000, 333)])
def test_sizes_off_the_tile_side(n, m):
    rng = np.random.default_rng(n * m)
    x = -310.1 + 1.3 * np.arange(n)
    y = -250.3 + 0.9 * np.arange(m)
    _assert_matches(x, y, 0.01, *_sides(rng, n, m))


def test_tiles_straddling_the_near_band():
    # A fine y grid over the x range: the band of left-out pairs crosses
    # tile edges in both directions, and far tiles lie on both sides.
    rng = np.random.default_rng(11)
    x = 1500.3 + 10.0 / 3.0 * np.arange(400)
    y = 1300.1 + 1.0 / 6.0 * np.arange(9000)
    near = 0.2
    assert len(_singular_pairs(x, y, near)[0]) > len(x)
    _assert_matches(x, y, near, *_sides(rng, 400, 9000))


def test_spectrum_lines_on_grid():
    spec = WaveformSpec(family="sfm", T=0.3, f_c=3000.0, delta_f=420.0,
                        f_m=23.0, symmetry="nonsymmetric")
    betas, f0, fc_eff, ta, tb = harmonic_series(spec)
    c = gbf_coeffs(betas)
    lines = fc_eff + f0 * c.orders
    freqs = _on_lines_grid(spec, count=4001)
    near = _SINGULAR / spec.T
    assert len(_singular_pairs(lines, freqs, near)[0]) > 0
    rng = np.random.default_rng(2)
    _assert_matches(lines, freqs, near, *_sides(rng, len(lines), len(freqs)))


@pytest.mark.parametrize("eta", [1.0, 1.0 + 4e-3])
def test_left_out_pairs_are_the_exact_pairs(eta):
    # C = 0 on exactly the pairs _pair_terms sums as exact terms.
    x, y = _af_row(np.arange(600) - 300.0, eta)
    near = 0.02 if eta == 1.0 else 2.0
    dense = _cauchy_sums(x, y, near, np.eye(len(x), dtype=complex))
    ni, mj = _singular_pairs(x, y, near)
    zero = np.zeros(dense.shape, dtype=bool)
    zero[ni, mj] = True
    c_max = np.max(_kernel_bounds(x, y, near)[0])
    assert np.max(np.abs(dense[zero])) <= 1e-12 * c_max
    assert np.min(np.abs(dense[~zero])) > 0.1 / (np.pi * np.ptp(x) * 2)
    g = np.ones(len(x), dtype=complex)
    m = np.concatenate([m for m, _ in _pair_terms(
        g, x, y, near, np.array([0.0]), np.array([1.0]))])
    assert np.array_equal(np.sort(m), np.sort(mj))


def _assert_real_matches_complex(x, y, near, w):
    """Real row and column against the complex call on the same vector."""
    lc, cr = _cauchy_sums(x, y, near, w[None, :], w[:, None])
    assert lc.dtype == cr.dtype == np.float64
    ref_lc, ref_cr = _cauchy_sums(x, y, near, w[None, :] + 0j, w[:, None] + 0j)
    c_col, c_row = _kernel_bounds(x, y, near)
    scale = np.sum(np.abs(w))
    assert np.all(np.abs(lc[0] - ref_lc[0]) <= RTOL_REAL * scale * c_col)
    assert np.all(np.abs(cr[:, 0] - ref_cr[:, 0]) <= RTOL_REAL * scale * c_row)
    assert np.array_equal(_cauchy_sums(x, y, near, w[None, :]), lc)


@pytest.mark.parametrize("n", [1, 2, 89, 700, 1500])
def test_real_sides_on_equal_grids(n):
    rng = np.random.default_rng(n + 40)
    x, y = _af_row(np.arange(n) - n // 2.0, 1.0)
    _assert_real_matches_complex(x, y, 1e-3, rng.standard_normal(n))


def test_real_sides_on_equal_grids_with_wide_near_band():
    # Equal grids that take the tiled branch.
    rng = np.random.default_rng(44)
    x, y = _af_row(np.arange(300) - 150.0, 1.0)
    _assert_real_matches_complex(x, y, 5.0, rng.standard_normal(300))


@pytest.mark.parametrize("eta", [1 - 2.7e-2, 1 - 1e-5, 1 + 1e-5, 1 + 2.7e-2])
@pytest.mark.parametrize("n", [1, 300, 1100])
def test_real_sides_on_doppler_rows(eta, n):
    rng = np.random.default_rng(n + 41)
    x, y = _af_row(np.arange(n) - n // 2.0, eta)
    _assert_real_matches_complex(x, y, 0.02, rng.standard_normal(n))
