"""Tests for cylindrical and generalized Bessel coefficient evaluation."""

import numpy as np
import pytest
from scipy.special import jv

from sonarwave.gbf import (
    _TAIL,
    GbfCoefficients,
    TruncationError,
    _coeffs_fft,
    gbf_coeffs,
    support_bound,
)
from sonarwave.signal_core import ParameterError


class TestBesselJ:
    """The one-harmonic coefficients are the cylindrical J_n(x), checked
    against scipy's ``jv`` over the orders the truncation rule keeps."""

    def test_origin(self):
        c = gbf_coeffs([0.0])
        assert c[0] == jv(0, 0.0) == 1.0
        assert np.all(c.values[np.asarray(c.orders) != 0] == 0.0)

    def test_reference_value(self):
        c = gbf_coeffs([1.0])
        assert c[1] == pytest.approx(0.4400505857, abs=1e-10)
        assert c[1] == pytest.approx(jv(1, 1.0), abs=1e-12)

    def test_parity(self):
        for x in (0.5, 3.0, 10.0):
            c = gbf_coeffs([x])
            for n in (1, 2, 5):
                assert c[-n] == pytest.approx((-1) ** n * c[n], abs=1e-12)
            n = np.arange(-c.n_max, c.n_max + 1)
            np.testing.assert_allclose(c.values, jv(n, x), atol=1e-12)


class TestGbfCoeffs:
    def test_reduced_dimension_identity(self):
        for x in (0.1, 1.0, 7.3, 25.0, 50.0):
            c = gbf_coeffs([x])
            n = np.arange(0, min(c.n_max, 60) + 1)
            np.testing.assert_allclose(
                [c[int(k)] for k in n], jv(n, x), atol=1e-10
            )
            # K=1 real beta: coefficients are real.
            assert np.max(np.abs(np.asarray(c.values).imag)) < 1e-10

    def test_zero_betas_delta(self):
        c = gbf_coeffs([0.0, 0.0, 0.0])
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(c[1]) < 1e-12 and abs(c[-3]) < 1e-12

    def test_normalization_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = rng.integers(1, 11)
            betas = rng.uniform(-20.0, 20.0, size=k)
            c = gbf_coeffs(betas)
            assert abs(np.sum(np.abs(c.values) ** 2) - 1.0) < 1e-8

    def test_grid_doubling_stability(self):
        betas = np.array([3.0, -1.5, 0.7], dtype=np.complex128)
        n_max = 40
        a = _coeffs_fft(betas[None, :], n_max)[0]
        m = 1 << int(np.ceil(np.log2(max(8 * n_max, 256))))
        b = _coeffs_fft(betas[None, :], n_max, m=2 * m)[0]
        assert np.max(np.abs(a - b)) < 1e-12

    def test_phase_weights_rotate_orders(self):
        # exp(j beta sin(theta + phi)) has coefficients J_n(beta) e^{j n phi}.
        beta, phi = 2.5, 0.7
        c = gbf_coeffs([beta], weights=[np.exp(1j * phi)])
        for n in range(-5, 6):
            assert c[n] == pytest.approx(
                jv(n, beta) * np.exp(1j * n * phi), abs=1e-10
            )

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            gbf_coeffs([10.0], n_max=5)
        assert support_bound([10.0]) == 30

    def test_default_order_is_least_within_tail(self):
        # The default keeps orders out to the least n whose outer tail
        # energy is below _TAIL, and matches a wide explicit truncation.
        for betas in ([0.0], [7.3], [40.0], [20.0, -3.0, 0.5, 0.1]):
            c = gbf_coeffs(betas)
            wide = gbf_coeffs(betas, n_max=4 * c.n_max + 100)
            energy = np.abs(wide.values) ** 2
            outside = np.abs(wide.orders)
            assert np.sum(energy[outside > c.n_max]) < _TAIL
            if c.n_max > 0:
                assert np.sum(energy[outside >= c.n_max]) >= _TAIL
            inner = wide.values[np.abs(wide.orders) <= c.n_max]
            assert np.max(np.abs(c.values - inner)) < 1e-13

    def test_order_cap_refuses_before_allocating(self, no_allocation):
        with pytest.raises(TruncationError, match="cap"):
            gbf_coeffs([5e8])

    def test_weights_length_mismatch(self):
        with pytest.raises(ParameterError):
            gbf_coeffs([1.0, 2.0], weights=[1.0])

    def test_empty_betas_rejected(self):
        with pytest.raises(ParameterError):
            gbf_coeffs([])

    def test_getitem_out_of_range_is_zero(self):
        c = gbf_coeffs([1.0])
        assert c[c.n_max + 5] == 0.0
        assert c[-(c.n_max + 5)] == 0.0


def test_coefficients_container():
    c = GbfCoefficients(
        orders=np.arange(-1, 2), values=np.array([0.1, 0.9, 0.1])
    )
    assert c.n_max == 1
    assert c[0] == pytest.approx(0.9)
