"""Tests for broadband ambiguity surfaces, cuts, and closed-form series."""

import json
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sonarwave import ambiguity, gbf
from sonarwave.ambiguity import (
    AmbiguityCut,
    AmbiguitySurface,
    _af_rows,
    acf,
    ambiguity_numeric,
    closed_af_surface,
    compare_af,
    doppler_eta,
    gsfm_af_closed,
    mainlobe_width,
    peak_sidelobe,
    read_binary_surface,
    sfm_af_closed,
    velocity_from_eta,
)
from sonarwave.gbf import TruncationError
from sonarwave.signal_core import ParameterError, SampledSignal, Taper
from sonarwave.waveforms import WaveformSpec, generate, m_sequence

T, FC, DF = 0.5, 2000.0, 200.0

CW = WaveformSpec(family="cw", T=T, f_c=FC)
LFM = WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF)


class TestReciprocalPartners:
    """The one pairing rule of both AF paths: a row eta_b < 1 is read from
    the first row eta_a > 1 within 2 ulp of its reciprocal."""

    @staticmethod
    def pairs(etas):
        folded, partner = ambiguity._reciprocal_partners(np.array(etas))
        return list(zip(folded.tolist(), partner.tolist()))

    def test_no_pair_without_both_sides(self):
        assert self.pairs([0.8, 0.9, 1.0]) == []
        assert self.pairs([1.0, 1.1, 1.25]) == []
        assert self.pairs([1.0]) == []
        assert self.pairs([0.8, 1.0, 1.2]) == []

    def test_velocity_symmetric_grid(self):
        etas = [doppler_eta(v) for v in np.linspace(-20.0, 20.0, 5)]
        assert self.pairs(etas) == [(0, 4), (1, 3)]

    def test_duplicated_rows_read_the_first_partner(self):
        assert self.pairs([0.8, 1.25, 1.0, 1.25, 0.8]) == [(0, 1), (4, 1)]

    @pytest.mark.parametrize("v", [2.5, 6.5, 7.5, 25.0])
    def test_one_ulp_speeds_pair(self, v):
        # 1 / doppler_eta(-v) is 1 ulp off doppler_eta(v) at these speeds.
        lo, hi = doppler_eta(-v), doppler_eta(v)
        assert abs(1.0 / lo - hi) == np.spacing(hi)
        assert self.pairs([lo, hi]) == [(0, 1)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_two_ulp_pairs_three_do_not(self, sign):
        ulp = np.spacing(1.25)
        assert 1.0 / 0.8 == 1.25
        assert self.pairs([0.8, 1.25 + sign * 2 * ulp]) == [(0, 1)]
        assert self.pairs([0.8, 1.25 + sign * 3 * ulp]) == []

    def test_nearest_partner_wins(self):
        ulp = np.spacing(1.25)
        etas = [1.25 + 2 * ulp, 0.8, 1.25 - ulp]
        assert self.pairs(etas) == [(1, 2)]


class TestDopplerEta:
    def test_values(self):
        assert doppler_eta(0.0) == 1.0
        assert doppler_eta(15.0) == pytest.approx(1.0202020202, abs=1e-9)
        assert doppler_eta(-15.0) == pytest.approx(0.9801980198, abs=1e-9)

    def test_inverse(self):
        for v in (-25.0, 0.0, 3.7, 19.0):
            assert velocity_from_eta(doppler_eta(v)) == pytest.approx(v)

    def test_speed_bound(self):
        with pytest.raises(ParameterError):
            doppler_eta(1500.0)

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf, "10"])
    def test_non_finite_velocity(self, v):
        # nan used to pass the speed bound and come back as a nan scale.
        with pytest.raises(ParameterError, match="finite"):
            doppler_eta(v)

    def test_velocity_overflow(self):
        # c (eta - 1) beyond the float range used to come back as inf.
        for eta, c in ((1e300, 1e39), (-1.0, 1500.0)):
            with pytest.raises(ParameterError, match="finite"):
                velocity_from_eta(np.array([1.0, eta]), c)

    @pytest.mark.parametrize("eta", [np.array([1.0, 1.01j]), 1.01j, "1.01",
                                     [[1.0], [1.0, 1.01]]])
    def test_velocity_of_scales_that_are_not_real(self, eta):
        # A complex scale was cut to its real part, and a string parsed.
        with pytest.raises(ParameterError, match="real numbers"):
            velocity_from_eta(eta)

    @pytest.mark.parametrize("c", [0.0, -1500.0, float("nan"), float("inf"),
                                   True, "1500"])
    def test_sound_speed_checked(self, c, monkeypatch):
        # c = 0 wrote every velocity as -0.0, a negative c flipped the sign.
        # The surfaces refuse it before any kernel runs.
        def no_kernel(*args):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(ambiguity, "_af_rows", no_kernel)
        monkeypatch.setattr(ambiguity, "_closed_af", no_kernel)
        sfm = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)
        for call in (lambda: doppler_eta(1.0, c),
                     lambda: velocity_from_eta(1.01, c),
                     lambda: AmbiguitySurface([0.0], [1.0], [[1.0]], c=c),
                     lambda: ambiguity_numeric(generate(CW), [0.0], [1.0], c),
                     lambda: closed_af_surface(sfm, [0.0], [1.0], c)):
            with pytest.raises(ParameterError, match="sound speed"):
                call()


class TestNumericSurface:
    def test_origin_peak_is_energy(self):
        sig = generate(CW)
        val = _af_rows(sig, np.array([0.0]), np.array([1.0]))[0, 0]
        assert val == pytest.approx(sig.energy, rel=1e-6)

    def test_origin_cell_normalized(self):
        sig = generate(LFM)
        surf = ambiguity_numeric(
            sig, np.linspace(-0.1, 0.1, 41), np.linspace(0.99, 1.01, 5)
        )
        i, j = np.unravel_index(np.argmax(surf.values), surf.values.shape)
        assert surf.values[i, j] == 1.0
        assert abs(surf.delays[j]) <= surf.delays[1] - surf.delays[0]
        assert abs(surf.dopplers[i] - 1.0) <= (
            surf.dopplers[1] - surf.dopplers[0]
        )

    def test_cw_triangle_acf(self):
        sig = generate(CW)
        delays = np.linspace(-T, T, 801)
        cut = acf(sig, delays)
        np.testing.assert_allclose(
            cut.values, np.maximum(1.0 - np.abs(delays) / T, 0.0), atol=5e-3
        )
        at_half = cut.values[np.argmin(np.abs(delays - T / 2))]
        assert at_half == pytest.approx(0.5, abs=5e-3)

    def test_lfm_range_doppler_ridge(self):
        sig = generate(LFM)
        eta = doppler_eta(3.0)
        delays = np.linspace(-0.1, 0.1, 801)
        row = _af_rows(sig, delays, np.array([eta]))[0]
        tau_peak = delays[np.argmax(row)]
        predicted = -(eta - 1.0) * FC * T / DF
        assert tau_peak == pytest.approx(predicted, abs=3e-3)

    def test_acf_even_symmetry(self):
        sig = generate(LFM)
        delays = np.linspace(-0.2, 0.2, 401)
        cut = acf(sig, delays)
        np.testing.assert_allclose(cut.values, cut.values[::-1], atol=1e-9)

    def test_out_of_bounds_eta_zeroed_with_warning(self):
        sig = generate(CW)
        surf = ambiguity_numeric(sig, np.array([0.0]), np.array([1.0, 3.0]))
        assert surf.values[1, 0] == 0.0
        assert any("eta=3.0" in w for w in surf.warnings)

    def test_out_of_bounds_rows_are_zeroed_before_pairing(self):
        # 0.4 and 2.5 are a reciprocal pair outside (0.5, 2): both rows are
        # zeroed, and the rows inside are those of a grid without them, so
        # 0.8 is still read from 1.25.
        sig = generate(LFM)
        taus = np.linspace(-T / 2, T / 2, 11)
        surf = ambiguity_numeric(sig, taus, np.array([0.4, 0.8, 1.0, 1.25,
                                                      2.5]))
        inner = ambiguity_numeric(sig, taus, np.array([0.8, 1.0, 1.25]))
        assert np.all(surf.values[[0, 4]] == 0.0)
        assert sum("outside Doppler bounds" in w for w in surf.warnings) == 2
        np.testing.assert_array_equal(surf.values[1:4], inner.values)

    def test_repeated_rows_take_one_transform(self):
        # 1.25 appears twice and both 0.8 rows fold onto it: one chirp-z
        # transform, and the rows of the grid of distinct values bit for
        # bit (same extremes, so same lag window and FFT length).
        sig = generate(LFM)
        taus = np.linspace(-T / 2, T / 2, 21)
        etas = np.array([0.8, 1.25, 1.0, 1.25, 0.8])
        with mock.patch.object(ambiguity, "_czt",
                               wraps=ambiguity._czt) as czt:
            rows = _af_rows(sig, taus, etas)
        assert czt.call_count == 1
        distinct = _af_rows(sig, taus, np.array([0.8, 1.25, 1.0]))
        np.testing.assert_array_equal(rows, distinct[[0, 1, 2, 1, 0]])
        # A repeated eta = 1 row and a repeated row with no partner too.
        etas = np.array([1.0, 0.9, 1.0, 0.9])
        rows = _af_rows(sig, taus, etas)
        np.testing.assert_array_equal(rows, rows[[0, 1, 0, 1]])
        distinct = _af_rows(sig, taus, np.array([1.0, 0.9]))
        np.testing.assert_array_equal(rows[:2], distinct)

    def test_nonpositive_eta_rejected(self):
        # As on the closed path; eta = -1 used to write a velocity of -inf.
        sig = generate(CW)
        for eta in (0.0, -0.5, -1.0):
            with pytest.raises(ParameterError, match="positive"):
                ambiguity_numeric(sig, np.array([0.0]), np.array([1.0, eta]))

    def test_delay_beyond_duration_warns(self):
        sig = generate(CW)
        surf = ambiguity_numeric(sig, np.array([0.0, 2.0 * T]),
                                 np.array([1.0]))
        assert surf.values[0, 1] == 0.0
        assert any("beyond the signal duration" in w for w in surf.warnings)

    def test_volume_grid_doubling(self):
        sig = generate(CW)

        def volume(n_tau, n_eta):
            taus = np.linspace(-T, T, n_tau)
            etas = np.linspace(0.99, 1.01, n_eta)
            surf = ambiguity_numeric(sig, taus, etas)
            return (
                surf.values.sum()
                * (taus[1] - taus[0]) * (etas[1] - etas[0])
            )

        v1, v2 = volume(101, 21), volume(201, 41)
        assert abs(v2 - v1) / v1 < 0.01

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            AmbiguitySurface(
                delays=np.arange(3.0), dopplers=np.arange(2.0),
                values=np.zeros((3, 2)),
            )


class TestOriginNormalization:
    """Both AF paths normalize a surface to its largest cell, and warn when
    the grid does not span the origin (0, 1), where that cell would be."""

    SFM = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)

    def surfaces(self, delays, etas):
        return (ambiguity_numeric(generate(self.SFM), delays, etas),
                closed_af_surface(self.SFM, delays, etas))

    @pytest.mark.parametrize("delays, etas", [
        ([0.1, 0.2], [1.0]),          # delays all positive
        ([-0.2, -0.1], [0.99, 1.0]),  # delays all negative
        ([-0.1, 0.0, 0.1], [1.01]),   # Doppler scales above 1
        ([0.0], [0.98, 0.99]),        # Doppler scales below 1
    ])
    def test_grid_off_the_origin_warns(self, delays, etas):
        for surf in self.surfaces(np.array(delays), np.array(etas)):
            assert surf.values.max() == 1.0
            notes = [w for w in surf.warnings if "does not span" in w]
            assert len(notes) == 1
            assert "tau = 0, eta = 1" in notes[0]

    @pytest.mark.parametrize("delays, etas", [
        ([0.0], [1.0]),
        ([-0.1, 0.1], [0.99, 1.01]),  # spans the origin without holding it
        (np.linspace(-0.25, 0.25, 21), [doppler_eta(v) for v in
                                        np.linspace(-20.0, 20.0, 5)]),
    ])
    def test_grid_spanning_the_origin_is_silent(self, delays, etas):
        for surf in self.surfaces(np.array(delays), np.array(etas)):
            assert surf.warnings == ()


class TestBpskAcf:
    def test_psl_below_minus_15(self):
        sig = generate(
            WaveformSpec(family="bpsk", T=T, f_c=FC, code=m_sequence(6))
        )
        cut = acf(sig, np.linspace(-T / 2, T / 2, 2001))
        assert peak_sidelobe(cut) <= -15.0

    def test_psl_grid_refinement_stable(self):
        sig = generate(
            WaveformSpec(family="bpsk", T=T, f_c=FC, code=m_sequence(5))
        )
        psl = [
            peak_sidelobe(acf(sig, np.linspace(-T / 2, T / 2, n)))
            for n in (2001, 4001)
        ]
        assert abs(psl[1] - psl[0]) < 0.5


class TestSfmGratingLobes:
    def test_delay_lobes_at_inverse_f_m(self):
        sig = generate(
            WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)
        )
        cut = acf(sig, np.linspace(-0.25, 0.25, 2001))
        # High recurrent lobes every 1/f_m = 0.1 s.
        for tau_lobe in (0.1, 0.2):
            sel = np.abs(cut.axis - tau_lobe) < 0.01
            assert cut.values[sel].max() > 0.5
        assert peak_sidelobe(cut) > -3.0


class TestClosedForms:
    SFM = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)
    GSFM = WaveformSpec(
        family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0
    )

    def test_sfm_origin(self):
        assert sfm_af_closed(self.SFM, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_gsfm_origin(self):
        assert gsfm_af_closed(self.GSFM, None, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_tau_beyond_support_is_zero(self):
        assert sfm_af_closed(self.SFM, 0.6, 1.0) == 0.0

    def test_rho_one_matches_sfm(self):
        gsfm = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=1.0, alpha=10.0
        )
        taus = np.array([0.0, 0.013, -0.08, 0.2])
        etas = np.array([1.0, 1.004, 0.998, 1.01])
        a = gsfm_af_closed(gsfm, None, taus, etas)
        b = sfm_af_closed(self.SFM, taus, etas)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_sfm_matches_numeric_spot(self):
        sig = generate(self.SFM)
        taus = np.linspace(-0.2, 0.2, 41)
        eta = doppler_eta(5.0)
        numeric = _af_rows(sig, taus, np.array([eta]))[0]
        closed = sfm_af_closed(self.SFM, taus, np.full_like(taus, eta))
        assert np.max(np.abs(closed - numeric)) < 0.02

    def test_nonsymmetric_sfm_matches_numeric(self):
        spec = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=9.0,
                            symmetry="nonsymmetric")
        sig = generate(spec)
        taus = np.linspace(-0.2, 0.2, 41)
        for eta in (1.0, doppler_eta(5.0)):
            numeric = _af_rows(sig, taus, np.array([eta]))[0]
            closed = sfm_af_closed(spec, taus, np.full_like(taus, eta))
            assert np.max(np.abs(closed - numeric)) < 0.02

    def test_taper_rejected(self):
        spec = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0,
                            taper=Taper("tukey", 0.1))
        with pytest.raises(ParameterError):
            sfm_af_closed(spec, 0.0, 1.0)

    def test_surface_family_check(self):
        with pytest.raises(ParameterError):
            closed_af_surface(LFM, np.array([0.0]), np.array([1.0]))

    def test_nonpositive_eta_rejected(self):
        for eta in (0.0, -1.0, np.nan):
            with pytest.raises(ParameterError):
                sfm_af_closed(self.SFM, 0.0, eta)

    @pytest.mark.parametrize("tau, eta", [(np.nan, 1.0), (np.inf, 1.0),
                                          (0.0, np.inf), (-np.inf, 0.99),
                                          ("x", 1.0), (0.0, 1j)])
    def test_point_api_refuses_non_finite_points(self, tau, eta):
        # The check the surfaces make: a nan delay and an infinite scale
        # used to come back as |chi| = 0, and a delay that is no number
        # raised numpy's ValueError.
        for taus in (tau, np.array([0.0, tau])):
            with pytest.raises(ParameterError, match="finite"):
                sfm_af_closed(self.SFM, taus, eta)
            with pytest.raises(ParameterError, match="finite"):
                gsfm_af_closed(self.GSFM, None, taus, eta)

    def test_order_cap_refuses_before_allocating(
        self, huge_order_sfm, no_allocation
    ):
        spec = WaveformSpec.from_dict(huge_order_sfm)
        with pytest.raises(TruncationError, match="cap"):
            closed_af_surface(spec, np.linspace(-0.1, 0.1, 3), np.ones(1))

    @pytest.mark.parametrize("bad, scales", [
        (np.array([0.0, 0.1j]), np.array([1.0, 1.0 + 0.01j])),
        (["0.0", "0.1"], ["1.0", "1.01"]),
        (np.array([0.0, 0.1], dtype=object), np.array([1.0], dtype=object)),
    ])
    def test_every_entry_point_refuses_arrays_that_are_not_real(
        self, bad, scales
    ):
        # A complex array was cut to its real part, so the 0.1j delay read
        # as 0 and the point API and both surfaces read [1, 1], and numeric
        # strings were parsed as numbers.
        sig = generate(self.SFM)
        refused = [
            lambda: sfm_af_closed(self.SFM, bad, 1.0),
            lambda: sfm_af_closed(self.SFM, 0.0, scales),
            lambda: gsfm_af_closed(self.GSFM, None, bad, 1.0),
            lambda: gsfm_af_closed(self.GSFM, None, 0.0, scales),
            lambda: closed_af_surface(self.SFM, bad, np.ones(1)),
            lambda: closed_af_surface(self.SFM, np.zeros(1), scales),
            lambda: ambiguity_numeric(sig, bad, np.ones(1)),
            lambda: ambiguity_numeric(sig, np.zeros(1), scales),
            lambda: acf(sig, bad),
        ]
        for call in refused:
            with pytest.raises(ParameterError, match="real numbers"):
                call()

    def test_readme_grid_bounded_memory(self, spec_dir):
        # The README's fig6 surface at 101 x 101: the Cauchy kernel is built
        # in cache-sized tiles and each delay is one dot product per end,
        # so no temporary grows with delays x orders^2.
        spec = WaveformSpec.from_dict(
            json.loads((spec_dir / "fig6_gsfm.json").read_text())
        )
        tracemalloc.start()
        try:
            surf = closed_af_surface(spec, np.linspace(-0.25, 0.25, 101),
                                     np.linspace(0.99, 1.01, 101))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert surf.values.max() == 1.0

    def test_exact_pair_terms_stay_within_their_chunk(self, monkeypatch):
        # Overlaps of 1-4 ps make every one of the 881^2 order pairs an
        # exact sinc term (776k pairs x 4 delays): blocked by a 4 MiB
        # _CHUNK_BYTES, the terms, the caller's phase factor and the
        # previous block stay within it, plus arrays of one row of orders.
        betas, taus = np.array([400.0]), 1.0 - 1e-12 * np.arange(1, 5)
        args = (betas, 1.0, 100.0, -0.5, 0.5, taus, np.ones(4))
        whole = ambiguity._closed_af_points(*args)
        chunk = 4 << 20
        monkeypatch.setattr(gbf, "_CHUNK_BYTES", chunk)
        tracemalloc.start()
        try:
            blocked = ambiguity._closed_af_points(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunk + 64 * 881
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0)
        np.testing.assert_allclose(whole, 1e-12 * np.arange(1, 5), rtol=1e-4)


class TestCutStatistics:
    def triangle_cut(self, n=801):
        x = np.linspace(-T, T, n)
        return AmbiguityCut(axis=x, values=np.maximum(1 - np.abs(x) / T, 0.0))

    def test_triangle_6db_width(self):
        res = mainlobe_width(self.triangle_cut(), 6.0)
        assert res.crossed
        # Triangle crosses half amplitude (-6.02 dB) near |tau| = T/2.
        assert res.width == pytest.approx(T, rel=0.01)

    def test_level_never_crossed(self):
        x = np.linspace(-1.0, 1.0, 101)
        cut = AmbiguityCut(axis=x, values=np.full_like(x, 1.0))
        res = mainlobe_width(cut, 3.0)
        assert not res.crossed
        assert res.width == pytest.approx(2.0)

    def test_lfm_3db_width(self):
        sig = generate(LFM)
        cut = acf(sig, np.linspace(-0.02, 0.02, 4001))
        res = mainlobe_width(cut, 3.0)
        assert res.width == pytest.approx(0.886 / DF, rel=0.05)

    def test_gsfm_width_matches_band_matched_lfm(self):
        from sonarwave.analysis import bandwidth_98
        from sonarwave.signal_core import spectrum_of

        delays = np.linspace(-0.02, 0.02, 4001)
        gsfm = generate(TestClosedForms.GSFM)
        band = bandwidth_98(spectrum_of(gsfm), FC)
        lfm = generate(
            WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=band)
        )
        w_lfm = mainlobe_width(acf(lfm, delays), 3.0).width
        w_gsfm = mainlobe_width(acf(gsfm, delays), 3.0).width
        assert abs(w_gsfm - w_lfm) / w_lfm < 0.15

    def test_triangle_psl_sentinel(self):
        assert peak_sidelobe(self.triangle_cut()) == float("-inf")

    @pytest.mark.parametrize("axis, values", [
        (np.array([]), np.array([])),
        (np.zeros((2, 3)), np.ones((2, 3))),
        (np.array(0.0), np.array(1.0)),
    ])
    def test_cut_must_be_non_empty_1d(self, axis, values):
        # An empty cut made mainlobe_width and peak_sidelobe raise numpy's
        # argmax error, and a 2-D one gave widths from a flattened index.
        with pytest.raises(ParameterError, match="non-empty 1-D"):
            AmbiguityCut(axis=axis, values=values)

    def test_invalid_level(self):
        # nan used to give WidthResult(width=nan, crossed=True).
        for level in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError, match="level_db"):
                mainlobe_width(self.triangle_cut(), level)


class TestSurfaceIO:
    def make_surface(self):
        sig = generate(CW)
        return ambiguity_numeric(
            sig, np.linspace(-0.1, 0.1, 11), np.linspace(0.99, 1.01, 5)
        )

    def test_binary_round_trip(self, tmp_path):
        surf = self.make_surface()
        path = tmp_path / "surf.bin"
        surf.to_binary(path)
        back = read_binary_surface(path)
        assert back.values.shape == surf.values.shape
        np.testing.assert_allclose(back.values, surf.values, atol=1e-7)
        np.testing.assert_allclose(back.delays, surf.delays, atol=1e-7)
        assert back.c == pytest.approx(surf.c)

    def test_binary_keeps_non_uniform_grids(self, tmp_path):
        # The uniform header holds only the grid ends: [0, 0.1, 0.5] used
        # to read back as [0, 0.25, 0.5].  Doppler scales uniform in
        # velocity are not uniform in eta.
        sig = generate(CW)
        etas = np.array([doppler_eta(v) for v in (-20.0, 0.0, 20.0)])
        for delays, etas in (([0.0, 0.1, 0.5], [1.0]),
                             ([0.0, 0.1], etas)):
            surf = ambiguity_numeric(sig, np.array(delays), etas)
            path = tmp_path / "surf.bin"
            surf.to_binary(path)
            assert path.read_bytes()[:4] == b"AFS2"
            back = read_binary_surface(path)
            np.testing.assert_array_equal(back.delays, surf.delays)
            np.testing.assert_array_equal(back.dopplers, surf.dopplers)
            np.testing.assert_allclose(back.values, surf.values, atol=1e-7)

    def test_binary_uniform_grid_layout(self, tmp_path):
        # Uniform grids too carry both axes as float64: (P + M) x 8 bytes.
        surf = self.make_surface()
        path = tmp_path / "surf.bin"
        surf.to_binary(path)
        data = path.read_bytes()
        n_axes = len(surf.delays) + len(surf.dopplers)
        assert data[:4] == b"AFS2"
        assert len(data) == 32 + 8 * n_axes + 4 * surf.values.size

    def test_binary_keeps_fine_uniform_grids(self, tmp_path):
        # As float32 ends, 1 and 1 + 1e-7 read back as [1, 1 + 6e-8,
        # 1 + 1.2e-7]: a uniform grid respaced.
        delays = np.linspace(1.0, 1.0 + 1e-7, 3)
        surf = ambiguity_numeric(generate(CW), delays, [1.0])
        path = tmp_path / "surf.bin"
        surf.to_binary(path)
        back = read_binary_surface(path)
        np.testing.assert_array_equal(back.delays, delays)
        np.testing.assert_array_equal(back.dopplers, [1.0])

    def test_binary_reads_uniform_grid_files(self, tmp_path):
        # The older AFS1 layout: a uniform grid by its float32 ends alone.
        values = np.arange(6, dtype="<f4").reshape(2, 3)
        path = tmp_path / "afs1.bin"
        path.write_bytes(struct.pack("<4sIIfffff", b"AFS1", 3, 2,
                                     -0.5, 0.5, 0.99, 1.01, 1500.0)
                         + values.tobytes())
        back = read_binary_surface(path)
        np.testing.assert_array_equal(
            back.delays, np.linspace(np.float32(-0.5), np.float32(0.5), 3))
        np.testing.assert_array_equal(
            back.dopplers, np.linspace(np.float32(0.99), np.float32(1.01), 2))
        np.testing.assert_array_equal(back.values, values)
        assert back.c == 1500.0

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ParameterError):
            read_binary_surface(path)

    def test_binary_bad_sound_speed(self, tmp_path):
        # A hand-made AFS1 file: one cell, c = 0.
        path = tmp_path / "c0.bin"
        path.write_bytes(struct.pack("<4sIIfffff", b"AFS1", 1, 1,
                                     0.0, 0.0, 1.0, 1.0, 0.0)
                         + struct.pack("<f", 1.0))
        with pytest.raises(ParameterError, match="sound speed"):
            read_binary_surface(path)

    def test_binary_header_range(self, tmp_path):
        # The header holds float32 grid ends and c: beyond its range the
        # writer used to die in struct.pack, and below it c was written as 0.
        sig = generate(CW)
        for delays, c in (([0.0, 1e300], 1500.0), ([0.0], 1e39),
                          ([0.0, 1e-50], 1500.0), ([0.0], 1e-305)):
            surf = ambiguity_numeric(sig, np.array(delays), [1.0], c=c)
            with pytest.raises(ParameterError, match="float32"):
                surf.to_binary(tmp_path / "surf.bin")

    def test_binary_short_files(self, tmp_path):
        # An AFS2 file cut inside its float64 axes, after 5 bytes of them.
        sig = generate(CW)
        surf = ambiguity_numeric(sig, np.array([0.0, 0.1, 0.5]), [1.0])
        cut = tmp_path / "cut.bin"
        surf.to_binary(cut)
        cut.write_bytes(cut.read_bytes()[:37])
        empty, magic_only = tmp_path / "empty.bin", tmp_path / "magic.bin"
        empty.write_bytes(b"")
        magic_only.write_bytes(b"AFS1")
        for path in (empty, magic_only, cut):
            with pytest.raises(ParameterError):
                read_binary_surface(path)

    def test_csv_export(self, tmp_path):
        surf = self.make_surface()
        path = tmp_path / "surf.csv"
        surf.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "tau,eta,v,value"
        assert len(lines) == 1 + 11 * 5

    def test_cuts_are_normalized(self):
        surf = self.make_surface()
        assert surf.delay_cut().values.max() == pytest.approx(1.0)
        assert surf.doppler_cut().values.max() == pytest.approx(1.0)
        assert len(surf.velocities) == len(surf.dopplers)


class TestCutNormalizer:
    """Every cut is in units of |chi(0, 1)|, not of its own maximum."""

    SFM = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)

    def test_acf_off_the_origin_keeps_chi_at_the_origin(self):
        sig = generate(self.SFM)
        off = acf(sig, [0.1, 0.2]).values
        on = acf(sig, [0.0, 0.1, 0.2]).values
        assert on[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(off, on[1:], rtol=0, atol=1e-12)
        assert off[0] == pytest.approx(0.8, abs=1e-3)

    def test_acf_divides_by_the_signal_energy(self):
        sig = generate(LFM).scaled(3.0)
        delays = np.linspace(-0.1, 0.1, 41)
        np.testing.assert_allclose(acf(sig, delays).values,
                                   acf(generate(LFM), delays).values,
                                   rtol=0, atol=1e-12)
        zero = SampledSignal(np.zeros(64), 1000.0)
        assert np.array_equal(acf(zero, [0.0, 0.01]).values, [0.0, 0.0])

    def test_cuts_keep_the_surface_normalizer(self):
        surf = ambiguity_numeric(generate(self.SFM),
                                 np.linspace(-0.25, 0.25, 21), [1.0, 1.01])
        row = surf.delay_cut(1.01).values
        assert np.array_equal(row, np.sqrt(surf.values[1]))
        assert row.max() == pytest.approx(0.1455, abs=1e-3)
        column = surf.doppler_cut(0.1).values
        assert np.array_equal(column, np.sqrt(surf.values[:, 14]))
        assert column.max() < 0.9


class TestCompareAf:
    def test_identical_surfaces(self):
        sig = generate(LFM)
        surf = ambiguity_numeric(
            sig, np.linspace(-0.05, 0.05, 101), np.linspace(0.995, 1.005, 11)
        )
        rep = compare_af(surf, surf)
        assert rep.width_ratio == pytest.approx(1.0)
        assert rep.psl_delta_db == pytest.approx(0.0)
        assert rep.max_abs_diff == 0.0

    def test_grid_mismatch(self):
        sig = generate(CW)
        a = ambiguity_numeric(sig, np.linspace(-0.1, 0.1, 11),
                              np.array([1.0]))
        b = ambiguity_numeric(sig, np.linspace(-0.2, 0.2, 11),
                              np.array([1.0]))
        with pytest.raises(ParameterError):
            compare_af(a, b)
