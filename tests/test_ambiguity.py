"""Tests for broadband ambiguity surfaces, cuts, and closed-form series."""

import numpy as np
import pytest

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
from sonarwave.signal_core import ParameterError, Taper
from sonarwave.waveforms import WaveformSpec, generate, m_sequence

T, FC, DF = 0.5, 2000.0, 200.0

CW = WaveformSpec(family="cw", T=T, f_c=FC)
LFM = WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF)


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

    def test_order_cap_refuses_before_allocating(
        self, huge_order_sfm, no_allocation
    ):
        spec = WaveformSpec.from_dict(huge_order_sfm)
        with pytest.raises(TruncationError, match="cap"):
            closed_af_surface(spec, np.linspace(-0.1, 0.1, 3), np.ones(1))


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

    def test_invalid_level(self):
        with pytest.raises(ParameterError):
            mainlobe_width(self.triangle_cut(), 0.0)


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
        surf = self.make_surface()
        path = tmp_path / "surf.bin"
        surf.to_binary(path)
        data = path.read_bytes()
        assert data[:4] == b"AFS1" and len(data) == 32 + 4 * surf.values.size

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ParameterError):
            read_binary_surface(path)

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
