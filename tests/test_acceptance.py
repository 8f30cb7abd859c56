"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import json
import time

import numpy as np
import pytest

from sonarwave.ambiguity import (
    acf,
    ambiguity_numeric,
    closed_af_surface,
    doppler_eta,
    mainlobe_width,
    peak_sidelobe,
)
from sonarwave.analysis import (
    bandwidth_98,
    metrics_report,
    papr,
    se_papr_sweep,
    sfm_spectrum_closed,
    gsfm_spectrum_closed,
    spectral_efficiency,
)
from sonarwave.cli import _load_spec, run
from sonarwave.gbf import _coeffs_fft, gbf_coeffs
from sonarwave.signal_core import Taper, spectrum_of
from sonarwave.transducer import (
    apply_response,
    equalize,
    make_response,
    peak_normalized,
    trw_report,
)
from sonarwave.waveforms import WaveformSpec, generate, m_sequence

T, FC, DF = 0.5, 2000.0, 200.0

SFM_SPEC = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)
GSFM_SPEC = WaveformSpec(
    family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0
)


def test_criterion_1_papr_floor(criterion):
    """Untapered constant-envelope waveforms sit at the 3.01 dB floor."""
    specs = {
        "cw": WaveformSpec(family="cw", T=T, f_c=FC),
        "lfm": WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF),
        "sfm": SFM_SPEC,
        "gsfm": GSFM_SPEC,
    }
    with criterion(1) as check:
        for name, spec in specs.items():
            t0 = time.time()
            value = papr(generate(spec))
            dt = time.time() - t0
            check(abs(value - 3.01) <= 0.05, f"{name}={value:.3f}dB")
            check(dt < 1.0, None)


def test_criterion_2_gsfm_bandwidth(criterion, spec_dir):
    """The published GSFM design measures 632 Hz / ~3.23 dB PAPR."""
    spec = _load_spec(spec_dir / "gsfm_iv_a.json")
    with criterion(2) as check:
        t0 = time.time()
        rep = metrics_report(spec)
        dt = time.time() - t0
        check(abs(rep.band_98 - 632.0) / 632.0 <= 0.03,
              f"b98={rep.band_98:.1f}Hz")
        check(3.15 <= rep.papr_db <= 3.35, f"papr={rep.papr_db:.3f}dB")
        check(dt < 5.0, f"{dt:.1f}s")


COSTAS_N = {50: 6, 100: 10, 200: 12, 500: 22}


def _tiled_code(n):
    """Length-n binary code from the shortest m-sequence covering n."""
    deg = 2
    while (2**deg - 1) < n and deg < 16:
        deg += 1
    seq = m_sequence(deg)
    reps = -(-n // len(seq))
    return (seq * reps)[:n]


def test_criterion_3_pareto_sweep(criterion):
    """GSFM is Pareto-undominated on (PAPR, SE) at every TBP."""
    t0 = time.time()
    with criterion(3) as check:
        for tbp in (50, 100, 200, 500):
            df = tbp / (1.27 * T)
            gsfm = WaveformSpec(
                family="gsfm", T=T, f_c=FC, delta_f=df,
                cycles=0.136 * df * T, rho=2.9, symmetry="nonsymmetric",
                taper=Taper("tukey", 0.1),
            )
            band = bandwidth_98(spectrum_of(generate(gsfm)), FC)
            code = _tiled_code(int(round(0.95 * band * T)))
            specs = [
                ("gsfm", gsfm),
                ("costas", WaveformSpec(
                    family="costas", T=T, f_c=FC, delta_f=band,
                    n_chips=COSTAS_N[tbp],
                    taper=Taper("tukey", 0.85, scope="per-chip"))),
                ("bpsk_hann", WaveformSpec(
                    family="bpsk", T=T, f_c=FC, code=code,
                    taper=Taper("hann", scope="per-chip"))),
                ("bpsk_rect", WaveformSpec(
                    family="bpsk", T=T, f_c=FC, code=code)),
                ("qpsk", WaveformSpec(family="qpsk", T=T, f_c=FC, code=code)),
            ]
            rows = {r["label"]: r for r in se_papr_sweep(specs, band_hz=band)}
            g = rows["gsfm"]
            for label in ("costas", "bpsk_hann", "qpsk"):
                r = rows[label]
                dominated = (
                    r["papr_db"] <= g["papr_db"] and r["se"] >= g["se"]
                    and (r["papr_db"] < g["papr_db"] or r["se"] > g["se"])
                )
                check(not dominated, None)
            check(
                abs(rows["bpsk_rect"]["se"] - 0.80) <= 0.03,
                f"tbp{tbp}: bpsk_se={rows['bpsk_rect']['se']:.3f}",
            )
        check(time.time() - t0 < 60.0, f"{time.time() - t0:.1f}s")


def test_criterion_4_closed_af_oracle(criterion, spec_dir):
    """Bessel-series AFs agree with the resampling-correlation AFs."""
    taus = np.linspace(-T / 2, T / 2, 101)
    etas = np.array([doppler_eta(v) for v in np.linspace(-20.0, 20.0, 101)])
    t0 = time.time()
    with criterion(4) as check:
        for name, tol in (("fig5_sfm", 0.02), ("fig6_gsfm", 0.03)):
            spec = _load_spec(spec_dir / f"{name}.json")
            closed = closed_af_surface(spec, taus, etas)
            numeric = ambiguity_numeric(generate(spec), taus, etas)
            diff = np.max(np.abs(
                np.sqrt(closed.values) - np.sqrt(numeric.values)
            ))
            check(diff < tol, f"{name}: maxdiff={diff:.2e}")
        check(time.time() - t0 < 60.0, f"{time.time() - t0:.1f}s")


def _doppler_eta_vec(v):
    return (1.0 + v / 1500.0) / (1.0 - v / 1500.0)


def test_criterion_5_closed_spectrum_oracle(criterion):
    """Closed-form spectra match the FFT; rho=1 collapses to the SFM."""
    t0 = time.time()
    with criterion(5) as check:
        fft = spectrum_of(generate(SFM_SPEC), nfft=1 << 17)
        sel = np.abs(fft.freqs - FC) < 800.0
        closed = sfm_spectrum_closed(SFM_SPEC, fft.freqs[sel])
        err = np.linalg.norm(
            np.abs(closed.values) - np.abs(fft.values[sel])
        ) / np.linalg.norm(np.abs(fft.values[sel]))
        check(err < 1e-3, f"sfm_l2={err:.2e}")

        fft = spectrum_of(generate(GSFM_SPEC), nfft=1 << 17)
        sel = np.abs(fft.freqs - FC) < 800.0
        closed = gsfm_spectrum_closed(GSFM_SPEC, fft.freqs[sel])
        err = np.linalg.norm(
            np.abs(closed.values) - np.abs(fft.values[sel])
        ) / np.linalg.norm(np.abs(fft.values[sel]))
        check(err < 1e-2, f"gsfm_l2={err:.2e}")

        rho1 = WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF,
                            rho=1.0, alpha=10.0)
        freqs = np.arange(FC - 1000.0, FC + 1000.0, 0.4)
        a = gsfm_spectrum_closed(rho1, freqs).values
        b = sfm_spectrum_closed(SFM_SPEC, freqs).values
        err = np.linalg.norm(np.abs(a) - np.abs(b)) / np.linalg.norm(
            np.abs(b)
        )
        check(err < 1e-6, f"rho1_l2={err:.2e}")
        check(time.time() - t0 < 10.0, f"{time.time() - t0:.1f}s")


def test_criterion_6_gbf_suite(criterion):
    """Generalized Bessel coefficients: identity, normalization, stability."""
    from scipy.special import jv

    t0 = time.time()
    with criterion(6) as check:
        worst = 0.0
        for x in np.linspace(0.0, 50.0, 26):
            c = gbf_coeffs([x])
            n = np.arange(0, min(c.n_max, 60) + 1)
            got = np.array([c[int(k)] for k in n])
            worst = max(worst, float(np.max(np.abs(got - jv(n, x)))))
        check(worst < 1e-10, f"identity={worst:.2e}")

        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            k = rng.integers(1, 11)
            betas = rng.uniform(-20.0, 20.0, size=k)
            c = gbf_coeffs(betas)
            worst = max(worst, abs(float(np.sum(np.abs(c.values) ** 2)) - 1.0))
        check(worst < 1e-8, f"norm={worst:.2e}")

        betas = np.array([5.0, -2.0, 1.3], dtype=np.complex128)
        m = 1 << 10
        a = _coeffs_fft(betas[None, :], 50, m=m)[0]
        b = _coeffs_fft(betas[None, :], 50, m=2 * m)[0]
        stab = float(np.max(np.abs(a - b)))
        check(stab < 1e-12, f"grid={stab:.2e}")
        check(time.time() - t0 < 10.0, f"{time.time() - t0:.1f}s")


def test_criterion_7_acf_ordering(criterion, spec_dir):
    """Sidelobe structure: GSFM below SFM; SFM grating lobes; BPSK PSL."""
    t0 = time.time()
    delays = np.linspace(-T / 2, T / 2, 2001)
    with criterion(7) as check:
        sfm = _load_spec(spec_dir / "fig5_sfm.json")
        gsfm = _load_spec(spec_dir / "fig6_gsfm.json")
        # Sidelobe separation on the squared-magnitude (energy) response,
        # matching the display scale of the stored |chi|^2 surfaces.
        psl_sfm = 2.0 * peak_sidelobe(acf(generate(sfm), delays))
        psl_gsfm = 2.0 * peak_sidelobe(acf(generate(gsfm), delays))
        check(psl_gsfm <= psl_sfm - 10.0,
              f"sfm={psl_sfm:.1f}dB gsfm={psl_gsfm:.1f}dB")

        cut = acf(generate(sfm), delays)
        for k in (1, 2):
            sel = np.abs(cut.axis - k / 10.0) < 0.01
            check(cut.values[sel].max() > 0.5, None)

        bpsk = generate(
            WaveformSpec(family="bpsk", T=T, f_c=FC, code=m_sequence(6))
        )
        psl_bpsk = peak_sidelobe(acf(bpsk, delays))
        check(psl_bpsk <= -15.0, f"bpsk={psl_bpsk:.1f}dB")
        check(time.time() - t0 < 30.0, f"{time.time() - t0:.1f}s")


def test_criterion_8_trw_experiment(criterion, spec_dir):
    """Transmit-chain energy efficiency and mainlobe-widening trends."""
    t0 = time.time()
    noneq = make_response("parametric", 110e3, (100e3, 120e3), 4.07)
    eq = equalize(noneq, 0.39)
    with criterion(8) as check:
        narrow = [
            (p.stem, _load_spec(p))
            for p in sorted((spec_dir / "trw" / "narrowband").glob("*.json"))
        ]
        wide = [
            (p.stem, _load_spec(p))
            for p in sorted((spec_dir / "trw" / "wideband").glob("*.json"))
        ]
        rows = {r["label"]: r["e_tilde_db"]
                for r in trw_report(narrow, noneq, "gsfm_ii")}
        check(-5.4 <= rows["bpsk_i"] <= -3.0,
              f"bpsk_i={rows['bpsk_i']:.2f}dB")
        wrows = {r["label"]: r["e_tilde_db"]
                 for r in trw_report(wide, noneq, "gsfm_iv")}
        check(-5.1 <= wrows["costas_ii"] <= -3.0,
              f"costas_ii={wrows['costas_ii']:.2f}dB")

        eq_rows = {r["label"]: r["e_tilde_db"]
                   for r in trw_report(narrow, eq, "gsfm_ii")}
        gap = abs(eq_rows["lfm_i"] - eq_rows["gsfm_ii"])
        check(gap <= 0.7, f"lfm-gsfm_gap={gap:.2f}dB")

        # GSFM TRW delay mainlobe widening, non-equalized vs equalized.
        gsfm_iv = _load_spec(spec_dir / "trw" / "wideband" / "gsfm_iv.json")
        drive = peak_normalized(generate(gsfm_iv))
        fine = np.linspace(-2e-4, 2e-4, 2001)
        widths = {}
        for label, resp in (("noneq", noneq), ("eq", eq)):
            trw = apply_response(drive, resp)
            widths[label] = mainlobe_width(acf(trw, fine), 3.0).width
        ratio = widths["noneq"] / widths["eq"]
        check(ratio <= 1.15, f"widening={ratio:.3f}")
        check(time.time() - t0 < 60.0, f"{time.time() - t0:.1f}s")


def test_criterion_9_property_suite(criterion, tmp_path):
    """Cross-cutting invariants: Parseval, energy, symmetry, determinism."""
    with criterion(9) as check:
        families = [
            WaveformSpec(family="cw", T=T, f_c=FC),
            WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF),
            SFM_SPEC,
            GSFM_SPEC,
            WaveformSpec(family="costas", T=T, f_c=FC, delta_f=DF,
                         n_chips=10),
            WaveformSpec(family="bpsk", T=T, f_c=FC, code=m_sequence(5)),
            WaveformSpec(family="qpsk", T=T, f_c=FC, code=m_sequence(5)),
        ]
        parseval_ok = unit_ok = True
        for spec in families:
            sig = generate(spec)
            parseval_ok &= abs(spectrum_of(sig).energy - sig.energy) < 1e-6
            unit_ok &= abs(sig.energy - 1.0) < 1e-9
        check(parseval_ok, "parseval")
        check(unit_ok, "unit-energy")

        lfm = generate(families[1])
        delays = np.linspace(-0.2, 0.2, 401)
        cut = acf(lfm, delays)
        check(np.max(np.abs(cut.values - cut.values[::-1])) < 1e-9,
              "acf-symmetry")

        surf = ambiguity_numeric(
            lfm, np.linspace(-0.05, 0.05, 41), np.linspace(0.99, 1.01, 5)
        )
        i, j = np.unravel_index(np.argmax(surf.values), surf.values.shape)
        check(
            surf.values[i, j] == 1.0
            and abs(surf.delays[j]) <= surf.delays[1] - surf.delays[0]
            and abs(surf.dopplers[i] - 1.0)
            <= surf.dopplers[1] - surf.dopplers[0],
            "origin-peak",
        )

        sp = spectrum_of(lfm)
        se = spectral_efficiency(sp, FC, DF)
        from sonarwave.signal_core import Spectrum

        scaled = Spectrum(sp.freqs, 4.2 * sp.values, sp.df)
        check(
            abs(spectral_efficiency(scaled, FC, DF) - se) < 1e-12
            and abs(papr(lfm.scaled(4.2)) - papr(lfm)) < 1e-9,
            "scale-invariance",
        )

        values = [
            papr(generate(WaveformSpec(
                family="lfm", T=T, f_c=FC, delta_f=DF,
                taper=Taper("tukey", a_t),
            )))
            for a_t in (0.0, 0.1, 0.5, 1.0)
        ]
        check(all(b >= a - 1e-9 for a, b in zip(values, values[1:])),
              "taper-monotonicity")

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"family": "sfm", "T": 0.1, "f_c": 2000.0, "delta_f": 200.0,
             "f_m": 50.0}
        ))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["gen", "--spec", str(spec_path), "--out", str(a)]) == 0
        assert run(["gen", "--spec", str(spec_path), "--out", str(b)]) == 0
        check(a.read_bytes() == b.read_bytes(), "cli-determinism")
