"""Transmit-chain frequency response simulation and replica evaluation.

Models a resonant projector/receive chain as a frequency response, drives
peak-normalized waveforms through it, and evaluates the resulting replica
waveforms ("TRW"s) for energy efficiency.  Their ambiguity-shape fidelity
is measured with :func:`sonarwave.ambiguity.compare_af`.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .analysis import energy_efficiency
from .signal_core import (
    ParameterError,
    SampledSignal,
    _array,
    _frozen,
    _held,
    _is_number,
)
from .waveforms import WaveformSpec, generate

# Out-of-band magnitude slope, dB per octave.
_ROLLOFF_DB_PER_OCTAVE = 12.0

# Dense evaluation grid size for the parametric model.
_GRID_N = 4097


class FormatError(ParameterError):
    """Raised for malformed or insufficient response tables."""


@dataclass(frozen=True)
class TransducerResponse:
    """Sampled transmit-chain frequency response.

    ``freqs``/``mag_db``/``phase_rad`` hold the stored curve; queries
    outside the stored grid continue at the fixed dB-per-octave rolloff.
    ``peak_gain_db`` is never positive: the chain is peak-power limited
    and referenced to its own maximum.  The table must hold at least 2
    rows of finite values, with strictly ascending ``freqs``; otherwise
    :class:`FormatError` is raised.
    """

    mode: str
    f_r: float
    band: tuple[float, float]
    ripple_db: float
    freqs: np.ndarray
    mag_db: np.ndarray
    phase_rad: np.ndarray
    flags: tuple = ()

    def __post_init__(self):
        for k in ("freqs", "mag_db", "phase_rad"):
            object.__setattr__(self, k,
                               _array(getattr(self, k), f"response {k}"))
        table = [self.freqs, self.mag_db, self.phase_rad]
        if not len(table[0]) == len(table[1]) == len(table[2]) >= 2:
            raise FormatError(
                "response table needs at least 2 rows of equal length")
        if not np.all(np.isfinite(table)):
            raise FormatError("response table entries must be finite")
        if np.any(np.diff(self.freqs) <= 0):
            raise FormatError(
                "response table frequencies must be distinct and ascending")

    @property
    def peak_gain_db(self) -> float:
        return float(np.max(self.mag_db))

    def in_band_ripple(self) -> float:
        """Measured max - min magnitude over the operational band."""
        lo, hi = self.band
        sel = (self.freqs >= lo) & (self.freqs <= hi)
        if not np.any(sel):
            # Sparse table (e.g. the transparent zero-ripple model):
            # interpolate the curve across the band instead.
            m = self.magnitude_at(np.linspace(lo, hi, 1025))
        else:
            m = self.mag_db[sel]
        return float(m.max() - m.min())

    def magnitude_at(self, f) -> np.ndarray:
        """Magnitude in dB at arbitrary nonnegative frequencies."""
        f = _array(f, "frequencies", ndim=None)
        out = np.interp(f, self.freqs, self.mag_db)
        f_lo, f_hi = self.freqs[0], self.freqs[-1]
        with np.errstate(divide="ignore"):
            below = f < f_lo
            out = np.where(
                below,
                self.mag_db[0]
                - _ROLLOFF_DB_PER_OCTAVE
                * np.log2(np.maximum(f_lo / np.maximum(f, 1e-300), 1.0)),
                out,
            )
            above = f > f_hi
            out = np.where(
                above,
                self.mag_db[-1]
                - _ROLLOFF_DB_PER_OCTAVE * np.log2(np.maximum(f / f_hi, 1.0)),
                out,
            )
        return out

    def response_at(self, f) -> np.ndarray:
        """Complex response at arbitrary nonnegative frequencies."""
        f = _array(f, "frequencies", ndim=None)
        mag = 10.0 ** (self.magnitude_at(f) / 20.0)
        phase = np.interp(f, self.freqs, self.phase_rad)
        # Phase beyond the stored grid continues linearly (constant group
        # delay), using the end-segment slope.
        for edge, sl in ((0, slice(0, 2)), (-1, slice(-2, None))):
            fe = self.freqs[edge]
            slope = np.diff(self.phase_rad[sl])[0] / np.diff(self.freqs[sl])[0]
            mask = f < fe if edge == 0 else f > fe
            phase = np.where(
                mask, self.phase_rad[edge] + slope * (f - fe), phase
            )
        return mag * np.exp(1j * phase)


def _second_order_phase(f: np.ndarray, f_r: float, band) -> np.ndarray:
    """Phase of a unit second-order resonance matched to the band width."""
    zeta = (band[1] - band[0]) / (2.0 * f_r)
    r = f / f_r
    return -np.arctan2(2.0 * zeta * r, 1.0 - r**2)


def make_response(
    mode: str,
    f_r: float,
    band: tuple[float, float],
    ripple_db: float,
    table_path: Optional[str] = None,
) -> TransducerResponse:
    """Build a transmit-chain response.

    Parametric mode: concave quadratic magnitude (dB) peaking at ``f_r``,
    scaled so the in-band max - min equals ``ripple_db``, with fixed
    dB-per-octave rolloff outside the band and a second-order phase.
    Tabulated mode: load the curve from a CSV of (freq_hz, mag_db,
    phase_rad) rows via :func:`load_response_table`.
    """
    if not (isinstance(band, (tuple, list)) and len(band) == 2
            and all(map(_is_number, band))):
        raise ParameterError(f"band must be two numbers, got {band!r}")
    f_lo, f_hi = band
    # The parametric grid reaches 4 f_hi, so that must be finite too.
    if not (_is_number(f_r) and _is_number(4.0 * f_hi) and 0 < f_lo < f_r < f_hi):
        raise ParameterError(f"need 0 < band[0] < f_r < band[1], got f_r = {f_r!r}")
    if not (_is_number(ripple_db) and ripple_db >= 0):
        raise ParameterError(f"ripple_db must be a number >= 0, got {ripple_db!r}")
    if not isinstance(table_path, (str, os.PathLike, type(None))):
        raise ParameterError(f"table_path must be a path, got {table_path!r}")
    if mode == "tabulated":
        if table_path is None:
            raise ParameterError("tabulated mode requires table_path")
        return load_response_table(table_path, f_r=f_r, band=(f_lo, f_hi))
    if mode != "parametric":
        raise ParameterError(f"unknown response mode {mode!r}")

    freqs = np.linspace(f_lo / 4.0, 4.0 * f_hi, _GRID_N)
    if ripple_db == 0:
        # Zero ripple models a transparent chain: unit gain, zero phase,
        # at every frequency the drive can contain.
        return TransducerResponse(
            mode="parametric",
            f_r=f_r,
            band=(f_lo, f_hi),
            ripple_db=0.0,
            freqs=np.array([0.0, 1e12]),
            mag_db=np.zeros(2),
            phase_rad=np.zeros(2),
        )
    half_width = max(f_hi - f_r, f_r - f_lo)
    mag = -ripple_db * ((freqs - f_r) / half_width) ** 2
    # Beyond the band the quadratic hands off to the octave rolloff.
    edge_lo = -ripple_db * ((f_lo - f_r) / half_width) ** 2
    edge_hi = -ripple_db * ((f_hi - f_r) / half_width) ** 2
    below = freqs < f_lo
    mag[below] = edge_lo - _ROLLOFF_DB_PER_OCTAVE * np.log2(f_lo / freqs[below])
    above = freqs > f_hi
    mag[above] = edge_hi - _ROLLOFF_DB_PER_OCTAVE * np.log2(freqs[above] / f_hi)
    phase = _second_order_phase(freqs, f_r, band)
    return TransducerResponse(
        mode="parametric",
        f_r=f_r,
        band=(f_lo, f_hi),
        ripple_db=ripple_db,
        freqs=freqs,
        mag_db=mag,
        phase_rad=phase,
    )


def load_response_table(
    path, f_r: float, band: tuple[float, float]
) -> TransducerResponse:
    """Read a (freq_hz, mag_db, phase_rad) CSV into a response."""
    rows = []
    try:
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.reader(fh)):
                if i == 0 and row and not _parses_as_float(row[0]):
                    continue  # header line
                if len(row) != 3:
                    raise FormatError(f"row {i}: expected 3 columns, got {len(row)}")
                try:
                    rows.append(tuple(float(x) for x in row))
                except ValueError as exc:
                    raise FormatError(f"row {i}: non-numeric value ({exc})")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read response table {path}: {exc}")
    table = TransducerResponse("tabulated", f_r, band, 0.0,
                               *np.array(sorted(rows)).reshape(-1, 3).T)
    if band[0] < table.freqs[0] or band[1] > table.freqs[-1]:
        raise FormatError("operational band extends outside the table")
    # peak-power reference
    resp = replace(table, mag_db=table.mag_db - table.peak_gain_db)
    return replace(resp, ripple_db=resp.in_band_ripple())


def _parses_as_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def equalize(
    resp: TransducerResponse, target_ripple_db: float
) -> TransducerResponse:
    """Flatten the in-band magnitude to the target ripple by attenuation.

    Components above (in-band minimum + target) are clipped down; nothing
    is ever amplified and out-of-band magnitude is untouched.  A target at
    or above the current ripple is a no-op, flagged on the result.
    """
    if not (_is_number(target_ripple_db) and target_ripple_db >= 0):
        raise ParameterError(f"target_ripple_db must be >= 0: {target_ripple_db!r}")
    current = resp.in_band_ripple()
    if target_ripple_db >= current:
        return replace(
            resp, flags=resp.flags + ("equalize: no-op, target >= current",)
        )
    lo, hi = resp.band
    sel = (resp.freqs >= lo) & (resp.freqs <= hi)
    if not np.any(sel):
        raise FormatError(f"equalize: no response table row lies in the "
                          f"band {lo!r} to {hi!r} Hz")
    ceiling = resp.mag_db[sel].min() + target_ripple_db
    mag = resp.mag_db.copy()
    mag[sel] = np.minimum(mag[sel], ceiling)
    return replace(
        resp,
        mag_db=mag,
        ripple_db=target_ripple_db,
        flags=resp.flags + ("equalized",),
    )


def apply_response(
    sig: SampledSignal, resp: TransducerResponse
) -> SampledSignal:
    """Drive a waveform through the chain; returns the analytic TRW.

    The real drive signal is filtered by the response in the frequency
    domain and the output converted back to its analytic form.  The
    operation is linear: the caller is expected to peak-normalize the
    drive first (the peak-power-limit convention; see peak_normalized).
    Output energy is NOT renormalized -- it reflects the waveform's taper,
    spectral containment, and the chain response jointly.
    """
    half = _drive(sig)[0] * resp.response_at(_drive_freqs(sig, resp))
    return SampledSignal(_analytic(half, len(sig)), sig.sample_rate, sig.t0)


def _drive(sig: SampledSignal):
    """rfft X of the real drive, and the drive's peak."""
    x = sig.samples.real
    peak = np.max(np.abs(x))
    if peak == 0:
        raise ParameterError("cannot drive an all-zero signal")
    if len(x) < 2:
        raise ParameterError("cannot drive a signal of one sample")
    return np.fft.rfft(x), float(peak)


def _drive_freqs(sig: SampledSignal, resp: TransducerResponse) -> np.ndarray:
    """Frequencies of the drive's rfft bins, which ``resp`` must reach."""
    f = np.fft.rfftfreq(len(sig), d=1.0 / sig.sample_rate)
    if f[-1] < resp.freqs[0] or f[1] > resp.freqs[-1]:
        raise FormatError("signal band lies entirely outside the response")
    return f


def _analytic(half: np.ndarray, n: int) -> np.ndarray:
    """Analytic signal of the real length-``n`` sequence with rfft ``half``.

    The FFT mask of Marple (IEEE Trans. Signal Process. 47(9), 1999):
    positive bins doubled, negative ones zeroed, DC and (n even) Nyquist
    kept once.  Those two take their real parts, as ``irfft`` reads them.
    """
    full = np.zeros(n, dtype=np.complex128)
    full[: len(half)] = 2.0 * half
    full[0] = half[0].real
    if n % 2 == 0:
        full[n // 2] = half[-1].real
    return np.fft.ifft(full)


def peak_normalized(sig: SampledSignal) -> SampledSignal:
    """Scale so the real drive signal peaks at unit amplitude."""
    peak = np.max(np.abs(sig.samples.real))
    if peak == 0:
        raise ParameterError("cannot peak-normalize an all-zero signal")
    return sig.scaled(1.0 / peak)


def _drive_power(sig: SampledSignal):
    """Power |X_k|^2 of the rfft X of the real drive, and the drive's peak."""
    spec, peak = _drive(sig)
    return _frozen(spec.real ** 2 + spec.imag ** 2), peak


def _trw_energy(sig: SampledSignal, resp: TransducerResponse) -> float:
    """Energy of ``apply_response(peak_normalized(sig), resp)``, by Parseval.

    The energy needs only magnitudes: sum_k c_k |X_k|^2 |H(f_k)|^2 over
    n fs peak^2, with X the rfft of the real drive, |H|^2 from
    ``magnitude_at`` and c_k the analytic mask's weight: 4 for each
    positive bin, 1 for DC and (n even) Nyquist.  At those two bins the
    analytic TRW keeps Re(X_k H_k), whose power differs by X_k^2 Im(H_k)^2:
    X is real there, and a passband drive has next to no power at either.
    The drive power is kept with a signal whose samples are read-only.
    """
    power, peak = _held(sig, "drive_power", _drive_power)
    n = len(sig)
    out = power * 10.0 ** (resp.magnitude_at(_drive_freqs(sig, resp)) / 10.0)
    total = 4.0 * np.sum(out[1 : len(out) - 1 if n % 2 == 0 else len(out)])
    total += out[0]
    if n % 2 == 0:
        total += out[-1]
    return float(total / (n * sig.sample_rate * peak ** 2))


def trw_report(
    specs: Sequence[tuple[str, WaveformSpec]],
    resp: TransducerResponse,
    reference: str,
) -> list[dict]:
    """Energy efficiency of each waveform's TRW relative to a reference.

    Every waveform is peak-normalized, driven through ``resp``, and its
    output energy compared to the reference row's:
    ``e_tilde_db = 10 log10(E_w / E_ref)``.  The energy is that of
    :func:`apply_response`'s TRW, taken from the magnitudes of the drive
    spectrum and the response (see ``_trw_energy``).  Row failures are
    recorded without aborting the report; labels must be distinct.
    """
    labels = [label for label, _ in specs]
    if reference not in labels:
        raise ParameterError(f"reference {reference!r} not among the specs")
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ParameterError(f"repeated spec label(s): {repeated}")
    rows = []
    for label, sp in specs:
        row = {"label": label, "family": sp.family, "energy": None,
               "e_tilde_db": None, "error": None}
        try:
            row["energy"] = _trw_energy(generate(sp), resp)
        except ParameterError as exc:
            row["error"] = str(exc)
        rows.append(row)
    ref = rows[labels.index(reference)]
    if ref["error"] is not None:
        raise ParameterError(f"reference waveform failed: {ref['error']}")
    for row in rows:
        if row["error"] is None:
            row["e_tilde_db"] = energy_efficiency(row["energy"], ref["energy"])
    return rows
