"""Broadband ambiguity surfaces, zero-Doppler cuts, and closed-form series.

The wideband matched-filter response is

    chi(tau, eta) = sqrt(eta) * integral s(t) conj(s(eta (t + tau))) dt

with Doppler scale eta = (1 + v/c)/(1 - v/c).  Numeric surfaces are computed
row-per-eta by band-limited resampling followed by FFT cross-correlation.
The rectangular SFM and gsfm admit Bessel/generalized-Bessel series closed
forms that this module evaluates through the same coefficient machinery.

The closed form is a double series over Bessel orders (n, m) of terms
g1_n g2_m int exp(2j pi mu_nm t) dt over the support overlap [t1, t2],
where mu_nm = x_n - y_m separates into one frequency per order.  Each
integral splits at its endpoints into (e(t2) - e(t1)) / (2j pi mu_nm)
(the Cauchy split), so one Doppler row is a single real matrix product
with the kernel 1 / (pi mu_nm), shared by all of the row's delays.  Order
pairs with mu_nm near 0, where the two endpoint terms would cancel, are
left out of the kernel and summed as exact sinc terms instead.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from scipy.signal import fftconvolve

from .gbf import TruncationError, _coeffs_fft, _fft_points
from .signal_core import ParameterError, SampledSignal, resample_scale
from .waveforms import FourierPhaseModel, WaveformSpec, gsfm_fourier_coeffs

DEFAULT_SOUND_SPEED = 1500.0

# Resampling bounds: eta outside this open interval cannot be computed.
_ETA_LO, _ETA_HI = 0.5, 2.0


def doppler_eta(v: float, c: float = DEFAULT_SOUND_SPEED) -> float:
    """Doppler scale for closing speed v: (1 + v/c)/(1 - v/c)."""
    if abs(v) >= c:
        raise ParameterError(f"|v| must be below the sound speed {c}")
    return (1.0 + v / c) / (1.0 - v / c)


def velocity_from_eta(eta, c: float = DEFAULT_SOUND_SPEED):
    """Inverse of doppler_eta: v = c (eta - 1)/(eta + 1)."""
    eta = np.asarray(eta, dtype=float)
    out = c * (eta - 1.0) / (eta + 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AmbiguityCut:
    """One-dimensional slice of an ambiguity surface.

    ``values`` hold peak-normalized magnitude |chi| on the ``axis`` grid
    (delay in seconds, or velocity in m/s for Doppler cuts).
    """

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.axis.shape != self.values.shape:
            raise ParameterError("axis and values must have equal shape")


@dataclass(frozen=True)
class AmbiguitySurface:
    """Peak-normalized |chi|^2 over a delay x Doppler-scale grid."""

    delays: np.ndarray
    dopplers: np.ndarray
    values: np.ndarray
    c: float = DEFAULT_SOUND_SPEED
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "delays", np.asarray(self.delays, dtype=float))
        object.__setattr__(
            self, "dopplers", np.asarray(self.dopplers, dtype=float)
        )
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.dopplers), len(self.delays)):
            raise ParameterError(
                "values must have shape (len(dopplers), len(delays))"
            )

    @property
    def velocities(self) -> np.ndarray:
        return velocity_from_eta(self.dopplers, self.c)

    def delay_cut(self, eta: float = 1.0) -> AmbiguityCut:
        """Magnitude cut along delay at the grid row nearest ``eta``."""
        i = int(np.argmin(np.abs(self.dopplers - eta)))
        mag = np.sqrt(self.values[i])
        peak = mag.max()
        if peak > 0:
            mag = mag / peak
        return AmbiguityCut(axis=self.delays, values=mag)

    def doppler_cut(self, tau: float = 0.0) -> AmbiguityCut:
        """Magnitude cut along velocity at the grid column nearest ``tau``."""
        j = int(np.argmin(np.abs(self.delays - tau)))
        mag = np.sqrt(self.values[:, j])
        peak = mag.max()
        if peak > 0:
            mag = mag / peak
        return AmbiguityCut(axis=self.velocities, values=mag)

    def to_csv(self, path) -> None:
        """Long-format export: one (tau, eta, v, value) row per cell."""
        v = self.velocities
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["tau", "eta", "v", "value"])
            for i, eta in enumerate(self.dopplers):
                for j, tau in enumerate(self.delays):
                    w.writerow(
                        [repr(float(tau)), repr(float(eta)),
                         repr(float(v[i])), repr(float(self.values[i, j]))]
                    )

    def to_binary(self, path) -> None:
        """Little-endian float32 dump with a 32-byte header.

        Header: magic b"AFS1", uint32 n_delays, uint32 n_dopplers, then
        float32 tau_min, tau_max, eta_min, eta_max, c.  Values follow
        row-major (Doppler rows).  The grids are assumed uniform.
        """
        header = struct.pack(
            "<4sIIfffff",
            b"AFS1",
            len(self.delays),
            len(self.dopplers),
            float(self.delays[0]),
            float(self.delays[-1]),
            float(self.dopplers[0]),
            float(self.dopplers[-1]),
            float(self.c),
        )
        assert len(header) == 32
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.values.astype("<f4").tobytes())


def read_binary_surface(path) -> AmbiguitySurface:
    """Read a surface written by :meth:`AmbiguitySurface.to_binary`."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        magic, n_tau, n_eta, t0, t1, e0, e1, c = struct.unpack(
            "<4sIIfffff", header
        )
        if magic != b"AFS1":
            raise ParameterError("not an ambiguity-surface binary file")
        data = np.frombuffer(fh.read(), dtype="<f4")
    if len(data) != n_tau * n_eta:
        raise ParameterError("binary surface payload has the wrong size")
    return AmbiguitySurface(
        delays=np.linspace(t0, t1, n_tau),
        dopplers=np.linspace(e0, e1, n_eta),
        values=data.reshape(n_eta, n_tau).astype(float),
        c=float(c),
    )


def _cross_ambiguity_row(
    sig: SampledSignal, eta: float, delays: np.ndarray
) -> np.ndarray:
    """|chi(tau, eta)| sampled on ``delays`` for one Doppler scale."""
    y = resample_scale(sig, eta)
    fs = sig.sample_rate
    s = sig.samples
    # r[m] = sum_n s[n] conj(y[n + d]) with d = len(y) - 1 - m.
    r = fftconvolve(s, np.conj(y.samples[::-1]))
    d = (len(y.samples) - 1) - np.arange(len(r))
    taus = d / fs + sig.t0 * (1.0 / eta - 1.0)
    mag = np.abs(r) * np.sqrt(eta) / fs
    # taus decreases with m; flip for interpolation.
    return np.interp(delays, taus[::-1], mag[::-1], left=0.0, right=0.0)


def ambiguity_numeric(
    sig: SampledSignal,
    delays,
    etas,
    c: float = DEFAULT_SOUND_SPEED,
) -> AmbiguitySurface:
    """Numeric broadband ambiguity surface (resample + FFT correlation)."""
    delays = np.asarray(delays, dtype=float)
    etas = np.asarray(etas, dtype=float)
    warnings = []
    if np.max(np.abs(delays)) > sig.duration:
        warnings.append(
            "delay grid extends beyond the signal duration; "
            "out-of-support cells are zero"
        )
    mag = np.zeros((len(etas), len(delays)))
    for i, eta in enumerate(etas):
        if not _ETA_LO < eta < _ETA_HI:
            warnings.append(
                f"eta={eta} outside resample bounds "
                f"({_ETA_LO}, {_ETA_HI}); row zeroed"
            )
            continue
        mag[i] = _cross_ambiguity_row(sig, float(eta), delays)
    values = mag**2
    peak = values.max()
    if peak > 0:
        values = values / peak
    return AmbiguitySurface(
        delays=delays,
        dopplers=etas,
        values=values,
        c=c,
        warnings=tuple(warnings),
    )


def acf(sig: SampledSignal, delays) -> AmbiguityCut:
    """Zero-Doppler autocorrelation cut, peak-normalized magnitude."""
    delays = np.asarray(delays, dtype=float)
    mag = _cross_ambiguity_row(sig, 1.0, delays)
    peak = mag.max()
    if peak > 0:
        mag = mag / peak
    return AmbiguityCut(axis=delays, values=mag)


# ----------------------------------------------------------------------
# Closed-form series
# ----------------------------------------------------------------------

# Memory bound for every temporary of the closed-form series sum.
_CHUNK_BYTES = 1 << 26


# Coefficients below this magnitude are dropped from the double series.
_PRUNE = 1e-8

# Order pairs with |mu| * (longest overlap in the batch) below this bypass the
# Cauchy kernel and are summed as exact sinc terms.  The kernel's two
# endpoint terms cancel as mu -> 0, losing about eps / (pi |mu| L) per term,
# so this keeps the loss near 1e-13 of the batch's largest overlap.
_SINGULAR = 1e-3

# Largest Bessel order the closed form accepts.  The biggest order bound met
# so far is 1072 (benchmark af-closed and af-numeric pools, seeds 1-10; the
# specs/ corpus peaks at 353), so 2^14 leaves 15x headroom.  At the cap one
# delay already costs about 4 * (2^15)^2 = 4e9 flops per Doppler row, so a
# larger order is a pathological spec (say an sfm with f_m near 0): refusing
# it up front keeps the coefficient FFT from asking for gigabytes.
_N_MAX_CAP = 1 << 14


def _closed_af_points(
    betas: np.ndarray,
    f0: float,
    fc_eff: float,
    ta: float,
    tb: float,
    taus: np.ndarray,
    etas: np.ndarray,
) -> np.ndarray:
    """|chi| at paired (tau, eta) points for a harmonic-phase waveform.

    The waveform model is a rectangular pulse on [ta, tb] with phase
    ``2 pi fc_eff t + sum_k betas[k-1] sin(2 pi k f0 t)``.  Both factors of
    the ambiguity integrand are expanded in generalized-Bessel harmonic
    series -- the Doppler-scaled one with per-harmonic phase offsets
    ``2 pi k f0 eta tau`` -- so that

        chi = sqrt(eta) / T * sum_nm g1_n g2_m int_t1^t2 exp(2j pi mu_nm t) dt

    over the exact support overlap [t1, t2], with mu_nm = x_n - y_m,
    x_n = fc_eff (1 - eta) + f0 n and y_m = f0 eta m.  No narrowband
    approximation is made, so the series is exact up to coefficient
    truncation.

    Cauchy split: each integral is (e(t2) - e(t1)) / (2j pi mu_nm), and
    e(t) = exp(2j pi x_n t) exp(-2j pi y_m t) factors by order, so per
    delay the double sum is

        (1/2j) [A(t2) C B(t2) - A(t1) C B(t1)],
        A_n(t) = g1_n exp(2j pi x_n t),  B_m(t) = g2_m exp(-2j pi y_m t),

    with the real kernel C_nm = 1 / (pi mu_nm) shared by every delay of one
    Doppler scale.  A batch of delays therefore costs one real matrix
    product: the real and imaginary parts of both left factors, stacked,
    times C.  Pairs with |mu_nm| times the batch's longest overlap below
    ``_SINGULAR`` (the eta = 1 diagonal, and any near-coincident lines)
    get C = 0 and are added as exact sinc terms instead.  Delays are
    batched and C is built in blocks of orders n so that no temporary
    exceeds ``_CHUNK_BYTES``.

    Raises :class:`TruncationError` before any allocation when the
    coefficients need orders beyond ``_N_MAX_CAP``.
    """
    T = tb - ta
    taus = np.asarray(taus, dtype=float).ravel()
    etas = np.asarray(etas, dtype=float).ravel()
    if not np.all(etas > 0):
        raise ParameterError("Doppler scales eta must be positive")
    k = np.arange(1, len(betas) + 1)

    # Start from the first-order support estimate and double until the
    # coefficient normalization confirms the tail is captured.
    weight = float(np.sum(k * np.abs(betas)))
    n_max = int(np.ceil(weight + 3.0 * np.cbrt(weight))) + 40
    while n_max <= _N_MAX_CAP:
        g1 = _coeffs_fft(betas.astype(np.complex128)[None, :], n_max)[0]
        if abs(np.sum(np.abs(g1) ** 2) - 1.0) < 1e-10:
            break
        n_max *= 2
    else:
        raise TruncationError(
            f"closed-form AF needs Bessel orders up to {n_max}, beyond the "
            f"cap of {_N_MAX_CAP}"
        )
    orders = np.arange(-n_max, n_max + 1)
    keep_n = np.abs(g1) > _PRUNE
    g1 = g1[keep_n]
    n_ord = orders[keep_n].astype(float)

    # Exact support overlap of s(t) and s(eta (t + tau)).
    t1 = np.maximum(ta, ta / etas - taus)
    t2 = np.minimum(tb, tb / etas - taus)
    length = np.maximum(t2 - t1, 0.0)

    # Delays per batch: the batch's coefficient FFT, its largest array,
    # stays within the memory bound.
    batch = max(_CHUNK_BYTES // (16 * _fft_points(n_max, len(betas))), 1)
    out = np.zeros(len(taus))
    for eta in np.unique(etas):
        rows = np.nonzero((etas == eta) & (length > 0))[0]
        x = fc_eff * (1.0 - eta) + f0 * n_ord
        for lo in range(0, len(rows), batch):
            sel = rows[lo : lo + batch]
            # Harmonic series of the Doppler-scaled factor: phase offsets
            # k * 2 pi f0 eta tau fold into complex harmonic amplitudes.
            psi = 2.0 * np.pi * f0 * eta * np.outer(taus[sel], k)
            g2 = _coeffs_fft(betas[None, :] * np.exp(1j * psi), n_max)
            keep_m = np.max(np.abs(g2), axis=0) > _PRUNE
            g2 = np.conj(g2[:, keep_m])
            y = f0 * eta * orders[keep_m]
            chi = _series_sum(g1, g2, x, y, t1[sel], t2[sel])
            out[sel] = np.sqrt(eta) * np.abs(chi) / T
    return out


def _series_sum(g1, g2, x, y, t1, t2) -> np.ndarray:
    """sum_nm g1_n g2_pm int_t1p^t2p exp(2j pi (x_n - y_m) t) dt, per delay p.

    See :func:`_closed_af_points` for the Cauchy split and the
    singular-pair rule.
    """
    p_count, m_count = g2.shape
    length = t2 - t1
    center = 0.5 * (t1 + t2)
    # Endpoint factors, indexed (end, delay, order) with end 0 at t2 and
    # end 1 at t1; the left ones as one real (4P x N) matrix.
    ends = np.stack([t2, t1])[:, :, None]
    a = g1 * np.exp(2j * np.pi * ends * x)
    right = g2 * np.exp(-2j * np.pi * ends * y)
    left = np.stack([a.real, a.imag], axis=1).reshape(4 * p_count, len(x))
    split = np.zeros(p_count, dtype=np.complex128)
    exact = np.zeros(p_count, dtype=np.complex128)
    near = _SINGULAR / np.max(length)
    step = max(_CHUNK_BYTES // (8 * m_count), 1)
    pairs = max(_CHUNK_BYTES // (16 * p_count), 1)
    for n0 in range(0, len(x), step):
        # Singular pairs: x and y ascend, so each x_n meets one run of y_m.
        xb = x[n0 : n0 + step]
        lo = np.searchsorted(y, xb - near, side="right")
        count = np.searchsorted(y, xb + near, side="left") - lo
        ni = np.repeat(np.arange(len(xb)), count)
        mj = np.arange(len(ni)) + np.repeat(lo - np.cumsum(count) + count, count)
        # Cauchy kernel 1 / (pi mu), built in place; singular pairs -> 0.
        kern = xb[:, None] - y[None, :]
        kern[ni, mj] = np.inf
        np.divide(1.0 / np.pi, kern, out=kern)
        prod = (left[:, n0 : n0 + step] @ kern).reshape(2, 2, p_count, m_count)
        at_end = np.einsum("epm,epm->ep", prod[:, 0] + 1j * prod[:, 1], right)
        split += at_end[0] - at_end[1]
        # Exact sinc terms of the singular pairs, in memory-bounded slices.
        ni += n0
        for s0 in range(0, len(ni), pairs):
            n_s, m_s = ni[s0 : s0 + pairs], mj[s0 : s0 + pairs]
            mu = x[n_s] - y[m_s]
            terms = g1[n_s] * g2[:, m_s] * np.sinc(np.outer(length, mu))
            exact += length * np.einsum(
                "ps,ps->p", terms, np.exp(2j * np.pi * np.outer(center, mu))
            )
    return split / 2j + exact


def _sfm_support(spec: WaveformSpec):
    if spec.symmetry == "even":
        return -spec.T / 2.0, spec.T / 2.0
    return 0.0, spec.T


def sfm_af_closed(spec: WaveformSpec, tau, eta):
    """Bessel-series SFM ambiguity magnitude at (tau, eta), broadcastable."""
    if spec.family != "sfm":
        raise ParameterError("sfm_af_closed requires family sfm")
    if spec.taper.kind != "rectangular":
        raise ParameterError("closed-form AF assumes rectangular taper")
    tau_b, eta_b = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(eta, dtype=float)
    )
    ta, tb = _sfm_support(spec)
    out = _closed_af_points(
        np.array([spec.beta]),
        spec.f_m,
        spec.f_c,
        ta,
        tb,
        tau_b.ravel(),
        eta_b.ravel(),
    ).reshape(tau_b.shape)
    return float(out) if out.ndim == 0 else out


def gsfm_af_closed(
    spec: WaveformSpec, model: FourierPhaseModel | None, tau, eta
):
    """Generalized-Bessel-series gsfm ambiguity magnitude, broadcastable."""
    if spec.family != "gsfm":
        raise ParameterError("gsfm_af_closed requires family gsfm")
    if spec.symmetry != "even":
        raise ParameterError("closed-form AF is derived for even symmetry")
    if spec.taper.kind != "rectangular":
        raise ParameterError("closed-form AF assumes rectangular taper")
    if model is None:
        model = gsfm_fourier_coeffs(spec)
    tau_b, eta_b = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(eta, dtype=float)
    )
    out = _closed_af_points(
        model.beta_k,
        1.0 / spec.T,
        spec.f_c + model.center_shift,
        -spec.T / 2.0,
        spec.T / 2.0,
        tau_b.ravel(),
        eta_b.ravel(),
    ).reshape(tau_b.shape)
    return float(out) if out.ndim == 0 else out


def closed_af_surface(
    spec: WaveformSpec,
    delays,
    etas,
    c: float = DEFAULT_SOUND_SPEED,
    model: FourierPhaseModel | None = None,
) -> AmbiguitySurface:
    """Full closed-form surface for an SFM or gsfm spec."""
    delays = np.asarray(delays, dtype=float)
    etas = np.asarray(etas, dtype=float)
    tt, ee = np.meshgrid(delays, etas)
    if spec.family == "sfm":
        mag = sfm_af_closed(spec, tt, ee)
    elif spec.family == "gsfm":
        mag = gsfm_af_closed(spec, model, tt, ee)
    else:
        raise ParameterError(
            "closed-form surfaces exist only for sfm and gsfm"
        )
    values = mag**2
    peak = values.max()
    if peak > 0:
        values = values / peak
    return AmbiguitySurface(delays=delays, dopplers=etas, values=values, c=c)


# ----------------------------------------------------------------------
# Surface summary statistics
# ----------------------------------------------------------------------

class WidthResult(NamedTuple):
    """Mainlobe width plus whether the level was actually crossed."""

    width: float
    crossed: bool


def mainlobe_width(cut: AmbiguityCut, level_db: float) -> WidthResult:
    """Width of the contiguous region around the peak above peak - level.

    Levels are magnitude decibels (20 log10).  Crossings are linearly
    interpolated between samples; if the cut never drops below the level
    the full axis span is returned with ``crossed=False``.
    """
    if level_db <= 0:
        raise ParameterError("level_db must be positive")
    v = cut.values
    x = cut.axis
    ip = int(np.argmax(v))
    thresh = v[ip] * 10.0 ** (-level_db / 20.0)

    def cross(direction: int):
        i = ip
        while 0 <= i + direction < len(v) and v[i + direction] >= thresh:
            i += direction
        j = i + direction
        if j < 0 or j >= len(v):
            return x[i], False
        # Linear interpolation between the straddling samples.
        frac = (v[i] - thresh) / (v[i] - v[j])
        return x[i] + frac * (x[j] - x[i]), True

    left, okl = cross(-1)
    right, okr = cross(+1)
    return WidthResult(width=float(abs(right - left)), crossed=okl and okr)


def _mainlobe_bounds(v: np.ndarray, ip: int) -> tuple[int, int]:
    """Indices of the first local minima on either side of the peak."""
    lo = ip
    while lo > 0 and v[lo - 1] <= v[lo]:
        lo -= 1
    hi = ip
    while hi < len(v) - 1 and v[hi + 1] <= v[hi]:
        hi += 1
    return lo, hi


def peak_sidelobe(obj: Union[AmbiguityCut, AmbiguitySurface]) -> float:
    """Largest value outside the mainlobe, in dB below the peak.

    The mainlobe is bounded by the first local minimum in each grid
    direction away from the peak.  Returns ``-inf`` when no sidelobe
    region exists (for example a pure triangle ACF).
    """
    if isinstance(obj, AmbiguityCut):
        v = obj.values
        ip = int(np.argmax(v))
        lo, hi = _mainlobe_bounds(v, ip)
        rest = np.concatenate([v[:lo], v[hi + 1 :]])
        if len(rest) == 0 or rest.max() <= 0:
            return float("-inf")
        return float(20.0 * np.log10(rest.max() / v[ip]))
    vals = obj.values
    i0, j0 = np.unravel_index(int(np.argmax(vals)), vals.shape)
    rlo, rhi = _mainlobe_bounds(vals[i0, :], j0)
    clo, chi = _mainlobe_bounds(vals[:, j0], i0)
    mask = np.ones(vals.shape, dtype=bool)
    mask[clo : chi + 1, rlo : rhi + 1] = False
    rest = vals[mask]
    if len(rest) == 0 or rest.max() <= 0:
        return float("-inf")
    return float(10.0 * np.log10(rest.max() / vals[i0, j0]))


@dataclass(frozen=True)
class FidelityReport:
    """Surface-to-surface comparison summary."""

    width_ratio: float
    psl_delta_db: float
    max_abs_diff: float


def compare_af(a: AmbiguitySurface, b: AmbiguitySurface) -> FidelityReport:
    """Delay mainlobe-width ratio (-3 dB), PSL delta, and max |difference|."""
    if a.values.shape != b.values.shape or not (
        np.allclose(a.delays, b.delays) and np.allclose(a.dopplers, b.dopplers)
    ):
        raise ParameterError("surfaces must share an identical grid")
    wa = mainlobe_width(a.delay_cut(), 3.0).width
    wb = mainlobe_width(b.delay_cut(), 3.0).width
    pa, pb = peak_sidelobe(a), peak_sidelobe(b)
    return FidelityReport(
        width_ratio=float(wa / wb),
        psl_delta_db=float(pa - pb),
        max_abs_diff=float(np.max(np.abs(a.values - b.values))),
    )
