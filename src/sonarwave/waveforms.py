"""The waveform sampler, the families' phase laws and their discrete codes.

Families: cw, lfm, sfm, gsfm, costas, bpsk, qpsk.  Each family supplies only
its phase; :func:`generate` samples, tapers and normalizes every one of them
the same way into a unit-energy :class:`~sonarwave.signal_core.SampledSignal`.

Convention note: the sinusoidal-IF family is anchored on the SFM phase
``phi(t) = beta sin(2 pi f_m t)``.  The generalized waveform (gsfm) is
defined so that integrating its IF reproduces exactly that phase in the
``rho = 1`` limit; its frequency-modulation argument is therefore taken at
the quarter-cycle offset that makes the family closed under the exponent
parameter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .gbf import TruncationError
from .signal_core import (
    ParameterError,
    SampledSignal,
    Taper,
    make_taper,
)

FAMILIES = ("cw", "lfm", "sfm", "gsfm", "costas", "bpsk", "qpsk")
_CODED = ("costas", "bpsk", "qpsk")

# Largest sample count a spec may ask for.  The most met so far is 35,070
# (a 70 kHz bpsk in the benchmark pools, seeds 1-20; the specs/ corpus peaks
# at 36,784), so 2^22 leaves about 115x headroom.  At the cap one complex
# sample array is 64 MiB and the gsfm's 4x refined integration grid 128 MiB
# per array, so a larger count is a pathological spec (T in hours, or a
# sample_rate off by decades): refusing it up front keeps a generator from
# asking for gigabytes.
_N_SAMPLES_CAP = 1 << 22


class CodeError(ParameterError):
    """Raised for invalid Costas codes or unsupported code orders."""


@dataclass(frozen=True)
class WaveformSpec:
    """Declarative description of one waveform.

    For gsfm, give exactly one of ``alpha`` (modulation term, s^-rho) or
    ``cycles`` (IF cycle count C); the other is derived via
    ``C = alpha T^rho`` (nonsymmetric) or ``C = 2 alpha (T/2)^rho`` (even).
    """

    family: str
    T: float
    f_c: float
    delta_f: float = 0.0
    f_m: float = 0.0
    rho: float = 1.0
    alpha: Optional[float] = None
    cycles: Optional[float] = None
    symmetry: str = "even"
    n_chips: int = 0
    code: Optional[tuple] = None
    qpsk_sign: int = 1
    taper: Taper = field(default_factory=Taper)
    sample_rate: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        for name in ("T", "f_c", "delta_f", "f_m", "rho", "alpha", "cycles",
                     "sample_rate"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, numbers.Real) and math.isfinite(value)
            ):
                raise ParameterError(
                    f"{name} must be finite and a number, got {value!r}"
                )
        if self.T <= 0:
            raise ParameterError("T must be positive")
        if self.f_c <= 0:
            raise ParameterError("f_c must be positive")
        if self.delta_f < 0:
            raise ParameterError("delta_f must be nonnegative")
        if self.symmetry not in ("even", "nonsymmetric"):
            raise ParameterError(f"unknown symmetry {self.symmetry!r}")
        if self.family == "gsfm":
            if self.rho < 1:
                raise ParameterError("rho must be >= 1")
            if (self.alpha is None) == (self.cycles is None):
                raise ParameterError(
                    "gsfm requires exactly one of alpha or cycles"
                )
            scale = _cycles_per_alpha(self.T, self.rho, self.symmetry)
            if self.alpha is None:
                object.__setattr__(self, "alpha", self.cycles / scale)
            else:
                object.__setattr__(self, "cycles", self.alpha * scale)
            if self.alpha <= 0:
                raise ParameterError("alpha must be positive")
        if self.family == "sfm" and self.f_m <= 0:
            raise ParameterError("sfm requires f_m > 0")
        if not (isinstance(self.n_chips, numbers.Integral)
                and self.n_chips >= 0):
            raise ParameterError(
                f"n_chips must be a nonnegative integer, got {self.n_chips!r}"
            )
        if self.code is not None:
            if not (np.iterable(self.code) and all(
                    isinstance(c, numbers.Integral) for c in self.code)):
                raise ParameterError(
                    f"code must be a sequence of integers, got {self.code!r}"
                )
            object.__setattr__(self, "code", tuple(int(c) for c in self.code))
            if self.n_chips == 0:
                object.__setattr__(self, "n_chips", len(self.code))
        # Coded families sample every chip at least twice.
        n = max(self.T * self.resolved_sample_rate(), 2 * self.n_chips)
        if n > _N_SAMPLES_CAP:
            raise ParameterError(
                f"spec asks for {n:.4g} samples, beyond the cap of "
                f"{_N_SAMPLES_CAP}"
            )
        # The sample grid has n_chips chips, so the code must fill them.
        if self.code is not None and self.n_chips != len(self.code):
            raise ParameterError(
                f"n_chips = {self.n_chips} disagrees with the "
                f"{len(self.code)}-chip code"
            )

    @property
    def beta(self) -> float:
        """SFM modulation index delta_f / (2 f_m)."""
        if self.f_m <= 0:
            raise ParameterError("beta undefined without f_m")
        return self.delta_f / (2.0 * self.f_m)

    def resolved_sample_rate(self) -> float:
        if self.sample_rate is not None:
            return self.sample_rate
        return default_sample_rate(self)

    @classmethod
    def from_dict(cls, d: dict) -> "WaveformSpec":
        """Strict construction: unknown keys are rejected."""
        d = dict(d)
        taper_d = d.pop("taper", None)
        known = {f.name for f in fields(cls)} - {"taper"}
        unknown = set(d) - known
        if unknown:
            raise ParameterError(
                f"unknown waveform spec field(s): {sorted(unknown)}"
            )
        taper = Taper()
        if taper_d is not None:
            tk = set(taper_d) - {"kind", "shape_param", "scope"}
            if tk:
                raise ParameterError(f"unknown taper field(s): {sorted(tk)}")
            taper = Taper(**taper_d)
        return cls(taper=taper, **d)

    def to_dict(self) -> dict:
        d = {
            "family": self.family, "T": self.T, "f_c": self.f_c,
            "delta_f": self.delta_f,
            "taper": {
                "kind": self.taper.kind,
                "shape_param": self.taper.shape_param,
                "scope": self.taper.scope,
            },
        }
        if self.family == "sfm":
            d["f_m"] = self.f_m
        if self.family == "gsfm":
            d.update(rho=self.rho, alpha=self.alpha, symmetry=self.symmetry)
        if self.family in _CODED:
            d["n_chips"] = self.n_chips
            if self.code is not None:
                d["code"] = list(self.code)
        if self.family == "qpsk":
            d["qpsk_sign"] = self.qpsk_sign
        if self.sample_rate is not None:
            d["sample_rate"] = self.sample_rate
        return d


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, refused outside e^-709..e^709 (normal doubles)."""
    if abs(exponent * math.log(base)) > 709.0:
        raise ParameterError(
            f"{base:g}**{exponent:g} is out of floating-point range: "
            "rho is too large for this T"
        )
    return base**exponent


def _cycles_per_alpha(T, rho, symmetry):
    """C / alpha: 2 (T/2)^rho for even symmetry, T^rho for nonsymmetric."""
    if symmetry == "even":
        return 2.0 * _power(T / 2.0, rho)
    return _power(T, rho)


def modulation_rate(spec: WaveformSpec) -> float:
    """Highest frequency component of the IF (Carson's B_m) where defined."""
    if spec.family == "sfm":
        return spec.f_m
    if spec.family == "gsfm":
        t_eff = spec.T / 2.0 if spec.symmetry == "even" else spec.T
        return spec.alpha * spec.rho * _power(t_eff, spec.rho - 1.0)
    return 0.0


def default_sample_rate(spec: WaveformSpec) -> float:
    """16x the highest passband frequency plus a Carson-style margin.

    Leaves headroom for Doppler scaling of the real passband signal.
    """
    margin = 10.0 / spec.T
    if spec.family in ("sfm", "gsfm"):
        margin += modulation_rate(spec)
    if spec.family in _CODED and spec.n_chips > 0:
        margin += 4.0 * spec.n_chips / spec.T
    return 16.0 * (spec.f_c + spec.delta_f / 2.0 + margin)


def gsfm_if_modulation(spec: WaveformSpec, t: np.ndarray) -> np.ndarray:
    """Normalized gsfm IF modulation g(t); IF = (delta_f/2) g(t) + f_c.

    Defined so that rho = 1 with alpha = f_m makes the integrated phase
    exactly the SFM's beta sin(2 pi f_m t).
    """
    arg = np.abs(t) ** spec.rho if spec.symmetry == "even" else t**spec.rho
    return np.cos(2 * np.pi * spec.alpha * arg)


def _simpson_intervals(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the quadratic through x_i..x_i+2.

    ``h`` holds the steps x_i+1 - x_i; the rule allows unequal steps.
    """
    r = h[:-1] / (h[:-1] + h[1:])
    rq = r * (h[:-1] / h[1:])
    return h[:-1] / 6 * (
        (3 - r) * y[:-2] + (3 + rq + r) * y[1:-1] - rq * y[2:]
    )


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of samples ``y`` over the ascending grid ``x``.

    Starts at 0 at x[0].  Intervals 1, 3, 5, ... take the quadratic
    through their right neighbour, intervals 2, 4, ... and the last one
    the quadratic through their left neighbour (Cartwright's cumulative
    Simpson rule for unequal steps).  Needs at least 3 points.
    """
    h = np.diff(x)
    ahead = _simpson_intervals(y, h)
    behind = _simpson_intervals(y[::-1], h[::-1])[::-1]
    parts = np.empty(len(h))
    parts[:-1:2] = ahead[::2]
    parts[1::2] = behind[::2]
    parts[-1] = behind[-1]
    out = np.zeros(len(y))
    np.cumsum(parts, out=out[1:])
    return out


# Phase functions: each maps (spec, t, t0, n_chip, fs) to the passband
# phase at the sample times t; ``generate`` does everything else.

def _cw_phase(spec, t, t0, n_chip, fs):
    return 2.0 * np.pi * spec.f_c * t


def _lfm_phase(spec, t, t0, n_chip, fs):
    """Linear sweep across delta_f: phi(t) = pi (delta_f/T) t^2, centered."""
    # Sweep is defined on the centered time axis regardless of support.
    tcent = t - (t0 + spec.T / 2.0)
    return np.pi * (spec.delta_f / spec.T) * tcent**2 + 2 * np.pi * spec.f_c * t


def _sfm_phase(spec, t, t0, n_chip, fs):
    """phi(t) = beta sin(2 pi f_m t) with beta = delta_f / (2 f_m)."""
    return spec.beta * np.sin(2 * np.pi * spec.f_m * t) + 2 * np.pi * spec.f_c * t


def _gsfm_phase(spec, t, t0, n_chip, fs):
    """GSFM via high-resolution cumulative integration of its IF."""
    n = len(t)
    # Integrate on a 4x refined edge grid; midpoints land on grid nodes.
    refine = 4
    edges = t0 + np.arange(n * refine + 1) / (fs * refine)
    g = gsfm_if_modulation(spec, edges)
    phi_edges = np.pi * spec.delta_f * _cumulative_simpson(g, edges)
    # Anchor the integration constant at t = 0 so the rho = 1 limit matches
    # the SFM phase exactly.
    phi0 = np.interp(0.0, edges, phi_edges)
    phi_mid = phi_edges[refine // 2 :: refine][:n] - phi0
    return phi_mid + 2 * np.pi * spec.f_c * t


def _costas_phase(spec, t, t0, n_chip, fs):
    """Frequency-hopped chips with phase continuity at chip boundaries.

    Chip frequencies f_i = f_c + (code_i - (N+1)/2) delta_f / N.
    """
    code = spec.code
    if code is None:
        code = costas_code(spec.n_chips)
    if not is_costas(code):
        raise CodeError(f"code {list(code)} fails the Costas difference check")
    n_ch = len(code)
    n = len(t)
    t_chip = n_chip / fs
    freqs = spec.f_c + (np.asarray(code) - (n_ch + 1) / 2.0) * spec.delta_f / n_ch
    # Cumulative theta_i keeps the passband phase continuous between chips.
    theta = np.concatenate(
        [[0.0], np.cumsum(2.0 * np.pi * freqs[:-1] * t_chip)]
    )
    local = (np.arange(n) % n_chip + 0.5) / fs
    chip_ix = np.arange(n) // n_chip
    return 2.0 * np.pi * freqs[chip_ix] * local + theta[chip_ix]


def _bpsk_phase(spec, t, t0, n_chip, fs):
    """Constant-frequency chips with phases in {0, pi} from a bit code."""
    if spec.code is None:
        raise ParameterError("bpsk requires a bit code")
    theta = np.pi * np.asarray(spec.code)[np.arange(len(t)) // n_chip]
    return 2.0 * np.pi * spec.f_c * t + theta


# Fraction of each chip used for the linear phase transition ramp.
_QPSK_RAMP = 0.10


def _qpsk_phase(spec, t, t0, n_chip, fs):
    """Binary-to-quadriphase transform q_i = j^{+-(i-1)} e^{j theta_i}.

    Chip phases ramp linearly (shortest path) over the final 10% of each
    chip, keeping the envelope constant.
    """
    if spec.code is None:
        raise ParameterError("qpsk requires a bit code")
    if spec.qpsk_sign not in (1, -1):
        raise ParameterError("qpsk_sign must be +1 or -1")
    bits = np.asarray(spec.code)
    n_ch = len(bits)
    chip_phase = spec.qpsk_sign * (np.pi / 2.0) * np.arange(n_ch) + np.pi * bits

    theta = np.empty(len(t))
    n_ramp = max(int(round(_QPSK_RAMP * n_chip)), 1)
    for i in range(n_ch):
        seg = slice(i * n_chip, (i + 1) * n_chip)
        theta[seg] = chip_phase[i]
        if i + 1 < n_ch:
            step = chip_phase[i + 1] - chip_phase[i]
            step = (step + np.pi) % (2.0 * np.pi) - np.pi  # shortest path
            ramp = slice((i + 1) * n_chip - n_ramp, (i + 1) * n_chip)
            theta[ramp] = chip_phase[i] + step * (np.arange(n_ramp) + 0.5) / n_ramp
            chip_phase[i + 1] = chip_phase[i] + step
    return 2.0 * np.pi * spec.f_c * t + theta


_PHASES = {
    "cw": _cw_phase,
    "lfm": _lfm_phase,
    "sfm": _sfm_phase,
    "gsfm": _gsfm_phase,
    "costas": _costas_phase,
    "bpsk": _bpsk_phase,
    "qpsk": _qpsk_phase,
}


def generate(spec: WaveformSpec) -> SampledSignal:
    """Sample, taper and unit-energy normalize the waveform of ``spec``.

    Samples sit at cell midpoints ``t0 + (n + 1/2)/fs`` on the support
    [t0, t0 + T], in ``chips`` chips of ``n_chip`` samples each: the code
    length for the coded families and one chip for the others, so a
    ``per-chip`` taper on an uncoded family tapers the whole pulse.
    """
    fs = spec.resolved_sample_rate()
    if spec.f_c + spec.delta_f / 2.0 >= fs / 2.0:
        raise ParameterError(
            "f_c + delta_f/2 exceeds Nyquist for the chosen sample rate"
        )
    chips = spec.n_chips if spec.family in _CODED else 1
    if chips == 0:
        raise ParameterError(
            f"{spec.family} needs at least one chip: give n_chips or code"
        )
    n_chip = max(int(round(spec.T * fs / chips)), 2)
    t0 = -spec.T / 2.0 if spec.symmetry == "even" else 0.0
    t = t0 + (np.arange(n_chip * chips) + 0.5) / fs
    if spec.taper.scope == "per-chip":
        window = np.tile(make_taper(spec.taper, n_chip), chips)
    else:
        window = make_taper(spec.taper, len(t))
    phase = _PHASES[spec.family](spec, t, t0, n_chip, fs)
    return SampledSignal(np.exp(1j * phase) * window, fs, t0).normalized()


# ----------------------------------------------------------------------
# Discrete codes
# ----------------------------------------------------------------------

def is_costas(code: Sequence[int]) -> bool:
    """Brute-force difference-triangle check."""
    code = list(code)
    n = len(code)
    if sorted(code) != list(range(1, n + 1)):
        return False
    for row in range(1, n):
        diffs = [code[i + row] - code[i] for i in range(n - row)]
        if len(set(diffs)) != len(diffs):
            return False
    return True


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p**0.5) + 1):
        if p % q == 0:
            return False
    return True


def _primitive_root(p: int) -> int:
    order = p - 1
    factors = set()
    m = order
    q = 2
    while q * q <= m:
        while m % q == 0:
            factors.add(q)
            m //= q
        q += 1
    if m > 1:
        factors.add(m)
    for g in range(2, p):
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
    raise RuntimeError(f"no primitive root found for {p}")


def costas_code(n: int) -> tuple:
    """Welch-constructed Costas permutation of order ``n`` (n+1 prime)."""
    if n < 1:
        raise CodeError("order must be >= 1")
    if n == 1:
        return (1,)
    p = n + 1
    if not _is_prime(p):
        raise CodeError(
            f"Welch construction needs n+1 prime (n={n}); "
            "supply an explicit code in the spec instead"
        )
    g = _primitive_root(p)
    code = tuple(pow(g, i, p) for i in range(1, n + 1))
    assert is_costas(code)
    return code


# Maximal-length LFSR tap positions (Fibonacci form), degree -> taps.
_MSEQ_TAPS = {
    2: (2, 1), 3: (3, 2), 4: (4, 3), 5: (5, 3), 6: (6, 5), 7: (7, 6),
    8: (8, 6, 5, 4), 9: (9, 5), 10: (10, 7), 11: (11, 9),
    12: (12, 6, 4, 1), 13: (13, 4, 3, 1), 14: (14, 5, 3, 1),
    15: (15, 14), 16: (16, 15, 13, 4),
}


def m_sequence(degree: int) -> tuple:
    """Maximum-length sequence of length 2^degree - 1, all-ones seed."""
    if degree not in _MSEQ_TAPS:
        raise ParameterError(f"degree must be in [2, 16], got {degree}")
    taps = _MSEQ_TAPS[degree]
    state = [1] * degree
    out = []
    for _ in range(2**degree - 1):
        out.append(state[-1])
        fb = 0
        for tp in taps:
            fb ^= state[tp - 1]
        state = [fb] + state[:-1]
    return tuple(out)


# ----------------------------------------------------------------------
# Fourier-series phase model for the gsfm closed forms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FourierPhaseModel:
    """Cosine-series model of the normalized gsfm IF.

    ``g(t) = a0/2 + sum_k a_k cos(2 pi k t / T)`` with the IF equal to
    ``(delta_f/2) g(t) + f_c``.  Integrating gives the phase-harmonic
    amplitudes ``beta_k = delta_f * T * a_k / (2 k)`` and a residual
    carrier shift of ``a0 * delta_f / 4``.
    """

    a0: float
    a_k: np.ndarray
    beta_k: np.ndarray
    K: int
    T: float
    delta_f: float

    @property
    def center_shift(self) -> float:
        """Spectral center offset from f_c, in Hz."""
        return self.a0 * self.delta_f / 4.0

    def if_reconstruction(self, t: np.ndarray) -> np.ndarray:
        """Series reconstruction of the normalized IF modulation."""
        k = np.arange(1, self.K + 1)
        return self.a0 / 2.0 + np.cos(
            2.0 * np.pi * np.outer(t, k) / self.T
        ) @ self.a_k


_K_MAX = 4096


def _if_cosine_coeffs(spec: WaveformSpec, k_max: int) -> np.ndarray:
    """Cosine-series coefficients [a0, a1, ...] of the normalized IF.

    FFT projection on a fine midpoint grid over one period [-T/2, T/2].
    """
    T = spec.T
    m = 1 << max(
        int(np.ceil(np.log2(max(16 * k_max, 64.0 * spec.cycles + 64.0)))), 10
    )
    t = -T / 2.0 + (np.arange(m) + 0.5) * T / m
    g = gsfm_if_modulation(spec, t)
    coef = np.fft.rfft(g)
    k = np.arange(len(coef))
    # Midpoint samples start half a bin past -T/2; undo that phase.
    coef = coef * np.exp(1j * np.pi * k * (1.0 - 1.0 / m))
    return 2.0 * coef.real[: k_max + 1] / m


def gsfm_fourier_coeffs(spec: WaveformSpec, K: int | None = None) -> FourierPhaseModel:
    """Fourier phase model of the even-symmetric gsfm.

    With ``K=None`` the truncation order is chosen adaptively so the
    phase-harmonic tail is negligible (max |beta_k| over the last decade
    below 1e-6 of the peak |beta_k|).
    """
    if spec.family != "gsfm":
        raise ParameterError("gsfm_fourier_coeffs requires family gsfm")
    if spec.symmetry != "even":
        raise ParameterError("Fourier phase model assumes even symmetry")
    adaptive = K is None
    k_max = _K_MAX if adaptive else K
    a_all = _if_cosine_coeffs(spec, k_max)
    kk = np.arange(1, k_max + 1)
    beta_all = spec.delta_f * spec.T * a_all[1:] / (2.0 * kk)
    beta_peak = max(np.max(np.abs(beta_all)), 1e-300)
    if adaptive:
        K = k_max
        floor = max(int(np.ceil(4.0 * spec.cycles + 20.0)), 32)
        for cand in (64, 128, 256, 512, 1024, 2048, _K_MAX):
            if cand < floor:
                continue
            tail = np.max(np.abs(beta_all[cand - cand // 10 : cand]))
            if tail < 1e-6 * beta_peak:
                K = cand
                break
    else:
        tail = np.max(np.abs(beta_all[K - max(K // 10, 1) : K]))
        if tail > 1e-6 * beta_peak:
            raise TruncationError(
                f"beta_k tail has not decayed at K={K}",
                suggested_k=2 * K,
            )
    return FourierPhaseModel(
        a0=a_all[0],
        a_k=a_all[1 : K + 1],
        beta_k=beta_all[:K],
        K=K,
        T=spec.T,
        delta_f=spec.delta_f,
    )


def harmonic_series(
    spec: WaveformSpec, model: FourierPhaseModel | None = None
) -> tuple[np.ndarray, float, float, float, float]:
    """Harmonic-phase model behind the Bessel-series closed forms.

    Returns ``(betas, f0, fc_eff, ta, tb)``: the waveform is a rectangular
    pulse on [ta, tb] with phase
    ``2 pi fc_eff t + sum_k betas[k-1] sin(2 pi k f0 t)``.  The rectangular
    sfm (either symmetry) is the one-harmonic case at f0 = f_m; the
    rectangular even gsfm is its Fourier phase model (``model``, built when
    not given) at f0 = 1/T.  This is the one place that decides which specs
    have closed forms; every other spec raises :class:`ParameterError`.
    """
    if spec.taper.kind != "rectangular":
        raise ParameterError("closed-form series assume a rectangular taper")
    if spec.family == "sfm":
        ta = -spec.T / 2.0 if spec.symmetry == "even" else 0.0
        return np.array([spec.beta]), spec.f_m, spec.f_c, ta, ta + spec.T
    if spec.family == "gsfm" and spec.symmetry == "even":
        if model is None:
            model = gsfm_fourier_coeffs(spec)
        return (model.beta_k, 1.0 / spec.T, spec.f_c + model.center_shift,
                -spec.T / 2.0, spec.T / 2.0)
    raise ParameterError(
        f"no closed-form series for {spec.family} with {spec.symmetry} "
        "symmetry: only rectangular sfm and even gsfm have one"
    )
