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

import functools
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .signal_core import (
    ParameterError,
    SampledSignal,
    Taper,
    _frozen,
    _is_number,
    _json_object,
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

# Largest Costas order a spec may ask for.  The most met is 18; the O(n^2)
# difference check takes about 0.1 s at the cap, and minutes near 2^21,
# the order the sample cap alone would allow.
_COSTAS_MAX = 1 << 10


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
            if not (_is_number(value) or value is None
                    and name in ("alpha", "cycles", "sample_rate")):
                raise ParameterError(
                    f"{name} must be finite and a number, got {value!r}"
                )
            # Held as a float, so that equal specs (np.float32(0.5) == 0.5,
            # 2 == 2.0) hold the same values and sample equally.
            if value is not None:
                object.__setattr__(self, name, float(value))
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
            # Refuses a T^rho out of range, whichever form was given.
            _cycles_per_alpha(self.T, self.rho, self.symmetry)
            if self.gsfm_alpha <= 0:
                raise ParameterError("alpha must be positive")
        if self.family == "sfm" and self.f_m <= 0:
            raise ParameterError("sfm requires f_m > 0")
        # Integers, held as int, so that equal specs sample equally.
        if not (_is_number(self.qpsk_sign, numbers.Integral)
                and self.qpsk_sign in (1, -1)):
            raise ParameterError(
                f"qpsk_sign must be +1 or -1, got {self.qpsk_sign!r}")
        if not (_is_number(self.n_chips, numbers.Integral)
                and self.n_chips >= 0):
            raise ParameterError(
                f"n_chips must be a nonnegative integer, got {self.n_chips!r}"
            )
        object.__setattr__(self, "qpsk_sign", int(self.qpsk_sign))
        object.__setattr__(self, "n_chips", int(self.n_chips))
        if self.code is not None:
            if not (np.iterable(self.code) and all(
                    _is_number(c, numbers.Integral) for c in self.code)):
                raise ParameterError(
                    f"code must be a sequence of integers, got {self.code!r}"
                )
            object.__setattr__(self, "code", tuple(int(c) for c in self.code))
            if self.n_chips not in (0, len(self.code)):  # a chip an entry
                raise ParameterError(f"n_chips = {self.n_chips} disagrees "
                                     f"with the {len(self.code)}-chip code")
        if self.family == "costas" and self.chips > _COSTAS_MAX:
            raise ParameterError(f"Costas order {self.chips} is beyond the "
                                 f"cap of {_COSTAS_MAX}")
        # Coded families sample every chip at least twice.
        n = max(self.T * self.resolved_sample_rate(), 2 * self.chips)
        if n > _N_SAMPLES_CAP:
            raise ParameterError(
                f"spec asks for {n:.4g} samples, beyond the cap of "
                f"{_N_SAMPLES_CAP}"
            )

    @property
    def gsfm_alpha(self) -> Optional[float]:
        """gsfm modulation term alpha (s^-rho): as given, or from cycles."""
        return self.alpha if self.cycles is None else (
            self.cycles / _cycles_per_alpha(self.T, self.rho, self.symmetry))

    @property
    def gsfm_cycles(self) -> Optional[float]:
        """gsfm IF cycle count C: as given, or from alpha."""
        return self.cycles if self.alpha is None else (
            self.alpha * _cycles_per_alpha(self.T, self.rho, self.symmetry))

    @property
    def chips(self) -> int:
        """Chip count: the code's length if a code is given, else n_chips."""
        return self.n_chips if self.code is None else len(self.code)

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
        """Strict construction from a JSON object: unknown keys are rejected."""
        names = [f.name for f in fields(cls)]  # family, T, f_c come first
        d = dict(_json_object(d, "waveform spec", names, names[:3]))
        d["taper"] = Taper(**_json_object(d.get("taper", {}), "taper",
                                          [f.name for f in fields(Taper)]))
        return cls(**d)

    def to_dict(self) -> dict:
        """Every field as JSON types, so ``from_dict(to_dict(s)) == s``."""
        code = None if self.code is None else list(self.code)
        return dict(asdict(self), code=code)


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
        return spec.gsfm_alpha * spec.rho * _power(t_eff, spec.rho - 1.0)
    return 0.0


def default_sample_rate(spec: WaveformSpec) -> float:
    """16x the highest passband frequency plus a Carson-style margin.

    Leaves headroom for Doppler scaling of the real passband signal.
    """
    margin = 10.0 / spec.T
    if spec.family in ("sfm", "gsfm"):
        margin += modulation_rate(spec)
    if spec.family in _CODED and spec.chips > 0:
        margin += 4.0 * spec.chips / spec.T
    return 16.0 * (spec.f_c + spec.delta_f / 2.0 + margin)


def gsfm_if_modulation(spec: WaveformSpec, t: np.ndarray) -> np.ndarray:
    """Normalized gsfm IF modulation g(t); IF = (delta_f/2) g(t) + f_c.

    Defined so that rho = 1 with alpha = f_m makes the integrated phase
    exactly the SFM's beta sin(2 pi f_m t).
    """
    arg = np.abs(t) ** spec.rho if spec.symmetry == "even" else t**spec.rho
    return np.cos(2 * np.pi * spec.gsfm_alpha * arg)


def _simpson_step(h0, h1, y0, y1, y2):
    """Integral over the step h0 from y0 to y1 of the quadratic through
    y0, y1 and y2, where h1 is the step from y1 to y2 (steps may differ).
    """
    r = h0 / (h0 + h1)
    rq = r * (h0 / h1)
    return h0 / 6 * ((3 - r) * y0 + (3 + rq + r) * y1 - rq * y2)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of samples ``y`` over the ascending grid ``x``.

    Starts at 0 at x[0].  Intervals 1, 3, 5, ... take the quadratic
    through their right neighbour, intervals 2, 4, ... and the last one
    the quadratic through their left neighbour (Cartwright's cumulative
    Simpson rule for unequal steps).  Needs at least 3 points.
    """
    h = np.diff(x)
    # Points 2j, 2j+1, 2j+2 and the steps between them: interval 2j runs
    # from y0 to y1 looking ahead to y2, interval 2j+1 from y2 back to y1
    # looking behind to y0.
    h0, h1 = h[:-1:2], h[1::2]
    y0, y1, y2 = y[:-2:2], y[1:-1:2], y[2::2]
    parts = np.empty(len(h))
    parts[:-1:2] = _simpson_step(h0, h1, y0, y1, y2)
    parts[1::2] = _simpson_step(h1, h0, y2, y1, y0)
    parts[-1:] = _simpson_step(h[-1:], h[-2:-1], y[-1:], y[-2:-1], y[-3:-2])
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
    elif not is_costas(code):
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
    if spec.code is None or not set(spec.code) <= {0, 1}:
        raise ParameterError("bpsk requires a bit code (0s and 1s)")
    theta = np.pi * np.asarray(spec.code)[np.arange(len(t)) // n_chip]
    return 2.0 * np.pi * spec.f_c * t + theta


# Fraction of each chip used for the linear phase transition ramp.
_QPSK_RAMP = 0.10


def _qpsk_phase(spec, t, t0, n_chip, fs):
    """Binary-to-quadriphase transform q_i = j^{+-(i-1)} e^{j theta_i}.

    Chip phases ramp linearly (shortest path) over the final 10% of each
    chip, keeping the envelope constant.
    """
    if spec.code is None or not set(spec.code) <= {0, 1}:
        raise ParameterError("qpsk requires a bit code (0s and 1s)")
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

    The samples are read-only.  The signals of the last two distinct specs
    asked for are kept: a spec equal to one of them returns that same
    object, so a design loop that asks for each candidate and then its
    reference samples the reference once.  Any other spec is sampled
    afresh, even while a caller still holds an earlier signal of it.  A
    signal's transforms, such as its default
    :func:`~sonarwave.signal_core.spectrum_of`, are computed once and kept
    with it.  A spec that raises raises again on every call.
    """
    return _kept(spec)


@functools.lru_cache(maxsize=2)
def _kept(spec: WaveformSpec) -> SampledSignal:
    """:func:`_sample`'s signal, as a read-only view of its locked array."""
    fresh = _sample(spec)
    return replace(fresh, samples=_frozen(fresh.samples))


def _sample(spec: WaveformSpec) -> SampledSignal:
    """The signal :func:`generate` returns, sampled afresh."""
    fs = spec.resolved_sample_rate()
    if spec.f_c + spec.delta_f / 2.0 >= fs / 2.0:
        raise ParameterError(
            "f_c + delta_f/2 exceeds Nyquist for the chosen sample rate"
        )
    chips = spec.chips if spec.family in _CODED else 1
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
    """Fourier phase model of the even gsfm.

    The normalized IF ``g(t) = a0/2 + sum_k a_k cos(2 pi k t / T)`` (the IF
    is ``(delta_f/2) g(t) + f_c``) integrates to the phase harmonics
    ``beta_k = delta_f * T * a_k / (2 k)``, k = 1..len(beta_k), and a
    carrier shift ``center_shift = a0 * delta_f / 4`` in Hz.
    """

    beta_k: np.ndarray
    center_shift: float


_K_MAX = 4096


def _if_cosine_coeffs(spec: WaveformSpec) -> np.ndarray:
    """Cosine coefficients [a0, a1, ..., a_{_K_MAX}] of the normalized IF.

    a_k = (2/m) sum_i g(t_i) cos(2 pi k t_i / T) over m midpoints t_i of
    one period [-T/2, T/2].  g is even, so the m/2 midpoints of [0, T/2]
    carry the sum, and it is their DCT-II times 4/m.  One real FFT V of
    those m/2 samples, the even-indexed ones in order and then the
    odd-indexed ones reversed, takes it: a_k = (4/m) Re[exp(-j pi k / m)
    V_k] (Makhoul, IEEE Trans. ASSP 28(1), 1980).
    """
    T = spec.T
    m = 1 << max(
        int(np.ceil(np.log2(max(16 * _K_MAX, 64.0 * spec.gsfm_cycles + 64.0)))), 10
    )
    i = np.arange(m // 2)
    # Midpoint i of [0, T/2] sits at (i + 1/2) T / m; Makhoul's order.
    i = np.concatenate([i[0::2], i[1::2][::-1]])
    v = np.fft.rfft(gsfm_if_modulation(spec, (i + 0.5) * T / m))[: _K_MAX + 1]
    k = np.arange(_K_MAX + 1)
    return 4.0 * (v * np.exp(-1j * np.pi * k / m)).real / m


def gsfm_fourier_coeffs(spec: WaveformSpec) -> FourierPhaseModel:
    """Fourier phase model of the even-symmetric gsfm.

    The harmonic count K is the least of 64, 128, ..., 2048 that is at
    least max(4 C + 20, 32) for C cycles and whose last decade of |beta_k|
    stays below 1e-6 of the peak |beta_k|; failing that, ``_K_MAX``.
    """
    if spec.family != "gsfm":
        raise ParameterError("gsfm_fourier_coeffs requires family gsfm")
    if spec.symmetry != "even":
        raise ParameterError("Fourier phase model assumes even symmetry")
    a_all = _if_cosine_coeffs(spec)
    kk = np.arange(1, _K_MAX + 1)
    beta_all = spec.delta_f * spec.T * a_all[1:] / (2.0 * kk)
    beta_peak = max(np.max(np.abs(beta_all)), 1e-300)
    K = _K_MAX
    floor = max(int(np.ceil(4.0 * spec.gsfm_cycles + 20.0)), 32)
    for cand in (64, 128, 256, 512, 1024, 2048):
        tail = np.max(np.abs(beta_all[cand - cand // 10 : cand]))
        if cand >= floor and tail < 1e-6 * beta_peak:
            K = cand
            break
    return FourierPhaseModel(beta_k=beta_all[:K],
                             center_shift=a_all[0] * spec.delta_f / 4.0)


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
