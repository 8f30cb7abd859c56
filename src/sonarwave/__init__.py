"""Active-sonar transmit waveform design and analysis toolkit.

Generates the classical sonar waveform families (CW, LFM, sinusoidal FM and
its generalized variant, Costas, BPSK, QPSK), evaluates their spectra,
peak-to-average power, spectral efficiency, and broadband ambiguity
functions, and simulates transmission through a resonant transducer chain.
"""

from .signal_core import (
    ParameterError,
    SampledSignal,
    Spectrum,
    Taper,
    make_taper,
    resample_scale,
    spectrum_of,
)
from .waveforms import (
    FourierPhaseModel,
    WaveformSpec,
    costas_code,
    generate,
    gsfm_fourier_coeffs,
    harmonic_series,
    is_costas,
    m_sequence,
)
from .gbf import GbfCoefficients, TruncationError, bessel_j, gbf_coeffs
from .analysis import (
    MetricsReport,
    bandwidth_98,
    carson_gsfm,
    carson_sfm,
    closed_spectrum,
    energy_efficiency,
    gsfm_spectrum_closed,
    metrics_report,
    papr,
    se_papr_sweep,
    sfm_spectrum_closed,
    spectral_efficiency,
)
from .ambiguity import (
    AmbiguityCut,
    AmbiguitySurface,
    acf,
    ambiguity_numeric,
    closed_af_surface,
    compare_af,
    doppler_eta,
    gsfm_af_closed,
    mainlobe_width,
    peak_sidelobe,
    sfm_af_closed,
    velocity_from_eta,
)
from .transducer import (
    TransducerResponse,
    apply_response,
    equalize,
    make_response,
    peak_normalized,
    trw_report,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityCut",
    "AmbiguitySurface",
    "FourierPhaseModel",
    "GbfCoefficients",
    "MetricsReport",
    "ParameterError",
    "SampledSignal",
    "Spectrum",
    "Taper",
    "TransducerResponse",
    "TruncationError",
    "WaveformSpec",
    "acf",
    "ambiguity_numeric",
    "apply_response",
    "bandwidth_98",
    "bessel_j",
    "carson_gsfm",
    "carson_sfm",
    "closed_af_surface",
    "closed_spectrum",
    "compare_af",
    "costas_code",
    "doppler_eta",
    "energy_efficiency",
    "equalize",
    "gbf_coeffs",
    "generate",
    "gsfm_af_closed",
    "gsfm_fourier_coeffs",
    "gsfm_spectrum_closed",
    "harmonic_series",
    "is_costas",
    "m_sequence",
    "mainlobe_width",
    "make_response",
    "make_taper",
    "metrics_report",
    "papr",
    "peak_normalized",
    "peak_sidelobe",
    "resample_scale",
    "se_papr_sweep",
    "sfm_af_closed",
    "sfm_spectrum_closed",
    "spectral_efficiency",
    "spectrum_of",
    "trw_report",
    "velocity_from_eta",
]
