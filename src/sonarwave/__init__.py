"""Active-sonar transmit waveform design and analysis toolkit.

Generates the classical sonar waveform families (CW, LFM, sinusoidal FM and
its generalized variant, Costas, BPSK, QPSK), evaluates their spectra,
peak-to-average power, spectral efficiency, and broadband ambiguity
functions, and simulates transmission through a resonant transducer chain.

Submodules load on first use: ``import sonarwave`` imports neither them nor
numpy, and a name of ``__all__`` or a submodule name such as
``sonarwave.ambiguity`` imports its submodule when it is first read (PEP
562).  A command-line call thus loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name; the one list of them.
_EXPORTS = {
    "signal_core": (
        "ParameterError", "SampledSignal", "Spectrum", "Taper", "make_taper",
        "resample_scale", "spectrum_of",
    ),
    "waveforms": (
        "CodeError", "FourierPhaseModel", "WaveformSpec", "costas_code",
        "generate", "gsfm_fourier_coeffs", "harmonic_series", "is_costas",
        "m_sequence",
    ),
    "gbf": ("GbfCoefficients", "TruncationError", "gbf_coeffs"),
    "analysis": (
        "MetricsReport", "UndefinedMetricError", "bandwidth_98",
        "carson_gsfm", "carson_sfm", "closed_spectrum", "energy_efficiency",
        "gsfm_spectrum_closed", "metrics_report", "papr", "se_papr_sweep",
        "sfm_spectrum_closed", "spectral_efficiency",
    ),
    "ambiguity": (
        "AmbiguityCut", "AmbiguitySurface", "acf", "ambiguity_numeric",
        "closed_af_surface", "compare_af", "doppler_eta", "gsfm_af_closed",
        "mainlobe_width", "peak_sidelobe", "sfm_af_closed",
        "velocity_from_eta",
    ),
    "transducer": (
        "FormatError", "TransducerResponse", "apply_response", "equalize",
        "load_response_table", "make_response", "peak_normalized",
        "trw_report",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        # The import binds the submodule here, so this runs once per name.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
