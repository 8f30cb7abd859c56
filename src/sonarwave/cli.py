"""Command-line front end: specs in, plot-ready CSV/JSON data out.

Subcommands: ``gen`` (sampled signal), ``metrics`` (scalar report JSON),
``spectrum`` (power-spectrum CSV, FFT or closed form), ``af`` (ambiguity
surface CSV/binary), ``compare`` (SE-vs-PAPR sweep table), ``trw``
(transmit-chain energy-efficiency report).  Exit codes: 0 success,
1 validation/parameter error, 2 internal numeric failure.

Only the standard library loads at import: each handler imports the modules
it runs, so ``--help`` or a usage error loads no numpy, and ``gen`` loads no
AF, analysis or transducer code.  :func:`main` also lets an idle OpenBLAS
worker thread sleep at once in a CLI process (see there).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .signal_core import SampledSignal
    from .transducer import TransducerResponse
    from .waveforms import WaveformSpec


def _read_json(path, what: str):
    from .signal_core import ParameterError

    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        raise ParameterError(f"cannot read {what} {path}: {exc}")


def _load_spec(path) -> WaveformSpec:
    from .waveforms import WaveformSpec

    return WaveformSpec.from_dict(_read_json(path, "spec file"))


def _collect_specs(paths) -> list[tuple[str, WaveformSpec]]:
    """Expand files and directories into (label, spec) pairs."""
    from .signal_core import ParameterError

    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files = sorted(p.glob("*.json"))
            if not files:
                raise ParameterError(f"directory {p} contains no .json specs")
        else:
            files = [p]
        for f in files:
            out.append((f.stem, _load_spec(f)))
    return out


# Points in one lo:hi:count grid, checked before linspace allocates: one
# surface row of 2^20 cells is already about 80 MB of CSV.
_GRID_MAX = 1 << 20


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: comma-separated values, or ``lo:hi:count``."""
    import numpy as np

    from .signal_core import ParameterError

    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ParameterError(
            f"grid {text!r} must be 'lo:hi:count' or comma-separated"
        )
    try:
        if len(parts) == 3:
            values, n = [float(parts[0]), float(parts[1])], int(parts[2])
        else:
            values = [float(x) for x in text.split(",")]
    except ValueError:
        raise ParameterError(
            f"grid {text!r} holds a value that is not a number"
        ) from None
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"grid {text!r} holds a non-finite value")
    if len(parts) == 1:
        return np.array(values)
    if not 1 <= n <= _GRID_MAX:
        raise ParameterError(f"grid count must be in [1, {_GRID_MAX}]")
    return np.linspace(values[0], values[1], n)


def write_signal_csv(sig: SampledSignal, path) -> None:
    from .signal_core import _write_columns

    _write_columns(path, "t,re,im",
                   [sig.times, sig.samples.real, sig.samples.imag], "\r\n")


def _json_dump(obj, path) -> None:
    from .signal_core import _write_text

    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _write_rows(rows: list[dict], fields: list[str], fmt: str, path) -> None:
    """Report rows as JSON, or as CSV with ``fields`` and quoted cells."""
    from .signal_core import _write_text

    if fmt == "json":
        _json_dump(rows, path)
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(buf.getvalue(), path)


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

def _cmd_gen(args) -> int:
    from .waveforms import generate

    sig = generate(_load_spec(args.spec))
    write_signal_csv(sig, args.out)
    return 0


def _cmd_metrics(args) -> int:
    from dataclasses import asdict

    from . import analysis

    spec = _load_spec(args.spec)
    report = analysis.metrics_report(spec, band_hz=args.band)
    _json_dump(asdict(report), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    import numpy as np

    from . import analysis
    from .signal_core import (
        ParameterError,
        _is_number,
        _write_columns,
        spectrum_of,
    )
    from .waveforms import generate

    for flag, value in (("--fmin", args.fmin), ("--fmax", args.fmax)):
        if value is not None and not _is_number(value):
            raise ParameterError(
                f"{flag} must be a finite number of Hz, got {value!r}")
    lo = -np.inf if args.fmin is None else args.fmin
    hi = np.inf if args.fmax is None else args.fmax
    if lo > hi:
        raise ParameterError(f"--fmin {lo!r} is above --fmax {hi!r}")
    spec = _load_spec(args.spec)
    if args.method == "closed":
        sig = generate(spec)
        # Dense enough for the closed form's sinc structure (df << 1/T).
        nfft = 1 << int(np.ceil(np.log2(8 * len(sig.samples))))
        # In place: one grid-sized array when a series is refused.
        freqs = np.arange(nfft, dtype=float)
        freqs *= sig.sample_rate / nfft
        # Only the rows written, plus the lines that hold the peak.
        sp = analysis.closed_spectrum(spec, freqs, band=(lo, hi))
    else:
        sp = spectrum_of(generate(spec))
    sel = (sp.freqs >= lo) & (sp.freqs <= hi)
    _write_columns(args.out, "f,psd_db", [sp.freqs[sel], sp.power_db()[sel]])
    return 0


def _cmd_af(args) -> int:
    from . import ambiguity
    from .waveforms import generate

    spec = _load_spec(args.spec)
    taus = _parse_grid(args.taus)
    etas = _parse_grid(args.etas)
    c = ambiguity.DEFAULT_SOUND_SPEED if args.c is None else args.c
    if args.closed:
        surf = ambiguity.closed_af_surface(spec, taus, etas, c=c)
    else:
        surf = ambiguity.ambiguity_numeric(generate(spec), taus, etas, c=c)
    for note in surf.warnings:
        sys.stderr.write(f"warning: {note}\n")
    if args.format == "f32bin":
        surf.to_binary(args.out)
    else:
        surf.to_csv(args.out)
    return 0


def _cmd_compare(args) -> int:
    from . import analysis
    from .signal_core import ParameterError

    specs = _collect_specs(args.specs)
    try:
        band = None if args.band == "auto" else float(args.band)
    except ValueError:
        raise ParameterError(
            f"--band must be 'auto' or a number of Hz, got {args.band!r}"
        ) from None
    rows = analysis.se_papr_sweep(specs, band_hz=band)
    fields = ["label", "family", "band_hz", "tbp", "papr_db", "se", "error"]
    _write_rows(rows, fields, args.format, args.out)
    return 0


def _load_response(path) -> TransducerResponse:
    from . import transducer
    from .signal_core import _json_object

    cfg = _json_object(_read_json(path, "response config"), "response config",
                       ("mode", "f_r", "band", "ripple_db", "table_path",
                        "equalize_to"), required=("f_r", "band"))
    resp = transducer.make_response(
        cfg.get("mode", "parametric"),
        cfg["f_r"],
        cfg["band"],
        cfg.get("ripple_db", 0.0),
        table_path=cfg.get("table_path"),
    )
    if cfg.get("equalize_to") is not None:
        resp = transducer.equalize(resp, cfg["equalize_to"])
    return resp


def _cmd_trw(args) -> int:
    from . import transducer

    specs = _collect_specs(args.specs)
    resp = _load_response(args.response)
    rows = transducer.trw_report(specs, resp, args.reference)
    fields = ["label", "family", "energy", "e_tilde_db", "error"]
    _write_rows(rows, fields, args.format, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print like every bad input and exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sonarwave",
        description="Active-sonar waveform design and analysis toolkit",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="write a sampled signal CSV (t, re, im)")
    g.add_argument("--spec", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_gen)

    m = sub.add_parser("metrics", help="write a scalar metrics report (JSON)")
    m.add_argument("--spec", required=True)
    m.add_argument("--band", type=float, default=None,
                   help="SE band in Hz (default: the waveform's 98%% bandwidth)")
    m.add_argument("--out", default=None)
    m.set_defaults(handler=_cmd_metrics)

    s = sub.add_parser("spectrum", help="write a power spectrum CSV (f, dB)")
    s.add_argument("--spec", required=True)
    s.add_argument("--method", choices=["fft", "closed"], default="fft")
    s.add_argument("--fmin", type=float, default=None,
                   help="lowest frequency written, Hz (a finite number)")
    s.add_argument("--fmax", type=float, default=None,
                   help="highest frequency written, Hz (finite, >= --fmin)")
    s.add_argument("--out", default=None)
    s.set_defaults(handler=_cmd_spectrum)

    a = sub.add_parser("af", help="write an ambiguity surface (CSV or f32bin)")
    a.add_argument("--spec", required=True)
    a.add_argument("--taus", required=True,
                   help="delay grid: 'lo:hi:count' or comma-separated seconds")
    a.add_argument("--etas", required=True,
                   help="Doppler-scale grid: 'lo:hi:count' or comma-separated")
    a.add_argument("--closed", action="store_true",
                   help="use the Bessel-series closed form (sfm/gsfm only)")
    # None: ambiguity.DEFAULT_SOUND_SPEED, read in _cmd_af.
    a.add_argument("--c", type=float, default=None)
    a.add_argument("--format", choices=["csv", "f32bin"], default="csv")
    a.add_argument("--out", required=True)
    a.set_defaults(handler=_cmd_af)

    c = sub.add_parser("compare", help="write the SE-vs-PAPR sweep table")
    c.add_argument("--specs", nargs="+", required=True,
                   help="spec files and/or directories of specs")
    c.add_argument("--band", default="auto",
                   help="'auto' (first gsfm's 98%% bandwidth) or Hz")
    c.add_argument("--format", choices=["csv", "json"], default="csv")
    c.add_argument("--out", default=None)
    c.set_defaults(handler=_cmd_compare)

    t = sub.add_parser("trw", help="write the transmit-chain energy report")
    t.add_argument("--specs", nargs="+", required=True)
    t.add_argument("--response", required=True,
                   help="JSON response config (mode, f_r, band, ripple_db, "
                        "optional table_path / equalize_to)")
    t.add_argument("--reference", required=True,
                   help="label (file stem) of the 0 dB reference waveform")
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.add_argument("--out", default=None)
    t.set_defaults(handler=_cmd_trw)
    return p


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        return 1 if exc.code not in (0, None) else 0
    # Only a parsed call loads numpy: --help and usage errors do not.
    import numpy as np

    from .signal_core import ParameterError

    try:
        return args.handler(args)
    except ParameterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (FloatingPointError, np.linalg.LinAlgError, MemoryError) as exc:
        sys.stderr.write(f"internal numeric failure: {exc}\n")
        return 2


def main() -> None:
    """The console entry point: :func:`run` on ``sys.argv``, then exit.

    numpy's OpenBLAS starts its worker threads when it loads, and an idle
    worker spins for 2^28 cycles (OPENBLAS_THREAD_TIMEOUT's default of 28)
    before it sleeps: with two threads, ``import numpy`` alone takes 0.04
    to 0.08 CPU s more than at 4 (2-vCPU x86-64, numpy 2.4).  4, the
    smallest value OpenBLAS takes, lets a worker sleep after 2^4 cycles;
    the thread count is left alone.  It must be set before numpy loads,
    which this module's imports do not do, and a value the caller has set
    wins.  :func:`run` leaves the environment alone, so in-process callers
    and their child processes see no change.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    sys.exit(run())


if __name__ == "__main__":
    main()
