"""Command-line front end: specs in, plot-ready CSV/JSON data out.

Subcommands: ``gen`` (sampled signal), ``metrics`` (scalar report JSON),
``spectrum`` (power-spectrum CSV, FFT or closed form), ``af`` (ambiguity
surface CSV/binary), ``compare`` (SE-vs-PAPR sweep table), ``trw``
(transmit-chain energy-efficiency report).  Exit codes: 0 success,
1 validation/parameter error, 2 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import ambiguity, analysis, transducer
from .signal_core import (
    ParameterError,
    SampledSignal,
    _write_columns,
    _write_text,
    spectrum_of,
)
from .waveforms import WaveformSpec, generate


def _load_spec(path) -> WaveformSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read spec file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"spec file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParameterError(f"spec file {path} must hold a JSON object")
    return WaveformSpec.from_dict(data)


def _collect_specs(paths) -> list[tuple[str, WaveformSpec]]:
    """Expand files and directories into (label, spec) pairs."""
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
    _write_columns(path, "t,re,im",
                   [sig.times, sig.samples.real, sig.samples.imag], "\r\n")


def read_signal_csv(path) -> SampledSignal:
    """Re-ingest a ``gen`` CSV; the grid spacing recovers the sample rate."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3 or rows[0] != ["t", "re", "im"]:
        raise ParameterError(f"{path} is not a gen signal CSV")
    arr = np.array([[float(x) for x in row] for row in rows[1:]])
    t = arr[:, 0]
    dt = np.diff(t)
    fs = 1.0 / np.mean(dt)
    if np.max(np.abs(dt * fs - 1.0)) > 1e-6:
        raise ParameterError(f"{path}: time grid is not uniform")
    return SampledSignal(
        samples=arr[:, 1] + 1j * arr[:, 2],
        sample_rate=fs,
        t0=float(t[0] - 0.5 / fs),
    )


def _json_dump(obj, path) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _write_rows_csv(rows: list[dict], fields: list[str], path) -> None:
    def fmt(v):
        return repr(v) if isinstance(v, float) else ("" if v is None else v)

    lines = [",".join(fields)]
    for r in rows:
        lines.append(",".join(str(fmt(r.get(f))) for f in fields))
    _write_text("\n".join(lines) + "\n", path)


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

def _cmd_gen(args) -> int:
    sig = generate(_load_spec(args.spec))
    write_signal_csv(sig, args.out)
    return 0


def _cmd_metrics(args) -> int:
    spec = _load_spec(args.spec)
    report = analysis.metrics_report(spec, band_hz=args.band)
    _json_dump(json.loads(report.to_json()), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    spec = _load_spec(args.spec)
    if args.method == "closed":
        sig = generate(spec)
        # Dense enough for the closed form's sinc structure (df << 1/T).
        nfft = 1 << int(np.ceil(np.log2(8 * len(sig.samples))))
        # In place: one grid-sized array when a series is refused.
        freqs = np.arange(nfft, dtype=float)
        freqs *= sig.sample_rate / nfft
        sp = analysis.closed_spectrum(spec, freqs)
    else:
        sp = spectrum_of(generate(spec))
    sel = np.ones(len(sp.freqs), dtype=bool)
    if args.fmin is not None:
        sel &= sp.freqs >= args.fmin
    if args.fmax is not None:
        sel &= sp.freqs <= args.fmax
    _write_columns(args.out, "f,psd_db", [sp.freqs[sel], sp.power_db()[sel]])
    return 0


def _cmd_af(args) -> int:
    spec = _load_spec(args.spec)
    taus = _parse_grid(args.taus)
    etas = _parse_grid(args.etas)
    if args.closed:
        surf = ambiguity.closed_af_surface(spec, taus, etas, c=args.c)
    else:
        surf = ambiguity.ambiguity_numeric(generate(spec), taus, etas, c=args.c)
    for note in surf.warnings:
        sys.stderr.write(f"warning: {note}\n")
    if args.format == "f32bin":
        surf.to_binary(args.out)
    else:
        surf.to_csv(args.out)
    return 0


def _cmd_compare(args) -> int:
    specs = _collect_specs(args.specs)
    band = None if args.band == "auto" else float(args.band)
    rows = analysis.se_papr_sweep(specs, band_hz=band)
    fields = ["label", "family", "band_hz", "tbp", "papr_db", "se", "error"]
    if args.format == "json":
        _json_dump(rows, args.out)
    else:
        _write_rows_csv(rows, fields, args.out)
    return 0


def _load_response(path) -> transducer.TransducerResponse:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read response config {path}: {exc}")
    known = {"mode", "f_r", "band", "ripple_db", "table_path", "equalize_to"}
    unknown = set(cfg) - known
    if unknown:
        raise ParameterError(
            f"unknown response config field(s): {sorted(unknown)}"
        )
    resp = transducer.make_response(
        cfg.get("mode", "parametric"),
        cfg["f_r"],
        tuple(cfg["band"]),
        cfg.get("ripple_db", 0.0),
        table_path=cfg.get("table_path"),
    )
    if cfg.get("equalize_to") is not None:
        resp = transducer.equalize(resp, cfg["equalize_to"])
    return resp


def _cmd_trw(args) -> int:
    specs = _collect_specs(args.specs)
    resp = _load_response(args.response)
    rows = transducer.trw_report(specs, resp, args.reference)
    fields = ["label", "family", "energy", "e_tilde_db", "error"]
    if args.format == "json":
        _json_dump(rows, args.out)
    else:
        _write_rows_csv(rows, fields, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
    s.add_argument("--fmin", type=float, default=None)
    s.add_argument("--fmax", type=float, default=None)
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
    a.add_argument("--c", type=float, default=ambiguity.DEFAULT_SOUND_SPEED)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (ParameterError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (FloatingPointError, np.linalg.LinAlgError, MemoryError) as exc:
        sys.stderr.write(f"internal numeric failure: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
