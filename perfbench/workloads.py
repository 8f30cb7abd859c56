"""The four benchmark workloads: their jobs, output checks and probes.

A job is one CLI call, one spec's design report, or one AF surface.  Each
job has a ``run`` (the timed part), a ``check`` that validates its output
without timing it, and, in traced runs only, an optional ``probe`` that
makes the extra layer calls some per-layer metrics are defined by.  Jobs
call the program only through its public functions, and each call sits
inside a tracer span named ``<module>.<function>``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from sonarwave import analysis, transducer
from sonarwave.ambiguity import (
    acf,
    ambiguity_numeric,
    closed_af_surface,
    doppler_eta,
    gsfm_af_closed,
    read_binary_surface,
    sfm_af_closed,
)
from sonarwave.cli import write_signal_csv
from sonarwave.gbf import gbf_coeffs
from sonarwave.signal_core import resample_scale, spectrum_of
from sonarwave.waveforms import WaveformSpec, generate, gsfm_fourier_coeffs

from specgen import all_specs

# Criterion 4 tolerances on |sqrt(closed) - sqrt(numeric)|, by family.
AF_TOLERANCE = {"sfm": 0.02, "gsfm": 0.03}
# Criterion 5's sfm tolerance on the relative L2 error of |closed| vs |FFT|,
# on FFT bins at PAD x zero padding (df ~ 1/(5T), finer than the closed
# form's limit of 1/(4T)).
SPECTRUM_TOLERANCE = 1e-3
PAD = 5
# A coefficient counts as kept above this magnitude (the closed form's prune).
KEPT = 1e-8
CHILD_TIMEOUT_S = 150.0

# Failures the program is known to produce on valid specs, by message.  A
# job failing this way counts as failed but is not a wrong answer.
KNOWN_DEFECTS = {
    "spectrum grid too narrow to reach the requested energy fraction":
        "bandwidth_98 (and so metrics_report) raises on long phase codes whose "
        "98% band does not fit the default sample grid",
}


class CheckFailed(Exception):
    """An output that ran to completion but is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclasses.dataclass
class Job:
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], dict]
    probe: Callable[[Any, Any], None] | None = None
    cells: int = 0
    rows: int = 0  # Doppler rows of an AF surface
    # A defect this job is known to hit: any failure of the job counts as
    # failed but is not a wrong answer.
    known_failure: str | None = None

    def known_defect(self, message: str) -> str | None:
        if self.known_failure:
            return self.known_failure
        return next((why for sig, why in KNOWN_DEFECTS.items() if sig in message),
                    None)


def digest(obj) -> str:
    """Stable hash of a job output, to confirm repeats give equal results."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, CliResult):
            # Exit code and output bytes; the timing fields vary by run.
            h.update(str(o.run.code).encode())
            for path in (o.stdout, *o.files):
                h.update(path.read_bytes() if path.exists() else b"<missing>")
        elif isinstance(o, np.ndarray):
            h.update(str(o.shape).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif dataclasses.is_dataclass(o):
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        elif isinstance(o, dict):
            for k in sorted(o):
                h.update(str(k).encode())
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            for v in o:
                feed(v)
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


# (delays, Doppler rows) per workload.  Closed-form cells cost far more
# than numeric ones, so af-closed maps fewer cells per surface.
AF_GRID = {"af-numeric": (21, 5), "af-closed": (5, 3), "cli-session": (21, 5)}
AF_GRID_TINY = (5, 3)


def af_grid(T: float, workload: str, tiny: bool):
    """Criterion 4's grid shape: delays over +-T/2, Dopplers over +-20 m/s."""
    n_tau, n_eta = AF_GRID_TINY if tiny else AF_GRID[workload]
    taus = np.linspace(-T / 2.0, T / 2.0, n_tau)
    etas = np.array([doppler_eta(v) for v in np.linspace(-20.0, 20.0, n_eta)])
    return taus, etas


def sample_cells(rng, taus, etas, n_rows=2, n_cols=3):
    """Seeded cells on rows with eta != 1, plus the origin cell (tau=0, eta=1)."""
    i0, j0 = len(etas) // 2, len(taus) // 2
    rows = [i for i in range(len(etas)) if i != i0]
    rows = sorted(rng.choice(rows, size=min(n_rows, len(rows)), replace=False))
    cols = sorted(rng.choice(len(taus), size=min(n_cols, len(taus)), replace=False))
    return [int(i) for i in rows], [int(j) for j in cols], (i0, j0)


def closed_magnitude(spec: WaveformSpec, tau, eta) -> np.ndarray:
    if spec.family == "sfm":
        return np.asarray(sfm_af_closed(spec, tau, eta))
    return np.asarray(gsfm_af_closed(spec, None, tau, eta))


def check_surface_range(values: np.ndarray) -> None:
    require(bool(np.all(np.isfinite(values))), "surface has non-finite cells")
    require(values.min() >= 0.0 and values.max() <= 1.0 + 1e-9,
            "surface values outside [0, 1]")


def check_thumbtack(surf) -> None:
    """Oracle-free checks for coded waveforms: origin peak, symmetric ACF."""
    i0, j0 = len(surf.dopplers) // 2, len(surf.delays) // 2
    require(abs(surf.values[i0, j0] - 1.0) < 1e-9, "origin cell is not the peak")
    row = surf.values[i0]
    require(float(np.max(np.abs(row - row[::-1]))) < 1e-9,
            "zero-Doppler row is not symmetric in delay")


# ----------------------------------------------------------------------
# design-sweep
# ----------------------------------------------------------------------

def design_sweep_jobs(drawn: dict) -> list[Job]:
    refs = {c: (r["label"], WaveformSpec.from_dict(r["spec"]))
            for c, r in drawn["references"].items()}
    responses = {}
    for car, cfgs in drawn["responses"].items():
        responses[car] = {name: _make_response(cfg) for name, cfg in cfgs.items()}
    return [
        _design_job(item["label"], WaveformSpec.from_dict(item["spec"]),
                    refs[item["carrier"]], responses[item["carrier"]])
        for item in drawn["specs"]
    ]


def _make_response(cfg: dict):
    resp = transducer.make_response(
        cfg["mode"], cfg["f_r"], tuple(cfg["band"]), cfg["ripple_db"])
    if cfg.get("equalize_to") is not None:
        resp = transducer.equalize(resp, cfg["equalize_to"])
    return resp


def _design_job(label, spec, ref, responses) -> Job:
    fine = np.linspace(-0.04 * spec.T, 0.04 * spec.T, 401)

    def run(tr):
        with tr.span("waveforms.generate", spec.family):
            sig = generate(spec)
        tr.count("waveforms.samples", len(sig))
        with tr.span("signal_core.spectrum_of"):
            sp = spectrum_of(sig)
        with tr.span("analysis.bandwidth_98"):
            b98 = analysis.bandwidth_98(sp, spec.f_c)
        with tr.span("analysis.metrics_report"):
            report = analysis.metrics_report(spec)
        closed = None
        # Closed-form spectra for the rectangular sfm only.  The gsfm one
        # allocates orders x freqs with an order bound that grows as K^2:
        # corpus-range specs reach K = 512 and ~290 000 orders, several GB
        # even on the occupied band, enough to exhaust a shared machine.
        # cli-session keeps that defect visible through the fig6 call,
        # which numpy refuses at once.
        if spec.family == "sfm" and spec.taper.kind == "rectangular":
            # FFT bins at PAD x zero padding over the swept band.
            df = sig.sample_rate / (PAD * len(sig))
            half = spec.delta_f / 2.0 + 4.0 / spec.T
            k = np.arange(np.ceil((spec.f_c - half) / df),
                          np.floor((spec.f_c + half) / df) + 1)
            with tr.span("analysis.closed_spectrum", spec.family):
                closed = analysis.sfm_spectrum_closed(spec, k * df)
        with tr.span("analysis.se_papr_sweep"):
            rows = analysis.se_papr_sweep([(label, spec)], band_hz=b98)
        trw = {}
        for name, resp in responses.items():
            with tr.span("transducer.trw_report"):
                trw[name] = transducer.trw_report([(label, spec), ref], resp, ref[0])
        drive = transducer.peak_normalized(sig)
        with tr.span("transducer.apply_response"):
            out = transducer.apply_response(drive, responses["nonequalized"])
        with tr.span("ambiguity.acf"):
            cut = acf(out, fine)
        return {"signal": sig, "report": report, "closed": closed,
                "rows": rows, "trw": trw, "acf": cut}

    def check(out):
        rep = out["report"]
        require(np.isfinite(rep.papr_db), "PAPR is not finite")
        require(0.0 <= rep.se <= 1.0 + 1e-12, f"SE {rep.se} outside [0, 1]")
        (row,) = out["rows"]
        require(row["error"] is None, f"sweep row error: {row['error']}")
        require(np.isfinite(row["papr_db"]) and 0.0 <= row["se"] <= 1.0 + 1e-12,
                "sweep row PAPR/SE out of range")
        for name, rows in out["trw"].items():
            by = {r["label"]: r for r in rows}
            require(all(r["error"] is None for r in rows), f"trw {name}: row error")
            require(abs(by[ref[0]]["e_tilde_db"]) < 1e-12,
                    f"trw {name}: reference row is not 0 dB")
        cut = out["acf"]
        mid = len(cut.values) // 2
        require(abs(cut.values[mid] - 1.0) < 1e-9, "TRW ACF peak is not at zero delay")
        require(float(np.max(np.abs(cut.values - cut.values[::-1]))) < 1e-9,
                "TRW ACF is not symmetric")
        if out["closed"] is not None:
            sig, closed = out["signal"], out["closed"]
            fft = spectrum_of(sig, nfft=PAD * len(sig))
            k = np.rint(closed.freqs / fft.df).astype(int)
            ref_mag = np.abs(fft.values[k])
            err = np.linalg.norm(np.abs(closed.values) - ref_mag) / np.linalg.norm(ref_mag)
            require(err < SPECTRUM_TOLERANCE,
                    f"closed spectrum vs FFT: relative L2 {err:.2e}")
        return {}

    return Job(label, run, check)


# ----------------------------------------------------------------------
# af-numeric and af-closed
# ----------------------------------------------------------------------

def af_jobs(drawn: dict, workload: str, tiny: bool, rng) -> list[Job]:
    jobs = []
    for item in drawn["specs"]:
        spec = WaveformSpec.from_dict(item["spec"])
        taus, etas = af_grid(spec.T, workload, tiny)
        if workload == "af-numeric":
            jobs.append(_numeric_job(item["label"], spec, taus, etas,
                                     sample_cells(rng, taus, etas)))
        else:
            # One checked row: each costs a numeric resample + correlation.
            jobs.append(_closed_job(item["label"], spec, taus, etas,
                                    sample_cells(rng, taus, etas, n_rows=1)))
    return jobs


def _numeric_job(label, spec, taus, etas, cells) -> Job:
    def run(tr):
        with tr.span("waveforms.generate", spec.family):
            sig = generate(spec)
        tr.count("waveforms.samples", len(sig))
        with tr.span("ambiguity.ambiguity_numeric"):
            surf = ambiguity_numeric(sig, taus, etas)
        return {"signal": sig, "surface": surf}

    def probe(tr, out):
        sig = out["signal"]
        scaled = [float(e) for e in etas if e != 1.0]
        for eta in scaled:
            with tr.span("signal_core.resample_scale"):
                resample_scale(sig, eta)
        # Computed: every eta != 1 row of the surface resamples once.
        tr.count("signal_core.resample_calls", len(scaled))
        with tr.span("ambiguity.correlation"):
            acf(sig, taus)

    def check(out):
        surf = out["surface"]
        check_surface_range(surf.values)
        if spec.family not in AF_TOLERANCE:
            check_thumbtack(surf)
            return {}
        rows, cols, (i0, j0) = cells
        ii = np.array([i for i in rows for _ in cols] + [i0])
        jj = np.array([j for _ in rows for j in cols] + [j0])
        mag = closed_magnitude(spec, taus[jj], etas[ii])
        closed = mag[:-1] / mag[-1]
        numeric = np.sqrt(surf.values[ii[:-1], jj[:-1]])
        diff = float(np.max(np.abs(closed - numeric)))
        require(diff < AF_TOLERANCE[spec.family],
                f"numeric vs closed AF: maxdiff {diff:.2e}")
        return {"af_maxdiff": diff}

    return Job(label, run, check, probe=probe, cells=len(taus) * len(etas),
               rows=len(etas))


def _closed_job(label, spec, taus, etas, cells) -> Job:
    def run(tr):
        model = None
        if spec.family == "gsfm":
            with tr.span("waveforms.gsfm_fourier_coeffs"):
                model = gsfm_fourier_coeffs(spec)
        with tr.span("ambiguity.closed_af_surface", spec.family):
            surf = closed_af_surface(spec, taus, etas, model=model)
        return {"model": model, "surface": surf}

    def probe(tr, out):
        # The closed form's harmonic amplitudes, fundamental and order rule.
        if spec.family == "gsfm":
            betas, f0 = out["model"].beta_k, 1.0 / spec.T
        else:
            betas, f0 = np.array([spec.beta]), spec.f_m
        k = np.arange(1, len(betas) + 1)
        weight = float(np.sum(k * np.abs(betas)))
        n_max = int(np.ceil(weight + 3.0 * np.cbrt(weight))) + 40
        rows, cols, _ = cells
        for i in rows:
            for j in cols:
                w = np.exp(2j * np.pi * f0 * etas[i] * taus[j] * k)
                with tr.span("gbf.gbf_coeffs"):
                    c = gbf_coeffs(betas, n_max=n_max, weights=w)
                tr.count("gbf.orders_kept", int(np.sum(np.abs(c.values) > KEPT)))
                tr.count("gbf.probe_calls")

    def check(out):
        surf = out["surface"]
        check_surface_range(surf.values)
        rows, cols, (i0, j0) = cells
        sig = generate(spec)
        sub_t = np.array([taus[j] for j in cols] + [taus[j0]])
        sub_e = np.array([etas[i] for i in rows] + [etas[i0]])
        num = ambiguity_numeric(sig, sub_t, sub_e)
        numeric = np.sqrt(num.values[:-1, :-1])
        closed = np.sqrt(surf.values[np.ix_(rows, cols)])
        diff = float(np.max(np.abs(closed - numeric)))
        require(diff < AF_TOLERANCE[spec.family],
                f"closed vs numeric AF: maxdiff {diff:.2e}")
        return {"af_maxdiff": diff}

    return Job(label, run, check, probe=probe, cells=len(taus) * len(etas))


# ----------------------------------------------------------------------
# cli-session
# ----------------------------------------------------------------------

@dataclasses.dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float  # user + system CPU time of the child
    rss_mb: float  # the child's peak resident memory


def run_child(argv: list[str], env: dict, cwd: Path, stdout: Path, stderr: Path,
              timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run a child process to completion and return its resource use.

    ``os.wait4`` reaps the child so its own CPU time and peak RSS are
    known; a helper thread waits so the timeout can kill a child that hangs.
    """
    with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=cwd)
        box = {}
        waiter = threading.Thread(target=lambda: box.update(r=os.wait4(proc.pid, 0)))
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        wall = perf_counter() - t0
    _, status, usage = box["r"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


@dataclasses.dataclass
class CliResult:
    run: ChildRun
    stdout: Path
    stderr: Path
    files: list


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1))
    return path


def write_cli_inputs(drawn: dict, tmp: Path) -> dict:
    """Write the drawn specs and response configs as the CLI's input files."""
    d = tmp / "inputs"
    files = {}
    for key in ("gen", "metrics", "spectrum_fft", "spectrum_closed",
                "spectrum_closed_fig6", "af"):
        files[key] = _write_json(d / f"{key}.json", drawn[key])
    for name, spec in drawn["sweep"].items():
        _write_json(d / "sweep" / f"{name}.json", spec)
    files["sweep"] = d / "sweep"
    files["trw"] = [_write_json(d / "trw" / f"{n}.json", s)
                    for n, s in sorted(drawn["trw"].items())]
    for name, cfg in drawn["responses"].items():
        files[f"response_{name}"] = _write_json(d / f"response_{name}.json", cfg)
    return files


def _read_csv(path: Path) -> tuple[list, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 2, f"{path.name}: no data rows")
    return rows[0], rows[1:]


def _exit_ok(res: CliResult) -> None:
    if res.run.code != 0:
        lines = res.stderr.read_text().strip().splitlines() or ["(no stderr)"]
        raise RuntimeError(f"exit {res.run.code}: {lines[-1]}")


def cli_jobs(drawn: dict, files: dict, tmp: Path, env: dict, root: Path,
             tiny: bool, rng) -> list[Job]:
    out = tmp / "outputs"
    out.mkdir(parents=True, exist_ok=True)
    specs = {k: WaveformSpec.from_dict(drawn[k]) for k in
             ("gen", "metrics", "spectrum_fft", "spectrum_closed",
              "spectrum_closed_fig6", "af")}
    af_spec = specs["af"]
    taus, etas = af_grid(af_spec.T, "cli-session", tiny)
    af_cells = sample_cells(rng, taus, etas)
    grid_args = [f"--taus={float(taus[0])!r}:{float(taus[-1])!r}:{len(taus)}",
                 "--etas", ",".join(repr(float(e)) for e in etas)]
    fc = specs["spectrum_closed"].f_c
    ref = drawn["trw_reference"]
    trw_files = [str(p) for p in files["trw"]]
    sweep_specs = [(n, WaveformSpec.from_dict(s)) for n, s in sorted(drawn["sweep"].items())]
    trw_specs = [(n, WaveformSpec.from_dict(s)) for n, s in sorted(drawn["trw"].items())]
    responses = {n: _make_response(c) for n, c in drawn["responses"].items()}

    def cli(label, args, outputs=()):
        def run(tr):
            child = run_child(
                [sys.executable, "-m", "sonarwave.cli", *map(str, args)], env, root,
                out / f"{label}.stdout", out / f"{label}.stderr")
            return CliResult(child, out / f"{label}.stdout", out / f"{label}.stderr",
                             [out / o for o in outputs])
        return run

    # -- checks ---------------------------------------------------------
    def check_gen(res):
        _exit_ok(res)
        head, rows = _read_csv(res.files[0])
        require(head == ["t", "re", "im"], "gen CSV header")
        arr = np.array(rows, dtype=float)
        require(bool(np.all(np.isfinite(arr))), "gen CSV has non-finite values")
        fs = 1.0 / float(np.mean(np.diff(arr[:, 0])))
        energy = float(np.sum(arr[:, 1] ** 2 + arr[:, 2] ** 2) / fs)
        require(abs(energy - 1.0) < 1e-6, f"gen signal energy {energy} != 1")
        return {}

    def check_metrics(res):
        _exit_ok(res)
        rep = json.loads(res.stdout.read_text())
        require(np.isfinite(rep["papr_db"]), "PAPR is not finite")
        require(0.0 <= rep["se"] <= 1.0 + 1e-12, f"SE {rep['se']} outside [0, 1]")
        return {}

    def check_spectrum(res):
        _exit_ok(res)
        head, rows = _read_csv(res.files[0])
        require(head == ["f", "psd_db"], "spectrum CSV header")
        arr = np.array(rows, dtype=float)
        require(bool(np.all(np.isfinite(arr))), "spectrum CSV has non-finite values")
        require(abs(arr[:, 1].max()) < 1e-9, "spectrum peak is not 0 dB")
        return {}

    def check_compare(res):
        _exit_ok(res)
        head, rows = _read_csv(res.files[0])
        by = [dict(zip(head, r)) for r in rows]
        require(len(by) == len(drawn["sweep"]), "compare: wrong row count")
        for r in by:
            require(r["error"] == "", f"compare row {r['label']}: {r['error']}")
            require(np.isfinite(float(r["papr_db"])), "compare: PAPR not finite")
            require(0.0 <= float(r["se"]) <= 1.0 + 1e-12, "compare: SE outside [0, 1]")
        return {}

    def check_trw(res):
        _exit_ok(res)
        head, rows = _read_csv(res.files[0])
        by = {r[0]: dict(zip(head, r)) for r in rows}
        require(set(by) == set(drawn["trw"]), "trw: wrong rows")
        require(all(r["error"] == "" for r in by.values()), "trw: row error")
        require(abs(float(by[ref]["e_tilde_db"])) < 1e-12,
                "trw: reference row is not 0 dB")
        return {}

    def check_af_csv(res):
        _exit_ok(res)
        head, rows = _read_csv(res.files[0])
        require(head == ["tau", "eta", "v", "value"], "af CSV header")
        vals = np.array([float(r[3]) for r in rows])
        require(vals.size == len(taus) * len(etas), "af CSV: wrong cell count")
        vals = vals.reshape(len(etas), len(taus))
        check_surface_range(vals)
        cli_state["af_values"] = vals
        rows_i, cols_j, (i0, j0) = af_cells
        ii = np.array([i for i in rows_i for _ in cols_j] + [i0])
        jj = np.array([j for _ in rows_i for j in cols_j] + [j0])
        mag = closed_magnitude(af_spec, taus[jj], etas[ii])
        diff = float(np.max(np.abs(mag[:-1] / mag[-1] - np.sqrt(vals[ii[:-1], jj[:-1]]))))
        require(diff < AF_TOLERANCE[af_spec.family], f"af vs closed: maxdiff {diff:.2e}")
        return {"af_maxdiff": diff}

    def check_af_bin(res):
        _exit_ok(res)
        surf = read_binary_surface(res.files[0])
        require(surf.values.shape == (len(etas), len(taus)), "f32bin: wrong shape")
        check_surface_range(surf.values)
        if "af_values" in cli_state:
            diff = np.max(np.abs(surf.values - cli_state["af_values"]))
            require(diff < 1e-6, "f32bin values differ from the CSV surface")
        return {}

    cli_state: dict = {}

    # -- in-process replays for the traced run ---------------------------
    def replay_gen(tr):
        with tr.span("waveforms.generate", specs["gen"].family):
            sig = generate(specs["gen"])
        tr.count("waveforms.samples", len(sig))
        path = out / "replay_gen.csv"
        with tr.span("cli.write_signal_csv"):
            write_signal_csv(sig, path)
        tr.count("cli.bytes_written", path.stat().st_size)

    def replay_metrics(tr):
        with tr.span("analysis.metrics_report"):
            analysis.metrics_report(specs["metrics"])

    def replay_spectrum_fft(tr):
        with tr.span("waveforms.generate", specs["spectrum_fft"].family):
            sig = generate(specs["spectrum_fft"])
        tr.count("waveforms.samples", len(sig))
        with tr.span("signal_core.spectrum_of"):
            spectrum_of(sig)

    def replay_closed(key):
        spec = specs[key]

        def replay(tr):
            with tr.span("waveforms.generate", spec.family):
                sig = generate(spec)
            tr.count("waveforms.samples", len(sig))
            # The CLI's grid: 8x zero padding over the whole band.
            nfft = 1 << int(np.ceil(np.log2(8 * len(sig))))
            freqs = np.arange(nfft) * sig.sample_rate / nfft
            fn = (analysis.sfm_spectrum_closed if spec.family == "sfm"
                  else analysis.gsfm_spectrum_closed)
            with tr.span("analysis.closed_spectrum", spec.family):
                fn(spec, freqs)
        return replay

    def replay_compare(tr):
        with tr.span("analysis.se_papr_sweep"):
            analysis.se_papr_sweep(sweep_specs)

    def replay_trw(name):
        def replay(tr):
            with tr.span("transducer.trw_report"):
                transducer.trw_report(trw_specs, responses[name], ref)
        return replay

    def replay_af(fmt):
        def replay(tr):
            with tr.span("waveforms.generate", af_spec.family):
                sig = generate(af_spec)
            tr.count("waveforms.samples", len(sig))
            with tr.span("ambiguity.ambiguity_numeric"):
                surf = ambiguity_numeric(sig, taus, etas)
            path = out / f"replay_af.{fmt}"
            writer = surf.to_csv if fmt == "csv" else surf.to_binary
            with tr.span("cli.to_csv" if fmt == "csv" else "cli.to_binary"):
                writer(path)
            tr.count("cli.bytes_written", path.stat().st_size)
        return replay

    def probe_of(replay):
        def probe(tr, _out):
            try:
                replay(tr)
            except (MemoryError, ValueError):
                pass  # recorded as a failed span; the CLI job records the exit
        return probe

    gen_csv, af_csv, af_bin = "gen.csv", "af.csv", "af.bin"
    return [
        Job("gen", cli("gen", ["gen", "--spec", files["gen"], "--out", out / gen_csv],
                       [gen_csv]), check_gen, probe_of(replay_gen)),
        Job("metrics", cli("metrics", ["metrics", "--spec", files["metrics"]]),
            check_metrics, probe_of(replay_metrics)),
        Job("spectrum-fft", cli("spectrum-fft", [
            "spectrum", "--spec", files["spectrum_fft"], "--out", out / "spectrum_fft.csv"],
            ["spectrum_fft.csv"]), check_spectrum, probe_of(replay_spectrum_fft)),
        Job("spectrum-closed", cli("spectrum-closed", [
            "spectrum", "--spec", files["spectrum_closed"], "--method", "closed",
            "--fmin", fc - 500.0, "--fmax", fc + 500.0,
            "--out", out / "spectrum_closed.csv"], ["spectrum_closed.csv"]),
            check_spectrum, probe_of(replay_closed("spectrum_closed"))),
        Job("spectrum-closed-fig6", cli("spectrum-closed-fig6", [
            "spectrum", "--spec", files["spectrum_closed_fig6"], "--method", "closed",
            "--out", out / "spectrum_closed_fig6.csv"], ["spectrum_closed_fig6.csv"]),
            check_spectrum, probe_of(replay_closed("spectrum_closed_fig6")),
            known_failure="closed-form spectrum of the README fig6 gsfm requests an "
                          "orders x freqs array far larger than memory"),
        Job("compare", cli("compare", [
            "compare", "--specs", files["sweep"], "--out", out / "compare.csv"],
            ["compare.csv"]), check_compare, probe_of(replay_compare)),
        *[Job(f"trw-{name}", cli(f"trw-{name}", [
            "trw", "--specs", *trw_files, "--response", files[f"response_{name}"],
            "--reference", ref, "--out", out / f"trw_{name}.csv"], [f"trw_{name}.csv"]),
            check_trw, probe_of(replay_trw(name)))
          for name in ("nonequalized", "equalized")],
        Job("af-csv", cli("af-csv", [
            "af", "--spec", files["af"], *grid_args, "--out", out / af_csv], [af_csv]),
            check_af_csv, probe_of(replay_af("csv")), cells=len(taus) * len(etas),
            rows=len(etas)),
        Job("af-f32bin", cli("af-f32bin", [
            "af", "--spec", files["af"], *grid_args, "--format", "f32bin",
            "--out", out / af_bin], [af_bin]),
            check_af_bin, probe_of(replay_af("f32bin")), cells=len(taus) * len(etas),
            rows=len(etas)),
    ]


def validate(drawn) -> int:
    """Validate every drawn spec through the program's strict parser."""
    specs = all_specs(drawn)
    for d in specs:
        WaveformSpec.from_dict(d)
    return len(specs)
