#!/usr/bin/env python3
"""sonarwave benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding ``src/sonarwave``)::

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 15 --trace 0

Workloads: ``cli-session``, ``design-sweep``, ``af-numeric``, ``af-closed``
(see ``perfbench/README.md`` for why each exists and what it stresses).
One closed-loop client runs the workload's job pool in whole passes until
at least ``--seconds`` of job time have been measured.  Every job's output
is checked without timing.  With ``--trace 0`` the last line of stdout is
the end-to-end result; with ``--trace 1`` the same jobs run inside
in-memory spans and the last line holds the per-layer metrics.  The lines
before it print every metric with its unit and sample count, and the full
record (environment, seed, drawn specs, per-job results, spans) goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

WORKLOADS = ("cli-session", "design-sweep", "af-numeric", "af-closed")
MODULES = ("waveforms", "signal_core", "analysis", "transducer", "ambiguity",
           "gbf", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
IMPORT_PROBES = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
CLOCK = "cpu_s"

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest pool and grids (the smoke check)")
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: one timed set-up in a fresh process")
    return p.parse_args(argv)


def cap_threads(nproc: int) -> dict:
    """Cap BLAS/OpenMP threads at nproc, here and in every child process."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and 0 < int(cur) <= nproc else nproc
        os.environ[var] = str(n)
    return {v: os.environ[v] for v in THREAD_VARS}


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                out[Path(lib).name] = int(fn())
                break
    return out


def environment(nproc, caps, load) -> dict:
    import numpy
    import scipy

    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": nproc, "cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "thread_caps": caps,
        "blas_threads": blas_threads(), "loadavg_start": list(load),
    }


def probe_setup(args, root: Path) -> int:
    """One set-up: import, draw and validate specs, build jobs, warm up."""
    import workloads
    import specgen

    drawn = specgen.DRAW[args.workload](args.seed, args.tiny)
    workloads.validate(drawn)
    tmp = root / ".perfbench" / "tmp" / f"probe-{os.getpid()}"
    try:
        jobs = build_jobs(args, drawn, root, tmp)
        if args.workload != "cli-session":
            from tracer import NullTracer
            jobs[0].run(NullTracer())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def build_jobs(args, drawn, root: Path, tmp: Path):
    import numpy as np
    import workloads as w

    rng = np.random.default_rng([args.seed, 99])
    if args.workload == "cli-session":
        files = w.write_cli_inputs(drawn, tmp)
        return w.cli_jobs(drawn, files, tmp, dict(os.environ), root, args.tiny, rng)
    if args.workload == "design-sweep":
        return w.design_sweep_jobs(drawn)
    return w.af_jobs(drawn, args.workload, args.tiny, rng)


def timed_setups(args, root: Path, tmp: Path) -> list[float]:
    from workloads import run_child

    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    out = []
    for i in range(SETUP_PROBES):
        child = run_child(argv, dict(os.environ), root,
                          tmp / f"setup{i}.stdout", tmp / f"setup{i}.stderr")
        if child.code != 0:
            err = (tmp / f"setup{i}.stderr").read_text()
            raise RuntimeError(f"set-up probe failed (exit {child.code}):\n{err}")
        out.append({"wall_s": child.wall_s, "cpu_s": child.cpu_s})
    return out


def import_times(root: Path, tmp: Path) -> dict:
    """sonarwave and scipy import time from ``python -X importtime``."""
    from workloads import run_child

    runs = {"sonarwave": [], "scipy": []}
    for i in range(IMPORT_PROBES):
        err = tmp / f"importtime{i}.stderr"
        child = run_child([sys.executable, "-X", "importtime", "-c",
                           "import sonarwave"], dict(os.environ), root,
                          tmp / f"importtime{i}.stdout", err)
        if child.code != 0:
            raise RuntimeError(f"import probe failed: {err.read_text()}")
        parsed = parse_importtime(err.read_text())
        for k in runs:
            runs[k].append(parsed[k])
    return {k: statistics.median(v) for k, v in runs.items()}


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of ``sonarwave`` and of the outermost scipy imports."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum) * 1e-6))
    out = {"sonarwave": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    # Children print before their parent, so walk backwards to see parents first.
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside_scipy = any(n.split(".")[0] == "scipy" for _, n in stack)
        if name == "sonarwave":
            out["sonarwave"] = cum
        elif name.split(".")[0] == "scipy" and not inside_scipy:
            out["scipy"] += cum
        stack.append((depth, name))
    return out


def percentile_tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples that percentile would fall
    below the median, so the median is reported instead.
    """
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(times), "p50"
    s = sorted(times)
    return s[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f}"


def run_jobs(jobs, tr, seconds: float):
    """Closed loop, one client: whole passes until ``seconds`` of job time."""
    from workloads import CheckFailed, CliResult, digest

    records, first, busy, passes = [], {}, 0.0, 0
    while passes == 0 or busy < seconds:
        for job in jobs:
            tr.job = len(records)
            t0, c0 = perf_counter(), process_time()
            try:
                with tr.span("bench.job", job.label):
                    out = job.run(tr)
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall, cpu = perf_counter() - t0, process_time() - c0
            busy += wall
            rec = {"label": job.label, "pass": passes, "wall_s": wall, "cpu_s": cpu,
                   "error": error, "wrong": None, "cells": job.cells}
            if isinstance(out, CliResult):
                rec["cpu_s"] += out.run.cpu_s
                rec["rss_mb"] = out.run.rss_mb
                rec["exit"] = out.run.code
            if error is None:
                d = digest(out)
                if first.get(job.label) != d:
                    try:
                        rec.update(job.check(out))
                        if job.label in first:
                            rec["wrong"] = "output differs from the first pass"
                        first[job.label] = d
                    except CheckFailed as exc:
                        rec["wrong"] = str(exc)
                    except Exception as exc:  # e.g. a CLI call that exited nonzero
                        rec["error"] = f"{type(exc).__name__}: {exc}"
            if tr.enabled and job.probe is not None and out is not None:
                job.probe(tr, out)
            records.append(rec)
        passes += 1
    return records, busy, passes


def end_to_end(args, records, setups, peak_rss, clock=CLOCK) -> dict:
    """name -> (value, unit, sample count, note)."""
    times = [r[clock] for r in records]
    busy = sum(times)
    tail, pct = percentile_tail(times)
    failed = sum(1 for r in records if r["error"] or r["wrong"])
    m = {
        "setup_s": (statistics.median(s[clock] for s in setups), "s", len(setups), ""),
        "job_s.p50": (statistics.median(times), "s", len(times), ""),
        "job_s.tail": (tail, "s", len(times), pct),
        "jobs_per_s": (len(times) / busy, "1/s", len(times),
                       "one closed-loop client"),
        "fail_ratio": (failed / len(records), "ratio", len(records),
                       f"{failed}/{len(records)}"),
        "peak_rss_mb": (peak_rss, "MB", 1,
                        "CLI children" if args.workload == "cli-session"
                        else "benchmark process"),
    }
    cells = sum(r["cells"] for r in records)
    if args.workload.startswith("af-"):
        m["cells_per_s"] = (cells / busy, "1/s", len(records), f"{cells} cells")
    diffs = [r["af_maxdiff"] for r in records if "af_maxdiff" in r]
    if diffs:
        m["af_maxdiff"] = (max(diffs), "1", len(diffs), "checked cells")
    return m


def per_layer(tr, records, passes, jobs, imports) -> dict:
    """name -> (value or None when the layer is idle, unit, count, note)."""
    from specgen import FAMILIES
    from tracer import span_cost

    layers = tr.by_layer()
    spans = tr.spans
    m = {}

    def calls(name, variant=None):
        if variant == "*":
            return [t for (n, _), v in layers.items() if n == name for t in v]
        return layers.get((name, variant), [])

    def put(metric, vals, unit="s", note="median self time per call"):
        m[metric] = (statistics.median(vals) if vals else None, unit, len(vals), note)

    def count(metric, unit="count", note="per pass"):
        m[metric] = (tr.counts[metric] / passes, unit, passes, note)

    m["import.sonarwave_s"] = (imports["sonarwave"], "s", IMPORT_PROBES,
                               "python -X importtime, cumulative")
    m["import.scipy_s"] = (imports["scipy"], "s", IMPORT_PROBES,
                           "outermost scipy imports, cumulative")
    writes = calls("cli.write_signal_csv") + calls("cli.to_csv") + calls("cli.to_binary")
    m["cli.write_s"] = (sum(writes) / passes if writes else None, "s", len(writes),
                        "write_signal_csv + to_csv + to_binary, per pass")
    count("cli.bytes_written", "B")
    for fam in FAMILIES:
        put(f"waveforms.generate_s.{fam}", calls("waveforms.generate", fam))
    count("waveforms.samples")
    put("waveforms.gsfm_fourier_coeffs_s", calls("waveforms.gsfm_fourier_coeffs"))
    put("signal_core.spectrum_of_s", calls("signal_core.spectrum_of"))
    put("analysis.bandwidth_98_s", calls("analysis.bandwidth_98"))
    put("analysis.metrics_report_s", calls("analysis.metrics_report"))
    put("analysis.se_papr_sweep_s", calls("analysis.se_papr_sweep"))
    put("analysis.closed_spectrum_s", calls("analysis.closed_spectrum", "*"))
    put("transducer.apply_response_s", calls("transducer.apply_response"))
    put("transducer.trw_report_s", calls("transducer.trw_report"))
    put("signal_core.resample_scale_s", calls("signal_core.resample_scale"))
    count("signal_core.resample_calls", note="computed: eta != 1 rows, per pass")

    # Per-job numeric AF rows, and the share of each surface spent resampling.
    resample = {}
    numeric = {}
    for s in spans:
        if s[0] == "ambiguity.ambiguity_numeric":
            numeric[s[5]] = s[3] - s[2]
        elif s[0] == "signal_core.resample_scale":
            resample[s[5]] = resample.get(s[5], 0.0) + s[3] - s[2]
    rows = {j.label: j.rows for j in jobs}
    put("ambiguity.numeric_row_s",
        [t / rows[records[j]["label"]] for j, t in numeric.items()],
        note="surface time / Doppler rows, median over surfaces")
    put("ambiguity.correlation_s", calls("ambiguity.correlation"),
        note="acf at eta = 1 on the same signal: correlation only")
    put("ambiguity.resample_share",
        [resample[j] / numeric[j] for j in numeric if j in resample], "ratio",
        "resample_scale time / ambiguity_numeric time, per surface")

    put("gbf.gbf_coeffs_s", calls("gbf.gbf_coeffs"),
        note="gbf_coeffs with the closed form's per-row phase weights")
    probes = tr.counts["gbf.probe_calls"]
    m["gbf.orders_kept"] = (tr.counts["gbf.orders_kept"] / probes if probes else 0.0,
                            "count", probes, "computed: |c| > 1e-8, mean per probed cell")
    cell_times = []
    for s in spans:
        if s[0] == "ambiguity.closed_af_surface":
            cell_times.append((s[3] - s[2]) / records[s[5]]["cells"])
    put("ambiguity.closed_cell_s", cell_times, note="surface time / cells")
    cell, coeff = m["ambiguity.closed_cell_s"][0], m["gbf.gbf_coeffs_s"][0]
    m["ambiguity.series_sum_s"] = (
        None if cell is None or coeff is None else cell - coeff, "s",
        len(cell_times), "derived: closed_cell_s - gbf.gbf_coeffs_s")

    errors = tr.errors_by_module()
    cli_failures = sum(1 for r in records if r.get("exit", 0) != 0)
    for mod in MODULES:
        n = errors.get(mod, 0) + (cli_failures if mod == "cli" else 0)
        m[f"{mod}.errors"] = (n, "count", len(records), "failed calls in the run")

    cost = span_cost()
    per_job = len(spans) / len(records)
    m["trace.span_cost_s"] = (cost, "s", 5, "one empty span")
    m["trace.spans_per_job"] = (per_job, "count", len(records), "")
    return m


def print_table(title: str, metrics: dict) -> None:
    print(title)
    print(f"  {'metric':34s} {'value':>14s}  {'unit':6s} {'n':>5s}  note")
    for name, (value, unit, n, note) in metrics.items():
        shown = "idle" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s}  {unit:6s} {n:>5d}  {note}")


def main(argv=None) -> int:
    load = os.getloadavg()
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sonarwave" / "__init__.py").is_file():
        sys.stderr.write(
            f"error: {src}/sonarwave not found; run from the root of a checkout\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    caps = cap_threads(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
    sys.path.insert(0, str(src))
    if args.probe_setup:
        return probe_setup(args, root)

    import sonarwave
    import specgen
    import workloads
    from tracer import NullTracer, Tracer

    if not Path(sonarwave.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"error: sonarwave imported from {sonarwave.__file__}\n")
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    results = root / ".perfbench" / "results"
    tmp = root / ".perfbench" / "tmp" / str(os.getpid())
    results.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(nproc, caps, load)
        drawn = specgen.DRAW[args.workload](args.seed, args.tiny)
        n_specs = workloads.validate(drawn)
        setups = timed_setups(args, root, tmp)
        jobs = build_jobs(args, drawn, root, tmp)
        if args.workload != "cli-session":
            jobs[0].run(NullTracer())  # warm-up, untimed
        tr = Tracer() if args.trace else NullTracer()
        records, busy, passes = run_jobs(jobs, tr, args.seconds)
        if args.workload == "cli-session":
            peak_rss = max(r.get("rss_mb", 0.0) for r in records)
        else:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = end_to_end(args, records, setups, peak_rss)
        e2e_wall = end_to_end(args, records, setups, peak_rss, "wall_s")
        failed = [r for r in records if r["error"] or r["wrong"]]
        by_label = {j.label: j for j in jobs}
        for r in failed:
            r["known_defect"] = None if r["wrong"] else \
                by_label[r["label"]].known_defect(r["error"])
        correct = all(r["known_defect"] for r in failed)

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"passes {passes}  jobs {len(records)}  specs {n_specs}  "
              f"measured {busy:.2f} s wall  correct {correct}")
        print(f"env: nproc {nproc}  python {env['python']}  numpy {env['numpy']}  "
              f"scipy {env['scipy']}  blas threads {env['blas_threads']}  "
              f"load {' '.join(f'{x:.2f}' for x in load)}  clock {CLOCK}")
        print_table("end-to-end" + (" (traced)" if args.trace else ""), e2e)
        print_table("wall clock", {k: v for k, v in e2e_wall.items()
                                   if k in ("setup_s", "job_s.p50", "job_s.tail", "jobs_per_s")})
        for r in failed:
            why = "known defect" if r["known_defect"] else "UNEXPECTED"
            print(f"  failed job {r['label']} (pass {r['pass']}, {why}): "
                  f"{r['error'] or r['wrong']}")
        record = {
            "args": vars(args), "environment": env, "seed": args.seed,
            "drawn": drawn, "passes": passes, "measured_s": busy,
            "correct": correct, "jobs": records,
            "end_to_end": {k: dict(zip(("value", "unit", "n", "note"), v))
                           for k, v in e2e.items()},
            "end_to_end_wall": {k: dict(zip(("value", "unit", "n", "note"), v))
                                for k, v in e2e_wall.items()},
            "setups": setups,
        }
        fig6 = [r for r in records if r["label"] == "spectrum-closed-fig6"]
        if fig6:
            r = fig6[0]
            record["fig6_closed_spectrum"] = {
                "exit": r["exit"], "wall_s": r["wall_s"], "rss_mb": r["rss_mb"],
                "message": r["error"],
                "refused_at_once": bool(r["error"]) and "allocate" in r["error"]
                and r["rss_mb"] < 1024.0,
            }
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        if args.trace:
            layers = per_layer(tr, records, passes, jobs, import_times(root, tmp))
            print_table("per-layer (traced run)", layers)
            untraced = results / f"{tag}-trace0.json"
            base = json.loads(untraced.read_text()) if untraced.is_file() else None
            if base and base["drawn"] == json.loads(json.dumps(drawn)):
                base = base["end_to_end"]
                print("tracing overhead (traced - untraced, same seed)")
                for k in ("job_s.p50", "job_s.tail", "jobs_per_s"):
                    print(f"  {k:34s} {e2e[k][0] - base[k]['value']:>+14.6g}  {e2e[k][1]}")
            else:
                print(f"tracing overhead: no untraced result for {tag} with these inputs; "
                      f"span estimate {layers['trace.span_cost_s'][0] * layers['trace.spans_per_job'][0]:.3g} s per job")
            record["per_layer"] = {k: dict(zip(("value", "unit", "n", "note"), v))
                                   for k, v in layers.items()}
            spans_path = results / f"{tag}-spans.json"
            tr.write(spans_path)
            record["spans"] = str(spans_path.relative_to(root))
            wanted, source = "per_layer", layers
        else:
            wanted, source = "end_to_end", e2e
        (results / f"{tag}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
        # Idle layers (None) read 0 only among the counts BENCHMARK.json lists.
        out = {"correct": correct, "attempted": len(records),
               "failed": len(failed),
               "metrics": {k: {"value": float(source[k][0] or 0.0), "unit": source[k][1]}
                           for k in (m["name"] for m in bench[wanted])}}
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
