"""The runtime needs numpy only; scipy is the test-side oracle.

Each numpy replacement of a former scipy call is checked side by side
against that call: the closed-form Hann and Tukey tapers against
``scipy.signal.windows``, the gsfm's cumulative Simpson rule
against ``scipy.integrate.cumulative_simpson``, and the FFT-mask analytic
signal of ``apply_response`` against ``scipy.signal.hilbert``.  Fresh
interpreters then show that importing the package or the CLI loads no
scipy, and that the README CLI calls run with scipy blocked.

They also show what a CLI process pays for: importing the package or the
CLI loads no numpy, each public name loads its submodule on first use,
``--help`` and usage errors load no numpy, and ``gen`` loads no AF,
analysis or transducer code.  ``main`` sets OPENBLAS_THREAD_TIMEOUT
before numpy loads, unless it is set already; ``run`` leaves the
environment alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.signal import hilbert, windows

from sonarwave.cli import _load_response, _load_spec
from sonarwave.signal_core import Taper, make_taper
from sonarwave.transducer import (
    _analytic,
    apply_response,
    make_response,
    peak_normalized,
)
from sonarwave.waveforms import (
    _cumulative_simpson,
    generate,
    gsfm_if_modulation,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Side by side with scipy
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 65, 34401])
def test_tapers_match_scipy_windows(n):
    np.testing.assert_allclose(
        make_taper(Taper("hann"), n), windows.hann(n, sym=True),
        rtol=0, atol=1e-14,
    )
    for alpha in (0.0, 1e-3, 0.1, 0.5, 0.999, 1.0):
        np.testing.assert_allclose(
            make_taper(Taper("tukey", alpha), n),
            windows.tukey(n, alpha=alpha, sym=True),
            rtol=0, atol=1e-14,
        )


def _refined_edges(spec):
    """The 4x refined edge grid the gsfm phase integrates its IF on."""
    sig = generate(spec)
    fs, t0, n = sig.sample_rate, sig.t0, len(sig)
    return t0 + np.arange(4 * n + 1) / (4 * fs)


@pytest.mark.parametrize("name", ["fig6_gsfm", "gsfm_iv_a"])
def test_cumulative_simpson_matches_scipy(spec_dir, name):
    spec = _load_spec(spec_dir / f"{name}.json")
    edges = _refined_edges(spec)
    # The grid has an odd point count; dropping its last point makes it even.
    for x in (edges, edges[:-1]):
        g = gsfm_if_modulation(spec, x)
        ref = cumulative_simpson(g, x=x, initial=0.0)
        got = _cumulative_simpson(g, x)
        assert got.shape == ref.shape
        np.testing.assert_allclose(
            got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref))
        )


@pytest.mark.parametrize("n", [2, 3, 64, 65, 4096, 4097])
def test_analytic_signal_matches_hilbert(n):
    # A filtered spectrum: complex in every bin, DC and Nyquist included,
    # whose parts irfft drops.
    rng = np.random.default_rng(n)
    half = np.array([1.0, 1j]) @ rng.standard_normal((2, n // 2 + 1))
    ref = hilbert(np.fft.irfft(half, n))
    np.testing.assert_allclose(
        _analytic(half, n), ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)),
    )


def _reference_apply(sig, resp):
    """``apply_response`` as it was: ``hilbert`` of the filtered drive."""
    x = sig.samples.real
    f = np.fft.rfftfreq(len(x), d=1.0 / sig.sample_rate)
    return hilbert(np.fft.irfft(np.fft.rfft(x) * resp.response_at(f), len(x)))


@pytest.mark.parametrize(
    "config", ["response_nonequalized", "response_equalized"]
)
def test_apply_response_matches_hilbert(spec_dir, config):
    """Every TRW spec through both README responses, and fig6 through the
    same response shape moved to its own 2 kHz band (fig6 lies below the
    TRW responses' tables, where ``apply_response`` refuses it)."""
    cfg = json.loads((spec_dir / "trw" / f"{config}.json").read_text())
    resp = _load_response(spec_dir / "trw" / f"{config}.json")
    runs = [(generate(_load_spec(p)), resp)
            for p in sorted((spec_dir / "trw").glob("*/*.json"))]
    fig6 = make_response("parametric", 2000.0, (1900.0, 2100.0),
                         cfg["ripple_db"])
    runs.append((generate(_load_spec(spec_dir / "fig6_gsfm.json")), fig6))
    assert {len(sig) % 2 for sig, _ in runs} == {0, 1}
    for sig, r in runs:
        drive = peak_normalized(sig)
        ref = _reference_apply(drive, r)
        np.testing.assert_allclose(
            apply_response(drive, r).samples, ref,
            rtol=0, atol=1e-13 * np.max(np.abs(ref)),
        )


# ----------------------------------------------------------------------
# Fresh interpreters
# ----------------------------------------------------------------------

def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("module", ["sonarwave", "sonarwave.cli"])
def test_import_leaves_scipy_out(module):
    res = _python(
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# Runs each argv through ``python -m sonarwave.cli`` in one interpreter
# where every scipy import fails, and prints the exit codes.
_BLOCKED = """
import json, runpy, sys
sys.modules["scipy"] = None
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["sonarwave", *argv]
    try:
        runpy.run_module("sonarwave.cli", run_name="__main__")
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""


def test_readme_cli_calls_run_without_scipy(tmp_path):
    out = str(tmp_path)
    narrowband = sorted(str(p) for p in
                        (REPO_ROOT / "specs/trw/narrowband").glob("*.json"))
    calls = [
        ["gen", "--spec", "specs/fig6_gsfm.json", "--out", f"{out}/g.csv"],
        ["metrics", "--spec", "specs/gsfm_iv_a.json",
         "--out", f"{out}/m.json"],
        ["spectrum", "--spec", "specs/fig5_sfm.json",
         "--fmin", "1500", "--fmax", "2500", "--out", f"{out}/fft.csv"],
        ["spectrum", "--spec", "specs/fig5_sfm.json", "--method", "closed",
         "--fmin", "1500", "--fmax", "2500", "--out", f"{out}/closed.csv"],
        ["af", "--spec", "specs/fig6_gsfm.json", "--taus=-0.25:0.25:101",
         "--etas", "0.99:1.01:101", "--out", f"{out}/af.csv"],
        ["compare", "--specs", "specs/sweep", "--out", f"{out}/sweep.csv"],
        ["trw", "--specs", *narrowband,
         "--response", "specs/trw/response_nonequalized.json",
         "--reference", "gsfm_ii", "--out", f"{out}/trw.csv"],
    ]
    res = _python(_BLOCKED, json.dumps(calls))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [0] * len(calls), res.stderr
    assert len(list(tmp_path.iterdir())) == len(calls)


@pytest.mark.parametrize("module", ["sonarwave", "sonarwave.cli"])
def test_import_leaves_numpy_out(module):
    res = _python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


_LAZY = """
import importlib, json, sys
import sonarwave
star = {}
exec("from sonarwave import *", star)
star.pop("__builtins__")
named = sonarwave.__all__
defined = [n for n in named if getattr(sonarwave, n) is not getattr(
    importlib.import_module(getattr(sonarwave, n).__module__), n)]
subs = ["ambiguity", "analysis", "cli", "gbf", "signal_core", "transducer",
        "waveforms"]
try:
    sonarwave.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "star": sorted(star) == sorted(named),
    "not_defined_there": defined,
    "submodules": [getattr(sonarwave, m) is sys.modules["sonarwave." + m]
                   for m in subs],
    "dir": sorted(set(named + subs) - set(dir(sonarwave))),
    "unknown": unknown,
}))
"""


def test_names_load_their_submodules():
    res = _python(_LAZY)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert got["star"]
    assert got["not_defined_there"] == []
    assert got["submodules"] == [True] * 7
    assert got["dir"] == []
    assert got["unknown"] == \
        "module 'sonarwave' has no attribute 'no_such_name'"


# Records OPENBLAS_THREAD_TIMEOUT at the first import of numpy during a
# ``gen`` call through ``main``; argv[1] presets it, or unsets it if empty.
_MAIN = """
import json, os, sys
os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
if sys.argv[1]:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = sys.argv[1]
seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Watch())
from sonarwave.cli import main
sys.argv = ["sonarwave", "gen", "--spec", "specs/fig6_gsfm.json",
            "--out", sys.argv[2]]
try:
    main()
except SystemExit as exc:
    print(json.dumps([exc.code, seen[:1]]))
"""


@pytest.mark.parametrize("preset, expected", [("", "4"), ("8", "8")])
def test_main_sets_thread_timeout_before_numpy(tmp_path, preset, expected):
    res = _python(_MAIN, preset, str(tmp_path / "g.csv"))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [0, [expected]]


_RUN = """
import json, os, sys
out = sys.argv[1]
os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
before = dict(os.environ)
from sonarwave.cli import main, run
codes = []
for argv in (["--help"], ["gen"]):
    sys.argv = ["sonarwave", *argv]
    try:
        main()
    except SystemExit as exc:
        codes.append(exc.code)
no_numpy = "numpy" not in sys.modules
os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
code = run(["gen", "--spec", "specs/fig6_gsfm.json", "--out", out])
print(json.dumps({
    "codes": codes + [code],
    "no_numpy": no_numpy,
    "env_kept": dict(os.environ) == before,
    "loaded": sorted(m for m in sys.modules if m.startswith("sonarwave.")),
}))
"""


def test_run_loads_what_its_call_runs(tmp_path):
    # --help exits 0 and a usage error 1, with no numpy loaded; then an
    # in-process gen call leaves the environment as it found it and loads
    # only the sampler and the writer.
    res = _python(_RUN, str(tmp_path / "g.csv"))
    assert res.returncode == 0, res.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]
    got = json.loads(res.stdout.splitlines()[-1])
    assert got == {
        "codes": [0, 1, 0], "no_numpy": True, "env_kept": True,
        "loaded": ["sonarwave.cli", "sonarwave.signal_core",
                   "sonarwave.waveforms"],
    }
