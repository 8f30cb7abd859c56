"""Fuzzing the CLI's JSON inputs and its number and grid flags.

Specs from the ``specs/`` corpus and the two transmit-chain response
configs are mutated (wrong types, JSON booleans, non-finite, negative and
huge values, missing and extra keys, wrong JSON shapes) and run through
``cli.run``; so are odd strings for ``af --taus/--etas/--c``,
``compare --band``, ``metrics --band`` and ``spectrum --fmin/--fmax``.
Every run must exit 0, or exit 1 with an ``error:`` line; no exception may
escape.  A flag run that exits 0 must also have been given a value its
contract allows, and must write what that value asks for.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sonarwave.ambiguity import read_binary_surface
from sonarwave.cli import run

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
SPECS = sorted(p for p in SPEC_DIR.rglob("*.json")
               if not p.name.startswith("response_"))
RESPONSES = sorted(SPEC_DIR.glob("trw/response_*.json"))
TRW_SPECS = sorted(SPEC_DIR.glob("trw/narrowband/*.json"))

SPEC_KEYS = ["family", "T", "f_c", "delta_f", "f_m", "rho", "alpha",
             "cycles", "symmetry", "n_chips", "code", "qpsk_sign", "taper",
             "sample_rate", "bogus"]
TAPER_KEYS = ["kind", "shape_param", "scope", "bogus"]
RESPONSE_KEYS = ["mode", "f_r", "band", "ripple_db", "table_path",
                 "equalize_to", "bogus"]

ODD_VALUES = [
    True, False, None, "x", "", "tabulated", str(SPEC_DIR), [], {}, {"a": 1},
    0, 1, -1, 2, 0.5, -0.5, 1e-300, 1e300, -1e300, 10**30, 2**31,
    float("nan"), float("inf"), float("-inf"),
    [True, False], [0, 1], [1, 2, 3], [0.5, 1], [1e300, -1e300],
    [100000.0, 120000.0, 130000.0], [120000.0, 100000.0], [10**30, 0],
]
VALUES = st.one_of(
    st.sampled_from(ODD_VALUES),
    st.floats(),
    st.integers(),
    st.lists(st.sampled_from(ODD_VALUES[:24]), max_size=3),
)


def mutations(keys, sub_keys=()):
    """Lists of edits: set or delete a key, set a key of the sub-object
    (the taper), or replace the whole document."""
    edit = st.one_of(
        st.tuples(st.just("set"), st.sampled_from(keys), VALUES),
        st.tuples(st.just("del"), st.sampled_from(keys), st.none()),
        st.tuples(st.just("doc"), st.none(), VALUES),
        *([st.tuples(st.just("sub"), st.sampled_from(sub_keys), VALUES)]
          if sub_keys else []),
    )
    return st.lists(edit, min_size=1, max_size=3)


def mutated(doc, edits):
    for op, key, value in edits:
        if not isinstance(doc, dict):
            break
        value = copy.deepcopy(value)  # drawn values are shared objects
        if op == "set":
            doc[key] = value
        elif op == "del":
            doc.pop(key, None)
        elif op == "sub":
            sub = doc.get("taper")
            doc["taper"] = dict(sub if isinstance(sub, dict) else {},
                                **{key: value})
        else:
            doc = value
    return doc


def check_run(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1), err
    if code == 1:
        assert any(line.startswith("error: ") for line in err.splitlines())
    return code


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(SPECS), mutations(SPEC_KEYS, TAPER_KEYS),
       st.sampled_from(["gen", "metrics"]))
@example(SPEC_DIR / "cw.json", [("set", "T", True)], "gen")
@example(SPEC_DIR / "fig3_bpsk.json", [("set", "code", [True, False])],
         "gen")
@example(SPEC_DIR / "fig1_lfm.json", [("sub", "shape_param", True)],
         "metrics")
@example(SPEC_DIR / "fig4_qpsk.json", [("set", "qpsk_sign", True)], "gen")
@example(SPEC_DIR / "cw.json", [("set", "taper", 5)], "gen")
def test_mutated_spec(tmp_path, path, edits, subcommand):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(mutated(json.loads(path.read_text()), edits)))
    out = ["--out", str(tmp_path / "out.csv")] if subcommand == "gen" else []
    check_run([subcommand, "--spec", str(spec), *out])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(RESPONSES), mutations(RESPONSE_KEYS))
@example(RESPONSES[0], [("set", "band", True)])
@example(RESPONSES[0], [("doc", None, [1, 2])])
def test_mutated_response_config(tmp_path, path, edits):
    cfg = tmp_path / "response.json"
    cfg.write_text(json.dumps(mutated(json.loads(path.read_text()), edits)))
    check_run(["trw", "--specs", *map(str, TRW_SPECS),
               "--response", str(cfg), "--reference", "gsfm_ii"])


# ----------------------------------------------------------------------
# Number and grid flags
# ----------------------------------------------------------------------

# A small rectangular sfm: both AF paths and both spectrum methods apply.
SMALL_SFM = {"family": "sfm", "T": 0.1, "f_c": 2000.0, "delta_f": 200.0,
             "f_m": 50.0}

NUMBER_TEXT = st.one_of(
    st.sampled_from([
        "0", "-0", "1", "-1", "0.5", "-5", "1500", "1e-300", "1e300",
        "-1e300", "1e309", "nan", "-nan", "NaN", "inf", "-inf", "Infinity",
        "1_000", "0x10", "1e", "", " ", "foo", "auto", "true", "1,5", "1:2",
        "10" * 20,
    ]),
    st.floats().map(repr),
    st.integers().map(str),
)
# Valid counts stay at 16 points or fewer, so every run takes milliseconds;
# every invalid count can still be drawn.
COUNT_TEXT = st.one_of(
    st.integers(1, 16).map(str),
    st.integers(max_value=0).map(str),
    st.integers(min_value=(1 << 20) + 1).map(str),
    st.sampled_from(["0", str((1 << 20) + 1), str(10**30), "2.5", "x", ""]),
)
GRID_TEXT = st.one_of(
    st.lists(NUMBER_TEXT, min_size=1, max_size=4).map(",".join),
    st.tuples(NUMBER_TEXT, NUMBER_TEXT, COUNT_TEXT).map(":".join),
    st.sampled_from(["1:2", "1:2:3:4", ",", "1,,2", "::", "0:1:16:"]),
)


def as_number(text):
    try:
        return float(text)
    except ValueError:
        return None


def finite_at_least(text, low, strict=False):
    x = as_number(text)
    return (x is not None and np.isfinite(x)
            and (x > low if strict else x >= low))


def read_rows(path):
    """A written CSV's rows as floats, one column per header field."""
    header, *lines = path.read_text().splitlines()
    return np.array([ln.split(",") for ln in lines],
                    dtype=float).reshape(-1, header.count(",") + 1)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(GRID_TEXT, GRID_TEXT, st.one_of(st.none(), NUMBER_TEXT), st.booleans(),
       st.sampled_from(["csv", "f32bin"]))
@example("0,0.01", "1,1.001", "0", False, "csv")
@example("0,0.01", "1,1.001", "nan", False, "csv")
@example("0,0.01", "1,1.001", "-1500", True, "csv")
@example("0:0.01:1048577", "1", None, False, "csv")
@example("0", f"0.99:1.01:{10**30}", None, False, "csv")
@example("0:0.01:0", "1", None, False, "csv")
@example("0", "1,-1", None, False, "csv")
@example("0", "1e300", "1e39", False, "csv")
@example("1e300", "1", None, False, "f32bin")
@example("0", "1", "1e-305", False, "f32bin")
def test_af_flags(tmp_path, taus, etas, c, closed, fmt):
    spec, out = tmp_path / "sfm.json", tmp_path / "af.out"
    spec.write_text(json.dumps(SMALL_SFM))
    out.unlink(missing_ok=True)
    argv = ["af", "--spec", str(spec), f"--taus={taus}", f"--etas={etas}",
            "--format", fmt, "--out", str(out)]
    argv += ([] if c is None else [f"--c={c}"]) + (["--closed"] * closed)
    if check_run(argv) == 0:
        assert c is None or finite_at_least(c, 0.0, strict=True)
        if fmt == "f32bin":
            surf = read_binary_surface(out)
            etas, v, values = surf.dopplers, surf.velocities, surf.values
        else:
            _, etas, v, values = read_rows(out).T
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(values))
        # v = c (eta - 1) / (eta + 1) keeps the sign of eta - 1.
        assert np.array_equal(np.sign(v), np.sign(etas - 1.0))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.just("auto"), NUMBER_TEXT))
@example("foo")
@example("nan")
@example("-5")
def test_compare_band(tmp_path, band):
    out = tmp_path / "cmp.json"
    out.unlink(missing_ok=True)
    if check_run(["compare", "--specs", str(SPEC_DIR / "sweep"),
                  f"--band={band}", "--format", "json",
                  "--out", str(out)]) == 0:
        assert band == "auto" or finite_at_least(band, 0.0)
        rows = json.loads(out.read_text())
        assert band == "auto" or all(r["band_hz"] == float(band)
                                     for r in rows)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(NUMBER_TEXT)
@example("foo")
def test_metrics_band(tmp_path, band):
    out = tmp_path / "metrics.json"
    if check_run(["metrics", "--spec", str(SPEC_DIR / "cw.json"),
                  f"--band={band}", "--out", str(out)]) == 0:
        assert finite_at_least(band, 0.0)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.none(), NUMBER_TEXT), st.one_of(st.none(), NUMBER_TEXT),
       st.sampled_from(["fft", "closed"]))
@example("foo", None, "fft")
@example("nan", "2100", "closed")
@example("3000", "1000", "fft")
def test_spectrum_band(tmp_path, fmin, fmax, method):
    spec, out = tmp_path / "sfm.json", tmp_path / "spectrum.csv"
    spec.write_text(json.dumps(SMALL_SFM))
    out.unlink(missing_ok=True)
    argv = ["spectrum", "--spec", str(spec), "--method", method,
            "--out", str(out)]
    argv += [] if fmin is None else [f"--fmin={fmin}"]
    argv += [] if fmax is None else [f"--fmax={fmax}"]
    if check_run(argv) == 0:
        # Finite bounds in order, and only the rows inside [fmin, fmax].
        lo = -np.inf if fmin is None else float(fmin)
        hi = np.inf if fmax is None else float(fmax)
        assert all(b is None or np.isfinite(float(b)) for b in (fmin, fmax))
        assert lo <= hi
        f = read_rows(out)[:, 0]
        assert np.all((f >= lo) & (f <= hi))
