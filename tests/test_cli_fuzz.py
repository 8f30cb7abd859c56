"""Fuzzing the CLI's JSON inputs.

Specs from the ``specs/`` corpus and the two transmit-chain response
configs are mutated (wrong types, JSON booleans, non-finite, negative and
huge values, missing and extra keys, wrong JSON shapes) and run through
``cli.run``.  Every run must exit 0, or exit 1 with an ``error:`` line; no
exception may escape.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
