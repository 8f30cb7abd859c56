"""Seeded waveform-spec generator for the benchmark workloads.

Every spec is a plain dict in the JSON spec schema, drawn from a
``numpy.random.Generator`` seeded by the workload seed, so the same seed
always yields the same inputs.  Parameter ranges are the hulls of the
committed ``specs/`` corpus, per carrier:

* 2 kHz carrier: T = 0.5 s, delta_f in [200, 648] Hz.
* 110 kHz carrier: T = 5 ms, delta_f in [10, 20] kHz.
* gsfm, even symmetry: rho in [2.0, 2.55], cycles in [7, 15];
  nonsymmetric: rho in [2.0, 2.9], cycles in [7, 34].
* costas: Welch orders 10, 12, 16, 18; bpsk/qpsk code lengths as in the
  corpus for each carrier; Tukey fractions in [0.1, 0.85].

The corpus has sfm only at 2 kHz (f_m = 10 Hz, five modulation cycles);
at 110 kHz the sfm keeps five cycles, f_m = 5 / T.

Continuous parameters shared by a group of specs are drawn by Latin
hypercube sampling (one draw per equal-width stratum, in random order), so
every seed covers each range evenly and the cost of a pool of specs
varies little from seed to seed.  A few discrete choices are fixed for
the same reason: the README's fig5/fig6 specs for the CLI's closed-form
spectra, 255 chips for af-numeric's BPSK, and design-sweep's code length,
Costas order and taper scope per stratum.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import numpy as np

FAMILIES = ("cw", "lfm", "sfm", "gsfm", "costas", "bpsk", "qpsk")
TAPERS = ("rectangular", "tukey", "hann")

CARRIERS = {
    "2k": {"T": 0.5, "f_c": 2000.0, "delta_f": (200.0, 648.0),
           "code_lengths": (63, 127, 255)},
    "110k": {"T": 0.005, "f_c": 110000.0, "delta_f": (10000.0, 20000.0),
             "code_lengths": (15, 31)},
}
SFM_CYCLES = 5.0
GSFM_EVEN = {"rho": (2.0, 2.55), "cycles": (7.0, 15.0)}
GSFM_NONSYMMETRIC = {"rho": (2.0, 2.9), "cycles": (7.0, 34.0)}
COSTAS_ORDERS = (10, 12, 16, 18)
TUKEY_FRACTION = (0.1, 0.85)
# design-sweep's code lengths and Costas orders by carrier, taper and copy,
# after the corpus: the 2 kHz sweep codes (bpsk_rect 255, bpsk_hann 127,
# fig3 63; costas 16 and 18) and the 110 kHz trw codes (15 and 31; 10).
SWEEP_CODE_LENGTH = {"2k": {"rectangular": (255,), "tukey": (63,), "hann": (127,)},
                     "110k": {t: (15, 31) for t in TAPERS}}
SWEEP_COSTAS_ORDER = {"2k": {"rectangular": (16,), "tukey": (18,), "hann": (12,)},
                      "110k": {t: (10, 12) for t in TAPERS}}

# The README's two closed-form spectrum examples, as committed in specs/.
# The fig6 one is a known failure.  The closed sfm spectrum's memory grows
# with beta, so a fixed spec keeps cli-session's peak RSS comparable
# across seeds.
FIG5_SFM = {"family": "sfm", "T": 0.5, "f_c": 2000.0, "delta_f": 200.0,
            "f_m": 10.0}
FIG6_GSFM = {"family": "gsfm", "T": 0.5, "f_c": 2000.0, "delta_f": 200.0,
             "rho": 2.0, "alpha": 56.0, "symmetry": "even"}

# The committed transmit-chain configs, resonant at the 110 kHz carrier.
RESPONSE_NONEQUALIZED = {"mode": "parametric", "f_r": 110000.0,
                         "band": [100000.0, 120000.0], "ripple_db": 4.07}
RESPONSE_EQUALIZED = dict(RESPONSE_NONEQUALIZED, equalize_to=0.39)


def lhs(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """``n`` draws in [lo, hi], one in each of n equal strata, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + u * (hi - lo)


def _uniform(rng, bounds) -> float:
    return float(rng.uniform(*bounds))


def responses_for(carrier: str) -> dict:
    """Both committed response configs, scaled to the carrier frequency."""
    scale = CARRIERS[carrier]["f_c"] / RESPONSE_NONEQUALIZED["f_r"]
    out = {}
    for name, cfg in (("nonequalized", RESPONSE_NONEQUALIZED),
                      ("equalized", RESPONSE_EQUALIZED)):
        cfg = dict(cfg)
        cfg["f_r"] = cfg["f_r"] * scale
        cfg["band"] = [b * scale for b in cfg["band"]]
        out[name] = cfg
    return out


def taper(rng, kind: str, coded: bool, scope: str | None = None) -> dict:
    if scope is None:
        per_chip = coded and kind != "rectangular" and rng.random() < 0.5
        scope = "per-chip" if per_chip else "whole-pulse"
    shape = _uniform(rng, TUKEY_FRACTION) if kind == "tukey" else 0.0
    return {"kind": kind, "shape_param": shape, "scope": scope}


def spec(rng, family: str, carrier: str, taper_kind: str = "rectangular",
         delta_f: float | None = None, symmetry: str | None = None,
         rho: float | None = None, cycles: float | None = None,
         chips: int | None = None, scope: str | None = None) -> dict:
    """One spec of ``family`` on ``carrier``; unset parameters are drawn.

    ``chips`` is the Costas order or the phase-code length.
    """
    car = CARRIERS[carrier]
    if delta_f is None:
        delta_f = _uniform(rng, car["delta_f"])
    d = {"family": family, "T": car["T"], "f_c": car["f_c"]}
    if family != "cw":
        d["delta_f"] = float(delta_f)
    coded = family in ("costas", "bpsk", "qpsk")
    d["taper"] = taper(rng, taper_kind, coded, scope)
    if family == "sfm":
        d["f_m"] = SFM_CYCLES / car["T"]
    elif family == "gsfm":
        if symmetry is None:
            symmetry = ("even", "nonsymmetric")[int(rng.integers(2))]
        ranges = GSFM_EVEN if symmetry == "even" else GSFM_NONSYMMETRIC
        d["symmetry"] = symmetry
        d["rho"] = float(rho if rho is not None else _uniform(rng, ranges["rho"]))
        d["cycles"] = float(
            cycles if cycles is not None else _uniform(rng, ranges["cycles"])
        )
    elif family == "costas":
        d["n_chips"] = int(chips or rng.choice(COSTAS_ORDERS))
    elif family in ("bpsk", "qpsk"):
        n = int(chips or rng.choice(car["code_lengths"]))
        d["code"] = [int(b) for b in rng.integers(0, 2, n)]
        if family == "qpsk":
            d["qpsk_sign"] = int(rng.choice((1, -1)))
    return d


def design_sweep(seed: int, tiny: bool = False) -> dict:
    """Every family x taper x carrier (tiny: one spec per family).

    A 110 kHz report costs about half a 2 kHz one.  Two specs per 110 kHz
    stratum keep the median job inside one carrier's cost cluster instead
    of in the gap between the two.  Code length, Costas order and taper
    scope are part of the stratum, so every seed does the same mix of
    work; the code bits and all continuous parameters are drawn.
    """
    rng = np.random.default_rng([seed, 1])
    strata = [(f, t, c, k) for c, copies in (("2k", 1), ("110k", 2))
              for f in FAMILIES for t in TAPERS for k in range(copies)]
    if tiny:
        strata = [(f, TAPERS[i % 3], ("2k", "110k")[i % 2], 0)
                  for i, f in enumerate(FAMILIES)]
    # Delta_f per carrier, stratified over the specs on that carrier.
    dfs = {c: list(lhs(rng, sum(s[2] == c for s in strata), *CARRIERS[c]["delta_f"]))
           for c in CARRIERS}
    specs = []
    for fam, tk, car, copy in strata:
        chips = (SWEEP_COSTAS_ORDER if fam == "costas" else SWEEP_CODE_LENGTH)[car][tk][copy]
        # As in the corpus, the tapered gsfm is the nonsymmetric one and
        # Hann-tapered codes taper each chip.
        sym = "nonsymmetric" if tk == "tukey" else "even"
        scope = "per-chip" if tk == "hann" else "whole-pulse"
        specs.append({
            "label": f"{fam}-{tk}-{car}-{len(specs)}",
            "carrier": car,
            "spec": spec(rng, fam, car, tk, delta_f=dfs[car].pop(), symmetry=sym,
                         chips=chips, scope=scope),
        })
    refs = {c: {"label": f"reference-gsfm-{c}",
                "spec": spec(rng, "gsfm", c, "tukey", symmetry="even")}
            for c in CARRIERS}
    return {"specs": specs, "references": refs,
            "responses": {c: responses_for(c) for c in CARRIERS}}


def _af_fm_pool(rng, n_sfm: int, n_gsfm: int) -> list[dict]:
    """Rectangular 2 kHz sfm and even gsfm specs: both AF paths apply."""
    car = CARRIERS["2k"]
    out = []
    for i, df in enumerate(lhs(rng, n_sfm, *car["delta_f"])):
        out.append({"label": f"sfm-{i}", "spec": spec(rng, "sfm", "2k", delta_f=df)})
    dfs = lhs(rng, n_gsfm, *car["delta_f"])
    rhos = lhs(rng, n_gsfm, *GSFM_EVEN["rho"])
    cycles = lhs(rng, n_gsfm, *GSFM_EVEN["cycles"])
    for i in range(n_gsfm):
        out.append({"label": f"gsfm-{i}", "spec": spec(
            rng, "gsfm", "2k", delta_f=dfs[i], symmetry="even",
            rho=rhos[i], cycles=cycles[i])})
    return out


def af_numeric(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng([seed, 2])
    pool = _af_fm_pool(rng, *((1, 1) if tiny else (4, 4)))
    pool.append({"label": "costas", "spec": spec(
        rng, "costas", "2k", TAPERS[int(rng.integers(3))])})
    # 255 chips, like specs/sweep/bpsk_rect.json: the widest code spectrum,
    # and a fixed sample count keeps peak memory comparable across seeds.
    pool.append({"label": "bpsk-untapered", "spec": spec(rng, "bpsk", "2k", chips=255)})
    return {"specs": _interleave(pool)}


def af_closed(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {"specs": _interleave(_af_fm_pool(rng, *((1, 1) if tiny else (2, 20))))}


def _interleave(pool: list[dict]) -> list[dict]:
    """Alternate families so every prefix of the pool mixes them."""
    groups: dict = {}
    for item in pool:
        groups.setdefault(item["spec"]["family"], []).append(item)
    out = []
    while any(groups.values()):
        for g in groups.values():
            if g:
                out.append(g.pop(0))
    return out


def cli_session(seed: int, tiny: bool = False) -> dict:
    """Spec files for one pass over the README CLI examples."""
    rng = np.random.default_rng([seed, 4])
    car = CARRIERS["2k"]
    nb = CARRIERS["110k"]
    sweep_df = _uniform(rng, car["delta_f"])
    nb_df = float(nb["delta_f"][0])  # the corpus narrowband set: 10 kHz
    return {
        "gen": spec(rng, "gsfm", "2k", TAPERS[int(rng.integers(3))]),
        "metrics": spec(rng, FAMILIES[int(rng.integers(len(FAMILIES)))], "2k",
                        TAPERS[int(rng.integers(3))]),
        "spectrum_fft": spec(rng, FAMILIES[int(rng.integers(len(FAMILIES)))],
                             "2k", TAPERS[int(rng.integers(3))]),
        "spectrum_closed": dict(FIG5_SFM),
        "spectrum_closed_fig6": dict(FIG6_GSFM),
        "sweep": {
            "bpsk_hann": spec(rng, "bpsk", "2k", "hann", delta_f=sweep_df),
            "bpsk_rect": spec(rng, "bpsk", "2k", delta_f=sweep_df),
            "costas": spec(rng, "costas", "2k", "tukey", delta_f=sweep_df),
            "gsfm": spec(rng, "gsfm", "2k", "tukey", delta_f=sweep_df,
                         symmetry="nonsymmetric"),
            "qpsk": spec(rng, "qpsk", "2k", delta_f=sweep_df),
        },
        "trw": {
            "bpsk_i": spec(rng, "bpsk", "110k", "hann", delta_f=nb_df),
            "gsfm_i": spec(rng, "gsfm", "110k", "tukey", delta_f=nb_df,
                           symmetry="even"),
            "gsfm_ii": spec(rng, "gsfm", "110k", "tukey", delta_f=nb_df,
                            symmetry="even"),
            "lfm_i": spec(rng, "lfm", "110k", "tukey", delta_f=nb_df),
        },
        "trw_reference": "gsfm_ii",
        "responses": responses_for("110k"),
        "af": spec(rng, "gsfm", "2k", symmetry="even"),
    }


DRAW = {
    "cli-session": cli_session,
    "design-sweep": design_sweep,
    "af-numeric": af_numeric,
    "af-closed": af_closed,
}


def all_specs(drawn) -> list[dict]:
    """Every spec dict inside a drawn workload, for validation."""
    out = []

    def walk(obj):
        if isinstance(obj, dict):
            if "family" in obj and "T" in obj:
                out.append(obj)
                return
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(drawn)
    return out
