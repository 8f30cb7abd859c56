"""Side-by-side check of the closed-form AF series sum.

``_tensor_af_points`` is the former implementation of
``ambiguity._closed_af_points``: it builds the full delay x order x order
sinc tensor and contracts it with einsum.  The matrix-product kernel must
reproduce it to 1e-10 of the surface peak, with the same orders and
pruning, on the README specs and on drawn rectangular sfm and even gsfm
specs.  Every grid holds the eta = 1 row (exact mu = 0 pairs), delays
next to +-T where the overlap vanishes, and eta != 1 rows.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sonarwave.ambiguity import _PRUNE, _closed_af_points, doppler_eta
from sonarwave.gbf import _coeffs_fft
from sonarwave.waveforms import WaveformSpec, gsfm_fourier_coeffs

RTOL = 1e-10


def _tensor_af_points(betas, f0, fc_eff, ta, tb, taus, etas):
    """|chi| at paired (tau, eta) points via the 3-D sinc tensor."""
    T = tb - ta
    taus = np.asarray(taus, dtype=float).ravel()
    etas = np.asarray(etas, dtype=float).ravel()
    k = np.arange(1, len(betas) + 1)

    weight = float(np.sum(k * np.abs(betas)))
    n_max = int(np.ceil(weight + 3.0 * np.cbrt(weight))) + 40
    while True:
        g1 = _coeffs_fft(betas.astype(np.complex128)[None, :], n_max)[0]
        if abs(np.sum(np.abs(g1) ** 2) - 1.0) < 1e-10:
            break
        n_max *= 2
    orders = np.arange(-n_max, n_max + 1)
    keep_n = np.abs(g1) > _PRUNE
    g1 = g1[keep_n]
    n_ord = orders[keep_n].astype(float)

    t1 = np.maximum(ta, ta / etas - taus)
    t2 = np.minimum(tb, tb / etas - taus)
    length = np.maximum(t2 - t1, 0.0)
    center = 0.5 * (t1 + t2)

    out = np.zeros(len(taus))
    for eta in np.unique(etas):
        rows = np.nonzero((etas == eta) & (length > 0))[0]
        if len(rows) == 0:
            continue
        psi = 2.0 * np.pi * f0 * eta * np.outer(taus[rows], k)
        g2 = _coeffs_fft(betas[None, :] * np.exp(1j * psi), n_max)
        keep_m = np.max(np.abs(g2), axis=0) > _PRUNE
        g2 = np.conj(g2[:, keep_m])
        m_ord = orders[keep_m].astype(float)
        mu = fc_eff * (1.0 - eta) + f0 * (
            n_ord[:, None] - m_ord[None, :] * eta
        )
        cen = center[rows]
        base = np.exp(2j * np.pi * fc_eff * (1.0 - eta) * cen)
        a = g1[None, :] * np.exp(2j * np.pi * f0 * np.outer(cen, n_ord))
        b = g2 * np.exp(-2j * np.pi * f0 * eta * np.outer(cen, m_ord))
        sinc = np.sinc(mu[None, :, :] * length[rows, None, None])
        chi = np.einsum("pn,pm,pnm->p", a, b, sinc) * (
            base * length[rows] / T
        )
        out[rows] = np.sqrt(eta) * np.abs(chi)
    return out


def _series_args(spec):
    """(betas, f0, fc_eff, ta, tb) as sfm_af_closed / gsfm_af_closed pass."""
    if spec.family == "sfm":
        ta = -spec.T / 2.0 if spec.symmetry == "even" else 0.0
        return np.array([spec.beta]), spec.f_m, spec.f_c, ta, ta + spec.T
    model = gsfm_fourier_coeffs(spec)
    return (model.beta_k, 1.0 / spec.T, spec.f_c + model.center_shift,
            -spec.T / 2.0, spec.T / 2.0)


def _grid(T, v):
    """Delays across +-T, including next to +-T; eta = 1 and eta(+-v)."""
    taus = T * np.array(
        [-1.0 + 1e-9, -0.999, -0.31, 0.0, 0.45, 0.9995, 1.0 - 1e-12]
    )
    etas = np.array([1.0, doppler_eta(v), doppler_eta(-0.4 * v)])
    return taus, etas


def _assert_matches_reference(spec, v):
    args = _series_args(spec)
    taus, etas = _grid(spec.T, v)
    tt, ee = (a.ravel() for a in np.meshgrid(taus, etas))
    ref = _tensor_af_points(*args, tt, ee)
    new = _closed_af_points(*args, tt, ee)
    assert ref.max() > 0.5
    assert np.max(np.abs(new - ref)) <= RTOL * ref.max()


def test_readme_specs_match_tensor(spec_dir):
    for name in ("fig5_sfm", "fig6_gsfm"):
        spec = WaveformSpec.from_dict(
            json.loads((spec_dir / f"{name}.json").read_text())
        )
        _assert_matches_reference(spec, 20.0)


_DRAWN = settings(
    max_examples=10, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@_DRAWN
@given(
    T=st.floats(0.02, 0.5),
    f_c=st.floats(500.0, 20000.0),
    cycles=st.floats(1.0, 10.0),
    beta=st.floats(0.1, 60.0),
    even=st.booleans(),
    v=st.floats(0.5, 25.0),
)
def test_drawn_sfm_matches_tensor(T, f_c, cycles, beta, even, v):
    f_m = cycles / T
    spec = WaveformSpec(
        family="sfm", T=T, f_c=f_c, delta_f=2.0 * beta * f_m, f_m=f_m,
        symmetry="even" if even else "nonsymmetric",
    )
    _assert_matches_reference(spec, v)


@_DRAWN
@given(
    T=st.floats(0.02, 0.5),
    f_c=st.floats(500.0, 20000.0),
    tbp=st.floats(10.0, 100.0),
    rho=st.floats(2.0, 2.6),
    cycles=st.floats(3.0, 10.0),
    v=st.floats(0.5, 25.0),
)
def test_drawn_gsfm_matches_tensor(T, f_c, tbp, rho, cycles, v):
    spec = WaveformSpec(
        family="gsfm", T=T, f_c=f_c, delta_f=tbp / T, rho=rho, cycles=cycles,
    )
    _assert_matches_reference(spec, v)
