"""Side-by-side check of the closed-form AF series sum.

``_tensor_af_points`` is the former implementation of
``ambiguity._closed_af_points``: it builds the full delay x order x order
sinc tensor and contracts it with einsum, and it takes the Doppler-scaled
factor's coefficients from their own FFT per delay.  The matrix-product
kernel must reproduce it to 1e-10 of the surface peak, with the same orders
(from ``gbf_coeffs``) and pruning, on the README specs and on drawn
rectangular sfm and even gsfm specs.  Every grid holds the eta = 1 row
(exact mu = 0 pairs), delays next to +-T where the overlap vanishes, and
rows at eta < 1 and eta > 1, and every grid meets each combination of
fixed overlap ends (at a support edge) and moving ones (at edge / eta -
tau).  Those grids hold no reciprocal pair of rows, and each call must
equal its rows taken one per call bit for bit.  Grids with the pair
eta(v), eta(-v) check the fold of one row onto the other against the
reference and against one row per call, and the reference itself is
checked for the identity the fold rests on.

The reference takes its sinc from ``_sinc_in_place``, np.sinc's operations
in np.sinc's order written over the tensor, which is checked bit for bit
against np.sinc on the reference's own tensors.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sonarwave import ambiguity
from sonarwave.ambiguity import _PRUNE, _closed_af_points, doppler_eta
from sonarwave.gbf import _coeffs_fft, gbf_coeffs
from sonarwave.waveforms import WaveformSpec, harmonic_series

RTOL = 1e-10


def _sinc_in_place(y):
    """np.sinc(y), written over ``y``.

    np.sinc(x) takes y = pi x, puts eps where y is 0, and returns
    sin(y) / y; so does this, without a new array for each step.
    """
    y *= np.pi
    y[y == 0] = np.finfo(y.dtype).eps
    return np.divide(np.sin(y), y, out=y)


def _tensor_af_points(betas, f0, fc_eff, ta, tb, taus, etas):
    """|chi| at paired (tau, eta) points via the 3-D sinc tensor."""
    T = tb - ta
    taus = np.asarray(taus, dtype=float).ravel()
    etas = np.asarray(etas, dtype=float).ravel()
    k = np.arange(1, len(betas) + 1)

    c = gbf_coeffs(betas)
    n_max, orders = c.n_max, c.orders
    keep_n = np.abs(c.values) > _PRUNE
    g1 = c.values[keep_n]
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
        sinc = _sinc_in_place(mu[None, :, :] * length[rows, None, None])
        chi = np.einsum("pn,pm,pnm->p", a, b, sinc) * (
            base * length[rows] / T
        )
        out[rows] = np.sqrt(eta) * np.abs(chi)
    return out


def _grid(T, v):
    """Delays across +-T, including next to +-T and just below 0; Doppler
    rows at eta = 1, eta(v) > 1 and eta(-0.4 v) < 1."""
    taus = T * np.array([-1.0 + 1e-9, -0.999, -0.6, -0.31, -1e-4, 0.0, 0.2,
                         0.45, 0.9995, 1.0 - 1e-12])
    etas = np.array([1.0, doppler_eta(v), doppler_eta(-0.4 * v)])
    return taus, etas


def _end_kinds(ta, tb, taus, etas):
    """(t1 at ta, t2 at tb) for each cell with a nonempty overlap: an end
    at its support edge is fixed, one at edge / eta - tau is moving."""
    t1 = np.maximum(ta, ta / etas - taus)
    t2 = np.minimum(tb, tb / etas - taus)
    cells = t2 > t1
    return set(zip((t1 == ta)[cells], (t2 == tb)[cells]))


def _per_row(args, taus, etas):
    """|chi| on the (taus x etas) grid, one row per call: no row folds."""
    return np.concatenate([
        _closed_af_points(*args, taus, np.full(len(taus), eta))
        for eta in etas
    ])


def _assert_matches_reference(spec, v):
    args = harmonic_series(spec)
    taus, etas = _grid(spec.T, v)
    tt, ee = (a.ravel() for a in np.meshgrid(taus, etas))
    # Every fixed/moving pair of overlap ends occurs on the grid.
    assert len(_end_kinds(args[3], args[4], tt, ee)) == 4
    ref = _tensor_af_points(*args, tt, ee)
    new = _closed_af_points(*args, tt, ee)
    assert ref.max() > 0.5
    assert np.max(np.abs(new - ref)) <= RTOL * ref.max()
    # No two rows are reciprocal, so no row folds.
    np.testing.assert_array_equal(new, _per_row(args, taus, etas))


def _assert_folded_matches_reference(spec, v):
    """The rows eta = 1, eta(v) and eta(-v) on the delays of ``_grid``."""
    args = harmonic_series(spec)
    taus, _ = _grid(spec.T, v)
    etas = np.array([1.0, doppler_eta(v), doppler_eta(-v)])
    tt, ee = (a.ravel() for a in np.meshgrid(taus, etas))
    tt0, ee0 = tt.copy(), ee.copy()
    with mock.patch.object(
        ambiguity, "_cauchy_sums", wraps=ambiguity._cauchy_sums
    ) as kernel:
        new = _closed_af_points(*args, tt, ee)
    # One kernel for the eta = 1 row, one for the pair.
    assert kernel.call_count == 2
    # The fold works on copies: the caller's points are unchanged.
    np.testing.assert_array_equal(tt, tt0)
    np.testing.assert_array_equal(ee, ee0)
    ref = _tensor_af_points(*args, tt, ee)
    assert ref.max() > 0.5
    assert np.max(np.abs(new - ref)) <= RTOL * ref.max()
    assert np.max(np.abs(new - _per_row(args, taus, etas))) <= RTOL * ref.max()


def _assert_reference_is_reciprocal(spec, v):
    """The identity the fold rests on, checked on the reference alone."""
    args = harmonic_series(spec)
    tt, ee = (a.ravel() for a in np.meshgrid(*_grid(spec.T, v)))
    ref = _tensor_af_points(*args, tt, ee)
    mirror = _tensor_af_points(*args, -ee * tt, 1.0 / ee)
    assert np.max(np.abs(mirror - ref)) <= RTOL * ref.max()


def test_in_place_sinc_is_np_sinc(spec_dir):
    # On the tensors of the README specs and of a gsfm at the top of the
    # drawn ranges, the eta = 1 row's zero arguments included.
    zeros = []

    def checked(y, in_place=_sinc_in_place):
        ref = np.sinc(y)
        zeros.append(np.count_nonzero(y == 0))
        got = in_place(y)
        assert np.array_equal(got, ref)
        return got

    specs = [_readme_spec(spec_dir, name) for name in ("fig5_sfm",
                                                       "fig6_gsfm")]
    specs.append(WaveformSpec(family="gsfm", T=0.5, f_c=20000.0,
                              delta_f=200.0, rho=2.6, cycles=10.0))
    with mock.patch.dict(globals(), {"_sinc_in_place": checked}):
        for spec in specs:
            tt, ee = (a.ravel() for a in np.meshgrid(*_grid(spec.T, 25.0)))
            _tensor_af_points(*harmonic_series(spec), tt, ee)
    # Rows eta < 1, eta = 1 and eta > 1 for each spec.
    assert len(zeros) == 9 and min(zeros[1::3]) > 0


def _readme_spec(spec_dir, name):
    return WaveformSpec.from_dict(
        json.loads((spec_dir / f"{name}.json").read_text())
    )


def test_readme_specs_match_tensor(spec_dir):
    for name in ("fig5_sfm", "fig6_gsfm"):
        _assert_matches_reference(_readme_spec(spec_dir, name), 20.0)


@pytest.mark.parametrize("v, exact", [(20.0, True), (2.5, False),
                                      (25.0, False)])
@pytest.mark.parametrize("name", ["fig5_sfm", "fig6_gsfm"])
def test_readme_reciprocal_rows_match_tensor(spec_dir, name, v, exact):
    # At 2.5 and 25 m/s, 1 / eta(-v) is 1 ulp off eta(v).
    assert (1.0 / doppler_eta(-v) == doppler_eta(v)) is exact
    _assert_folded_matches_reference(_readme_spec(spec_dir, name), v)


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
    _assert_folded_matches_reference(spec, v)
    _assert_reference_is_reciprocal(spec, v)


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
    _assert_folded_matches_reference(spec, v)
    _assert_reference_is_reciprocal(spec, v)
