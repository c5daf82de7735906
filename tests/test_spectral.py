import cmath
import math

import numpy as np
import pytest

from cmcs3 import families, loop_algebra as la, spectral as sp
from cmcs3.errors import DomainError, PreconditionError


@pytest.fixture(scope="module")
def clifford_data():
    return families.clifford_spectral_data()


def test_data_normalization():
    # a is stored monic with b rescaled by sqrt(lead)
    data = sp.SpectralData(
        la.RealPolynomial(np.array([1.0, 0.0, 4.0])),
        la.RealPolynomial(np.array([0.0, 2.0])),
        1.0,
        -1.0,
    )
    assert np.allclose(data.a.coeffs, [0.25, 0.0, 1.0])
    assert np.allclose(data.b.coeffs, [0.0, 1.0])
    assert data.g == 1


def test_data_validation():
    lin = la.RealPolynomial(np.array([0.0, 1.0]))
    cubic = la.RealPolynomial(np.array([0.0, 0.0, 0.0, 1.0]))
    one = la.RealPolynomial(np.array([1.0]))
    with pytest.raises(PreconditionError):
        sp.SpectralData(cubic, one, 1.0, -1.0)  # odd degree a
    with pytest.raises(PreconditionError):
        sp.SpectralData(one, cubic, 1.0, -1.0)  # deg b > g+1
    with pytest.raises(PreconditionError):
        sp.SpectralData(one, one, 1.0, 1.0)  # coinciding marked points


def test_json_round_trip(revolution_quarter):
    back = sp.SpectralData.from_json(revolution_quarter.to_json())
    assert np.allclose(back.a.coeffs, revolution_quarter.a.coeffs)
    assert np.allclose(back.b.coeffs, revolution_quarter.b.coeffs)
    assert back.kappa0 == revolution_quarter.kappa0


def test_mean_curvature(clifford_data, revolution_quarter):
    assert abs(clifford_data.mean_curvature) < 1e-12
    assert abs(revolution_quarter.mean_curvature) < 1e-12
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    assert abs(data.mean_curvature + 0.5) < 1e-12  # orientation-flipped


def test_branch_points(revolution_quarter):
    pts = sp.odd_branch_points(revolution_quarter)
    expect = sorted([0.5j, -0.5j, 1j, -1j], key=lambda z: (z.real, z.imag))
    assert len(pts) == 4
    assert np.max(np.abs(np.array(pts) - np.array(expect))) < 1e-8


def test_nu_real_positive(revolution_quarter):
    ks = np.linspace(-3.0, 3.0, 13)
    vals = sp.nu_real_positive(revolution_quarter, ks)
    assert np.min(vals) > 0.0
    assert np.max(np.abs(vals**2 - revolution_quarter.p(ks).real)) < 1e-10


def test_clifford_lnmu_closed_form(clifford_data):
    val, nu0 = sp.lnmu_at(clifford_data, 1.0)
    assert abs(val - 1j * math.pi) < 1e-10
    # general point of the closed form ln mu = 2 pi i (k/sqrt(2))/sqrt(k^2+1)
    k = 2.0
    expect = 2j * math.pi * (k / math.sqrt(2.0)) / math.sqrt(k * k + 1.0)
    val2, _ = sp.lnmu_at(clifford_data, k)
    assert abs(val2 - expect) < 1e-10


def test_lnmu_sheet_antisymmetry(revolution_quarter):
    k = 1.7
    v_pos, nu_pos = sp.lnmu_at(revolution_quarter, k)
    path = sp.safe_path(revolution_quarter, 0.9, k)
    nu_start = -sp.nu_real_positive(revolution_quarter, 0.9)
    seg_neg, _ = sp.integrate_dlnmu(revolution_quarter, path, nu_start=nu_start)
    seg_pos, _ = sp.integrate_dlnmu(
        revolution_quarter, path, nu_start=-nu_start
    )
    assert abs(seg_neg + seg_pos) < 1e-10


def test_revolution_lnmu_marked_point(revolution_quarter):
    val, _ = sp.lnmu_at(revolution_quarter, revolution_quarter.kappa0)
    # mu = -1 at the marked point: ln mu in pi i + 2 pi i Z
    assert abs(cmath.exp(2.0 * val) - 1.0) < 1e-9
    assert abs(cmath.exp(val) + 1.0) < 1e-9


def test_check_conditions_revolution(revolution_quarter):
    rep = sp.check_conditions(revolution_quarter)
    assert rep["A"] and rep["B"]["pass"] and rep["C"]["pass"]
    assert rep["residuals"]["B"] < 1e-9
    assert max(rep["residuals"]["C0"], rep["residuals"]["C1"]) < 1e-9


def test_check_conditions_failure():
    # detuned b no longer satisfies the marked-point condition
    data, b2 = families.revolution_family(families.RevolutionParams(0.0, 0.25))
    bad = sp.SpectralData(
        data.a,
        la.RealPolynomial(np.array([0.0, 1.1 * data.b.coeffs[1]])),
        data.kappa0,
        data.kappa1,
    )
    rep = sp.check_conditions(bad)
    assert not rep["C"]["pass"]


def test_delta_clifford(clifford_data):
    assert abs(sp.delta(clifford_data, 0.0) - 2.0) < 1e-10
    assert abs(sp.delta(clifford_data, 1.0) + 2.0) < 1e-10
    assert abs(sp.delta(clifford_data, -1.0) + 2.0) < 1e-10
    with pytest.raises(DomainError):
        sp.delta(clifford_data, 1j)


def test_delta_sheet_independence(revolution_quarter):
    val = sp.delta(revolution_quarter, 0.4)
    assert abs(val.imag) < 1e-10


def test_involution(revolution_quarter):
    pts = [0.7 + 0.2j, -1.3 + 0.5j, 0.1 - 0.8j]
    assert sp.involution_residual(revolution_quarter, pts) < 1e-9


def test_real_branch_points_clifford(clifford_data):
    report = sp.real_branch_points(clifford_data, window=(-3.0, 3.0))
    kappas = sorted(float(e.kappa.real) for e in report)
    assert np.allclose(kappas, [-1.0, 0.0, 1.0], atol=1e-8)
    by_k = {round(float(e.kappa.real)): e for e in report}
    assert abs(by_k[0].delta - 2.0) < 1e-8
    assert abs(by_k[1].delta + 2.0) < 1e-8
    assert abs(by_k[-1].delta + 2.0) < 1e-8


def test_real_branch_points_revolution(revolution_quarter):
    report = sp.real_branch_points(revolution_quarter, window=(-6.0, 6.0))
    doubles = [e for e in report if e.kind in ("double_point", "both")]
    kappas = sorted(float(e.kappa.real) for e in doubles)
    assert np.allclose(kappas, [-1.0, 1.0], atol=1e-7)


@pytest.mark.parametrize(
    "window",
    [(-10.0, 10.0), (-1.0, 1.0), (-640.0, 640.0), (-3.0, 3.0), (-2.9, 3.1)],
    ids=lambda w: f"{w[0]:g}..{w[1]:g}",
)
def test_real_branch_points_tangency_at_root_of_b(window):
    # Delta(0) = 2 cos(2 pi sqrt(1/4)) = -2 at the root of b = 3k/4: theta is
    # tangent to pi there, which makes k = 0 one branch point of order 3,
    # whatever the window and its scan grid
    data = sp.SpectralData(
        la.RealPolynomial(np.array([0.25, 0.0, 1.0])),
        la.RealPolynomial(np.array([0.0, 0.75])),
        2.0,
        -2.0,
    )
    report = sp.real_branch_points(data, window=window)
    assert [(e.kind, e.order) for e in report] == [("both", 3)]
    assert report[0].kappa == 0.0 and report[0].delta == -2.0


def test_g_invariant_counts_nonreal_roots_of_b():
    # roots of b off the branch points count twice (both sheets), on them once
    a = la.RealPolynomial(np.array([0.25, 0.0, 1.0]))
    for b0, count in ((0.3, 4), (0.25, 2)):
        data = sp.SpectralData(a, la.RealPolynomial(np.array([b0, 0.0, 1.0])), 2.0, -2.0)
        _, details = sp.g_invariant(data)
        assert details["nonreal_curve_points"] == count


def test_g_invariant(clifford_data, revolution_quarter):
    g_c, det_c = sp.g_invariant(clifford_data)
    assert g_c == 2
    g_r, det_r = sp.g_invariant(revolution_quarter)
    assert g_r == 1
    assert det_r["real_double_points"] == 2


def test_weighted_genus_arithmetic():
    report = [
        sp.BranchEntry(0.0, 2.0, 1, "double_point"),
        sp.BranchEntry(1.0, 0.3, 2, "b_root"),
        sp.BranchEntry(2.0, -2.0, 2, "both"),
    ]
    # order 1 at Delta=2 -> 0; order 2 away from +-2 -> 2; order 2 at -2 -> 1
    assert sp.weighted_genus(report) == 3


def test_mobius_invariance(revolution_quarter):
    phi = 0.3
    tdata = sp.mobius_transform_data(revolution_quarter, phi)
    rep = sp.check_conditions(tdata)
    assert rep["A"] and rep["B"]["pass"] and rep["C"]["pass"]
    c, s = math.cos(phi), math.sin(phi)
    for k in (0.4, 2.2):
        mapped = (c * k - s) / (c + s * k)
        d0 = sp.delta(revolution_quarter, k)
        d1 = sp.delta(tdata, mapped)
        assert abs(d0 - d1) < 1e-9


def test_safe_path_endpoints(revolution_quarter):
    path = sp.safe_path(revolution_quarter, -2.0, 2.0)
    assert abs(path[0] + 2.0) < 1e-12
    assert abs(path[-1] - 2.0) < 1e-12
    branch = sp.odd_branch_points(revolution_quarter)
    for seg_start, seg_end in zip(path[:-1], path[1:]):
        for o in branch:
            assert sp._segment_distance(seg_start, seg_end, o) > 1e-3


def _rotational_delta(kappa, alpha, b2):
    return 2.0 * cmath.cos(2.0 * math.pi * b2 * cmath.sqrt((kappa**2 + alpha) / (kappa**2 + 1.0)))


@pytest.mark.parametrize("phi", [0.0, 0.23])
def test_delta_rotational_closed_form_on_leg_and_polyline(monkeypatch, phi):
    # Delta = 2 cos(2 pi b2 sqrt((k^2+alpha)/(k^2+1))) for the rotational data;
    # the Moebius-moved copy carries it over in the transported coordinate
    h, alpha = 0.5, 0.3
    data, b2 = families.revolution_family(families.RevolutionParams(h, alpha))
    if phi:
        data = sp.mobius_transform_data(data, phi)
    c, s = math.cos(phi), math.sin(phi)
    base = sp._base_point(data)
    gap = sp._local_gap(data.obstacles, base)
    polylines = []
    integrate = sp.integrate_dlnmu

    def counting(*args, **kwargs):
        polylines.append(args[1])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(sp, "integrate_dlnmu", counting)
    for kappa, on_leg in [
        (base + 0.3 * gap * cmath.exp(0.7j), True),
        (base - 0.2 * gap * cmath.exp(-0.4j), True),
        (1.3 - 0.4j, False),
        (-2.1 + 0.6j, False),
        (0.8, False),
    ]:
        polylines.clear()
        got = sp.delta(data, kappa)
        assert (not polylines) == on_leg
        original = (c * kappa + s) / (c - s * kappa)
        assert abs(got - _rotational_delta(original, alpha, b2)) < 1e-9


# ln mu and the periods of a genus-2 curve with no closed form, recorded with
# repr before the segment and base-leg integrators were merged into one.
_G2_A = [0.4625000000000001, -0.40000000000000013, 2.1000000000000005, -1.6, 1.0]
_G2_LNMU = [
    (0.1 - 0.45j, -0.9183904592423753 + 0.23395041650984122j,
     0.35172676845283557 - 0.13139700442275912j),
    (0.3 + 0.2j, -2.652247489073514 + 0.4391069854191491j,
     0.688814443873883 + 0.12334236129281227j),
    (1.7, -2.2038824859890136 + 2.211763872635082j, 4.967241890627031 + 0j),
    (-2.4 + 0.9j, -2.2707919957448097 - 2.7873950408593244j,
     15.076591428213487 - 19.342120491127144j),
]
_G2_PERIODS = [
    -8.815529943956324 - 3.3306690738754696e-16j,
    8.418576875891164 + 3.885780586188048e-16j,
    -8.881784197001252e-16 - 4.996003610813204e-16j,
    -2.220446049250313e-16 - 5.551115123125783e-16j,
]


def test_genus2_lnmu_and_periods_pinned():
    data = sp.SpectralData(
        la.RealPolynomial(np.array(_G2_A)),
        la.RealPolynomial(np.array([0.3, -0.2, 0.5, 0.1])),
        1.7,
        -0.6,
    )
    assert abs(sp._base_point(data) + 0.5j) < 1e-12  # 0.1 - 0.45j lies on the base leg

    def close(got, want):
        return abs(got - want) <= 1e-14 * max(abs(want), 1.0)

    for kappa, lnmu, nu in _G2_LNMU:
        got_lnmu, got_nu = sp.lnmu_at(data, kappa)
        assert close(got_lnmu, lnmu) and close(got_nu, nu)
    periods = sp.period_integrals(data)
    assert len(periods) == len(_G2_PERIODS)
    assert all(close(p, q) for p, q in zip(periods, _G2_PERIODS))


def test_nodal_square_curve_closed_form():
    # a = (k^2 + 1/2)^2 = q^2 with b = 0.3 k q: ln mu = -0.6 pi i / sqrt(k^2 + 1).
    # find_roots returns the double roots +-i/sqrt(2) as inexact conjugates.
    q = np.array([0.5, 0.0, 1.0])
    data = sp.SpectralData(
        la.RealPolynomial(np.polynomial.polynomial.polymul(q, q)),
        la.RealPolynomial(0.3 * np.polynomial.polynomial.polymul([0.0, 1.0], q)),
        1.2,
        -0.8,
    )
    for kappa in (0.5, -2.3, 3.0, 1.7 + 0.4j, 0.1 - 0.2j):
        want = 2.0 * cmath.cos(0.6 * math.pi / cmath.sqrt(kappa * kappa + 1.0))
        assert abs(sp.delta(data, kappa) - want) < 1e-9


def test_curve_roots_found_once(revolution_quarter, monkeypatch):
    # every query on one curve shares its root sets: at most one find_roots
    # call each for a, b and p = (k^2 + 1) a
    data = sp.SpectralData(
        revolution_quarter.a, revolution_quarter.b,
        revolution_quarter.kappa0, revolution_quarter.kappa1,
    )
    keys = {tuple(c.tolist()) for c in (data.a.coeffs, data.b.coeffs, data.p_coeffs)}
    calls = []
    find_roots = la.find_roots

    def counting(p, *args, **kwargs):
        calls.append(tuple(np.asarray(getattr(p, "coeffs", p)).tolist()))
        return find_roots(p, *args, **kwargs)

    monkeypatch.setattr(la, "find_roots", counting)
    sp.check_conditions(data)
    for kappa in np.linspace(-3.0, 3.0, 41):
        sp.delta(data, kappa)
    sp.real_branch_points(data, window=(-3.0, 3.0))
    sp.g_invariant(data)
    assert set(calls) <= keys
    assert len(calls) == len(set(calls))
