import cmath
import json
import math
from collections import namedtuple

import numpy as np
import pytest

from cmcs3 import cli, families, flow, loop_algebra as la, spectral as sp
from cmcs3.errors import ConvergenceError, DomainError, InconsistencyError, PreconditionError


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


def _odd_branch_points(data):
    """Odd-multiplicity branch points, sorted by (Re, Im)."""
    pts = [r.value for r in data.branch_points if r.multiplicity % 2 == 1]
    return sorted(pts, key=sp.plane_key)


def test_branch_points(revolution_quarter):
    pts = _odd_branch_points(revolution_quarter)
    expect = sorted([0.5j, -0.5j, 1j, -1j], key=lambda z: (z.real, z.imag))
    assert len(pts) == 4
    assert np.max(np.abs(np.array(pts) - np.array(expect))) < 1e-8


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
    nu_start = -math.sqrt(revolution_quarter.p(0.9).real)
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


@pytest.mark.parametrize("roots,want", [
    ([1.0, 1.2, 0.5j, -0.5j], False),  # a < 0 between the simple real roots 1 and 1.2
    ([1.0, 1.0, 0.5j, -0.5j], True),  # a real node: a >= 0, touching 0 at 1
], ids=["simple-real-roots", "real-node"])
def test_condition_a_from_the_roots_of_a(roots, want):
    # A holds when no real root of the monic, even-degree a has odd multiplicity
    a = np.polynomial.polynomial.polyfromroots(roots).real
    data = sp.SpectralData(la.RealPolynomial(a), la.RealPolynomial(np.array([0.0, 0.5])), 2.0, -2.0)
    assert sp.check_conditions(data)["A"] is want


def test_delta_clifford(clifford_data):
    assert abs(sp.delta(clifford_data, 0.0) - 2.0) < 1e-10
    assert abs(sp.delta(clifford_data, 1.0) + 2.0) < 1e-10
    assert abs(sp.delta(clifford_data, -1.0) + 2.0) < 1e-10
    with pytest.raises(DomainError):
        sp.delta(clifford_data, 1j)


def test_delta_sheet_independence(revolution_quarter):
    val = sp.delta(revolution_quarter, 0.4)
    assert abs(val.imag) < 1e-10


def _involution_residual(data, kappas):
    """Max deviation from ln mu(rho(P)) = -conj(ln mu(P)) mod 2 pi i, where
    rho is (kappa, nu) -> (conj kappa, conj nu)."""
    worst = 0.0
    for k in kappas:
        l1, n1 = sp.lnmu_at(data, k)
        l2, n2 = sp.lnmu_at(data, np.conj(k))
        if abs(n2 - np.conj(n1)) > abs(n2 + np.conj(n1)):
            l2 = -l2
        worst = max(worst, sp._dist_to_2pii(l2 + np.conj(l1)))
    return worst


def test_involution(revolution_quarter):
    pts = [0.7 + 0.2j, -1.3 + 0.5j, 0.1 - 0.8j]
    assert _involution_residual(revolution_quarter, pts) < 1e-9


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


def _tangency(detune=0.0):
    return sp.SpectralData(
        la.RealPolynomial(np.array([0.25, 0.0, 1.0])),
        la.RealPolynomial(np.array([0.0, 0.75 * (1.0 - detune)])),
        2.0,
        -2.0,
    )


_TANGENCY_WINDOWS = [(-10.0, 10.0), (-1.0, 1.0), (-640.0, 640.0), (-3.0, 3.0), (-2.9, 3.1)]


@pytest.mark.parametrize("window", _TANGENCY_WINDOWS, ids=lambda w: f"{w[0]:g}..{w[1]:g}")
def test_real_branch_points_tangency_at_root_of_b(window):
    # Delta(0) = 2 cos(2 pi sqrt(1/4)) = -2 at the root of b = 3k/4: theta is
    # tangent to pi there, which makes k = 0 one branch point of order 3,
    # whatever the window
    report = sp.real_branch_points(_tangency(), window=window)
    assert [(e.kind, e.order) for e in report] == [("both", 3)]
    assert report[0].kappa == 0.0 and report[0].delta == -2.0
    # detuned by 1e-7, theta dips to pi (1 - 1e-7) at 0 and crosses pi at
    # +-k*, where 2 pi (1 - 1e-7) sqrt((k^2 + 1/4)/(k^2 + 1)) = pi: a close
    # pair of double points on either side of the root of b
    q = 0.25 / (1.0 - 1e-7) ** 2
    k_star = math.sqrt((q - 0.25) / (1.0 - q))  # 2.58e-4
    report = sp.real_branch_points(_tangency(1e-7), window=window)
    assert [(e.kind, e.order) for e in report] == [("double_point", 1), ("b_root", 1),
                                                   ("double_point", 1)]
    assert report[1].kappa == 0.0
    assert np.allclose([e.kappa for e in report], [-k_star, 0.0, k_star], rtol=0.0, atol=1e-9)
    assert report[0].delta == report[2].delta == -2.0


@pytest.mark.parametrize("window", _TANGENCY_WINDOWS, ids=lambda w: f"{w[0]:g}..{w[1]:g}")
def test_near_tangency_crossings_start_from_the_flat_edge(window, monkeypatch):
    # theta' = 0 at the root of b next to the close pair of double points: a
    # secant start lands where theta is flat (16 iterations, 11 bisections);
    # the quadratic start through the flat edge needs at most 8
    calls = []
    increments = sp._theta_increments
    monkeypatch.setattr(sp, "_theta_increments", lambda *args: calls.append(1) or increments(*args))
    report = sp.real_branch_points(_tangency(1e-7), window)
    assert [e.kind for e in report] == ["double_point", "b_root", "double_point"]
    assert len(calls) <= 8


def test_kappa_err_covers_the_near_tangency_spread():
    # the double points next to the near-tangency move by ~1.3e-10 from window
    # to window (theta is known to ~1e-12 and dtheta/dkappa is ~2.4e-3 there):
    # each reported kappa_err covers that spread and the closed form
    q = 0.25 / (1.0 - 1e-7) ** 2
    k_star = math.sqrt((q - 0.25) / (1.0 - q))
    doubles = [e for w in _TANGENCY_WINDOWS for e in sp.real_branch_points(_tangency(1e-7), window=w)
               if e.kind == "double_point" and e.kappa > 0]
    kappas = [e.kappa for e in doubles]
    assert len(doubles) == len(_TANGENCY_WINDOWS)
    for e in doubles:
        assert max(kappas) - min(kappas) <= e.kappa_err and abs(e.kappa - k_star) <= e.kappa_err
        assert e.kappa_err < 1e-3 * k_star


def test_real_branch_points_match_the_rotational_closed_form(rng):
    # Delta = 2 cos(2 pi b2 sqrt((k^2 + alpha)/(k^2 + 1))) is +-2 where the
    # root equals q = L/(2 b2): at k = +-sqrt((alpha - q^2)/(q^2 - 1)) for
    # each level L with sqrt(alpha) < q < 1
    for h, alpha in zip(rng.uniform(0.0, 2.0, 20), rng.uniform(0.05, 0.9, 20)):
        data, b2 = families.revolution_family(families.RevolutionParams(h, alpha))
        want = []
        for level in range(math.floor(2 * b2 * math.sqrt(alpha)) + 1, math.ceil(2 * b2)):
            q = level / (2 * b2)
            k = math.sqrt((alpha - q * q) / (q * q - 1))
            want += [-k, k] if k <= 10.0 else []
        doubles = [e for e in sp.real_branch_points(data, (-10.0, 10.0)) if e.kind == "double_point"]
        assert len(doubles) == len(want), (h, alpha)
        for e, k in zip(doubles, sorted(want)):
            assert abs(e.kappa - k) <= e.kappa_err, (h, alpha, e.kappa, k)
            # kappa_err = 2 _LNMU_TOL/|dtheta/dkappa|, theta = 2 pi b2 sqrt(...)
            s = math.sqrt((k * k + alpha) / (k * k + 1))
            slope = 2 * math.pi * b2 * k * (1 - alpha) / (s * (k * k + 1) ** 2)
            assert e.kappa_err == pytest.approx(2 * sp._LNMU_TOL / abs(slope), rel=1e-6)


def test_crossings_on_a_wide_window_match_the_closed_form():
    # revolution (0.5, 0.25) moved by phi = 0.01: mu = +-1 at the images
    # (c k - s)/(c + s k) of the marked points +-k0, on a window of +-12863.57
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    c, s = math.cos(0.01), math.sin(0.01)
    want = sorted((c * k - s) / (c + s * k) for k in (data.kappa0, -data.kappa0))
    report = sp.real_branch_points(sp.mobius_transform_data(data, 0.01), window=(-12863.57, 12863.57))
    doubles = [e.kappa for e in report if e.kind == "double_point"]
    assert np.allclose(doubles, want, rtol=0.0, atol=1e-9)


def _refinement_calls(monkeypatch, data, edges, theta):
    calls = []
    increments = sp._theta_increments
    monkeypatch.setattr(sp, "_theta_increments", lambda *args: calls.append(1) or increments(*args))
    crossings, = sp._level_crossings(data, (edges, theta))
    monkeypatch.setattr(sp, "_theta_increments", increments)
    return len(calls), crossings


def test_crossing_at_large_kappa_stops_at_the_resolution_of_t(monkeypatch):
    # moved so that the marked point k0 lands at kappa = 1e3, where
    # neighbouring floats of t are 2.2e-10 apart in kappa, more than 1e-13
    # relative: the Newton steps stop at a few ulps of t instead
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    phi = math.atan(data.kappa0) - math.atan(1e3)
    moved = sp.mobius_transform_data(data, phi)
    edges, theta = sp._theta_walk(moved, np.arctan([500.0, 2000.0]))
    theta += sp.lnmu_at(moved, 500.0)[0].imag
    calls, crossings = _refinement_calls(monkeypatch, moved, edges, theta)
    assert len(crossings) == 1 and abs(math.tan(crossings[0][0]) / 1e3 - 1.0) < 1e-9
    assert calls <= 10


@pytest.mark.parametrize("name", ["clifford", "mobius"])
def test_refinement_calls_are_per_iteration_not_per_crossing(monkeypatch, name):
    # all crossings of a walk share one _theta_increments call per Newton
    # iteration: the walk over the circle makes as many calls as its slowest
    # crossing does alone, in a walk of its one cell.  A walk's range is
    # closed, so neighbouring cells both find a crossing on their common edge
    rot, _ = families.revolution_family(families.RevolutionParams(0.7, 0.4))
    data = {"clifford": families.clifford_spectral_data(),
            "mobius": sp.mobius_transform_data(rot, 0.15)}[name]
    t_roots = [math.atan(r.value.real) for r in data.b_roots if r.is_real]
    edges, theta = sp._theta_walk(data, np.unique([-0.5 * math.pi, 0.0, 0.5 * math.pi] + t_roots))
    theta += sp.lnmu_at(data, 0.0)[0].imag - theta[np.searchsorted(edges, 0.0)]
    n_all, crossings = _refinement_calls(monkeypatch, data, edges, theta)
    cells = np.flatnonzero(np.floor(theta[:-1] / math.pi) != np.floor(theta[1:] / math.pi))
    alone = [_refinement_calls(monkeypatch, data, edges[i:i + 2], theta[i:i + 2]) for i in cells]
    assert len(crossings) >= 2 and len(alone) == len(crossings)
    found = sorted({(round(t, 12), level) for _, cell in alone for t, level in cell})
    assert found == [(round(t, 12), level) for t, level in crossings]
    assert n_all == max(n for n, _ in alone) <= 10


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


def test_g_invariant_anchors_once_at_zero(revolution_quarter, monkeypatch):
    # one walk over the whole circle: ln mu is taken at kappa = 0 only
    calls = []
    lnmu_at = sp.lnmu_at
    monkeypatch.setattr(sp, "lnmu_at", lambda data, k: calls.append(k) or lnmu_at(data, k))
    sp.g_invariant(revolution_quarter)
    assert calls == [0.0]


def test_double_point_at_infinity_is_one_point():
    # Clifford's a and b with marked points 2 and -3 (G needs no condition
    # C), moved by phi = -pi/4: kappa -> (kappa + 1)/(1 - kappa) sends the
    # double points -1, 0, 1 to 0, 1, infinity and the root of b at infinity
    # to -1.  Both ends of the circle walk meet at infinity, and G counts the
    # point there once; a window [lo, inf] reads theta there, not at lo
    data = sp.SpectralData(la.RealPolynomial(np.array([1.0])),
                           la.RealPolynomial(np.array([1.0 / math.sqrt(2.0)])), 2.0, -3.0)
    moved = sp.mobius_transform_data(data, -0.25 * math.pi)
    assert sp.g_invariant(moved) == sp.g_invariant(data)
    assert sp.g_invariant(moved)[1]["real_double_points"] == 3
    report = sp.real_branch_points(moved, (-10.0, math.inf))
    assert [e.kind for e in report] == ["b_root", "double_point", "double_point", "double_point"]
    assert np.allclose([e.kappa for e in report], [-1.0, 0.0, 1.0, math.inf], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("hi,at_infinity", [(1e300, False), (math.inf, True)])
def test_only_an_infinite_window_end_reaches_infinity(hi, at_infinity):
    # arctan rounds every |kappa| > 1.6e16 onto pi/2, the end of the circle;
    # a finite end stays inside it, so only hi = inf reports kappa = infinity
    data = families.clifford_spectral_data()
    report = sp.real_branch_points(data, (5.0, hi))
    assert [e.kappa for e in report] == ([math.inf] if at_infinity else [])
    assert sp.branch_points_and_g(data, (5.0, hi))[0] == report


def test_theta_prime_by_horner_matches_the_power_sum(rng):
    # 2 pi b~/sqrt(a~) with b~ = sum_j b_j s^j c^(g+1-j), a~ the same over a:
    # the Horner form agrees with the sum of powers, and at t = +-pi/2 (c = 0)
    # it is 2 pi b_(g+1) (+-1)^(g+1), finite
    ts = np.concatenate((rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 50), [-0.5 * math.pi, 0.5 * math.pi]))
    s, c = np.sin(ts), np.cos(ts)
    for data in (_genus2(), families.clifford_spectral_data(), _tangency(),
                 families.revolution_family(families.RevolutionParams(0.5, 0.25))[0]):
        g = data.g

        def power_sum(coeffs, n):
            return sum(p * s**j * c ** (n - j) for j, p in enumerate(coeffs))

        want = 2.0 * math.pi * power_sum(data.b.coeffs, g + 1) / np.sqrt(power_sum(data.a.coeffs, 2 * g))
        got = sp._theta_prime(data, ts)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
        lead = data.b.coeffs[g + 1] if data.b.degree == g + 1 else 0.0
        assert np.allclose(got[-2:], 2.0 * math.pi * lead * np.array([(-1.0) ** (g + 1), 1.0]), atol=1e-12)


def test_g_invariant_counts_the_tangency_at_infinity():
    # b = 3k/4 has deg b = g, so kappa = infinity is a simple root of b, and
    # theta(infinity) = 2 pi: a second point of order 3 besides kappa = 0
    g_val, details = sp.g_invariant(_tangency())
    assert g_val == 1
    assert details == {"nonreal_curve_points": 0, "real_double_points": 2,
                       "real_delta_prime_zeros": 2, "naive_count": 1}


def _invariant_curves():
    rot, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    wide, _ = families.revolution_family(families.RevolutionParams(1.3, 0.7))
    return [
        ("rotational", rot),
        ("rotational-wide", wide),
        ("mobius", sp.mobius_transform_data(wide, -0.17)),
        ("thin-ellipse", _thin_ellipse()),
        ("clifford", families.clifford_spectral_data()),
        ("tangency", _tangency()),
    ]


def test_g_invariant_is_mobius_invariant(rng):
    # curves that pass A and B (the genus-2 curve fails B, so mu is not
    # defined on it); phi that sends a branch point or a marked point to
    # infinity is skipped
    keys = ("real_double_points", "real_delta_prime_zeros")
    for name, data in _invariant_curves():
        g_val, details = sp.g_invariant(data)
        for phi in rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 4):
            try:
                moved = sp.mobius_transform_data(data, phi)
            except DomainError:
                continue
            g_moved, moved_details = sp.g_invariant(moved)
            got = (g_moved, [moved_details[k] for k in keys])
            assert got == (g_val, [details[k] for k in keys]), (name, phi)


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
    branch = _odd_branch_points(revolution_quarter)
    for seg_start, seg_end in zip(path[:-1], path[1:]):
        for o in branch:
            assert sp._segment_distance(seg_start, seg_end, o) > 1e-3


def _rotational_delta(kappa, alpha, b2):
    return 2.0 * cmath.cos(2.0 * math.pi * b2 * cmath.sqrt((kappa**2 + alpha) / (kappa**2 + 1.0)))


@pytest.mark.parametrize("phi", [0.0, 0.23])
def test_delta_rotational_closed_form_on_leg_and_polyline(monkeypatch, phi):
    # Delta = 2 cos(2 pi b2 sqrt((k^2+alpha)/(k^2+1))) for the rotational data;
    # the Moebius-moved copy carries it over in the transported coordinate.
    # d ln mu is exact here, so the legs run only with the closed form off.
    monkeypatch.setattr(sp.SpectralData, "closed_form", None)
    h, alpha = 0.5, 0.3
    data, b2 = families.revolution_family(families.RevolutionParams(h, alpha))
    if phi:
        data = sp.mobius_transform_data(data, phi)
    c, s = math.cos(phi), math.sin(phi)
    base = data.base_leg[0]
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


# ln mu and the periods of a genus-2 curve with no closed form.  ln mu and nu
# are the 30-digit values of _mpmath_lnmu, rounded to doubles (printed with
# repr); the periods were recorded with repr from the library.
_G2_A = [0.4625000000000001, -0.40000000000000013, 2.1000000000000005, -1.6, 1.0]
_G2_LNMU = [
    (0.1 - 0.45j, -0.9183904592424023 + 0.2339504165098519j,
     0.35172676845283546 - 0.13139700442275914j),
    (0.3 + 0.2j, -2.6522474890735768 + 0.43910698541914434j,
     0.688814443873883 + 0.12334236129281226j),
    (1.7, -2.2038824859890815 + 2.2117638726349917j, 4.967241890627031 + 0j),
    (-2.4 + 0.9j, -2.2707919957450433 - 2.7873950408592183j,
     15.07659142821349 - 19.342120491127144j),
]
_G2_PERIODS = [
    -8.815529943956324 - 3.3306690738754696e-16j,
    8.418576875891164 + 3.885780586188048e-16j,
]


def _genus2():
    return sp.SpectralData(
        la.RealPolynomial(np.array(_G2_A)),
        la.RealPolynomial(np.array([0.3, -0.2, 0.5, 0.1])),
        1.7,
        -0.6,
    )


def test_genus2_lnmu_and_periods_pinned():
    data = _genus2()
    assert abs(data.base_leg[0] + 0.5j) < 1e-12  # 0.1 - 0.45j lies on the base leg

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
    # find_roots merges the double roots +-i/sqrt(2) from their unpolished
    # members, so they are conjugates to round-off.
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


# ---------------------------------------------------------------------------
# Batched sheet tracking against the node-by-node tracker it replaced.


def _track(root, x_from, r_from, x_to, depth=0):
    """Continue the square root root(x) from (x_from, r_from) to x_to along the
    straight segment, bisecting until consecutive values stay on one sheet."""
    val = root(x_to)
    pick = val if abs(val - r_from) <= abs(val + r_from) else -val
    scale = max(abs(pick), abs(r_from))
    if abs(pick - r_from) <= 0.4 * scale + 1e-300:
        return pick
    if depth >= 48:
        raise ConvergenceError("sheet tracking lost (path too close to a branch point)")
    mid = 0.5 * (x_from + x_to)
    r_mid = _track(root, x_from, r_from, mid, depth + 1)
    return _track(root, mid, r_mid, x_to, depth + 1)


def _node_panel(root, integrand, a, b, r_a):
    """GL16 on [a, b] with the root tracked node to node; returns (value, root at b)."""
    d = b - a
    xs = a + d * (0.5 * (sp._GL_NODES + 1.0))
    rs = np.empty(xs.shape, dtype=complex)
    ref_x, ref_r = a, r_a
    for i, x in enumerate(xs):
        ref_r = _track(root, ref_x, ref_r, x)
        ref_x = x
        rs[i] = ref_r
    r_b = _track(root, ref_x, ref_r, b)
    return 0.5 * d * np.sum(sp._GL_WEIGHTS * integrand(xs, rs)), r_b


def _node_adaptive(root, integrand, a, b, r_a, tol, depth=0):
    whole, _ = _node_panel(root, integrand, a, b, r_a)
    mid = 0.5 * (a + b)
    left, r_m = _node_panel(root, integrand, a, mid, r_a)
    right, r_b = _node_panel(root, integrand, mid, b, r_m)
    if abs(left + right - whole) < max(tol, 1e-15 * (abs(left) + abs(right))):
        return left + right, r_b
    assert depth < 26
    lv, r_m = _node_adaptive(root, integrand, a, mid, r_a, 0.5 * tol, depth + 1)
    rv, r_b = _node_adaptive(root, integrand, mid, b, r_m, 0.5 * tol, depth + 1)
    return lv + rv, r_b


def _node_integrate_dlnmu(data, path, tol=1e-10):
    def nu(k):
        return cmath.sqrt(complex(data.p(complex(k))))

    def dlnmu(ks, nus):
        return sp._TWO_PI_I * data.b(ks) / ((ks * ks + 1.0) * nus)

    total, nu_cur = 0.0, nu(path[0])
    for p, q in zip(path, path[1:]):
        val, nu_cur = _node_adaptive(nu, dlnmu, p, q, nu_cur, tol / (len(path) - 1))
        total += val
    return total, nu_cur


# kappa(t) = center + u (major cos t + i minor sin t), 0 <= t <= 2 pi: an ellipse or circle
Loop = namedtuple("Loop", "center major minor u", defaults=(1.0,))


def _polyline(loop, chords_per_turn, turns=1):
    """A loop as the closed polyline the periods were once integrated along:
    32 chords for the ellipses around homology pairs, a 24-gon per turn for circles."""
    ts = np.linspace(0.0, 2.0 * math.pi * turns, chords_per_turn * turns + 1)
    c, a, b, u = loop.center, loop.major, loop.minor, loop.u
    return [c + a * math.cos(t) * u + b * math.sin(t) * (1j * u) for t in ts]


def _circle(data, center):
    """The circle once integrated around a node or +-i: radius 0.3 local gaps,
    clipped to [2e-3, 1]."""
    r = 0.3 * min(max(sp._local_gap(data.obstacles, center), 2e-3), 1.0)
    return Loop(center, r, r)


def _least_gap(data):
    obstacles = data.obstacles
    return min(abs(p - q) for i, p in enumerate(obstacles) for q in obstacles[i + 1:])


def _period_loops(data):
    """The loops the periods were once integrated around, in period order: per
    homology pair (p1, p2) an ellipse with semi-axes |h| + r and r, from
    c + u (|h| + r), with c, h the middle and half length of the pair, u its
    direction and r half the least distance between branch points, then a
    _circle per node."""
    r = 0.5 * _least_gap(data)
    pairs, nodes = sp.period_loops(data)
    loops = [Loop(0.5 * (p1 + p2), 0.5 * abs(p2 - p1) + r, r, (p2 - p1) / abs(p2 - p1)) for p1, p2 in pairs]
    return loops + [_circle(data, e) for e in nodes]


def _rotational_paths():
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    return data, [
        sp.safe_path(data, 0.3 + 0.1j, 2.0 - 0.7j),
        sp.safe_path(data, -2.5 + 0.2j, 2.5 + 0.3j),
        _polyline(_period_loops(data)[0], 32),
        _polyline(Loop(1j, 0.15, 0.15), 24, turns=2),
    ]


def _genus2_paths():
    data = _genus2()
    return data, [
        sp.safe_path(data, 0.1 - 0.3j, -2.4 + 0.9j),
        sp.safe_path(data, 1.7, 0.3 + 0.2j),
        *(_polyline(loop, 32) for loop in _period_loops(data)),
    ]


@pytest.mark.parametrize("case", [_rotational_paths, _genus2_paths], ids=["rotational", "genus2"])
def test_integrate_dlnmu_matches_node_by_node_tracking(case):
    data, paths = case()
    for path in paths:
        got_val, got_nu = sp.integrate_dlnmu(data, path)
        want_val, want_nu = _node_integrate_dlnmu(data, [complex(k) for k in path])
        assert abs(got_val - want_val) <= 1e-13 * max(abs(want_val), 1.0)
        assert abs(got_nu - want_nu) <= 1e-13 * max(abs(want_nu), 1.0)


def test_grazing_segment_is_resolved_by_splitting_cells(monkeypatch):
    # the segment passes 0.01 from the branch point i/2: neighbouring nodes
    # there lie on visibly different sheets, so the chain of a step breaks
    # and its cell splits until the chains hold
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    path = [-1.0 + 0.49j, 1.0 + 0.49j]
    want_val, want_nu = _node_integrate_dlnmu(data, path)
    broken = []
    track_chain = sp._track_chain

    def recording(*args):
        picks, jump = track_chain(*args)
        broken.append(np.any(jump > 0))
        return picks, jump

    monkeypatch.setattr(sp, "_track_chain", recording)
    got_val, got_nu = sp.integrate_dlnmu(data, path)
    assert any(broken) and not broken[-1]
    assert abs(got_val - want_val) <= 1e-13 * max(abs(want_val), 1.0)
    assert abs(got_nu - want_nu) <= 1e-13 * max(abs(want_nu), 1.0)


def _mpmath_lnmu(mpmath, data, kappa):
    """ln mu and nu at kappa along lnmu_at's legs, at 30 digits.  nu is
    continued along each straight leg as nu(P) prod_j sqrt((k - e_j)/(P - e_j))
    over the branch points e_j: the principal root of each factor is
    continuous there, since a segment subtends an angle below pi at any point
    off it."""
    with mpmath.workdps(30):
        a_coeffs = [mpmath.mpf(float(c)) for c in data.a.coeffs]
        branch = list(mpmath.polyroots(a_coeffs[::-1], maxsteps=200, extraprec=200))
        branch += [mpmath.mpc(0, 1), mpmath.mpc(0, -1)]

        def poly(coeffs, k):
            return mpmath.polyval([mpmath.mpf(float(c)) for c in coeffs[::-1]], k)

        def form(k, nu_k):  # d ln mu / d kappa
            return 2j * mpmath.pi * poly(data.b.coeffs, k) / ((k * k + 1) * nu_k)

        def continued(start, nu_start, k, skip=None):
            out = nu_start
            for e in branch:
                if e is not skip:
                    out *= mpmath.sqrt((k - e) / (start - e))
            return out

        base_f = data.base_leg[0]
        base = min(branch, key=lambda e: abs(e - base_f))
        direction = kappa - base_f
        leg = min(0.45 * sp._local_gap(data.obstacles, base_f), abs(direction))
        waypoint = base_f + leg * direction / abs(direction)
        # the base leg in k = base + s^2 d, where nu/s is analytic
        d = mpmath.mpc(waypoint) - base
        phi0 = mpmath.sqrt(d * mpmath.fprod(base - e for e in branch if e is not base))

        def phi(s):
            return continued(base, phi0, base + s * s * d, skip=base)

        val = mpmath.quad(lambda s: 2 * s * d * form(base + s * s * d, s * phi(s)), [0, 1])
        nu_k = phi(1)
        path = sp.safe_path(data, waypoint, kappa) if abs(waypoint - kappa) > 1e-13 else []
        for p, q in zip(path, path[1:]):
            p, q = mpmath.mpc(p), mpmath.mpc(q)
            val += mpmath.quad(
                lambda t: (q - p) * form(p + t * (q - p), continued(p, nu_k, p + t * (q - p))),
                [0, 1],
            )
            nu_k = continued(p, nu_k, q)
        val, nu_k = complex(val), complex(nu_k)
        if complex(kappa).imag == 0 and nu_k.real < 0:
            val, nu_k = -val, -nu_k
        return val, nu_k


def test_genus2_lnmu_matches_mpmath():
    # ln mu along the same legs at 30 digits, at the four points of _G2_LNMU
    mpmath = pytest.importorskip("mpmath")
    data = _genus2()
    for kappa, _, _ in _G2_LNMU:
        got_val, got_nu = sp.lnmu_at(data, kappa)
        want_val, want_nu = _mpmath_lnmu(mpmath, data, kappa)
        assert abs(got_val - want_val) <= 1e-14 * max(abs(want_val), 1.0)
        assert abs(got_nu - want_nu) <= 1e-14 * max(abs(want_nu), 1.0)


# ---------------------------------------------------------------------------
# Periods on the cuts and by residues against the polyline quadrature around
# the ellipses and circles they replaced.


def _polyline_periods(data):
    """Each loop of _period_loops as a polyline through integrate_dlnmu, from
    the principal root at its first point: the 33-point ellipses and the 24-gons."""
    out = []
    for loop in _period_loops(data):
        path = _polyline(loop, 24 if loop.major == loop.minor else 32)
        val, _ = sp.integrate_dlnmu(data, path, nu_start=cmath.sqrt(complex(data.p(path[0]))))
        out.append(val)
    return out


def _stadium_periods(data):
    """The homology periods around thin stadiums through integrate_dlnmu.

    The stadium of a pair is the closed polyline at distance m from the
    segment p1 p2: half-circles of 16 chords around p2 and p1, joined by
    straight sides of 16 chords, from p2 + u m.  m is the least of 0.05, r
    and half the distance of the nearest third branch point to the segment
    (r and u as in _period_loops), so the stadium keeps m clear of every
    branch point and encloses no third one; a thin ellipse would pass its
    tips within about m sqrt(2r/|h|) of p1 and p2.  The sheet is the principal root at the
    ellipse's start c + u (|h| + r), continued along the axis to p2 + u m.
    Each chord is one integrate_dlnmu call, with its own tolerance and cell
    budget, so the chords next to a third branch point cannot use up the
    budget of the whole loop."""
    obstacles, r, out = data.obstacles, 0.5 * _least_gap(data), []
    for p1, p2 in sp.homology_cycles(data):
        u = (p2 - p1) / abs(p2 - p1)
        m = min([0.05, r] + [0.5 * sp._segment_distance(p1, p2, o) for o in obstacles
                             if min(abs(o - p1), abs(o - p2)) > 1e-9])
        arcs = [[e + m * u * cmath.exp(1j * math.pi * t) for t in np.linspace(lo, hi, n + 1)]
                for e, lo, hi, n in ((p2, 0.0, 0.5, 8), (p1, 0.5, 1.5, 16), (p2, -0.5, 0.0, 8))]
        path = arcs[0]
        for arc in arcs[1:]:  # a straight side of 16 chords, then the next half-circle
            path += list(path[-1] + (arc[0] - path[-1]) * np.linspace(0.0, 1.0, 17)[1:-1]) + arc
        start = 0.5 * (p1 + p2) + u * (0.5 * abs(p2 - p1) + r)
        nu = cmath.sqrt(complex(data.p(start)))
        if m < r:
            _, nu = sp.integrate_dlnmu(data, [start, path[0]], nu_start=nu)
        val = 0.0
        for p, q in zip(path, path[1:]):
            part, nu = sp.integrate_dlnmu(data, [p, q], nu_start=nu)
            val += part
        out.append(val)
    return out


def _nodal_genus3():
    # a = ((k - 3)^2 + 1)(k^2 + 1/2)^2: odd roots 3 +- i, even roots +-i/sqrt(2)
    poly = np.polynomial.polynomial
    q = [0.5, 0.0, 1.0]
    return sp.SpectralData(
        la.RealPolynomial(poly.polymul([10.0, -6.0, 1.0], poly.polymul(q, q))),
        la.RealPolynomial(np.array([0.3, -0.2, 0.5, 0.1])),
        1.7,
        -0.6,
    )


def _thin_ellipse():
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.9))
    return sp.mobius_transform_data(data, 0.2)


def _real_node():
    # a = (k - 1)^2 (k^2 + 1/4): odd roots +-i/2, a real node at 1
    return sp.SpectralData(
        la.RealPolynomial(np.polynomial.polynomial.polymul([1.0, -2.0, 1.0], [0.25, 0.0, 1.0])),
        la.RealPolynomial(np.array([0.3, -0.2, 0.5, 0.1])),
        1.7,
        -0.6,
    )


_PERIOD_CURVES = [
    lambda: families.revolution_family(families.RevolutionParams(0.5, 0.25))[0],
    _thin_ellipse,
    _genus2,
    _nodal_genus3,
    _real_node,
]


@pytest.mark.parametrize("case", _PERIOD_CURVES,
                         ids=["rotational", "thin-ellipse", "genus2", "node-circle", "real-node"])
def test_periods_match_polyline_quadrature(case):
    data = case()
    got, want = sp.period_integrals(data), _polyline_periods(data)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * max(abs(w), 1.0)


def test_cut_next_to_a_third_branch_point_matches_a_stadium():
    # a = (k^2 + 1/4)((k - 0.15)^2 + 0.04): 0.15 +- 0.2i lie 0.15 from the
    # cut between +-i/2, inside the ellipse of minor radius 0.17 that once
    # rejected the curve, outside the stadium of half-width 0.05
    data = sp.SpectralData(
        la.RealPolynomial(np.polynomial.polynomial.polymul([0.25, 0.0, 1.0], [0.0625, -0.3, 1.0])),
        la.RealPolynomial(np.array([0.3, -0.2, 0.5, 0.1])),
        1.7,
        -0.6,
    )
    got, want = sp.period_integrals(data), _stadium_periods(data)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * max(abs(w), 1.0)


def test_periods_match_stadiums_on_random_curves(rng):
    # the cut periods against thin stadiums, which enclose no third branch
    # point; a curve is skipped only when its cut passes one
    compared = skipped = 0
    for g in (1, 2, 3):
        for _ in range(4):
            data = _random_curve(rng, g)
            try:
                got = sp.period_integrals(data)
            except InconsistencyError as exc:
                assert "third branch point" in str(exc)
                skipped += 1
                continue
            want = _stadium_periods(data)
            assert len(got) == len(want) == g
            for p, w in zip(got, want):
                assert abs(p - w) <= 1e-12 * max(abs(w), 1.0)
            compared += 1
    assert compared >= 9 and compared + skipped == 12


def _random_curve(rng, g):
    """a with g conjugate pairs of roots in 0.2 <= |Im| <= 2, none within 0.1
    of +-i, and a random b of degree g + 1."""
    a = np.array([1.0])
    while len(a) < 2 * g + 1:
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
        if abs(z - 1j) > 0.1:
            a = np.polynomial.polynomial.polymul(a, [abs(z) ** 2, -2.0 * z.real, 1.0])
    return sp.SpectralData(la.RealPolynomial(a), la.RealPolynomial(rng.uniform(-1.0, 1.0, g + 2)),
                           1.7, -0.6)


def test_double_loops_around_pm_i_integrate_to_zero(rng):
    # with kappa = +-i + w^2, d ln mu = G(w^2) dw/w^2 has no 1/w term, which
    # is why period_loops has no loop around +-i: the double loop it once
    # integrated, as a 2-turn 24-gon through integrate_dlnmu, gives 0
    curves = [_random_curve(rng, g) for g in (1, 2, 3) for _ in range(4)]
    curves += [case() for case in _PERIOD_CURVES]
    for data in curves:
        for center in (1j, -1j):
            path = _polyline(_circle(data, center), 24, turns=2)
            val, _ = sp.integrate_dlnmu(data, path, nu_start=cmath.sqrt(complex(data.p(path[0]))))
            assert abs(val) <= 1e-12


def test_node_circle_is_integrated():
    # one cut between the odd roots 3 -+ i and one residue at each node
    # +-i/sqrt(2); none at +-i
    pairs, nodes = sp.period_loops(_nodal_genus3())
    assert np.allclose(pairs, [(3.0 - 1j, 3.0 + 1j)], atol=1e-12)
    assert np.allclose(sorted(nodes, key=sp.plane_key), [-0.5**0.5 * 1j, 0.5**0.5 * 1j], atol=1e-7)
    assert len(sp.period_integrals(_nodal_genus3())) == 3


def test_period_loop_past_cap_raises_convergence_error(monkeypatch, tmp_path, capsys):
    # the cut of the thin ellipse needs N = 256; capped at 64 the sums still disagree
    monkeypatch.setattr(sp, "_TRAPEZOID_CAP", 64)
    data = _thin_ellipse()
    with pytest.raises(ConvergenceError) as exc:
        sp.period_integrals(data)
    assert exc.value.residual is not None and exc.value.residual > 1e-10
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(data.to_json()))
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: trapezoidal rule" in err and "Traceback" not in err


@pytest.mark.parametrize("a,message", [
    ([0.25, 0.0, 1.25, 0.0, 1.0], "is a multiple branch point"),  # (k^2 + 1)(k^2 + 1/4)
    ([1.0, 0.0, 2.0, 0.0, 1.0], "not divisible by sqrt(a)"),  # (k^2 + 1)^2
    ([0.25, 0.0, 1.5, 0.0, 2.25, 0.0, 1.0], "is a multiple branch point"),  # (k^2 + 1)^2 (k^2 + 1/4)
], ids=["simple", "double", "double-with-odd-roots"])
def test_a_vanishing_at_pm_i_exits_numerical(tmp_path, capsys, a, message):
    # +-i are roots of a here, so they need loops of their own, which
    # condition B does not have: a root of a at +-i is outside the envelope
    # of the periods; a = (k^2 + 1)^2 is a square whose closed form of ln mu
    # rejects b before any period
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"a": a, "b": [0.0, 0.5], "kappa0": 1.2, "kappa1": -0.8}))
    assert cli.main(["check", str(path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _double_base_curve():
    # a = (k^2 + 1.0001)(k^2 + 1): the base -i is a double root of
    # (k^2 + 1) a, so nu/s on the base leg vanishes at s = 0 with its seed
    # sqrt(d q(base)), and the chain of the first cell breaks at every depth.
    # (With 1.0000001 for 1.0001, find_roots merges the pairs and takes a for
    # a square, which exits on "not divisible by sqrt(a)" instead.)
    a = np.polynomial.polynomial.polymul([1.0001, 0.0, 1.0], [1.0, 0.0, 1.0])
    return sp.SpectralData(la.RealPolynomial(a), la.RealPolynomial(np.array([0.3, -0.2, 0.5, 0.1])),
                           1.2, -0.8)


def _close_pair_curve(delta):
    # a = (k - z)(k - zbar)(k - z - delta)(k - zbar - delta), z = 0.3 + 0.5i:
    # the base branch point zbar has a neighbour delta away
    z, a = 0.3 + 0.5j, np.array([1.0])
    for r in (z, z.conjugate(), z + delta, z.conjugate() + delta):
        a = np.polynomial.polynomial.polymul(a, [-r, 1.0])
    return sp.SpectralData(la.RealPolynomial(a.real), la.RealPolynomial(np.array([0.3, -0.2, 0.5, 0.1])),
                           1.2, -0.8)


def test_base_leg_past_depth_cap_loses_the_sheet(tmp_path, capsys):
    data = _double_base_curve()
    with pytest.raises(ConvergenceError, match="sheet tracking lost") as exc:
        sp.lnmu_at(data, 1.2)
    assert math.isfinite(exc.value.residual) and exc.value.residual > 0.4
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data.to_json()))
    assert cli.main(["check", str(path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: sheet tracking lost" in err and "Traceback" not in err


@pytest.mark.parametrize("delta", [0.1, 0.03, 0.01])
def test_lnmu_next_to_a_close_branch_pair_matches_mpmath(delta):
    # the envelope of ln mu next to a close pair: down to delta = 0.01 the
    # base leg, evaluated as sqrt(d q) with q = p/(k - base), keeps its sheet
    mpmath = pytest.importorskip("mpmath")
    data = _close_pair_curve(delta)
    for kappa in (1.2, -0.8, 2 + 1j):
        got_val, got_nu = sp.lnmu_at(data, kappa)
        want_val, want_nu = _mpmath_lnmu(mpmath, data, kappa)
        assert abs(got_val - want_val) <= 1e-12 * max(abs(want_val), 1.0)
        assert abs(got_nu - want_nu) <= 1e-12 * max(abs(want_nu), 1.0)


def test_lnmu_past_the_close_pair_envelope_exits_numerical(tmp_path, capsys):
    # at delta = 1e-4 the polyline leg next to the pair stalls (lnmu_at
    # raises ConvergenceError, see test_failing_quadrature_work_is_bounded)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(_close_pair_curve(1e-4).to_json()))
    assert cli.main(["check", str(path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure:" in err and "Traceback" not in err


@pytest.mark.parametrize("case,ceiling", [
    (_double_base_curve, 10_000),  # 3,276 root values at each point
    (lambda: _close_pair_curve(1e-4), 150_000),  # 69,420-79,196
], ids=["double-base", "close-pair"])
def test_failing_quadrature_work_is_bounded(monkeypatch, case, ceiling):
    # a cell that never passes splits, with its neighbours, until the depth
    # cap or the cap on active cells: the root values evaluated by one
    # failing lnmu_at stay under a fixed ceiling (doubling every cell to the
    # depth cap would need millions), and the residual is finite
    data, count = case(), [0]
    adaptive = sp._adaptive

    def counting(integrand, lo, hi, tol, root=None, **kwargs):
        def counted(x):
            count[0] += x.size
            assert count[0] <= ceiling
            return root(x)
        return adaptive(integrand, lo, hi, tol, root=root and counted, **kwargs)

    monkeypatch.setattr(sp, "_adaptive", counting)
    for kappa in (1.2, -0.8, 2 + 1j):
        count[0] = 0
        with pytest.raises(ConvergenceError) as exc:
            sp.lnmu_at(data, kappa)
        assert math.isfinite(exc.value.residual)


@pytest.mark.parametrize("H,alpha", [(0.0, 0.25), (0.3, 0.4), (0.7, 0.1), (0.7, 0.4), (1.0, 0.1)])
def test_check_reports_mu_minus_one_as_plus_pi(tmp_path, H, alpha):
    # mu = -1 at both marked points; Im ln mu lands within rounding on
    # either side of pi, and the report gives +pi whatever the last bit
    out = tmp_path / "check.json"
    argv = ["check", "--family", "revolution", "--H", str(H), "--alpha", str(alpha), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert [report["C"][key][1] for key in ("lnmu0", "lnmu1")] == [3.14159265] * 2  # 9 digits
    for im in (math.pi, np.nextafter(math.pi, 4.0), -math.pi, np.nextafter(-math.pi, -4.0), 3 * math.pi):
        assert sp._canonical_lnmu(complex(0.5, im)) == pytest.approx(complex(0.5, math.pi), abs=1e-12)


def test_homology_cycle_enclosing_third_branch_point_rejected():
    # a = k^2 + 4: the cut between +-2i passes through +-i
    data = sp.SpectralData(la.RealPolynomial(np.array([4.0, 0.0, 1.0])),
                           la.RealPolynomial(np.array([0.0, 1.0])), 1.0, -1.0)
    with pytest.raises(InconsistencyError, match="third branch point"):
        sp.homology_cycles(data)
    with pytest.raises(InconsistencyError, match="third branch point"):
        sp.period_integrals(data)


def test_loop_through_branch_point_is_guarded():
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    loop = Loop(0.5j - 0.2, 0.2, 0.2)  # kappa(0) is the branch point i/2
    with pytest.raises(DomainError, match="integration path passes within .* of the branch point"):
        sp.integrate_dlnmu(data, _polyline(loop, 32))


def test_monitor_periods_skip_the_polyline_quadrature(monkeypatch):
    # timing-free guard of the trapezoidal periods: one flow monitor makes its
    # two lnmu_at calls and sends no period loop through integrate_dlnmu or
    # _adaptive, so a return to polyline loops fails tier-1
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append("/" + name)
        return wrapped

    for name in ("lnmu_at", "period_integrals", "integrate_dlnmu", "_adaptive"):
        monkeypatch.setattr(sp, name, recording(name, getattr(sp, name)))
    flow._monitors(data)
    assert calls.count("lnmu_at") == 2 and calls.count("period_integrals") == 1
    inside = calls[calls.index("period_integrals") + 1: calls.index("/period_integrals")]
    assert inside == []


# ---------------------------------------------------------------------------
# The crossing search of real_branch_points against the grid loop it replaced.


def _refine_crossing(data, t_lo, th_lo, t_hi, level):
    """Bisect theta - pi*level in t to a root in the cell [t_lo, t_hi], until
    the bracket is below 1e-13 relative in kappa or a few ulps of t."""
    for _ in range(80):
        if (math.tan(t_hi) - math.tan(t_lo) < 1e-13 * max(1.0, abs(math.tan(t_lo)))
                or t_hi - t_lo <= 4 * math.ulp(abs(t_lo) + abs(t_hi))):
            break
        mid = 0.5 * (t_lo + t_hi)
        th_mid = th_lo + float(sp._theta_increments(data, t_lo, mid))
        if (th_lo - math.pi * level) * (th_mid - math.pi * level) <= 0:
            t_hi = mid
        else:
            t_lo, th_lo = mid, th_mid
    return 0.5 * (t_lo + t_hi)


def _loop_level_crossings(data, grid, theta):
    levels_lo = np.floor(theta[:-1] / math.pi)
    levels_hi = np.floor(theta[1:] / math.pi)
    # every grid point exactly on a level, the ends included
    crossings = [(k, int(round(th / math.pi))) for k, th in zip(grid, theta)
                 if abs(th / math.pi - round(th / math.pi)) < 1e-12]
    for i in range(len(grid) - 1):
        l0, l1 = int(levels_lo[i]), int(levels_hi[i])
        for level in range(min(l0, l1) + 1, max(l0, l1) + 1):
            k_star = _refine_crossing(data, grid[i], theta[i], grid[i + 1], level)
            crossings.append((k_star, level))
    crossings.sort(key=lambda c: c[0])
    merged = []
    for k_star, level in crossings:
        same = merged and merged[-1][1] == level
        if same and abs(k_star - merged[-1][0]) < 1e-7 * max(1.0, abs(k_star)):
            continue
        merged.append((k_star, level))
    return merged


def _crossing_cases():
    rot, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    wide, _ = families.revolution_family(families.RevolutionParams(1.3, 0.7))
    cases = [
        ("rotational", rot, (-10.0, 10.0)),
        ("rotational-wide", wide, (-640.0, 640.0)),
        ("mobius", sp.mobius_transform_data(rot, 0.23), (-6.0, 6.0)),
        ("mobius-wide", sp.mobius_transform_data(wide, -0.17), (-3.0, 3.0)),
        ("genus2", _genus2(), (-10.0, 10.0)),
    ]
    cases += [(f"tangency{w[0]:g}..{w[1]:g}", _tangency(), w) for w in _TANGENCY_WINDOWS]
    return [pytest.param(*case, id=case[0]) for case in cases]


def _assert_same_crossings(data, got, want, tangency=False):
    # levels, count and order exactly; kappa to the bisection's own stopping
    # bracket, or next to a tangency to the kappa_err the report gives
    assert [level for _, level in got] == [level for _, level in want]
    for (t, _), (t_want, _) in zip(got, want):
        kappa, kappa_want = math.tan(t), math.tan(t_want)
        bound = sp._kappa_err(data, t) if tangency else 1e-13 * max(1.0, abs(kappa_want))
        assert abs(kappa - kappa_want) <= bound, (kappa, kappa_want)


@pytest.mark.parametrize("name,data,window", _crossing_cases())
def test_level_crossings_match_grid_loop(name, data, window):
    # the cells of the walk of real_branch_points: the roots of b are edges
    roots = [r.value.real for r in data.b_roots if r.is_real and window[0] <= r.value.real <= window[1]]
    grid, theta = sp._theta_walk(data, np.unique(np.arctan(list(window) + roots)))
    theta = theta + sp.lnmu_at(data, window[0])[0].imag
    got, = sp._level_crossings(data, (grid, theta))
    _assert_same_crossings(data, got, _loop_level_crossings(data, grid, theta),
                           tangency=name.startswith("tangency"))
    assert got or name.startswith("tangency")


def test_level_crossings_on_grid_points():
    # theta exactly on levels at grid points, inside steps that keep their
    # level, at the ends of steps that change it and at the start of one
    # that leaves its level (grid[4]): each is a crossing
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    grid = np.linspace(-2.0, 2.0, 9)
    theta = math.pi * np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.7, -1.0, -1.0, -0.2])
    got, = sp._level_crossings(data, (grid, theta))
    # theta falls by 3.7 pi over the step from grid[5] while theta' > 0 there,
    # so its three crossings all end on grid[6], in an order rounding decides:
    # crossings that coincide are compared by level
    def by_place(crossings):
        return sorted(crossings, key=lambda c: (round(c[0], 10), c[1]))
    _assert_same_crossings(data, by_place(got), by_place(_loop_level_crossings(data, grid, theta)))
    assert got[:2] == [(grid[0], 0), (grid[1], 0)]


# ---------------------------------------------------------------------------
# The Delta scan along the real axis against per-point Delta.


_SCAN_CURVES = {
    "rotational": lambda: families.revolution_family(families.RevolutionParams(0.5, 0.25))[0],
    "mobius": _thin_ellipse,
    "clifford": families.clifford_spectral_data,
    "genus2": _genus2,  # fails condition B
}


def _assert_scan_matches_delta(data, kappas):
    got, _ = sp.delta_scan(data, kappas)
    assert got.shape == (len(kappas),)
    for kappa, d in zip(kappas, got):
        want = sp.delta(data, kappa)
        assert abs(d - want) <= 1e-11 * max(abs(want), 1.0)


@pytest.mark.parametrize("n", [1, 2, 41, 241])
@pytest.mark.parametrize("name", sorted(_SCAN_CURVES))
def test_delta_scan_matches_pointwise_delta(name, n):
    _assert_scan_matches_delta(_SCAN_CURVES[name](), np.linspace(-3.0, 3.0, n))


@pytest.mark.parametrize("name", ["rotational", "mobius", "genus2"])
def test_delta_scan_from_a_real_root_of_b(name):
    data = _SCAN_CURVES[name]()
    beta = min(r.value.real for r in data.b_roots if r.is_real)
    _assert_scan_matches_delta(data, np.linspace(beta, beta + 4.0, 41))


@pytest.mark.parametrize("alpha,phi", [(0.25, 0.0), (0.9, 0.2)])
def test_delta_scan_rotational_closed_form(alpha, phi):
    data, b2 = families.revolution_family(families.RevolutionParams(0.5, alpha))
    if phi:
        data = sp.mobius_transform_data(data, phi)
    c, s = math.cos(phi), math.sin(phi)
    kappas = np.linspace(-3.0, 3.0, 241)
    for kappa, d in zip(kappas, sp.delta_scan(data, kappas)[0]):
        assert abs(d - _rotational_delta((c * kappa + s) / (c - s * kappa), alpha, b2)) < 1e-9


def test_delta_scan_in_any_order():
    # ln mu is anchored at kappas[0], which need not be the smallest sample
    data = _SCAN_CURVES["mobius"]()
    kappas = np.array([1.3, -2.0, 2.7, 0.4, -0.9])
    _assert_scan_matches_delta(data, kappas)
    order = np.argsort(kappas)
    assert np.allclose(sp.delta_scan(data, kappas[order])[0], sp.delta_scan(data, kappas)[0][order],
                       rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("name", sorted(_SCAN_CURVES))
def test_delta_scan_reports_the_branch_points_of_its_window(name):
    # anchored at the window's left end, the scan's report is the window's
    # real_branch_points, whatever the samples in between
    data = _SCAN_CURVES[name]()
    want = sp.real_branch_points(data, window=(-3.0, 3.0))
    for kappas in (np.linspace(-3.0, 3.0, 41), np.array([-3.0, 0.7, 3.0, 1.9])):
        assert sp.delta_scan(data, kappas)[1] == want


def test_delta_scan_past_depth_cap_raises_convergence_error(monkeypatch, tmp_path, capsys):
    # the walk runs before any lnmu_at, so a zero depth cap meets it first:
    # on revolution (0.5, 0.05) the branch points +-0.22i sit 0.23 off the
    # real t-axis, and GL16 fails on the two cells over [-2, 3], split at
    # the root 0 of b
    monkeypatch.setattr(sp, "_DEPTH_CAP", 0)
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.05))
    with pytest.raises(ConvergenceError) as exc:
        sp.delta_scan(data, np.array([-2.0, 3.0]))
    assert exc.value.residual is not None and exc.value.residual > 1e-10
    out = tmp_path / "delta.csv"
    argv = ["delta", "--family", "revolution", "--H", "0.5", "--alpha", "0.05",
            "--window", "-2", "3", "--samples", "2"]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: theta quadrature" in err and "Traceback" not in err
    assert not out.exists()


def test_delta_scan_needs_positive_a():
    # a = k^2 - 1/4 < 0 between +-1/2: ln mu at -3 exists, the scan across fails
    data = sp.SpectralData(la.RealPolynomial(np.array([-0.25, 0.0, 1.0])),
                           la.RealPolynomial(np.array([0.0, 0.5])), 2.0, -2.0)
    with pytest.raises(DomainError, match="a has real zeros"):
        sp.delta_scan(data, np.linspace(-3.0, 3.0, 7))
    # a window wholly between the roots holds no root of a, but a < 0 on it
    with pytest.raises(DomainError, match="a has real zeros"):
        sp.delta_scan(data, np.linspace(-0.4, 0.4, 7))


# ---------------------------------------------------------------------------
# ln mu in closed form wherever d ln mu is exact.


def _by_legs(monkeypatch, data, kappa):
    """lnmu_at on a fresh copy of data with the closed form off: the base leg
    and the polyline."""
    with monkeypatch.context() as m:
        m.setattr(sp.SpectralData, "closed_form", None)
        return sp.lnmu_at(sp.SpectralData(data.a, data.b, data.kappa0, data.kappa1), kappa)


def _assert_closed_form_matches_legs(monkeypatch, data, kappas, bound):
    # off the real axis the closed form takes the principal nu and the legs
    # the sheet they track: the pairs (ln mu, nu) agree up to one sign
    for kappa in kappas:
        got_val, got_nu = sp.lnmu_at(data, kappa)
        want_val, want_nu = _by_legs(monkeypatch, data, kappa)
        if abs(got_nu + want_nu) < abs(got_nu - want_nu):
            got_val, got_nu = -got_val, -got_nu
        assert abs(got_val - want_val) <= bound * max(abs(want_val), 1.0), (kappa, got_val, want_val)
        assert abs(got_nu - want_nu) <= bound * max(abs(want_nu), 1.0), (kappa, got_nu, want_nu)


def _exact_curves(rng):
    h, alpha = rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.9)
    data, _ = families.revolution_family(families.RevolutionParams(h, alpha))
    moved = sp.mobius_transform_data(data, rng.uniform(-0.4, 0.4))
    target, status = flow.flow_integrate(data, flow.branch_target_supplier(data, 0), 0.005)
    assert status["completed"]
    mobius, status = flow.flow_integrate(moved, lambda d, t: la.RealPolynomial(d.b.coeffs.copy()), 0.01)
    assert status["completed"]
    return {"rotational": data, "moved": moved, "target-flow": target[-1].data,
            "mobius-flow": mobius[-1].data}


def test_exact_curves_take_the_closed_form_and_match_the_legs(rng, monkeypatch):
    # rotational data (a = k^2 + alpha, b = b2 (1 - alpha) k), a Moebius-moved
    # copy and the end states of two flows keep d ln mu exact: ln mu is
    # 2 pi i u/nu, equal to the legs at the marked points and off the axis
    for name, data in _exact_curves(rng).items():
        assert data.closed_form is not None, name
        kappas = [data.kappa0, data.kappa1, *(rng.uniform(-2.5, 2.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3))]
        _assert_closed_form_matches_legs(monkeypatch, data, kappas, 1e-13)
    # the curves without odd roots of a have no legs; their closed forms are
    # pinned by test_clifford_lnmu_closed_form and the nodal square curve
    assert families.clifford_spectral_data().closed_form is not None


def test_non_exact_curves_have_no_closed_form(rng):
    curves = [_genus2(), _double_base_curve()]
    for g in (1, 1, 2, 2):
        z = rng.uniform(-2.0, 2.0, g) + 1j * rng.uniform(0.2, 2.0, g)
        a = np.polynomial.polynomial.polyfromroots(np.concatenate([z, z.conj()])).real
        curves.append(sp.SpectralData(la.RealPolynomial(a), la.RealPolynomial(rng.normal(size=g + 2)),
                                      2.7, -3.1))
    assert all(data.closed_form is None for data in curves)


@pytest.mark.parametrize("eps,exact", [(1e-13, True), (1e-11, False)])
def test_closed_form_threshold_on_perturbed_b(monkeypatch, eps, exact):
    # b + eps on every coefficient of rotational data: the relative residual
    # of the solve is about 2.4 eps, against _EXACT_TOL = 1e-12; below it the
    # closed form stays within the quadrature tolerance of the legs
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    for d in (data, sp.mobius_transform_data(data, 0.23)):
        bumped = sp.SpectralData(d.a, la.RealPolynomial(d.b.coeffs + eps), d.kappa0, d.kappa1)
        assert (bumped.closed_form is not None) is exact
        _assert_closed_form_matches_legs(monkeypatch, bumped, [d.kappa0, 1.7, -2.1 + 0.6j], sp._LNMU_TOL)


def test_lnmu_entry_rule_on_both_routes(monkeypatch):
    # one rule for the closed form and the legs: kappa finite, and more than
    # 1e-12 from every branch point and +-i
    rotational, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    curves = [families.clifford_spectral_data(), rotational, _genus2()]
    for data in curves:
        for kappa in (*data.obstacles, data.obstacles[-1] + 5e-13, math.inf, complex(0.3, math.nan)):
            with pytest.raises(DomainError):
                sp.lnmu_at(data, kappa)
            with pytest.raises(DomainError), monkeypatch.context() as m:
                m.setattr(sp.SpectralData, "closed_form", None)
                sp.lnmu_at(sp.SpectralData(data.a, data.b, data.kappa0, data.kappa1), kappa)


def test_a_root_at_pm_i_takes_no_closed_form():
    # a = (k^2 + 1)^2 with b = k/2 solves u'p - u p'/2 = ab with u = -1/6,
    # but a root of a at +-i stays outside the envelope (condition B has no
    # cycle there): no closed form, and lnmu_at names the missing normalization
    data = sp.SpectralData(la.RealPolynomial(np.array([1.0, 0.0, 2.0, 0.0, 1.0])),
                           la.RealPolynomial(np.array([0.0, 0.5])), 1.2, -0.8)
    assert data.closed_form is None
    with pytest.raises(InconsistencyError, match="not divisible by sqrt"):
        sp.lnmu_at(data, 1.2)
