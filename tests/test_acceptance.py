"""End-to-end acceptance checks for the whole package.

Each test pins one of the contracted behaviors: closed-form frame oracles,
factorization structure, isospectrality, metric and residual convergence,
geometric constants, the integrability solve, flow invariants, the
rotational catalog, dressing, and branch-point detection.
"""

import cmath
import math
import time

import numpy as np
import pytest

from cmcs3 import families, flow, immersion as im, iwasawa as iw
from cmcs3 import loop_algebra as la
from cmcs3 import spectral as sp
from cmcs3.errors import ConditioningError


def test_01_flat_frame_oracle(flat_pi4):
    xi, _ = flat_pi4
    t_start = time.monotonic()
    lams = np.exp(1j * (0.1 + 2.0 * np.pi * np.arange(16) / 16.0))
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 17):
        for y in np.linspace(-2.0, 2.0, 17):
            z = complex(x, y)
            if z == 0:
                continue
            fp = iw.frame(xi, z)
            ref = families.flat_frame(z, lams)
            worst = max(worst, float(np.max(np.abs(fp.f.evaluate(lams) - ref))))
    elapsed = time.monotonic() - t_start
    assert worst < 1e-8
    assert elapsed < 30.0


def test_02_clifford_periodicity(rng, minimal_marked):
    taus = (math.pi * math.sqrt(2.0), 1j * math.pi * math.sqrt(2.0))

    def f_at(z):
        vals = families.flat_frame(z, minimal_marked.lams)
        return im.sym_bobenko(vals[0], vals[1])

    probes = rng.uniform(-2.0, 2.0, size=(100, 2))
    for tau in taus:
        worst = 0.0
        for px, py in probes:
            z = complex(px, py)
            worst = max(worst, float(np.max(np.abs(f_at(z + tau) - f_at(z)))))
        assert worst < 1e-6


def test_03_factorization_structure(flat_pi4, flat_pi6, delaunay_xi):
    models = [flat_pi4[0], flat_pi6[0], delaunay_xi]
    zs = [0.3, -0.7 + 0.4j, 1.1 - 0.2j, 0.05 + 0.9j]
    for xi in models:
        for z in zs:
            fp = iw.frame(xi, z)
            assert fp.unitarity_defect < 1e-9
            assert fp.reconstruction_defect < 1e-9
            b0 = fp.b.coeff(0)
            assert abs(b0[1, 0]) < 1e-9
            assert b0[0, 0].real > 0 and abs(b0[0, 0].imag) < 1e-9
            assert b0[1, 1].real > 0 and abs(b0[1, 1].imag) < 1e-9
            for k in range(1, fp.b.n + 1):
                assert np.max(np.abs(fp.b.coeff(-k))) < 1e-9


def test_04_delaunay_isospectrality(delaunay_xi):
    a0 = np.asarray(la.det_polynomial(delaunay_xi)[0])
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 65)[1:]:
        z = t * (0.6 - 0.45j)
        zeta = iw.killing_field(delaunay_xi, z)
        a1 = np.asarray(la.det_polynomial(zeta)[0])
        worst = max(worst, float(np.max(np.abs(a1 - a0))))
    assert worst < 1e-8


def test_05_delaunay_metric(delaunay_xi, delaunay_params):
    # the conformal-factor profile runs along the imaginary axis; starting the
    # window half a period in aligns the numeric profile with the closed form
    marked = im.MarkedPoints(1j, -1j)
    per = families.delaunay_period(delaunay_params)
    h = 0.005
    y0 = per / 2.0
    domain = (-2.0 * h, 2.0 * h, y0 - 2.0 * h, y0 + per + 2.0 * h)
    sample = im.sample_surface(im.TiledFrames(delaunay_xi), marked, domain, 5, 5)
    mid = len(sample.x) // 2
    worst = 0.0
    for iy in range(1, len(sample.y) - 1):
        x_prof = sample.y[iy] - y0
        if not 0.0 <= x_prof <= per:
            continue
        ref = families.delaunay_v(x_prof, delaunay_params)
        worst = max(worst, abs(float(sample.v[iy, mid]) - ref))
    assert worst < 1e-5


def test_06_sinh_gordon_convergence():
    # unit-normalized rotational model (4 a_r b_r = 1) so the extracted u
    # solves the target equation in these coordinates
    params = families.DelaunayParams(
        0.5 * math.sqrt(0.3 / 0.5), 0.5 * math.sqrt(0.5 / 0.3)
    )
    xi = families.delaunay_xi(params)
    marked = im.MarkedPoints(1j, -1j)
    frames = im.TiledFrames(xi)
    domain = (-0.32, 0.32, -0.16, 0.16)
    coarse = im.sample_surface(frames, marked, domain, 33, 17)
    fine = im.sample_surface(frames, marked, domain, 65, 33)
    _, r_coarse = im.sinh_gordon_residual(coarse)
    _, r_fine = im.sinh_gordon_residual(fine)
    ratio = r_coarse / r_fine
    assert 3.5 <= ratio <= 4.5


def test_07_geometry_constants(flat_pi6, minimal_marked):
    cases = []
    _, marked6 = flat_pi6
    cases.append(marked6)
    cases.append(minimal_marked)
    for marked in cases:
        s = im.sample_surface(families.flat_frame, marked, (-0.4, 0.4, -0.4, 0.4), 33, 33)
        h_exp, q_exp, _ = im.expected_invariants(marked)
        h_num = np.nanmean(s.interior(s.h_num))
        q_num = np.nanmean(s.interior(s.q_num))
        assert abs(h_num - h_exp) < 0.01 * max(1.0, abs(h_exp))
        assert abs(q_num - q_exp) < 0.01 * max(1.0, abs(q_exp))


def test_08_integrability_solve(rng):
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        g = int(rng.integers(0, 3))
        a = la.RealPolynomial(np.concatenate([rng.standard_normal(2 * g), [1.0]]))
        b = la.RealPolynomial(rng.standard_normal(g + 2))
        c = la.RealPolynomial(rng.standard_normal(g + 2))
        try:
            _, _, resid = flow.solve_ab_dot(a, b, c)
        except ConditioningError:
            continue  # a and b shared a root; not a coprime draw
        assert resid < 1e-10
        checked += 1
    assert checked == 100
    # genus-zero closed form
    for _ in range(10):
        b0 = rng.standard_normal()
        if abs(b0) < 0.1:
            continue
        c0, c1 = rng.standard_normal(2)
        adot, bdot, _ = flow.solve_ab_dot(
            la.RealPolynomial(np.array([1.0])),
            la.RealPolynomial(np.array([b0])),
            la.RealPolynomial(np.array([c0, c1])),
        )
        assert np.max(np.abs(adot.coeffs)) < 1e-12
        padded = np.zeros(2)
        padded[: len(bdot.coeffs)] = bdot.coeffs
        assert np.max(np.abs(padded - np.array([c1, -c0]))) < 1e-12


def test_09_flow_invariance(rng, revolution_quarter):
    data = revolution_quarter
    coeffs = rng.standard_normal(data.g + 2)
    coeffs *= 0.1 / np.linalg.norm(coeffs)
    c = la.RealPolynomial(coeffs)
    traj, status = flow.flow_integrate(
        data,
        lambda d: c,
        0.1,
        dt0=2e-3,
        monitor_tol=1e-6,
        sample_times=list(np.linspace(0.01, 0.09, 5)),
    )
    assert status["completed"]
    for state in traj:
        assert state.monitors["res_C0"] < 1e-6
        assert state.monitors["res_C1"] < 1e-6
        assert state.monitors["res_B"] < 1e-6

    # rate of the trace function vs a finite difference along the flow
    adot, bdot, _ = flow.solve_ab_dot(data.a, data.b, c)
    k0d, k1d = flow.kappa_dot(data, c)
    h = 1e-6
    a2 = np.array(data.a.coeffs, dtype=float)
    a2[: len(adot.coeffs)] += h * adot.coeffs
    b2 = np.zeros(data.g + 2)
    b2[: len(data.b.coeffs)] = data.b.coeffs
    b2[: len(bdot.coeffs)] += h * bdot.coeffs
    bumped = sp.SpectralData(
        la.RealPolynomial(a2),
        la.RealPolynomial(b2),
        data.kappa0 + h * k0d,
        data.kappa1 + h * k1d,
    )
    for kappa in rng.uniform(-2.0, 2.0, size=10):
        fd = (sp.delta(bumped, kappa) - sp.delta(data, kappa)) / h
        assert abs(fd - flow.delta_dot(data, c, kappa)) < 1e-4


def test_10_revolution_catalog():
    for h_val in (0.0, 0.5, 2.0):
        for alpha in (0.0, 0.25, 0.75):
            data, _ = families.revolution_family(families.RevolutionParams(h_val, alpha))
            rep = sp.check_conditions(data)
            assert rep["A"], (h_val, alpha)
            assert rep["B"]["pass"], (h_val, alpha, rep["residuals"])
            assert rep["C"]["pass"], (h_val, alpha, rep["residuals"])
            if alpha in (0.25, 0.75):
                report = sp.real_branch_points(data, window=(-10.0, 10.0))
                doubles = sorted(
                    float(e.kappa.real)
                    for e in report
                    if e.kind in ("double_point", "both")
                )
                k0 = data.kappa0
                assert np.allclose(doubles, [-k0, k0], atol=1e-6), (h_val, alpha, doubles)


def test_11_dressing(rng):
    import numpy.polynomial.polynomial as npoly

    for _ in range(20):
        # random valid model: nilpotent lowest coefficient, skew-hermitian
        # middle coefficient, and the paired highest coefficient
        w = complex(*rng.standard_normal(2))
        while abs(w) < 0.1:
            w = complex(*rng.standard_normal(2))
        diag = float(rng.standard_normal())
        off = complex(*rng.standard_normal(2))
        coeffs = np.zeros((3, 2, 2), dtype=complex)
        coeffs[0] = w * la.EPS_PLUS
        coeffs[1] = np.array([[1j * diag, off], [-np.conj(off), -1j * diag]])
        coeffs[2] = -np.conj(w) * la.EPS_MINUS
        xi = la.LaurentMatrix(1, coeffs)
        r = float(rng.uniform(0.15, 0.85))
        beta = r * cmath.exp(2j * math.pi * float(rng.uniform(0.0, 1.0)))
        a0 = np.asarray(la.det_polynomial(xi)[0])
        dressed = la.dress_simple_factor(xi, beta)
        a1 = np.asarray(la.det_polynomial(dressed)[0])
        quad = npoly.polymul([-beta, 1.0], [1.0, -np.conj(beta)])
        expect = npoly.polymul(npoly.polymul(a0, quad), quad)
        assert np.max(np.abs(a1 - expect)) < 1e-10


def test_12_clifford_branch_points():
    data = families.clifford_spectral_data()
    report = sp.real_branch_points(data, window=(-3.0, 3.0))
    entries = sorted(report, key=lambda e: e.kappa.real)
    assert len(entries) == 3
    kappas = [float(e.kappa.real) for e in entries]
    deltas = [float(complex(e.delta).real) for e in entries]
    assert np.allclose(kappas, [-1.0, 0.0, 1.0], atol=1e-8)
    assert np.allclose(deltas, [-2.0, 2.0, -2.0], atol=1e-8)


def test_13_genus_zero_closing():
    (m, n), (res_m, res_n) = families.genus0_closing(1.0, 1.0 / math.sqrt(2.0), 0.0)
    assert (m, n) == (1, 1)
    assert res_m < 1e-12 and res_n < 1e-12
    data = families.clifford_spectral_data()
    for k in (1.0, -1.0):
        assert abs(sp.delta(data, k) + 2.0) < 1e-10
