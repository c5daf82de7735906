import math
import sys

import numpy as np
import pytest

from cmcs3 import cli, families, flow, loop_algebra as la, spectral as sp
from cmcs3.errors import ConditioningError, PreconditionError


def _poly(*coeffs):
    return la.RealPolynomial(np.array(coeffs, dtype=float))


def test_solve_ab_dot_genus0_closed_form():
    data = families.clifford_spectral_data()
    c = _poly(0.7, -0.3)
    adot, bdot, resid = flow.solve_ab_dot(data.a, data.b, c)
    assert resid < 1e-12
    assert np.max(np.abs(adot.coeffs)) < 1e-12
    # bdot = c1 - c0 kappa
    expect = np.array([-0.3, -0.7])
    padded = np.zeros(2)
    padded[: len(bdot.coeffs)] = bdot.coeffs
    assert np.max(np.abs(padded - expect)) < 1e-12


def test_solve_ab_dot_identity_residual(rng):
    for g in (1, 2):
        a = la.RealPolynomial(np.concatenate([0.1 * rng.standard_normal(2 * g), [1.0]]))
        b = la.RealPolynomial(rng.standard_normal(g + 2))
        c = la.RealPolynomial(rng.standard_normal(g + 2))
        adot, bdot, resid = flow.solve_ab_dot(a, b, c)
        assert resid < 1e-10
        # verify the identity directly on sample points
        ks = np.linspace(-1.3, 1.3, 9)
        lhs = 2.0 * bdot(ks) * a(ks) - b(ks) * adot(ks)
        w = ks * ks + 1.0
        rhs = (
            2.0 * w * a(ks) * c.derivative()(ks)
            - 2.0 * ks * a(ks) * c(ks)
            - w * a.derivative()(ks) * c(ks)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_solve_ab_dot_rejects_bad_inputs():
    data = families.clifford_spectral_data()
    with pytest.raises(PreconditionError):
        flow.solve_ab_dot(data.a, data.b, _poly(0.0, 0.0, 1.0))  # deg c > g+1
    shared = la.RealPolynomial(np.array([-1.0, 0.0, 1.0]))  # roots +-1
    b_shared = la.RealPolynomial(np.array([-1.0, 1.0]))  # root +1
    with pytest.raises(ConditioningError):
        flow.solve_ab_dot(shared, b_shared, _poly(1.0))


def test_solve_ab_dot_checks_its_preconditions():
    # the gate's identity det M = +-2^(g+2) res(a, b) needs a monic of degree
    # 2g and deg b <= g+1; deg b = 3 > g+1 = 2 used to return a "solution"
    quarter = _poly(0.25, 0.0, 1.0)
    with pytest.raises(PreconditionError, match="deg b = 3 exceeds g\\+1 = 2"):
        flow.solve_ab_dot(quarter, _poly(0.1, 0.3, 0.2, 0.5), _poly(1.0))
    for a in (_poly(0.5, 0.0, 2.0), _poly(0.5, 1.0)):  # not monic; odd degree
        with pytest.raises(PreconditionError, match="a must be monic of even degree"):
            flow.solve_ab_dot(a, _poly(0.1, 0.3), _poly(1.0))


def _sylvester_measure(a, b):
    """|res(a, b)| over the Hadamard bound of the Sylvester matrix (reference)."""
    na, nb = a.degree, b.degree
    if na <= 0 or nb <= 0:
        return 1.0
    syl = np.zeros((na + nb, na + nb))
    for i in range(nb):
        syl[i, i : i + na + 1] = a.coeffs[: na + 1][::-1]
    for i in range(na):
        syl[nb + i, i : i + nb + 1] = b.coeffs[: nb + 1][::-1]
    return abs(np.linalg.det(syl)) / np.prod(np.linalg.norm(syl, axis=1))


def test_common_root_gate_matches_the_sylvester_resultant(rng):
    # the gate reads |res(a, b)| off the integrability matrix M and the singular
    # values its solve computes; g = 0..3, deg b = 0..g+1, and half the draws put
    # a root of b within 1e-14 to 1e-2 of a root of a, so both sides of the
    # 1e-12 threshold are covered
    seen = {True: 0, False: 0}
    for _ in range(800):
        g = int(rng.integers(0, 4))
        nb = int(rng.integers(0, g + 2))
        pairs = rng.uniform(-2, 2, g) + 1j * rng.uniform(0.05, 2, g)
        a_roots = np.concatenate([pairs, pairs.conj()]) if rng.random() < 0.5 else rng.uniform(-2, 2, 2 * g)
        b_roots = list(rng.uniform(-2, 2, nb))
        if g and nb and rng.random() < 0.5:
            near = a_roots[0] + 10 ** rng.uniform(-14, -2) * np.exp(2j * np.pi * rng.random())
            b_roots = [near.real] if a_roots[0].imag == 0 else [near, near.conjugate()]
            b_roots += list(rng.uniform(-2, 2, max(nb - len(b_roots), 0)))
        a = la.RealPolynomial(np.polynomial.polynomial.polyfromroots(a_roots).real)
        b = la.RealPolynomial(rng.uniform(0.2, 3) * np.polynomial.polynomial.polyfromroots(b_roots).real)
        assert a.degree == 2 * g and b.degree <= g + 1
        mat = flow._integrability_matrix(a, b, g)
        sv = np.linalg.lstsq(mat, np.zeros(3 * g + 2), rcond=None)[3]
        got = flow._common_root_measure(sv, a, b)
        want = _sylvester_measure(a, b)
        # both are rounded to about 1e-15 absolute (against 60-digit values:
        # 2.7e-15 from the singular values, 1.1e-16 from the Sylvester LU)
        assert abs(got - want) <= 1e-9 * want + 1e-14
        if not 0.5e-12 <= want <= 2e-12:
            assert (got < 1e-12) == (want < 1e-12)
            try:
                flow.solve_ab_dot(a, b, _poly(1.0))
                gated = False
            except ConditioningError as exc:
                gated = "share a root" in str(exc)
            assert gated == (want < 1e-12)
            seen[gated] += 1
    assert min(seen.values()) > 50


def test_kappa_dot_clifford():
    data = families.clifford_spectral_data()
    k0d, k1d = flow.kappa_dot(data, _poly(1.0))
    # with constant b and c the two marked points move at the same rate
    assert abs(k0d + 2.0 * math.sqrt(2.0)) < 1e-12
    assert abs(k1d + 2.0 * math.sqrt(2.0)) < 1e-12


def test_kappa_dot_singular_at_b_root():
    data = sp.SpectralData(
        la.RealPolynomial(np.array([1.0])),
        la.RealPolynomial(np.array([-1.0, 1.0])),  # b vanishes at kappa0 = 1
        1.0,
        -1.0,
    )
    with pytest.raises(PreconditionError):
        flow.kappa_dot(data, _poly(1.0))


def test_b_root_basis(revolution_quarter):
    roots = flow.b_root_basis(revolution_quarter)
    assert len(roots) == 1
    assert abs(roots[0].value) < 1e-12


def test_branch_target_unit_rate(revolution_quarter):
    c = flow.build_c_branch_target(revolution_quarter, 0)
    rate = flow.delta_dot(revolution_quarter, c, 0.0)
    assert abs(rate - 1.0) < 1e-8


@pytest.mark.parametrize("sinh", [1e-4, 1e-8])
def test_branch_target_unit_rate_near_delta_minus_two(sinh):
    # a = k^2 + 1/4, b = b1 k with ln mu(0) = i(pi - sinh): the supplier's
    # sinh ln mu at t = 0 is sinh ln mu itself, not sqrt(Delta^2/4 - 1), whose
    # cancellation cost 1e-9 of the rate at sinh ~ 1e-4 and raised at 1e-8
    b2 = 1.0 - sinh / math.pi
    data = sp.SpectralData(_poly(0.25, 0.0, 1.0), _poly(0.0, 0.75 * b2), 1.6, -1.6)
    rate = flow.delta_dot(data, flow.build_c_branch_target(data, 0), 0.0)
    assert abs(rate - 1.0) < 1e-12


def test_branch_target_on_two_real_roots_of_b():
    # Moebius-moved rotational data: b has two real roots, so c carries the
    # factor of the other root; the product over the other roots is the reference
    data = sp.mobius_transform_data(
        families.revolution_family(families.RevolutionParams(0.5, 0.25))[0], 0.4)
    betas = [r.value.real for r in flow.b_root_basis(data)]
    assert np.allclose(betas, [-0.42279, 2.36522], atol=1e-5)
    for i, beta in enumerate(betas):
        c = flow.build_c_branch_target(data, i)
        for j, other in enumerate(betas):
            assert abs(flow.delta_dot(data, c, other) - (i == j)) < 1e-12
        lnmu, nu_val = sp.lnmu_at(data, beta)
        (other,) = [r for j, r in enumerate(betas) if j != i]
        want = nu_val / (4j * math.pi * np.sinh(lnmu) * (beta - other)) * np.array([-other, 1.0])
        assert np.max(np.abs(c.coeffs - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha", [0.0, 1e-18])
def test_branch_target_guard_fires_on_a_node(monkeypatch, alpha):
    # a = k^2 + alpha has a node at k = 0, the root of b, or two roots 1e-9
    # from it; a' vanishes there too, and the guard fires before any ln mu
    data, _ = families.revolution_family(families.RevolutionParams(0.5, alpha))

    def no_lnmu(*args):
        raise AssertionError("ln mu taken on a root of a")

    monkeypatch.setattr(sp, "lnmu_at", no_lnmu)
    with pytest.raises(PreconditionError, match="a root of b coincides with a root of a"):
        flow.branch_target_supplier(data, 0)(data, 0.0)


def test_branch_target_builds_c_once_per_stage(monkeypatch):
    data, _ = families.revolution_family(families.RevolutionParams(0.7, 0.4))
    branch_c, built = flow._branch_c, []
    monkeypatch.setattr(flow, "_branch_c", lambda *a: built.append(1) or branch_c(*a))
    traj, status = flow.flow_integrate(data, flow.branch_target_supplier(data, 0), 0.01)
    assert status["completed"] and status["rhs_evals"] == 21
    assert len(built) == status["rhs_evals"]


def test_delta_dot_finite_difference(revolution_quarter):
    data = revolution_quarter
    c = _poly(0.05, 0.02)
    kappa = 0.35
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
    fd = (sp.delta(bumped, kappa) - sp.delta(data, kappa)) / h
    assert abs(fd - flow.delta_dot(data, c, kappa)) < 1e-4


def test_flow_zero_field_is_stationary(revolution_quarter):
    traj, status = flow.flow_integrate(
        revolution_quarter, lambda d, t: _poly(0.0), 0.01, dt0=5e-3
    )
    assert status["completed"]
    final = traj[-1].data
    assert np.max(np.abs(final.a.coeffs - revolution_quarter.a.coeffs)) < 1e-12
    assert abs(final.kappa0 - revolution_quarter.kappa0) < 1e-12


def test_flow_preserves_conditions(revolution_quarter):
    c = flow.build_c_branch_target(revolution_quarter, 0)
    scale = 0.1 / max(np.max(np.abs(c.coeffs)), 1e-300)
    c_small = la.RealPolynomial(scale * c.coeffs)
    traj, status = flow.flow_integrate(
        revolution_quarter,
        lambda d, t: c_small,
        0.02,
        dt0=5e-3,
        monitor_tol=1e-6,
    )
    assert status["completed"]
    final = traj[-1]
    assert final.monitors["res_C0"] < 1e-6
    assert final.monitors["res_C1"] < 1e-6
    assert final.monitors["res_B"] < 1e-6
    # the flow moved the data
    assert np.max(np.abs(final.data.a.coeffs - revolution_quarter.a.coeffs)) > 1e-6


def test_flow_reuses_step_monitors(revolution_quarter, monkeypatch):
    # each sample target keeps the monitors its last accepted step computed
    c = flow.build_c_branch_target(revolution_quarter, 0)
    c_small = la.RealPolynomial(0.1 / np.max(np.abs(c.coeffs)) * c.coeffs)
    monitors = flow._monitors
    seen = []

    def counting(data, *args, **kwargs):
        seen.append(flow._pack(data))
        return monitors(data, *args, **kwargs)

    monkeypatch.setattr(flow, "_monitors", counting)
    traj, status = flow.flow_integrate(
        revolution_quarter, lambda d, t: c_small, 0.01, dt0=5e-3, sample_times=[0.005]
    )
    assert status["completed"] and len(traj) == 3
    assert len(seen) >= 3
    assert not any(np.array_equal(p, q) for p, q in zip(seen, seen[1:]))
    for row in traj:
        assert row.monitors == monitors(row.data)


def test_flow_stops_after_repeated_monitor_rejections(revolution_quarter, monkeypatch):
    # the zero driver's steps have error estimate 0; monitors that reject every
    # step after the initial state halve dt until the 41st rejection stops the flow
    calls = []

    def rejecting(data):
        calls.append(data)
        worst = 0.0 if len(calls) == 1 else 1.0
        return {"res_C0": worst, "res_C1": worst, "res_B": worst}

    monkeypatch.setattr(flow, "_monitors", rejecting)
    traj, status = flow.flow_integrate(revolution_quarter, lambda d, t: _poly(0.0), 0.01)
    assert status == {
        "completed": False,
        "reason": "step size collapsed under monitor rejections",
        "t_reached": 0.0,
        "rhs_evals": 41 * 7,
        "steps_accepted": 0,
        "rejected_error": 0,
        "rejected_monitor": 41,
    }
    assert len(traj) == 1 and len(calls) == 42


def test_flow_rejects_nonpositive_time(revolution_quarter):
    with pytest.raises(PreconditionError):
        flow.flow_integrate(revolution_quarter, lambda d, t: _poly(0.0), 0.0)


def test_trajectory_csv(revolution_quarter, tmp_path):
    traj, status = flow.flow_integrate(
        revolution_quarter, lambda d, t: _poly(0.0), 0.01, dt0=5e-3
    )
    path = str(tmp_path / "traj.csv")
    flow.trajectory_to_csv(traj, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    g = revolution_quarter.g
    assert lines[0].startswith("t,a0")
    assert len(lines[0].split(",")) == 1 + (2 * g + 1) + (g + 2) + 6
    assert len(lines) == 1 + len(traj)


def _recording_find_roots(monkeypatch):
    """Record (caller name, caller's self) of every la.find_roots call."""
    find_roots, calls = la.find_roots, []

    def recording(p):
        caller = sys._getframe(1)
        calls.append((caller.f_code.co_name, caller.f_locals.get("self")))
        return find_roots(p)

    monkeypatch.setattr(la, "find_roots", recording)
    return calls


def test_branch_target_flow_counts(monkeypatch):
    # ln mu once at t = 0 (the anchor of Delta(beta(t)) = Delta0 + t) and twice
    # per monitor evaluation; each stage solves only b, and (k^2+1)a never
    data, _ = families.revolution_family(families.RevolutionParams(0.7, 0.4))
    lnmu_at, monitors = sp.lnmu_at, flow._monitors
    n_lnmu, n_mon = [], []
    monkeypatch.setattr(sp, "lnmu_at", lambda *a: n_lnmu.append(1) or lnmu_at(*a))
    monkeypatch.setattr(flow, "_monitors", lambda d: n_mon.append(1) or monitors(d))
    roots = _recording_find_roots(monkeypatch)
    traj, status = flow.flow_integrate(
        data, flow.branch_target_supplier(data, 0), 0.01, sample_times=[0.005]
    )
    assert status["completed"] and status["steps_accepted"] == 3
    assert len(n_mon) == 1 + status["steps_accepted"]
    assert len(n_lnmu) == 1 + 2 * len(n_mon)
    names = [name for name, _ in roots]
    assert set(names) == {"a_roots", "b_roots"}
    assert names.count("b_roots") == 1 + status["rhs_evals"]  # the anchor's curve, each stage
    assert names.count("a_roots") == len(n_mon)


def test_each_curve_solves_a_once(monkeypatch, tmp_path):
    roots = _recording_find_roots(monkeypatch)
    base = ["--family", "revolution", "--H", "0.3", "--alpha", "0.3"]
    assert cli.main(["check", *base]) == cli.EXIT_OK
    assert cli.main(["delta", *base, "--samples", "21", "--out", str(tmp_path / "d.csv")]) == 0
    assert cli.main(["flow", *base, "--target-branch", "0", "--t-final", "0.005",
                     "--samples", "1", "--out", str(tmp_path / "t.csv")]) == cli.EXIT_OK
    solved = [owner for name, owner in roots if name == "a_roots"]
    assert solved and all(isinstance(d, sp.SpectralData) for d in solved)
    assert len({id(d) for d in solved}) == len(solved)
    assert {name for name, _ in roots} <= {"a_roots", "b_roots"}


def test_branch_points_are_the_roots_of_a_and_pm_i(rng):
    # the roots find_roots gives for (k^2+1)a, up to the order of +-i, which
    # find_roots takes from the rounding in their real parts
    def curve(roots):
        a = np.polynomial.polynomial.polyfromroots(roots).real
        return sp.SpectralData(la.RealPolynomial(a), _poly(1.0), 1.5, -0.5)

    pairs = rng.uniform(-2, 2, (4, 2)) + 1j * rng.uniform(0.2, 2, (4, 2))
    curves = [curve(np.concatenate([z, z.conj()])) for z in pairs]
    curves += [curve([-0.5, 0.8]), curve([1.0, 1.0]), curve([0.5j, -0.5j, 1j, -1j])]
    for data in curves:
        want = sorted(la.find_roots(data.p_coeffs), key=lambda r: sp.plane_key(r.value))
        got = sorted(data.branch_points, key=lambda r: sp.plane_key(r.value))
        assert [(r.multiplicity, r.is_real) for r in got] == [
            (r.multiplicity, r.is_real) for r in want]
        assert np.allclose([r.value for r in got], [r.value for r in want], atol=1e-9)
    nodes = sorted(curves[-1].branch_points, key=lambda r: sp.plane_key(r.value))
    assert [r.multiplicity for r in nodes] == [2, 1, 1, 2]  # -i, -i/2, i/2, i


def test_flow_integrate_rejects_nan_t_final(revolution_quarter):
    with pytest.raises(PreconditionError, match="t_final must be positive"):
        flow.flow_integrate(revolution_quarter, lambda d, t: _poly(0.0), math.nan)
