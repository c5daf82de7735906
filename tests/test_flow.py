import math

import numpy as np
import pytest

from cmcs3 import families, flow, loop_algebra as la, spectral as sp
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
        revolution_quarter, lambda d: _poly(0.0), 0.01, dt0=5e-3
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
        lambda d: c_small,
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
        revolution_quarter, lambda d: c_small, 0.01, dt0=5e-3, sample_times=[0.005]
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
    traj, status = flow.flow_integrate(revolution_quarter, lambda d: _poly(0.0), 0.01)
    assert status == {
        "completed": False,
        "reason": "step size collapsed under monitor rejections",
        "t_reached": 0.0,
    }
    assert len(traj) == 1 and len(calls) == 42


def test_flow_rejects_nonpositive_time(revolution_quarter):
    with pytest.raises(PreconditionError):
        flow.flow_integrate(revolution_quarter, lambda d: _poly(0.0), 0.0)


def test_trajectory_csv(revolution_quarter, tmp_path):
    traj, status = flow.flow_integrate(
        revolution_quarter, lambda d: _poly(0.0), 0.01, dt0=5e-3
    )
    path = str(tmp_path / "traj.csv")
    flow.trajectory_to_csv(traj, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    g = revolution_quarter.g
    assert lines[0].startswith("t,a0")
    assert len(lines[0].split(",")) == 1 + (2 * g + 1) + (g + 2) + 6
    assert len(lines) == 1 + len(traj)
