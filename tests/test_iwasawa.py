import numpy as np
import pytest

from cmcs3 import families, iwasawa as iw, loop_algebra as la
from cmcs3.errors import ConvergenceError, PreconditionError


def _circle(n, start=0.1):
    return np.exp(1j * (start + np.linspace(0.0, 2 * np.pi, n, endpoint=False)))


def test_expm_traceless_vs_series():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    a -= 0.5 * np.trace(a, axis1=-2, axis2=-1)[:, None, None] * np.eye(2)
    out = iw.expm_traceless(a)
    for k in range(5):
        term = np.eye(2, dtype=complex)
        ref = np.eye(2, dtype=complex)
        for j in range(1, 30):
            term = term @ a[k] / j
            ref = ref + term
        assert np.max(np.abs(out[k] - ref)) < 1e-12


def test_exp_loop_matches_pointwise(flat_pi4):
    xi, _ = flat_pi4
    z = 0.7 - 0.2j
    loop = iw.exp_loop(xi, z)
    lam = _circle(11)
    direct = iw.expm_traceless(z * la.evaluate(xi, lam))
    assert np.max(np.abs(loop.evaluate(lam) - direct)) < 1e-10


def test_frame_at_origin_is_identity(delaunay_xi):
    fp = iw.frame(delaunay_xi, 0.0)
    lam = _circle(5)
    assert np.max(np.abs(fp.f.evaluate(lam) - np.eye(2))) < 1e-14
    assert np.max(np.abs(fp.b.evaluate(lam) - np.eye(2))) < 1e-14


def test_flat_frame_matches_closed_form(flat_pi4):
    xi, _ = flat_pi4
    lam = _circle(8)
    for z in (0.3, 0.25 - 0.4j, -0.6 + 0.1j):
        fp = iw.frame(xi, z)
        ref = families.flat_frame(z, lam)
        assert np.max(np.abs(fp.f.evaluate(lam) - ref)) < 1e-8


def test_factorization_properties(delaunay_xi):
    fp = iw.frame(delaunay_xi, 0.4 + 0.3j)
    assert fp.unitarity_defect < 1e-9
    assert fp.reconstruction_defect < 1e-9
    # the positive factor is a power series in lam with normalized constant term
    for k in range(1, fp.b.n + 1):
        assert np.max(np.abs(fp.b.coeff(-k))) < 1e-9
    b0 = fp.b.coeff(0)
    assert abs(b0[1, 0]) < 1e-9
    assert b0[0, 0].real > 0 and abs(b0[0, 0].imag) < 1e-9
    assert b0[1, 1].real > 0 and abs(b0[1, 1].imag) < 1e-9
    # unitary factor really is unitary on the circle
    lam = _circle(16)
    f = fp.f.evaluate(lam)
    assert np.max(np.abs(f @ np.conj(np.swapaxes(f, -1, -2)) - np.eye(2))) < 1e-9


def test_killing_field_at_origin(delaunay_xi):
    zeta = iw.killing_field(delaunay_xi, 0.0)
    assert np.max(np.abs(zeta.coeffs - delaunay_xi.coeffs)) < 1e-10


def test_killing_field_constant_on_real_axis(delaunay_xi):
    # exp(x xi) is unitary for real x, so the transported field equals xi there
    for x in (0.5, 1.3):
        zeta = iw.killing_field(delaunay_xi, x)
        assert np.max(np.abs(zeta.coeffs - delaunay_xi.coeffs)) < 1e-8


def test_delaunay_zeta_closed_form(delaunay_xi, delaunay_params):
    # the closed-form profile runs along the negative imaginary axis
    x = 0.37
    zeta = iw.killing_field(delaunay_xi, -1j * x)
    for lam in _circle(6):
        ref = families.delaunay_zeta(x, lam, delaunay_params)
        num = la.evaluate(zeta, complex(lam))
        assert np.max(np.abs(num - ref)) < 1e-6


def test_killing_field_preserves_determinant(delaunay_xi):
    zeta = iw.killing_field(delaunay_xi, 0.3 + 0.2j)
    a0 = np.asarray(la.det_polynomial(delaunay_xi)[0])
    a1 = np.asarray(la.det_polynomial(zeta)[0])
    assert np.max(np.abs(a0 - a1)) < 1e-8


def test_clifford_monodromy(flat_pi4):
    xi, marked = flat_pi4
    tau = np.pi * np.sqrt(2.0)
    loop, delta = iw.monodromy(xi, tau)
    for lam in (1j, -1j):
        m = loop.evaluate(np.array([lam]))[0]
        assert np.max(np.abs(m + np.eye(2))) < 1e-6
        assert abs(delta(np.array([lam]))[0] + 2.0) < 1e-6
    # the monodromy commutes with the matrix polynomial on the circle
    lam = _circle(12)
    m = loop.evaluate(lam)
    x = la.evaluate(xi, lam)
    assert np.max(np.abs(m @ x - x @ m)) < 1e-6


def test_sphere_ode_route():
    lam = np.exp(0.4j)
    for z in (0.3, 0.5 - 0.25j):
        f_ode = iw.integrate_frame_ode(families.sphere_alpha, z, lam)
        ref = families.sphere_frame(z, np.array([lam]))[0]
        assert np.max(np.abs(f_ode - ref)) < 1e-8


def test_flat_ode_route():
    lam = np.exp(-0.7j)
    z = 0.4 + 0.3j
    f_ode = iw.integrate_frame_ode(families.flat_alpha, z, lam)
    ref = families.flat_frame(z, np.array([lam]))[0]
    assert np.max(np.abs(f_ode - ref)) < 1e-8


def test_flat_mu_exponent_diagonalizes_frame(flat_pi4):
    z = 0.9 - 0.2j
    for lam in _circle(5):
        f = families.flat_frame(z, np.array([lam]))[0]
        mu = families.flat_mu_exponent(z, lam)
        ev = np.sort_complex(np.linalg.eigvals(f))
        expect = np.sort_complex(np.array([np.exp(mu), np.exp(-mu)]))
        assert np.max(np.abs(ev - expect)) < 1e-10


def test_fourier_loop_round_trip():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    loop = iw.FourierLoop(2, coeffs)
    samples = loop.samples(32)
    back = iw.loop_from_samples(samples)
    lam = _circle(7)
    assert np.max(np.abs(back.evaluate(lam) - loop.evaluate(lam))) < 1e-12


def test_stacked_factorization_matches_single_loops(delaunay_xi):
    zs = np.array([0.3 + 0.2j, -0.8 + 1.1j, 1.4 - 0.6j])
    phi = iw.exp_loop(delaunay_xi, zs)
    assert phi.coeffs.shape[0] == 3
    f, b, unit, recon = iw.iwasawa_factor(phi)
    assert unit.shape == recon.shape == (3,)
    lam = _circle(9)
    f_vals, b_vals = f.evaluate(lam), b.evaluate(lam)
    assert f_vals.shape == b_vals.shape == (3, 9, 2, 2)
    for k, z in enumerate(zs):
        fp = iw.frame(delaunay_xi, z)
        assert np.max(np.abs(f_vals[k] - fp.f.evaluate(lam))) < 1e-11
        assert np.max(np.abs(b_vals[k] - fp.b.evaluate(lam))) < 1e-11
        assert unit[k] < 1e-9 and recon[k] < 1e-9


def test_stacked_failure_carries_worst_residual(delaunay_xi):
    # Delaunay(0.3, 0.5) frames fail past Im z ~ 6.6; one bad loop fails the stack
    with pytest.raises(ConvergenceError) as single:
        iw.frame(delaunay_xi, 0.5 + 7.5j)
    phi = iw.exp_loop(delaunay_xi, np.array([0.5 + 1j, 0.5 + 7.5j]))
    with pytest.raises(ConvergenceError) as stacked:
        iw.iwasawa_factor(phi)
    assert stacked.value.residual > 1e-9
    assert stacked.value.residual == pytest.approx(single.value.residual, rel=1e-3)


def test_frame_values_spans_chunks(delaunay_xi, monkeypatch):
    zs = 0.2 + 0.15j + 0.1 * (np.arange(24) % 6) + 0.1j * (np.arange(24) // 6)
    lams = np.array([1j, -1j])
    whole, unit, recon = iw.frame_values(delaunay_xi, zs, lams)
    chunk_sizes = []
    factor = iw.iwasawa_factor

    def counted(phi, **kw):
        chunk_sizes.append(phi.coeffs.shape[0])
        return factor(phi, **kw)

    n_far = iw.exp_loop(delaunay_xi, zs[-1]).n
    monkeypatch.setattr(iw, "_STACK_BYTES", 5 * iw._stack_bytes(n_far))
    monkeypatch.setattr(iw, "iwasawa_factor", counted)
    chunked, unit_c, recon_c = iw.frame_values(delaunay_xi, zs, lams)
    assert chunk_sizes == [5, 5, 5, 5, 4]
    assert np.max(np.abs(chunked - whole)) < 1e-11
    assert np.max(unit_c) < 1e-9 and np.max(recon_c) < 1e-9
    for k in (0, 11, 23):
        ref = iw.frame(delaunay_xi, zs[k]).f.evaluate(lams)
        assert np.max(np.abs(chunked[k] - ref)) < 1e-11


def test_transport_shares_the_frame(delaunay_xi):
    z = 0.4 - 0.7j
    fp = iw.frame(delaunay_xi, z)
    zeta, resid = iw.transport(delaunay_xi, fp)
    assert resid < 1e-10
    assert np.array_equal(zeta.coeffs, iw.killing_field(delaunay_xi, z).coeffs)
    # F(z0 + w) = F(z0) F_zeta(w)
    w = 0.3 + 0.25j
    lam = _circle(7)
    composed = iw.mul2(fp.f.evaluate(lam), iw.frame(zeta, w).f.evaluate(lam))
    assert np.max(np.abs(composed - iw.frame(delaunay_xi, z + w).f.evaluate(lam))) < 1e-10


def test_mul2_matches_matmul():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
    b = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    assert np.max(np.abs(iw.mul2(a, b) - a @ b)) < 1e-14
    assert np.max(np.abs(iw.mul2(iw.inv2_general(b), b) - np.eye(2))) < 1e-12


def test_flat_frame_vectorized_bit_identical():
    lams = np.array([1j, -1j, np.exp(0.3j)])
    zs = np.array([[0.3 - 1.2j, 2.5 + 0.1j], [-1.7 + 0.4j, 0.0]])
    for closed in (families.flat_frame, families.sphere_frame):
        stacked = closed(zs, lams)
        assert stacked.shape == (2, 2, 3, 2, 2)
        for idx, z in np.ndenumerate(zs):
            assert np.array_equal(stacked[idx], closed(complex(z), lams))
