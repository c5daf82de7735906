import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcs3 import families, loop_algebra as la
from cmcs3.errors import InconsistencyError, PreconditionError


def test_flat_xi_value_at_one(flat_pi4):
    xi, marked = flat_pi4
    val = la.evaluate(xi, np.array([1.0 + 0j]))[0]
    assert np.allclose(val, np.array([[0.0, 1j], [1j, 0.0]]))


def test_reality_check_examples(delaunay_xi):
    ok, worst = la.reality_check(families.sphere_xi())
    assert ok and worst < 1e-14
    ok, _ = la.reality_check(delaunay_xi)
    assert ok
    # broken symmetry: constant coefficient eps_+ only
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[0] = la.EPS_PLUS
    coeffs[1] = la.EPS_PLUS
    coeffs[2] = la.EPS_MINUS
    bad = la.LaurentMatrix(1, coeffs, validate=False)
    ok, _ = la.reality_check(bad)
    assert not ok


def test_semisimplicity_examples(delaunay_xi):
    assert la.semisimplicity_check(delaunay_xi)
    assert not la.semisimplicity_check(families.sphere_xi())
    zero = la.LaurentMatrix(1, np.zeros((3, 2, 2), dtype=complex), validate=False)
    assert not la.semisimplicity_check(zero)


def test_det_polynomial_flat(flat_pi4):
    xi, _ = flat_pi4
    a_lam, a_kappa = la.det_polynomial(xi)
    a_lam = np.asarray(a_lam)
    # -lam det xi = -(1+lam)^2/4
    assert np.allclose(a_lam, [-0.25, -0.5, -0.25], atol=1e-12)
    roots = la.find_roots(a_lam)
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    assert abs(roots[0].value + 1.0) < 1e-8


def test_det_polynomial_delaunay(delaunay_xi, delaunay_params):
    a_lam, a_kappa = la.det_polynomial(delaunay_xi)
    ar, br = delaunay_params.a_r, delaunay_params.b_r
    expected = -npoly.polymul([ar, br], [br, ar])
    assert np.allclose(np.asarray(a_lam), expected, atol=1e-12)
    roots = sorted(r.value.real for r in la.find_roots(a_lam))
    assert np.allclose(roots, [-br / ar, -ar / br], atol=1e-10)
    for r in la.find_roots(a_lam):
        assert r.is_real and r.multiplicity == 1


def test_det_polynomial_sphere():
    a_lam, _ = la.det_polynomial(families.sphere_xi())
    assert np.allclose(np.asarray(a_lam), [0.0, -1.0], atol=1e-12)


def test_mobius_point_round_trip():
    for lam in np.exp(1j * np.linspace(0.1, 6.0, 7)):
        k = la.mobius_to_kappa(lam)
        assert abs(k.imag) < 1e-12  # unit circle -> real axis
        assert abs(la.mobius_to_lambda(k) - lam) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(-20, 20).filter(lambda x: abs(x) > 1e-6))
def test_mobius_kappa_round_trip(k):
    lam = la.mobius_to_lambda(k)
    assert abs(la.mobius_to_kappa(lam) - k) < 1e-8 * max(1.0, abs(k) ** 2)


def test_polynomial_kappa_lambda_round_trip(rng):
    g = 2
    a_kappa = rng.standard_normal(2 * g + 1)
    a_lam = la.poly_kappa_to_lambda(a_kappa, g)
    back = np.asarray(la.poly_lambda_to_kappa(np.asarray(a_lam), g))
    ratio = back / a_kappa
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9 * max(1.0, np.max(np.abs(ratio)))


def test_find_roots_double_root():
    roots = la.find_roots(np.array([1.0, 2.0, 1.0]))  # (1+lam)^2
    assert len(roots) == 1
    r = roots[0]
    assert r.multiplicity == 2 and r.is_real


def test_find_roots_conjugate_pair():
    roots = la.find_roots(np.array([0.25, 0.0, 1.0]))  # kappa^2 + 1/4
    vals = sorted(r.value.imag for r in roots)
    assert np.allclose(vals, [-0.5, 0.5], atol=1e-12)
    assert all(not r.is_real for r in roots)


def test_find_roots_merged_double_roots_are_conjugates():
    # (kappa^2 + 1/2)^2: the Newton polish moves the two members of each
    # double root apart unevenly (one by ~6e-9), so a merged root is the mean
    # of the unpolished members
    q = np.array([0.5, 0.0, 1.0])
    roots = la.find_roots(npoly.polymul(q, q))
    assert [r.multiplicity for r in roots] == [2, 2]
    lower, upper = sorted((r.value for r in roots), key=lambda z: z.imag)
    assert abs(upper - lower.conjugate()) < 1e-14
    assert all(abs(abs(z) ** 2 - 0.5) < 1e-14 for z in (lower, upper))


def test_find_roots_singletons_keep_polished_values():
    c = np.array([0.3, -1.1, 0.4, 0.7, 1.0], dtype=complex)
    polished = la._newton_polish(c, npoly.polyroots(c))
    polished = polished[np.lexsort((polished.imag, polished.real))]
    roots = la.find_roots(c.real)
    assert [r.multiplicity for r in roots] == [1, 1, 1, 1]
    for r, z in zip(roots, polished):
        assert r.value == (complex(z.real, 0.0) if r.is_real else complex(z))


def test_divide_root_inverts_scalar_lift(delaunay_xi):
    beta = 0.2 + 0.1j
    factor = la.root_removal_factor(beta)
    g2 = delaunay_xi.g + 2
    coeffs = np.zeros((g2 + 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            prod = npoly.polymul(delaunay_xi.entry_poly(i, j), factor)
            coeffs[: prod.size, i, j] = prod
    lifted = la.LaurentMatrix(g2, coeffs)
    # the lifted field vanishes at beta and at 1/conj(beta)
    for point in (beta, 1.0 / np.conj(beta)):
        assert np.max(np.abs(la.evaluate(lifted, complex(point)))) < 1e-10
    reduced = la.divide_root(lifted, beta)
    assert reduced.g == delaunay_xi.g
    assert np.max(np.abs(reduced.coeffs - delaunay_xi.coeffs)) < 1e-10


def test_root_removal_factor_reality():
    for alpha in (0.3 + 0.4j, np.exp(0.7j), -0.2):
        c = np.asarray(la.root_removal_factor(alpha), dtype=complex)
        deg = len(c) - 1
        rev = np.conj(c[::-1])
        assert np.max(np.abs(rev - c)) < 1e-12


def test_dressing_determinant_identity(delaunay_xi):
    beta = 0.35 - 0.2j
    a0 = np.asarray(la.det_polynomial(delaunay_xi)[0])
    dressed = la.dress_simple_factor(delaunay_xi, beta)
    a1 = np.asarray(la.det_polynomial(dressed)[0])
    quad = npoly.polymul([-beta, 1.0], [1.0, -np.conj(beta)])
    expect = npoly.polymul(npoly.polymul(a0, quad), quad)
    assert np.max(np.abs(a1 - expect)) < 1e-10


def test_dressing_rejects_bad_point(delaunay_xi):
    with pytest.raises(PreconditionError):
        la.dress_simple_factor(delaunay_xi, 1.5)
    with pytest.raises(PreconditionError):
        la.dress_simple_factor(delaunay_xi, 0.0)


def test_isospectral_tangent_delaunay(delaunay_xi, delaunay_params):
    alpha = -delaunay_params.a_r / delaunay_params.b_r
    tangent = la.isospectral_tangent(delaunay_xi, alpha)
    # directional determinant derivative: det(xi + h xidot) ~ a + h * 2a/(lam-alpha)
    h = 1e-6
    bumped = la.LaurentMatrix(
        delaunay_xi.g, delaunay_xi.coeffs + h * tangent.coeffs, validate=False
    )
    a0 = np.asarray(la.det_polynomial(delaunay_xi)[0])
    a1 = np.asarray(la.det_polynomial(bumped, tol=1e-3)[0])
    adot_fd = (a1 - a0) / h
    adot_expect = 2.0 * npoly.polydiv(a0, np.array([-alpha, 1.0]))[0]
    pad = np.zeros_like(adot_fd)
    pad[: adot_expect.size] = adot_expect
    assert np.max(np.abs(adot_fd - pad)) < 1e-4


def test_isospectral_tangent_rejects_vanishing(delaunay_xi):
    beta = 0.2 + 0.1j
    factor = la.root_removal_factor(beta)
    g2 = delaunay_xi.g + 2
    coeffs = np.zeros((g2 + 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            prod = npoly.polymul(delaunay_xi.entry_poly(i, j), factor)
            coeffs[: prod.size, i, j] = prod
    lifted = la.LaurentMatrix(g2, coeffs)
    with pytest.raises(PreconditionError):
        la.isospectral_tangent(lifted, beta)  # the field vanishes at beta


def test_laurent_json_round_trip(delaunay_xi):
    obj = delaunay_xi.to_json()
    back = la.LaurentMatrix.from_json(obj)
    assert back.g == delaunay_xi.g
    assert np.max(np.abs(back.coeffs - delaunay_xi.coeffs)) < 1e-15


def test_real_polynomial_keeps_a_read_only_copy():
    # the degree is worked out once, so the coefficients must not change
    # under it; the caller's array stays the caller's, and writable
    given = np.array([1.0, 2.0, 0.0])
    p = la.RealPolynomial(given)
    assert p.degree == 1 and not p.coeffs.flags.writeable
    given[2] = 5.0
    assert given.flags.writeable and p.degree == 1 and p.coeffs[2] == 0.0
    with pytest.raises(ValueError):
        p.coeffs[2] = 5.0
    assert la.RealPolynomial(np.zeros(2)).degree == -1
