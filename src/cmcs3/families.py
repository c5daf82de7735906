"""Closed-form example families and their spectral data.

Spheres, flat cylinders (including the Clifford torus), Delaunay surfaces,
and the genus <= 1 rotational family.  These supply the oracles for the
numerical pipeline: closed-form frames, printed matrix polynomials, Jacobi
elliptic conformal factors, and spectral data with explicit closing values.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import iwasawa
from . import loop_algebra as la
from .errors import DomainError, PreconditionError
from .immersion import MarkedPoints
from .spectral import SpectralData

# ---------------------------------------------------------------------------
# Jacobi elliptic kernel (descending Landen / arithmetic-geometric mean)
# ---------------------------------------------------------------------------


def elliptic_k(m):
    """Complete elliptic integral K(m) (parameter m = modulus^2) via AGM."""
    if not 0.0 <= m < 1.0:
        raise DomainError(f"parameter m must lie in [0, 1), got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    # The iterates can stall one or two ulps apart, so cap the loop as well.
    for _ in range(64):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def jacobi_sn_cn_dn(u, m):
    """Jacobi elliptic sn, cn, dn via the AGM scale and Landen back-recursion.

    Implements the classical descending transformation: run the AGM until the
    deviation c_n collapses, seed the amplitude at the top level, and fold it
    back down.  Absolute error is a few ulps away from 1e-15 for m bounded
    away from 1.
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"parameter m must lie in [0, 1), got {m}")
    if m < 1e-14:
        return math.sin(u), math.cos(u), 1.0
    a = [1.0]
    b = math.sqrt(1.0 - m)
    c = [math.sqrt(m)]
    while abs(c[-1]) > 1e-16:
        a_next = 0.5 * (a[-1] + b)
        b_next = math.sqrt(a[-1] * b)
        c.append(0.5 * (a[-1] - b))
        a.append(a_next)
        b = b_next
        if len(a) > 40:
            break
    n = len(a) - 1
    phi = (2.0**n) * a[n] * u
    phis = [phi]
    for k in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, c[k] / a[k] * math.sin(phi)))))
        phis.append(phi)
    phi0 = phis[-1]
    sn = math.sin(phi0)
    cn = math.cos(phi0)
    # dn = cn / cos(phi1 - phi0) is 0/0 at quarter periods; the algebraic
    # identity below is stable and positive throughout m < 1.
    dn = math.sqrt(max(0.0, 1.0 - m * sn * sn))
    return sn, cn, dn


def jacobi_dn(u, m):
    """dn(u | m) for 0 <= m < 1."""
    return jacobi_sn_cn_dn(u, m)[2]


# ---------------------------------------------------------------------------
# Spheres
# ---------------------------------------------------------------------------


def sphere_xi():
    """Initial value of the round sphere (fails the semisimplicity check)."""
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[0] = la.EPS_PLUS
    coeffs[2] = -la.EPS_MINUS
    return la.LaurentMatrix(1, coeffs)


def _z_against_lam(z, lam):
    """z and lam as arrays, z given trailing axes so it broadcasts against lam."""
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    return z.reshape(z.shape + (1,) * lam.ndim), lam


def sphere_frame(z, lam):
    """Closed-form extended frame of the sphere, shape z.shape + lam.shape + (2, 2)."""
    z, lam = _z_against_lam(z, lam)
    zb = np.conj(z)
    # |z|^2 in real arithmetic rounds like the scalar z * conj(z) of a per-point
    # call; numpy's vectorized complex product can differ in the last bit
    norm = 1.0 / np.sqrt(1.0 + (z.real * z.real + z.imag * z.imag))
    out = np.empty(np.broadcast_shapes(z.shape, lam.shape) + (2, 2), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 0, 1] = z / lam
    out[..., 1, 0] = -lam * zb
    out[..., 1, 1] = 1.0
    return norm[..., None, None] * out


def sphere_u(z):
    """Conformal exponent of the sphere (a Liouville solution)."""
    z = np.asarray(z, dtype=complex)
    return -np.log1p((z * np.conj(z)).real)


def sphere_zeta(z, lam):
    """Printed matrix polynomial of the sphere along the surface."""
    z = complex(z)
    lam = complex(lam)
    zb = np.conj(z)
    return (
        1.0
        / (1.0 + z * zb)
        * np.array(
            [
                [z - zb, (1.0 + z * z) / lam],
                [-lam * (1.0 + zb * zb), zb - z],
            ],
            dtype=complex,
        )
    )


def sphere_alpha(z, lam):
    """Connection form pair (coefficient of dz, of d conj z) for the sphere."""
    z = complex(z)
    zb = np.conj(z)
    d = 1.0 + z * zb
    uz = -zb / d
    uzb = -z / d
    eu = 1.0 / d
    ap = 0.5 * np.array([[uz, 2.0 * eu / lam], [0.0, -uz]], dtype=complex)
    app = 0.5 * np.array([[-uzb, 0.0], [-2.0 * lam * eu, uzb]], dtype=complex)
    return ap, app


# ---------------------------------------------------------------------------
# Flat cylinders and the Clifford torus
# ---------------------------------------------------------------------------


def flat_xi(t0=math.pi / 4):
    """Flat-family initial value and its marked points.

    The marked points are lam_0 = exp(2 i t0) and lam_1 = 1/lam_0, giving
    mean curvature H = cot(2 t0); t0 = pi/4 is the minimal (Clifford) slice
    with marked points +-i.
    """
    lam0 = np.exp(2j * t0)
    if abs(lam0.imag) < 1e-12:
        raise DomainError("marked points collide at lam = +-1 for this t0")
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[0] = 0.5j * la.EPS_PLUS
    coeffs[1] = 0.5j * (la.EPS_PLUS + la.EPS_MINUS)
    coeffs[2] = 0.5j * la.EPS_MINUS
    xi = la.LaurentMatrix(1, coeffs)
    marked = MarkedPoints(complex(lam0), complex(1.0 / lam0))
    return xi, marked


def flat_frame(z, lam):
    """Closed-form flat frame: exp of (i/2)[[0, z/lam + conj z], [z + conj(z) lam, 0]].

    Vectorized over z and lam: the result has shape z.shape + lam.shape + (2, 2).
    """
    z, lam = _z_against_lam(z, lam)
    zb = np.conj(z)
    a = np.zeros(np.broadcast_shapes(z.shape, lam.shape) + (2, 2), dtype=complex)
    a[..., 0, 1] = 0.5j * (z / lam + zb)
    a[..., 1, 0] = 0.5j * (z + zb * lam)
    return iwasawa.expm_traceless(a)


def flat_alpha(z, lam):
    """Connection form pair of the flat family (u = 0)."""
    ap = 0.5 * np.array([[0.0, 1j / lam], [1j, 0.0]], dtype=complex)
    app = 0.5 * np.array([[0.0, 1j], [1j * lam, 0.0]], dtype=complex)
    return ap, app


def flat_mu_exponent(z, lam):
    """Eigenvalue exponent of the flat frame: eigenvalues are exp(+-mu)."""
    z = complex(z)
    root = np.sqrt(np.asarray(lam, dtype=complex))
    return 0.5j * (z / root + np.conj(z) * root)


def clifford_periods():
    """The two simple periods of the Clifford torus."""
    return math.pi * math.sqrt(2.0), 1j * math.pi * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Delaunay surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelaunayParams:
    a_r: float
    b_r: float

    def __post_init__(self):
        if self.a_r <= 0 or self.b_r <= 0:
            raise PreconditionError("Delaunay radii must be positive")
        if 1.0 - (self.a_r / self.b_r) ** 2 >= 1.0:
            raise PreconditionError("modulus m = 1 - a_r^2/b_r^2 must be < 1")

    @property
    def m(self):
        return 1.0 - (self.a_r / self.b_r) ** 2


def delaunay_xi(params):
    """Rotational initial value (a_r/lam + b_r) i eps_+ + (b_r + a_r lam) i eps_-."""
    a, b = params.a_r, params.b_r
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[0] = 1j * a * la.EPS_PLUS
    coeffs[1] = 1j * b * (la.EPS_PLUS + la.EPS_MINUS)
    coeffs[2] = 1j * a * la.EPS_MINUS
    return la.LaurentMatrix(1, coeffs)


def delaunay_v(x, params):
    """Conformal factor v(x) = 2 b_r dn(2 b_r x | 1 - a_r^2/b_r^2)."""
    return 2.0 * params.b_r * jacobi_dn(2.0 * params.b_r * x, params.m)


def delaunay_v_prime(x, params):
    """x-derivative of the conformal factor, via dn' = -m sn cn."""
    b = params.b_r
    m = params.m
    sn, cn, _ = jacobi_sn_cn_dn(2.0 * b * x, m)
    return -4.0 * b * b * m * sn * cn


def delaunay_zeta(x, lam, params):
    """Printed matrix polynomial of the Delaunay family along the axis."""
    lam = complex(lam)
    v = delaunay_v(x, params)
    vp = delaunay_v_prime(x, params)
    ab2 = 2.0 * params.a_r * params.b_r
    return 1j * np.array(
        [
            [-vp / (2 * v), ab2 / (v * lam) + v / 2],
            [ab2 * lam / v + v / 2, vp / (2 * v)],
        ],
        dtype=complex,
    )


def delaunay_period(params):
    """Period of the conformal factor along the axis: 2K(m)/(2 b_r)."""
    return elliptic_k(params.m) / params.b_r


# ---------------------------------------------------------------------------
# Rotational spectral data of genus <= 1 and genus-zero closing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RevolutionParams:
    H: float
    alpha: float

    def __post_init__(self):
        if self.H < 0:
            raise PreconditionError(
                "negative mean curvature is served by orientation flip; pass H >= 0"
            )
        if not 0.0 <= self.alpha < 1.0 - 1e-6:
            raise DomainError("alpha must lie in [0, 1); the boundary is degenerate")


def revolution_family(params):
    """Spectral data of the rotational cylinders with a(kappa) = kappa^2 + alpha.

    Marked points are (kappa_0, -kappa_0) with kappa_0 = H + sqrt(H^2+1) >= 1,
    so the data's oriented mean curvature (1 + kappa_0 kappa_1)/(kappa_0 -
    kappa_1) = (1 - kappa_0^2)/(2 kappa_0) equals -H; the requested H >= 0 is
    realized by an orientation flip (swap the marked points), recorded rather
    than applied.  The exponent polynomial comes from differentiating the
    closed-form logarithm 2 pi i b2 (kappa^2+alpha)/nu, which gives
    b(kappa) = b2 (1 - alpha) kappa.
    """
    if not isinstance(params, RevolutionParams):
        params = RevolutionParams(*params)
    h, alpha = params.H, params.alpha
    kappa0 = h + math.sqrt(h * h + 1.0)
    b2 = math.sqrt((kappa0 * kappa0 + 1.0) / (4.0 * (kappa0 * kappa0 + alpha)))
    a = la.RealPolynomial(np.array([alpha, 0.0, 1.0]))
    b = la.RealPolynomial(np.array([0.0, b2 * (1.0 - alpha)]))
    return SpectralData(a=a, b=b, kappa0=kappa0, kappa1=-kappa0), b2


def genus0_closing(kappa0, b0, b1):
    """Nearest integers (m, n) and residuals of the genus-zero closing system.

    The two conditions read 4 (b0 kappa0 - b1)^2 = n^2 (kappa0^2 + 1) and
    4 (b0 kappa0 + b1)^2 = m^2 (kappa0^2 + 1); simply wrapped cylinders need
    m = n = +-1, which forces b0 b1 kappa0 = 0.
    """
    if kappa0 == 0:
        raise DomainError("kappa0 must be nonzero")
    s = kappa0 * kappa0 + 1.0
    n_sq = 4.0 * (b0 * kappa0 - b1) ** 2 / s
    m_sq = 4.0 * (b0 * kappa0 + b1) ** 2 / s
    n = round(math.sqrt(max(n_sq, 0.0)))
    m = round(math.sqrt(max(m_sq, 0.0)))
    res_n = abs(4.0 * (b0 * kappa0 - b1) ** 2 - n * n * s)
    res_m = abs(4.0 * (b0 * kappa0 + b1) ** 2 - m * m * s)
    return (m, n), (res_m, res_n)


def clifford_spectral_data():
    """Genus-zero data of the Clifford torus: a = 1, b = 1/sqrt(2)."""
    a = la.RealPolynomial(np.array([1.0]))
    b = la.RealPolynomial(np.array([1.0 / math.sqrt(2.0)]))
    return SpectralData(a=a, b=b, kappa0=1.0, kappa1=-1.0)
