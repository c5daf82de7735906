"""Laurent-polynomial 2x2 matrices in the spectral parameter.

The central object is a traceless matrix polynomial

    xi(lam) = xi_{-1} lam^{-1} + xi_0 + ... + xi_g lam^g

whose coefficients satisfy the reality pairing xi_d = -conj(xi_{g-1-d})^T and
whose lam^{-1} coefficient is strictly upper triangular.  This module provides
evaluation, the structural checks, the determinant polynomial, root removal,
simple-factor dressing, tangent vectors to the isospectral set, and the
Moebius change of spectral parameter between lam and kappa.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, InconsistencyError, PreconditionError

EPS_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
EPS_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
EPS = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)

# A numerically double root splits by about sqrt(eps) ~ 1e-8 under the
# companion-matrix solve, so the merge radius must sit above that.
_MERGE_TOL = 1e-6
_CLASS_TOL = 1e-7
_SEMISIMPLE_TOL = 1e-10  # nonzero test of the entries that make xi semisimple
_UNIMODULAR_TOL = 1e-9  # ||alpha| - 1| below this takes the linear removal factor
_DIVISION_TOL = 1e-8  # residuals of root division and tangents, relative to xi


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial with ascending coefficients, held in a read-only copy,
    so the facts worked out from them (the degree) stay true."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float, ndmin=1)
        if c.ndim != 1:
            raise PreconditionError(f"polynomial coefficients must be 1-D, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @cached_property
    def degree(self):
        nz = np.nonzero(np.abs(self.coeffs) > 0)[0]
        return int(nz[-1]) if nz.size else -1

    def trimmed(self, rel_tol=1e-13):
        scale = np.max(np.abs(self.coeffs)) or 1.0
        c = self.coeffs.copy()
        c[np.abs(c) < rel_tol * scale] = 0.0
        nz = np.nonzero(c)[0]
        if nz.size == 0:
            return RealPolynomial(np.zeros(1))
        return RealPolynomial(c[: nz[-1] + 1])

    def __call__(self, x):
        return npoly.polyval(x, self.coeffs)

    def derivative(self):
        return RealPolynomial(npoly.polyder(self.coeffs))


@dataclass(frozen=True)
class SimpleFactorPoint:
    """A dressing point beta strictly inside the punctured unit disk."""

    beta: complex

    def __post_init__(self):
        b = complex(self.beta)
        if not (0.0 < abs(b) < 1.0):
            raise PreconditionError(
                f"simple-factor point must satisfy 0 < |beta| < 1, got |beta| = {abs(b)}"
            )
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True)
class LaurentMatrix:
    """Traceless matrix Laurent polynomial with coefficients xi_{-1} ... xi_g."""

    g: int
    coeffs: np.ndarray  # shape (g+2, 2, 2), entry [d+1] is the lam^d coefficient
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.g + 2, 2, 2):
            raise PreconditionError(
                f"expected {self.g + 2} coefficient matrices, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise PreconditionError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        if self.validate:
            scale = max(np.max(np.abs(c)), 1.0)
            tol = 1e-10 * scale
            if np.max(np.abs(np.trace(c, axis1=1, axis2=2))) > tol:
                raise PreconditionError("coefficients must be traceless")
            low = c[0]
            if max(abs(low[0, 0]), abs(low[1, 0]), abs(low[1, 1])) > tol:
                raise PreconditionError(
                    "the lam^{-1} coefficient must be strictly upper triangular"
                )

    def coeff(self, d):
        """Coefficient matrix of lam^d (zero outside -1..g)."""
        if -1 <= d <= self.g:
            return self.coeffs[d + 1]
        return np.zeros((2, 2), dtype=complex)

    def entry_poly(self, i, j):
        """Ascending coefficients of lam * xi(lam)[i, j] (a true polynomial)."""
        return self.coeffs[:, i, j].copy()

    def scale(self):
        return max(np.max(np.abs(self.coeffs)), 1e-300)

    def to_json(self):
        return {
            "g": self.g,
            "coeffs": [
                [[[float(z.real), float(z.imag)] for z in row] for row in mat]
                for mat in self.coeffs
            ],
        }

    @classmethod
    def from_json(cls, obj, validate=True):
        g = int(obj["g"])
        mats = np.array(
            [[[complex(re, im) for re, im in row] for row in mat] for mat in obj["coeffs"]],
            dtype=complex,
        )
        return cls(g, mats, validate=validate)


def evaluate(xi, lam):
    """Evaluate xi at a nonzero spectral parameter (vectorized over lam)."""
    lam = np.asarray(lam, dtype=complex)
    if np.any(lam == 0):
        raise DomainError("xi has a pole at lam = 0")
    powers = lam[..., None] ** np.arange(-1, xi.g + 1)
    return np.einsum("...d,dij->...ij", powers, xi.coeffs)


def reality_check(xi, tol=1e-10):
    """Check the coefficient pairing xi_d = -conj(xi_{g-1-d})^T.

    Returns (ok, worst entry deviation), with the deviation relative to the
    coefficient scale.
    """
    c = xi.coeffs
    paired = -np.conj(np.transpose(c[::-1], (0, 2, 1)))
    worst = np.max(np.abs(c - paired)) / xi.scale()
    return bool(worst <= tol), float(worst)


def semisimplicity_check(xi):
    """True iff the upper-right of xi_{-1} and lower-left of xi_0 are nonzero."""
    return bool(min(abs(xi.coeff(-1)[0, 1]), abs(xi.coeff(0)[1, 0])) > _SEMISIMPLE_TOL)


def mobius_to_kappa(lam):
    """kappa = i(1 - lam)/(1 + lam); unimodular lam map to real kappa."""
    lam = np.asarray(lam, dtype=complex)
    if np.any(np.abs(1 + lam) < 1e-300):
        raise DomainError("lam = -1 maps to kappa = infinity")
    return 1j * (1 - lam) / (1 + lam)


def mobius_to_lambda(kappa):
    """Inverse parameter change, lam = (i - kappa)/(i + kappa)."""
    kappa = np.asarray(kappa, dtype=complex)
    if np.any(np.abs(1j + kappa) < 1e-300):
        raise DomainError("kappa = -i maps to lam = infinity")
    return (1j - kappa) / (1j + kappa)


def _binomial_substitution(coeffs, total_degree, num, den):
    """Coefficients of sum_j c_j num(x)^j den(x)^(total_degree - j).

    num and den are linear polynomials given as ascending pairs.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros(total_degree + 1, dtype=complex)
    for j, cj in enumerate(coeffs):
        if cj == 0:
            continue
        term = np.array([1.0 + 0j])
        for _ in range(j):
            term = npoly.polymul(term, num)
        for _ in range(total_degree - j):
            term = npoly.polymul(term, den)
        out[: term.size] += cj * term
    return out


def poly_lambda_to_kappa(a_lambda, g):
    """Transform a(lam) (ascending, degree <= 2g) to its kappa form.

    Substitutes lam = (i - kappa)/(i + kappa) and clears denominators with
    (i + kappa)^(2g).  Returns raw complex coefficients; use
    normalize_kappa_form to obtain the real representative.
    """
    # lam^j (i+kappa)^{2g} = (i - kappa)^j (i + kappa)^{2g-j}
    return _binomial_substitution(a_lambda, 2 * g, np.array([1j, -1.0]), np.array([1j, 1.0]))


def poly_kappa_to_lambda(a_kappa, g):
    """Transform a(kappa) (degree <= 2g) back to lam form, up to scale."""
    # kappa^j (1+lam)^{2g} = (i(1-lam))^j (1+lam)^{2g-j}
    return _binomial_substitution(a_kappa, 2 * g, np.array([1j, -1j]), np.array([1.0, 1.0]))


def normalize_kappa_form(raw, tol=1e-8):
    """Turn a complex kappa-form polynomial into its real, sign-fixed version.

    The substitution leaves a global complex scale free.  We rotate the
    largest coefficient onto the real axis, check the imaginary residue, flip
    the sign so the polynomial is nonnegative on the real axis, and finally
    make it monic (the leading coefficient of a nonnegative polynomial of even
    degree is positive, so monic and nonnegative are compatible).
    """
    raw = np.asarray(raw, dtype=complex)
    scale = np.max(np.abs(raw))
    if scale == 0:
        return RealPolynomial(np.zeros(1))
    phase = raw[np.argmax(np.abs(raw))]
    phase /= abs(phase)
    rotated = raw / phase
    resid = np.max(np.abs(rotated.imag)) / scale
    if resid > tol:
        raise InconsistencyError(
            f"kappa form is not real up to a phase (residual {resid:.3e})"
        )
    real = RealPolynomial(rotated.real).trimmed(1e-12)
    c = real.coeffs
    # Sign fix: sample where the polynomial is clearly nonzero.
    samples = npoly.polyval(np.linspace(-2.3, 2.3, 17), c)
    if samples[np.argmax(np.abs(samples))] < 0:
        c = -c
    lead = c[-1]
    return RealPolynomial(c / lead if lead != 0 else c)


def det_polynomial(xi, tol=1e-8):
    """Determinant polynomial a with -lam det xi(lam) = a(lam).

    Returns (a_lambda, a_kappa): complex ascending coefficients in lam
    (degree <= 2g) and the normalized real kappa form.
    """
    e11 = xi.entry_poly(0, 0)
    e12 = xi.entry_poly(0, 1)
    e21 = xi.entry_poly(1, 0)
    e22 = xi.entry_poly(1, 1)
    # det of (lam xi) has ascending coefficients p; a_k = -p_{k+1}.
    diag = npoly.polymul(e11, e22)
    off = npoly.polymul(e12, e21)
    n = max(diag.size, off.size)
    p = np.zeros(n, dtype=complex)
    p[: diag.size] += diag
    p[: off.size] -= off
    scale = max(np.max(np.abs(p)), 1e-300)
    if abs(p[0]) > tol * scale:
        raise InconsistencyError("lam^{-2} term of det xi did not cancel")
    a_lambda = -p[1:]
    if a_lambda.size > 2 * xi.g + 1:
        tail = np.max(np.abs(a_lambda[2 * xi.g + 1:]))
        if tail > tol * scale:
            raise InconsistencyError("determinant polynomial exceeds degree 2g")
        a_lambda = a_lambda[: 2 * xi.g + 1]
    a_kappa = normalize_kappa_form(poly_lambda_to_kappa(a_lambda, xi.g), tol=tol)
    return a_lambda, a_kappa


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int
    is_real: bool


def _newton_polish(coeffs, roots):
    dcoeffs = npoly.polyder(coeffs)
    for _ in range(2):
        pv = npoly.polyval(roots, coeffs)
        dv = npoly.polyval(roots, dcoeffs)
        step = np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0, 1, dv), 0)
        # Skip the polish where it would jump (multiple roots).
        roots = np.where(np.abs(step) < 1e-2 * np.maximum(1, np.abs(roots)), roots - step, roots)
    return roots


def find_roots(p):
    """Roots with multiplicities and real classification.

    Accepts a RealPolynomial or an ascending coefficient array.  Roots closer
    than _MERGE_TOL (relative) are merged into one root with combined
    multiplicity.
    """
    coeffs = p.coeffs if isinstance(p, RealPolynomial) else np.asarray(p, dtype=complex)
    scale = np.max(np.abs(coeffs))
    if coeffs.size == 0 or scale == 0:
        raise DomainError("cannot take roots of the zero polynomial")
    c = np.array(coeffs, dtype=complex)
    c[np.abs(c) < 1e-13 * scale] = 0
    nz = np.nonzero(c)[0]
    c = c[: nz[-1] + 1]
    if c.size == 1:
        return []
    unpolished = npoly.polyroots(c)
    raw = _newton_polish(c, unpolished)
    order = np.lexsort((raw.imag, raw.real))
    raw, unpolished = raw[order], unpolished[order]
    groups = []
    for i, r in enumerate(raw):
        for grp in groups:
            ref = raw[grp[0]]
            if abs(r - ref) <= _MERGE_TOL * max(1.0, abs(ref)):
                grp.append(i)
                break
        else:
            groups.append([i])
    out = []
    for grp in groups:
        # the polish moves the members of a cluster apart unevenly; the mean of
        # the unpolished members is the accurate one
        val = raw[grp[0]] if len(grp) == 1 else np.mean(unpolished[grp])
        is_real = abs(val.imag) < _CLASS_TOL * max(1.0, abs(val))
        if is_real:
            val = complex(val.real, 0.0)
        out.append(Root(value=complex(val), multiplicity=len(grp), is_real=is_real))
    return out


def root_removal_factor(alpha):
    """The real-coefficient (in the loop sense) factor vanishing at alpha.

    For unimodular alpha this is the linear i(conj(sqrt(alpha)) lam -
    sqrt(alpha)) with the branch conj(sqrt(alpha)) := conjugate of the
    principal square root, which places the root exactly at alpha.  Otherwise
    it is the quadratic (lam - alpha)(1 - conj(alpha) lam) vanishing at alpha
    and 1/conj(alpha).
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise DomainError("root removal requires a nonzero point")
    if abs(abs(alpha) - 1.0) < _UNIMODULAR_TOL:
        s = np.sqrt(alpha)
        return np.array([-1j * s, 1j * np.conj(s)])
    return np.array([-alpha, 1.0 + abs(alpha) ** 2, -np.conj(alpha)])


def divide_root(xi, alpha):
    """Divide out a common zero of xi at alpha (and at 1/conj(alpha)).

    Implements the degree-reduction step for polynomial Killing fields with a
    shared root: xi is divided entrywise by the factor from
    root_removal_factor, dropping the formal degree by 1 (unimodular alpha)
    or 2 (generic alpha).
    """
    alpha = complex(alpha)
    scale = xi.scale()
    val = evaluate(xi, alpha)
    if np.max(np.abs(val)) > _DIVISION_TOL * scale:
        raise PreconditionError(
            f"xi does not vanish at alpha = {alpha} (|xi(alpha)| = {np.max(np.abs(val)):.3e})"
        )
    p = root_removal_factor(alpha)
    deg_p = p.size - 1
    new_g = xi.g - deg_p
    if new_g < 0:
        raise DomainError("division would produce negative degree")
    new_coeffs = np.zeros((new_g + 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            quo, rem = npoly.polydiv(xi.entry_poly(i, j), p)
            if rem.size and np.max(np.abs(rem)) > _DIVISION_TOL * scale:
                raise PreconditionError(
                    f"entry ({i},{j}) is not divisible by the removal factor "
                    f"(remainder {np.max(np.abs(rem)):.3e})"
                )
            quo = np.atleast_1d(quo)
            new_coeffs[: quo.size, i, j] = quo[: new_g + 2]
    result = LaurentMatrix(new_g, new_coeffs)
    ok, worst = reality_check(result, tol=1e-7)
    if not ok:
        raise InconsistencyError(f"division broke the reality pairing ({worst:.3e})")
    return result


def dress_simple_factor(xi, point):
    """Dress xi by the simple factor at beta, raising the degree by 2.

    The conjugated matrix is computed entrywise: the upper-right entry picks
    up (lam - beta)^2, the lower-left (1 - conj(beta) lam)^2, and the diagonal
    (lam - beta)(1 - conj(beta) lam).  The determinant polynomial acquires
    double zeros at beta and 1/conj(beta).
    """
    if not isinstance(point, SimpleFactorPoint):
        point = SimpleFactorPoint(point)
    beta = point.beta
    lin_minus = np.array([-beta, 1.0])          # lam - beta
    lin_plus = np.array([1.0, -np.conj(beta)])  # 1 - conj(beta) lam
    mult = {
        (0, 1): npoly.polymul(lin_minus, lin_minus),
        (1, 0): npoly.polymul(lin_plus, lin_plus),
        (0, 0): npoly.polymul(lin_minus, lin_plus),
        (1, 1): npoly.polymul(lin_minus, lin_plus),
    }
    new_g = xi.g + 2
    new_coeffs = np.zeros((new_g + 2, 2, 2), dtype=complex)
    for (i, j), m in mult.items():
        prod = npoly.polymul(xi.entry_poly(i, j), m)
        new_coeffs[: prod.size, i, j] = prod
    result = LaurentMatrix(new_g, new_coeffs)
    ok, worst = reality_check(result, tol=1e-8)
    if not ok:
        raise InconsistencyError(f"dressing broke the reality pairing ({worst:.3e})")
    return result


def isospectral_tangent(xi, alpha):
    """Tangent vector to the isospectral set at a root alpha of det.

    Solves xi(alpha) = [Q, xi(alpha)] for a traceless Q (minimum-norm
    solution of the rank-deficient linear system) and returns
    (xi - [Q, xi])/(lam - alpha), which is pole-free at alpha.  The induced
    derivative of the determinant polynomial is 2a/(lam - alpha).
    """
    alpha = complex(alpha)
    scale = xi.scale()
    x = evaluate(xi, alpha)
    xnorm = np.max(np.abs(x))
    if xnorm < _DIVISION_TOL * scale:
        raise PreconditionError("xi vanishes at alpha; use divide_root instead")
    if (abs(np.linalg.det(x)) > _DIVISION_TOL * max(1.0, xnorm) ** 2
            or abs(np.trace(x)) > _DIVISION_TOL * xnorm):
        raise PreconditionError("xi(alpha) is not nilpotent; alpha is not a root of det")
    basis = [np.diag([1.0 + 0j, -1.0]), EPS_PLUS, EPS_MINUS]
    cols = [(e @ x - x @ e).reshape(4) for e in basis]
    sol, *_ = np.linalg.lstsq(np.array(cols).T, x.reshape(4), rcond=None)
    q = sum(s * e for s, e in zip(sol, basis))
    resid = np.max(np.abs(q @ x - x @ q - x))
    if resid > 1e-7 * xnorm:
        raise PreconditionError(f"commutator equation unsolvable (residual {resid:.3e})")
    numer = xi.coeffs - np.einsum("ij,djk->dik", q, xi.coeffs) + np.einsum(
        "dij,jk->dik", xi.coeffs, q
    )
    lin = np.array([-alpha, 1.0])
    out = np.zeros((xi.g + 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            quo, rem = npoly.polydiv(numer[:, i, j], lin)
            if rem.size and np.max(np.abs(rem)) > _DIVISION_TOL * scale:
                raise PreconditionError(
                    f"tangent numerator not divisible at alpha (remainder "
                    f"{np.max(np.abs(rem)):.3e})"
                )
            quo = np.atleast_1d(quo)
            out[: quo.size, i, j] = quo
    return LaurentMatrix(xi.g, out, validate=False)
