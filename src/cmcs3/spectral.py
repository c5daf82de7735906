"""Spectral data for closed constant-mean-curvature cylinders.

The objects here live on the hyperelliptic curve nu^2 = (k^2+1)a(k) carrying
the abelian differential

    d ln mu = 2 pi i b(k) dk / ((k^2+1) nu).

Everything reduces to contour integration of this differential with careful
square-root sheet tracking: the closing conditions (positivity of a, integral
periods, mu = +-1 at the marked points), the trace function Delta = 2cosh(ln mu)
with its real branch-point diagnostics, and the integer invariant counting
double points.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import loop_algebra as la
from .errors import (
    ConvergenceError,
    DomainError,
    InconsistencyError,
    PreconditionError,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)
_TWO_PI_I = 2j * np.pi
_LNMU_TOL = 1e-10  # quadrature tolerance of ln mu at a point (lnmu_at, delta)
_BRANCH_TOL = 1e-8  # |theta - pi L| below which a real root of b is a double point too
_SCAN_POINTS = 4001  # grid of the theta scan in real_branch_points
_AT_TWO_TOL = 1e-6  # ||Delta| - 2| that weighted_genus counts as Delta = +-2


@dataclass(frozen=True)
class SpectralData:
    """Polynomials (a, b) and the two real marked points.

    a is stored monic (the overall scale of a is a gauge: rescaling a by s and
    b by sqrt(s) leaves d ln mu unchanged).  The coefficient arrays are
    read-only, so the facts about the curve below are worked out once.
    """

    a: la.RealPolynomial
    b: la.RealPolynomial
    kappa0: float
    kappa1: float

    def __post_init__(self):
        a = self.a if isinstance(self.a, la.RealPolynomial) else la.RealPolynomial(self.a)
        b = self.b if isinstance(self.b, la.RealPolynomial) else la.RealPolynomial(self.b)
        if not all(np.all(np.isfinite(x)) for x in (a.coeffs, b.coeffs, self.kappa0, self.kappa1)):
            raise PreconditionError("spectral data must be finite")
        a = a.trimmed()
        b = b.trimmed()
        if a.degree < 0:
            raise PreconditionError("a must be a nonzero polynomial")
        if a.degree % 2 != 0:
            raise PreconditionError("a must have even degree")
        lead = a.coeffs[a.degree]
        if lead <= 0:
            raise PreconditionError("a must have a positive leading coefficient")
        a = la.RealPolynomial(a.coeffs / lead)
        b = la.RealPolynomial(b.coeffs / math.sqrt(lead))
        g = a.degree // 2
        if b.degree > g + 1:
            raise PreconditionError(f"deg b = {b.degree} exceeds g+1 = {g + 1}")
        if abs(self.kappa0 - self.kappa1) < 1e-12:
            raise PreconditionError("marked points coincide")
        a.coeffs.setflags(write=False)
        b.coeffs.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "kappa0", float(self.kappa0))
        object.__setattr__(self, "kappa1", float(self.kappa1))

    @property
    def g(self):
        return self.a.degree // 2

    @property
    def mean_curvature(self):
        return (1.0 + self.kappa0 * self.kappa1) / (self.kappa0 - self.kappa1)

    def p(self, kappa):
        """The curve polynomial (kappa^2+1) a(kappa)."""
        kappa = np.asarray(kappa, dtype=complex)
        return (kappa * kappa + 1.0) * self.a(kappa)

    @property
    def p_coeffs(self):
        return npoly.polymul(np.array([1.0, 0.0, 1.0]), self.a.coeffs)

    @cached_property
    def a_roots(self):
        return tuple(la.find_roots(self.a))

    @cached_property
    def b_roots(self):
        return tuple(la.find_roots(self.b)) if self.b.degree >= 1 else ()

    @cached_property
    def branch_points(self):
        """Roots of (kappa^2+1)a(kappa) with multiplicities."""
        return tuple(la.find_roots(self.p_coeffs))

    @cached_property
    def obstacles(self):
        """The branch point values, which integration paths keep away from."""
        return tuple(r.value for r in self.branch_points)

    @cached_property
    def closed_form(self):
        """(r, q) of the closed form of ln mu (see _closed_form), or None."""
        return _closed_form(self)

    def to_json(self):
        return {
            "a": [float(c) for c in self.a.coeffs],
            "b": [float(c) for c in self.b.coeffs],
            "kappa0": self.kappa0,
            "kappa1": self.kappa1,
        }

    @classmethod
    def from_json(cls, obj):
        for key in ("a", "b", "kappa0", "kappa1"):  # float() would take "1", true and null
            leaves = np.ravel(np.array(obj[key], dtype=object))
            if any(isinstance(v, (bool, str)) or v is None for v in leaves):
                raise TypeError(f"{key} must hold JSON numbers")
        return cls(
            la.RealPolynomial(np.asarray(obj["a"], dtype=float)),
            la.RealPolynomial(np.asarray(obj["b"], dtype=float)),
            float(obj["kappa0"]),
            float(obj["kappa1"]),
        )


@dataclass(frozen=True)
class BranchEntry:
    kappa: complex
    delta: complex
    order: int
    kind: str  # "double_point", "b_root", or "both"


# ---------------------------------------------------------------------------
# Branch points and sheet tracking.


def plane_key(z):
    """Sort key of a point of the kappa plane: (Re, Im), rounded to 12 decimals."""
    return round(z.real, 12), round(z.imag, 12)


def odd_branch_points(data):
    """Odd-multiplicity branch points, sorted by (Re, Im)."""
    pts = [r.value for r in data.branch_points if r.multiplicity % 2 == 1]
    return sorted(pts, key=plane_key)


def nu_real_positive(data, kappa):
    """The positive branch on the real axis (requires a > 0 there)."""
    kappa = np.asarray(kappa, dtype=float)
    vals = (kappa * kappa + 1.0) * data.a(kappa)
    if np.any(vals <= 0):
        raise DomainError("a has real zeros in the requested range; no positive branch")
    return np.sqrt(vals)


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


# ---------------------------------------------------------------------------
# Quadrature of d ln mu with sheet tracking.


def _panel(root, integrand, a, b, r_a):
    """GL16 on [a, b] with the root tracked node to node; returns (value, root at b)."""
    d = b - a
    xs = a + d * (0.5 * (_GL_NODES + 1.0))
    rs = np.empty(xs.shape, dtype=complex)
    ref_x, ref_r = a, r_a
    for i, x in enumerate(xs):
        ref_r = _track(root, ref_x, ref_r, x)
        ref_x = x
        rs[i] = ref_r
    r_b = _track(root, ref_x, ref_r, b)
    return 0.5 * d * np.sum(_GL_WEIGHTS * integrand(xs, rs)), r_b


def _adaptive(root, integrand, a, b, r_a, tol, depth=0):
    """Adaptive bisection of _panel on [a, b]; returns (value, root at b)."""
    whole, _ = _panel(root, integrand, a, b, r_a)
    mid = 0.5 * (a + b)
    left, r_m = _panel(root, integrand, a, mid, r_a)
    right, r_b = _panel(root, integrand, mid, b, r_m)
    err = abs(left + right - whole)
    if err < max(tol, 1e-15 * (abs(left) + abs(right))):
        return left + right, r_b
    if depth >= 26:
        raise ConvergenceError(
            f"quadrature stalled with error estimate {err:.3e}", residual=float(err)
        )
    lv, r_m = _adaptive(root, integrand, a, mid, r_a, 0.5 * tol, depth + 1)
    rv, r_b = _adaptive(root, integrand, mid, b, r_m, 0.5 * tol, depth + 1)
    return lv + rv, r_b


def integrate_dlnmu(data, path, nu_start=None, tol=1e-10):
    """Integrate d ln mu along a polyline on the curve.

    Returns (integral, nu at the end of the path).  The starting sheet is the
    principal square root at path[0] unless nu_start pins it down.
    """
    path = [complex(p) for p in path]
    if len(path) < 2:
        raise PreconditionError("path needs at least two points")
    _guard_path(data, path)

    def nu(k):
        return cmath.sqrt(complex(data.p(complex(k))))

    def dlnmu(ks, nus):
        return _TWO_PI_I * data.b(ks) / ((ks * ks + 1.0) * nus)

    if nu_start is None:
        nu_start = nu(path[0])
    total = 0.0 + 0.0j
    nu_cur = complex(nu_start)
    seg_tol = tol / max(len(path) - 1, 1)
    for p, q in zip(path, path[1:]):
        val, nu_cur = _adaptive(nu, dlnmu, p, q, nu_cur, seg_tol)
        total += val
    return total, nu_cur


def _local_gap(obstacles, o):
    others = [abs(p - o) for p in obstacles if abs(p - o) > 1e-12]
    return min(others) if others else 1.0


def _detour_radius(obstacles, o):
    """Radius kept clear around o: 0.3 times its gap, clipped to [2e-3, 1]."""
    return 0.3 * min(max(_local_gap(obstacles, o), 2e-3), 1.0)


def _guard_path(data, path):
    obstacles = data.obstacles
    for p, q in zip(path, path[1:]):
        for o in obstacles:
            offset = 1e-3 * min(_local_gap(obstacles, o), 1.0)
            if _segment_distance(p, q, o) < offset:
                raise DomainError(
                    f"integration path passes within {offset:.2e} of the branch point {o}"
                )


def _segment_distance(p, q, o):
    d = q - p
    if abs(d) < 1e-300:
        return abs(o - p)
    t = ((o - p) * d.conjugate()).real / (abs(d) ** 2)
    t = min(max(t, 0.0), 1.0)
    return abs(o - (p + t * d))


def safe_path(data, start, end, depth=0):
    """Polyline from start to end detouring around branch points and +-i."""
    start, end = complex(start), complex(end)
    obstacles = data.obstacles
    worst = None
    for o in obstacles:
        if abs(o - start) < 1e-12 or abs(o - end) < 1e-12:
            raise DomainError("path endpoint sits on a branch point")
        r = _detour_radius(obstacles, o)
        dist = _segment_distance(start, end, o)
        if dist < r and (worst is None or dist < worst[1]):
            worst = (o, dist, r)
    if worst is None or depth >= 12:
        return [start, end]
    o, _, r = worst
    d = end - start
    u = d / abs(d)
    t = ((o - start) * u.conjugate()).real
    foot = start + t * u
    n = 1j * u
    side = (o - foot) / abs(o - foot) if abs(o - foot) > 1e-12 else n
    away = -side
    way = foot + 1.5 * r * away
    return safe_path(data, start, way, depth + 1)[:-1] + safe_path(data, way, end, depth + 1)


# ---------------------------------------------------------------------------
# The normalized ln mu: base point at a branch point, ln mu(base) = 0.


def _even_square_root(data):
    """q with q^2 = a when every root of a has even multiplicity, else None.

    A conjugate pair gives the real factor k^2 - 2 Re(r) k + |r|^2 of its root
    r in the upper half plane (merged double roots need not be exact conjugates).
    """
    roots = data.a_roots
    if any(r.multiplicity % 2 for r in roots):
        return None
    q = np.array([1.0 + 0.0j])
    for r in roots:
        if r.value.imag < 0:
            continue  # the factor of its conjugate covers it
        factor = [-r.value, 1.0] if r.is_real else [abs(r.value) ** 2, -2.0 * r.value.real, 1.0]
        for _ in range(r.multiplicity // 2):
            q = npoly.polymul(q, factor)
    if np.max(np.abs(q.imag)) > 1e-9 * np.max(np.abs(q)):
        return None
    return la.RealPolynomial(q.real)


def _closed_form(data):
    """(r, q) with ln mu = 2 pi i r(kappa)/w, nu = q w, w = sqrt(kappa^2+1).

    Exists when a = q^2 (no odd branch points besides +-i) and the rational
    reduction r' (kappa^2+1) - r kappa = b/q has a polynomial solution.
    """
    q = _even_square_root(data)
    if q is None:
        return None
    rhs, rem = npoly.polydiv(data.b.coeffs, q.coeffs)
    if np.max(np.abs(rem)) > 1e-10 * max(np.max(np.abs(data.b.coeffs)), 1.0):
        raise InconsistencyError(
            "b is not divisible by sqrt(a): d ln mu has residues at the nodes "
            "and no single-valued normalization exists"
        )
    d = len(rhs) - 1
    n = d + 2
    mat = np.zeros((n + 2, n), dtype=float)
    for j in range(n):
        # column j: coefficients of (kappa^j)' (kappa^2+1) - kappa^(j+1)
        if j >= 1:
            mat[j - 1, j] += j
            mat[j + 1, j] += j
        mat[j + 1, j] -= 1.0
    rhs_vec = np.zeros(n + 2)
    rhs_vec[: d + 1] = rhs.real
    sol, *_ = np.linalg.lstsq(mat, rhs_vec, rcond=None)
    if np.linalg.norm(mat @ sol - rhs_vec) > 1e-9 * max(np.linalg.norm(rhs_vec), 1.0):
        raise InconsistencyError("closed-form reduction of ln mu failed")
    return la.RealPolynomial(sol).trimmed(1e-12), q


def _base_point(data):
    """Branch point of smallest |kappa| among odd roots of a (the base of ln mu)."""
    odd = [r.value for r in data.a_roots if r.multiplicity % 2 == 1]
    if not odd:
        return None
    return sorted(odd, key=lambda z: (abs(z),) + plane_key(z))[0]


def _integrate_base_leg(data, base, waypoint, tol):
    """ln mu increment from the base branch point to a nearby waypoint.

    Uses kappa = base + s^2 d, d = waypoint - base, which removes the
    square-root singularity: phi(s) = nu(kappa)/s is analytic through s = 0,
    and d ln mu = 2 pi i b 2d ds/((kappa^2+1) phi).  The sheet is seeded with
    the principal root phi(0) = sqrt(p'(base) d); the overall sign of ln mu is
    fixed downstream (the base value is 0 on both sheets).  Returns the
    increment and phi(1) = nu(waypoint).
    """
    d = waypoint - base

    def phi(s):
        return cmath.sqrt(complex(data.p(base + s * s * d))) / s

    def dlnmu(ss, phis):
        ks = base + ss * ss * d
        return 2.0 * _TWO_PI_I * d * data.b(ks) / ((ks * ks + 1.0) * phis)

    phi0 = cmath.sqrt(npoly.polyval(base, npoly.polyder(data.p_coeffs)) * d)
    return _adaptive(phi, dlnmu, 0.0, 1.0, phi0, tol)


def lnmu_at(data, kappa):
    """ln mu at kappa with ln mu(base) = 0; returns (value, nu at kappa).

    The base is the odd-multiplicity root of a with smallest |kappa| (the
    differential is antisymmetric under the sheet swap, so ln mu lies in
    pi i Z at every branch point; any base gives the same mu(kappa_j) = +-1
    verdict).  When a is a perfect square the closed form is used instead.
    For real kappa the sheet is normalized so nu > 0.
    """
    kappa = complex(kappa)
    cf = data.closed_form
    if cf is not None:
        r, q = cf
        w = cmath.sqrt(kappa * kappa + 1.0)
        val = _TWO_PI_I * complex(r(kappa)) / w
        nu_val = complex(q(kappa)) * w
    else:
        base = _base_point(data)
        if base is None:
            raise InconsistencyError("ln mu has neither a closed form nor an odd branch point")
        gap = _local_gap(data.obstacles, base)
        direction = kappa - base
        if abs(direction) < 1e-12:
            raise DomainError("target coincides with the base branch point")
        leg_len = min(0.45 * gap, abs(direction))
        waypoint = base + leg_len * direction / abs(direction)
        val, nu_val = _integrate_base_leg(data, base, waypoint, _LNMU_TOL)
        if abs(waypoint - kappa) > 1e-13:
            path = safe_path(data, waypoint, kappa)
            more, nu_val = integrate_dlnmu(data, path, nu_start=nu_val, tol=_LNMU_TOL)
            val += more
    if abs(kappa.imag) < 1e-12:
        if abs(nu_val.imag) < 1e-6 * max(abs(nu_val), 1.0) and nu_val.real < 0:
            val, nu_val = -val, -nu_val
    return val, nu_val


# ---------------------------------------------------------------------------
# Closing conditions.


def _dist_to_2pii(z):
    k = round(z.imag / (2.0 * math.pi))
    return abs(z - _TWO_PI_I * k)


def _loop_integral(data, loop, tol):
    """Integral of d ln mu around a closed polyline that must close on the curve."""
    nu0 = cmath.sqrt(complex(data.p(loop[0])))
    val, nu_end = integrate_dlnmu(data, loop, nu_start=nu0, tol=tol)
    if abs(nu_end - nu0) > 1e-5 * max(abs(nu0), 1.0):
        raise InconsistencyError("loop did not close on the curve (sheet mismatch)")
    return val


def _circle(center, radius, turns):
    """24-gon per turn around a circle (turns = 2 for loops closing through both sheets)."""
    angles = np.linspace(0.0, 2.0 * math.pi * turns, 24 * turns + 1)
    return [center + radius * cmath.exp(1j * t) for t in angles]


def homology_cycles(data):
    """Polyline cycles around consecutive pairs of odd roots of a.

    The branch points +-i of the kappa^2+1 factor are excluded from the
    pairing; their residue behaviour is checked separately by the double
    loops in period_integrals.
    """
    pts = [r.value for r in data.a_roots if r.multiplicity % 2 == 1]
    pts = sorted(pts, key=plane_key)
    if len(pts) % 2 != 0:
        raise InconsistencyError("odd number of odd-multiplicity branch points")
    all_pts = data.obstacles
    if len(all_pts) >= 2:
        min_gap = min(
            abs(p - q) for i, p in enumerate(all_pts) for q in all_pts[i + 1:]
        )
    else:
        min_gap = 1.0
    r = 0.5 * min_gap
    cycles = []
    for p1, p2 in zip(pts[0::2], pts[1::2]):
        center = 0.5 * (p1 + p2)
        half = 0.5 * abs(p2 - p1)
        u = (p2 - p1) / abs(p2 - p1) if abs(p2 - p1) > 1e-12 else 1.0 + 0.0j
        ts = np.linspace(0.0, 2.0 * math.pi, 33)
        cyc = [center + (half + r) * math.cos(t) * u + r * math.sin(t) * (1j * u) for t in ts]
        others = [o for o in all_pts if min(abs(o - p1), abs(o - p2)) > 1e-9]
        for o in others:
            # reject configurations where a foreign branch point sits inside
            w = (o - center) / u
            if (w.real / (half + r)) ** 2 + (w.imag / r) ** 2 < 1.0:
                raise InconsistencyError(
                    "homology cycle would enclose a third branch point; "
                    "configuration not supported"
                )
        cycles.append(cyc)
    return cycles


def period_integrals(data, tol=1e-10):
    """All closed-loop integrals checked by condition B.

    Cycles around consecutive odd branch-point pairs, loops around even roots
    of a (node residues), and double loops around +-i (the second-order poles
    of d ln mu must be residue-free).
    """
    loops = homology_cycles(data)
    all_pts = data.obstacles
    for root in data.a_roots:
        if root.multiplicity % 2 == 0:
            loops.append(_circle(root.value, _detour_radius(all_pts, root.value), 1))
    for pole in (1j, -1j):
        loops.append(_circle(pole, _detour_radius(all_pts, pole), 2))
    return [_loop_integral(data, loop, tol) for loop in loops]


def _canonical_lnmu(z):
    """Shift Im into (-pi, pi] for reporting."""
    im = z.imag - 2.0 * math.pi * math.floor((z.imag + math.pi) / (2.0 * math.pi))
    return complex(z.real, im)


def closing_residuals(data, period_tol):
    """ln mu at the marked points, the periods, and the residuals of B and C."""
    lnmu0, _ = lnmu_at(data, data.kappa0)
    lnmu1, _ = lnmu_at(data, data.kappa1)
    periods = period_integrals(data, tol=period_tol)
    res_b = max((_dist_to_2pii(p) for p in periods), default=0.0)
    return {
        "lnmu0": lnmu0,
        "lnmu1": lnmu1,
        "periods": periods,
        "res_C0": abs(cmath.exp(2.0 * lnmu0) - 1.0),
        "res_C1": abs(cmath.exp(2.0 * lnmu1) - 1.0),
        "res_B": float(res_b),
    }


def check_conditions(data, tol=1e-8):
    """Verdicts on the three closing conditions, with residuals."""
    # A: nonnegativity of a on the real axis.
    roots = data.a_roots
    even_ok = all(r.multiplicity % 2 == 0 for r in roots if r.is_real)
    span = max([10.0] + [2.0 * abs(r.value) for r in roots])
    samples = np.linspace(-span, span, 1000)
    vals = data.a(samples)
    scale = max(np.max(np.abs(vals)), 1.0)
    positive_ok = bool(np.min(vals) > -1e-9 * scale)
    pass_a = bool(even_ok and positive_ok)

    # B: periods of d ln mu in 2 pi i Z; C: mu = +-1 at the marked points.
    res = closing_residuals(data, 1e-10)
    pass_b = bool(res["res_B"] < tol)
    pass_c = bool(max(res["res_C0"], res["res_C1"]) < tol)

    c0 = _canonical_lnmu(res["lnmu0"])
    c1 = _canonical_lnmu(res["lnmu1"])
    return {
        "A": pass_a,
        "B": {"pass": pass_b, "periods": [[p.real, p.imag] for p in res["periods"]]},
        "C": {"pass": pass_c, "lnmu0": [c0.real, c0.imag], "lnmu1": [c1.real, c1.imag]},
        "residuals": {"B": res["res_B"], "C0": res["res_C0"], "C1": res["res_C1"]},
    }


def delta(data, kappa):
    """The trace function Delta = 2 cosh(ln mu(kappa))."""
    kappa = complex(kappa)
    if abs(kappa - 1j) < 1e-9 or abs(kappa + 1j) < 1e-9:
        raise DomainError("Delta has essential behavior at kappa = +-i")
    val, _ = lnmu_at(data, kappa)
    return 2.0 * cmath.cosh(val)


def involution_residual(data, kappas):
    """Max deviation from ln mu(rho(P)) = -conj(ln mu(P)) mod 2 pi i.

    rho is (kappa, nu) -> (conj kappa, conj nu); used as a property check.
    """
    worst = 0.0
    for k in kappas:
        l1, n1 = lnmu_at(data, k)
        l2, n2 = lnmu_at(data, np.conj(k))
        if abs(n2 - np.conj(n1)) > abs(n2 + np.conj(n1)):
            l2 = -l2
        worst = max(worst, _dist_to_2pii(l2 + np.conj(l1)))
    return worst


# ---------------------------------------------------------------------------
# Real branch diagnostics of the covering map Delta.


def _theta_increments(data, lo, hi):
    """Im ln mu gained from lo to hi on the positive real branch (one GL7 sum
    per pair, vectorized over arrays of endpoints)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    halfs = 0.5 * (hi - lo)
    ks = (0.5 * (lo + hi))[..., None] + halfs[..., None] * _GL7_NODES
    nus = nu_real_positive(data, ks)
    vals = 2.0 * math.pi * data.b(ks) / ((ks * ks + 1.0) * nus)
    return halfs * np.sum(_GL7_WEIGHTS * vals, axis=-1)


def _theta_scan(data, lo, hi, n):
    """Im ln mu on the positive real branch over a grid."""
    grid = np.linspace(lo, hi, n)
    increments = _theta_increments(data, grid[:-1], grid[1:])
    theta0 = lnmu_at(data, lo)[0].imag
    theta = np.concatenate([[theta0], theta0 + np.cumsum(increments)])
    return grid, theta


def _refine_crossing(data, k_lo, th_lo, k_hi, th_hi, level):
    """Bisect theta - pi*level to a root between the bracketing grid points."""
    f_lo = th_lo - math.pi * level
    for _ in range(80):
        if k_hi - k_lo < 1e-13 * max(1.0, abs(k_lo)):
            break
        mid = 0.5 * (k_lo + k_hi)
        th_mid = th_lo + _theta_increments(data, k_lo, mid)
        f_mid = th_mid - math.pi * level
        if f_lo * f_mid <= 0:
            k_hi = mid
        else:
            k_lo, th_lo, f_lo = mid, th_mid, f_mid
    return 0.5 * (k_lo + k_hi)


def real_branch_points(data, window=(-10.0, 10.0)):
    """Real zeros of Delta': roots of b plus real solutions of mu = +-1.

    Returns BranchEntry items sorted by kappa.  A real root beta of b of
    multiplicity m with theta = Im ln mu within _BRANCH_TOL of pi L gives
    (beta, 2(-1)^L, 2m+1, "both"), and the crossings of level L within one
    scan step of beta (scattered there by rounding of the cumulative theta)
    are dropped.  Other roots of b are "b_root" of order m, other crossings
    double points of order 1.  Requires a > 0 on the window (no real nodes).
    """
    lo, hi = float(window[0]), float(window[1])
    grid, theta = _theta_scan(data, lo, hi, _SCAN_POINTS)

    # mu = +-1: crossings of theta through multiples of pi.
    levels_lo = np.floor(theta[:-1] / math.pi)
    levels_hi = np.floor(theta[1:] / math.pi)
    crossings = []
    for i in range(len(grid) - 1):
        l0, l1 = int(levels_lo[i]), int(levels_hi[i])
        if l0 == l1:
            # endpoint exactly on a level
            if abs(theta[i] / math.pi - round(theta[i] / math.pi)) < 1e-12:
                crossings.append((grid[i], int(round(theta[i] / math.pi))))
            continue
        for level in range(min(l0, l1) + 1, max(l0, l1) + 1):
            k_star = _refine_crossing(data, grid[i], theta[i], grid[i + 1], theta[i + 1], level)
            crossings.append((k_star, level))
    # A grid point sitting exactly on a level is found twice: once by the
    # endpoint test and once by refining the adjacent interval.  Merge.
    crossings.sort(key=lambda c: c[0])
    merged = []
    for k_star, level in crossings:
        same = merged and merged[-1][1] == level
        if same and abs(k_star - merged[-1][0]) < 1e-7 * max(1.0, abs(k_star)):
            continue
        merged.append((k_star, level))
    crossings = merged

    # roots of b in the window.
    at_roots = []
    step = grid[1] - grid[0]
    for root in data.b_roots:
        k = root.value.real
        if not root.is_real or not lo <= k <= hi:
            continue
        theta_k = lnmu_at(data, k)[0].imag
        level = round(theta_k / math.pi)
        if abs(theta_k - math.pi * level) < _BRANCH_TOL:
            order = 2 * root.multiplicity + 1
            at_roots.append(BranchEntry(k, 2.0 * ((-1.0) ** level), order, "both"))
            crossings = [c for c in crossings if c[1] != level or abs(c[0] - k) > step]
        else:
            at_roots.append(BranchEntry(k, 2.0 * math.cos(theta_k), root.multiplicity, "b_root"))
    entries = [BranchEntry(k, 2.0 * ((-1.0) ** level), 1, "double_point") for k, level in crossings]
    entries += at_roots
    entries.sort(key=lambda e: e.kappa.real)
    return entries


def g_invariant(data):
    """Integer invariant: half the non-real zero count of b on the curve, plus
    the number of real double points (mu = +-1), minus one.

    Returns (G, details) where details carries both raw counts (see the
    caveats around genus-zero cylinders: the two counting rules in the source
    material disagree there, so both numbers are reported).
    """
    b_roots = data.b_roots
    a_root_vals = data.obstacles
    nonreal_curve_points = 0
    for root in b_roots:
        if root.is_real:
            continue
        on_branch = any(abs(root.value - v) < 1e-8 for v in a_root_vals)
        nonreal_curve_points += root.multiplicity * (1 if on_branch else 2)

    w = max(
        [10.0]
        + [2.0 * abs(r.value) + 1.0 for r in b_roots]
        + [2.0 * abs(v) + 1.0 for v in a_root_vals]
        + [2.0 * abs(data.kappa0) + 1.0, 2.0 * abs(data.kappa1) + 1.0]
    )
    window = (-w, w)
    # Double the window at most six times, stopping once theta gains less
    # than 1e-6 over each of [w, 2w] and [-2w, -w].  theta has a finite limit
    # at +-infinity, but on rotational data that tail decays only like 1/w,
    # so all six doublings run and the window ends 64 times wider.
    for _ in range(6):
        w0, w1 = window
        tails = _theta_increments(data, [w1, 2.0 * w0], [2.0 * w1, w0])
        if np.max(np.abs(tails)) < 1e-6:
            break
        window = (2.0 * w0, 2.0 * w1)
    report = real_branch_points(data, window=window)
    doubles = [e for e in report if e.kind in ("double_point", "both")]
    g_val = nonreal_curve_points // 2 + len(doubles) - 1
    details = {
        "nonreal_curve_points": nonreal_curve_points,
        "real_double_points": len(doubles),
        "real_delta_prime_zeros": len(report),
        "window": [float(window[0]), float(window[1])],
        "naive_count": nonreal_curve_points // 2 + len(report) - 1,
    }
    return g_val, details


def weighted_genus(report):
    """Sum of weighted branch orders over a supplied report.

    Weight: full order away from Delta = +-2; half order (even order) or half
    of order-1 (odd order) at Delta = +-2.
    """
    total = 0
    for e in report:
        at_two = abs(abs(complex(e.delta)) - 2.0) < _AT_TWO_TOL
        if not at_two:
            total += e.order
        elif e.order % 2 == 0:
            total += e.order // 2
        else:
            total += (e.order - 1) // 2
    return int(total)


# ---------------------------------------------------------------------------
# Moebius reparametrization of the spectral data.


def mobius_transform_data(data, phi):
    """Rotate the spectral parameter: kappa -> (cos(phi) kappa + sin(phi)) /
    (cos(phi) - sin(phi) kappa), transporting (a, b, kappa0, kappa1).

    This is the kappa-plane form of rotating the unit circle in the original
    parameter; passing the closing conditions is invariant under it.
    """
    c, s = math.cos(phi), math.sin(phi)
    g = data.g
    num = np.array([s, c], dtype=complex)
    den = np.array([c, -s], dtype=complex)
    a_raw = la._binomial_substitution(data.a.coeffs.astype(complex), 2 * g, num, den)
    if np.max(np.abs(a_raw.imag)) > 1e-9 * max(np.max(np.abs(a_raw)), 1.0):
        raise InconsistencyError("Moebius transport produced a non-real a")
    a_new = a_raw.real
    lead = a_new[-1]
    if abs(lead) < 1e-10 * max(np.max(np.abs(a_new)), 1.0):
        raise DomainError("Moebius angle moves a branch point to infinity")
    if lead < 0:
        raise InconsistencyError("Moebius transport flipped the sign of a")
    b_raw = la._binomial_substitution(data.b.coeffs.astype(complex), g + 1, num, den)
    if np.max(np.abs(b_raw.imag)) > 1e-9 * max(np.max(np.abs(b_raw)), 1.0):
        raise InconsistencyError("Moebius transport produced a non-real b")
    b_new = b_raw.real / math.sqrt(lead)
    a_new = a_new / lead

    def back(k):
        if abs(c + s * k) < 1e-12:
            raise DomainError("marked point maps to infinity under this angle")
        return (c * k - s) / (c + s * k)

    return SpectralData(
        la.RealPolynomial(a_new),
        la.RealPolynomial(b_new),
        back(data.kappa0),
        back(data.kappa1),
    )
