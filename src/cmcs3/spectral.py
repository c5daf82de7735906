"""Spectral data for closed constant-mean-curvature cylinders.

The objects here live on the hyperelliptic curve nu^2 = (k^2+1)a(k) carrying
the abelian differential

    d ln mu = 2 pi i b(k) dk / ((k^2+1) nu).

Everything reduces to integrating this differential (along paths with careful
square-root sheet tracking, on cuts, by residues): the closing conditions
(positivity of a, integral periods, mu = +-1 at the marked points), the trace
function Delta = 2cosh(ln mu) with its real branch-point diagnostics, and the
integer invariant counting double points.
"""

import cmath
import math
from dataclasses import dataclass, replace
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
_TWO_PI_I = 2j * np.pi
_LNMU_TOL = 1e-10  # quadrature tolerance of ln mu at a point (lnmu_at, delta, _theta_walk)
_EXACT_TOL = 1e-12  # relative residual below which _closed_form takes d ln mu as exact
_DEPTH_CAP = 26  # bisection levels of an adaptive quadrature before ConvergenceError
_BRANCH_TOL = 1e-8  # |theta - pi L| below which a real root of b is a double point too
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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "kappa0", float(self.kappa0))
        object.__setattr__(self, "kappa1", float(self.kappa1))

    @cached_property
    def g(self):
        return self.a.degree // 2

    @property
    def mean_curvature(self):
        return (1.0 + self.kappa0 * self.kappa1) / (self.kappa0 - self.kappa1)

    def p(self, kappa):
        """The curve polynomial (kappa^2+1) a(kappa)."""
        kappa = np.asarray(kappa, dtype=complex)
        return (kappa * kappa + 1.0) * self.a(kappa)

    def dlnmu(self, kappa, nu):
        """d ln mu / d kappa at kappa on the sheet of nu."""
        return _TWO_PI_I * self.b(kappa) / ((kappa * kappa + 1.0) * nu)

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
        """Roots of (kappa^2+1)a(kappa) with multiplicities, sorted by (Re, Im):
        the roots of a and +-i; a root of a within _MERGE_TOL of +-i gains one
        multiplicity instead, as find_roots would merge them."""
        out = list(self.a_roots)
        for s in (1j, -1j):
            k = next((k for k, r in enumerate(out)
                      if abs(r.value - s) <= la._MERGE_TOL * max(1.0, abs(r.value))), None)
            if k is None:
                out.append(la.Root(value=s, multiplicity=1, is_real=False))
            else:
                out[k] = replace(out[k], multiplicity=out[k].multiplicity + 1)
        return tuple(sorted(out, key=lambda r: (r.value.real, r.value.imag)))

    @cached_property
    def root_at_pm_i(self):
        """Whether a root of a sits at +-i, which branch_points merges into it."""
        return len(self.branch_points) < len(self.a_roots) + 2

    @cached_property
    def obstacles(self):
        """The branch point values, which integration paths keep away from."""
        return tuple(r.value for r in self.branch_points)

    @cached_property
    def gaps(self):
        """Each obstacle's distance to the nearest other one (see _local_gap)."""
        return tuple(_local_gap(self.obstacles, o) for o in self.obstacles)

    def gap_at(self, z):
        """The gap of the obstacle nearest z."""
        return self.gaps[int(np.argmin(np.abs(np.array(self.obstacles) - z)))]

    @cached_property
    def base_leg(self):
        """(base, its local gap, q = p/(kappa - base) by exact division) of
        lnmu_at, or None: the base is the odd root of a of smallest |kappa|."""
        odd = [r.value for r in self.a_roots if r.multiplicity % 2 == 1]
        if not odd:
            return None
        base = min(odd, key=lambda z: (abs(z),) + plane_key(z))
        return base, self.gap_at(base), npoly.polydiv(self.p_coeffs, [-base, 1.0])[0]

    @cached_property
    def closed_form(self):
        """u of the closed form ln mu = 2 pi i u/nu (see _closed_form), or None."""
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
    kappa_err: float | None = None  # of a crossing: 2 _LNMU_TOL / |dtheta/dkappa| there


# ---------------------------------------------------------------------------
# Branch points and sheet tracking.


def plane_key(z):
    """Sort key of a point of the kappa plane: (Re, Im), rounded to 12 decimals."""
    return round(z.real, 12), round(z.imag, 12)


def _track_chain(vals, r_from):
    """The root along chains of points (the last axis of vals), each continued
    from its r_from, given vals on either sheet; returns (picks, broken).

    Each value takes the sign nearer its predecessor: negation is exact, so
    flipping against the raw predecessor and multiplying the flips up makes
    the same choices.  broken is, per chain, the worst relative jump between
    neighbouring picks where one exceeds 0.4, else 0: points that far apart
    are too sparse for the nearer sign to be the continued one.
    """
    prev = np.concatenate((np.asarray(r_from)[..., None], vals[..., :-1]), axis=-1)
    near, far = np.abs(vals - prev), np.abs(vals + prev)
    picks = np.where(np.where(near <= far, 1.0, -1.0).cumprod(axis=-1) > 0, vals, -vals)
    scale = np.maximum(np.maximum(np.abs(vals), np.abs(prev)), 1e-300)
    jump = (np.minimum(near, far) / scale).max(axis=-1)
    return picks, np.where(jump > 0.4, jump, 0.0)


# ---------------------------------------------------------------------------
# Adaptive GL16 quadrature: d ln mu with sheet tracking, and theta.


def _adaptive(integrand, lo, hi, tol, root=None, r_from=None, label="quadrature"):
    """Breadth-first adaptive GL16 over the cells [lo, hi] (float arrays, in
    order) of a real parameter; returns (edges, gains, root at hi[-1] or
    None): the left edges and integrals of the halves of the accepted cells.

    GL16 on each cell is tested against the sum over its halves, to tol/len(lo)
    per starting cell, halved per level, or 1e-15 relative; all failing cells
    split at once, up to _DEPTH_CAP levels and 2 _DEPTH_CAP active cells per
    starting cell.  With root (taking arrays), integrand(x, r) gets r on one
    sheet: a cell tracks it (see _track_chain) from hi back over the nodes of
    the whole cell to lo, then over those of its halves to hi, and fails if
    the chain breaks.  The accepted cells are joined in order from r_from
    (default root(lo[0])) by the nearer sign, which flips their gains:
    integrand must be odd in r, as d ln mu is.
    """
    cap, tol = 2 * _DEPTH_CAP * len(lo), tol / max(len(lo), 1)
    parts = []
    for depth in range(_DEPTH_CAP + 1):
        mid = 0.5 * (lo + hi)
        a, b = np.array((lo, lo, mid)), np.array((hi, mid, hi))
        half = 0.5 * (b - a)
        xs = (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES  # whole, left, right
        broken, rs, keep = np.zeros_like(lo), None, [lo, mid]
        if root is not None:
            vals = root(np.concatenate((hi[:, None], xs[0, :, ::-1], lo[:, None], xs[1],
                                        mid[:, None], xs[2], hi[:, None]), axis=1))
            picks, broken = _track_chain(vals, vals[:, 0])
            r_from = vals[0, 17] if r_from is None else r_from
            rs = np.array((picks[:, 16:0:-1], picks[:, 18:34], picks[:, 35:51]))
            keep += [picks[:, 17], picks[:, 51]]
        whole, left, right = half * (_GL_WEIGHTS * integrand(xs, rs)).sum(axis=-1)
        err = np.abs(left + right - whole)
        ok = (err < np.maximum(tol, 1e-15 * (np.abs(left) + np.abs(right)))) & (broken == 0)
        keep += [left, right]
        if ok.all():
            parts.append(keep)
            break
        parts.append([x[ok] for x in keep])
        fail = ~ok
        if depth == _DEPTH_CAP or 2 * np.count_nonzero(fail) > cap or not np.isfinite(err[fail]).all():
            if broken[fail].any():
                raise ConvergenceError("sheet tracking lost (path too close to a branch point)",
                                       residual=float(np.max(broken[fail])))
            worst = float(np.max(err[fail]))
            raise ConvergenceError(f"{label} stalled with error estimate {worst:.3e}", residual=worst)
        lo, hi = np.concatenate((lo[fail], mid[fail])), np.concatenate((mid[fail], hi[fail]))
        tol *= 0.5
    if len(parts) > 1:
        keep = [np.concatenate(x) for x in zip(*parts)]
        order = np.argsort(keep[0])
        keep = [x[order] for x in keep]
    lo, mid, *ends, left, right = keep
    gains, r_end = np.array((left, right)), None
    if root is not None:
        first, last = ends
        prev = np.concatenate(([r_from], last[:-1]))
        flips = np.where(np.abs(first - prev) <= np.abs(first + prev), 1.0, -1.0).cumprod()
        gains, r_end = gains * flips, flips[-1] * last[-1]
    return np.array((lo, mid)).T.ravel(), gains.T.ravel(), r_end


def integrate_dlnmu(data, path, nu_start=None):
    """Integrate d ln mu along a polyline on the curve, to _LNMU_TOL.

    Returns (integral, nu at the end of the path).  The starting sheet is the
    principal square root at path[0] unless nu_start pins it down.  Segment k
    is the cell [k, k+1] of _adaptive.
    """
    path = [complex(p) for p in path]
    if len(path) < 2:
        raise PreconditionError("path needs at least two points")
    _guard_path(data, path)
    ks, path = np.arange(len(path), dtype=float), np.array(path)
    steps = np.diff(path)

    def dlnmu(u, nus):
        velocity = steps[np.minimum(u.astype(int), len(steps) - 1)]
        return data.dlnmu(np.interp(u, ks, path), nus) * velocity

    _, gains, nu_end = _adaptive(dlnmu, ks[:-1], ks[1:], _LNMU_TOL,
                                 root=lambda u: np.sqrt(data.p(np.interp(u, ks, path))), r_from=nu_start)
    return complex(gains.sum()), nu_end


def _local_gap(obstacles, o):
    return min(abs(p - o) for p in obstacles if abs(p - o) > 1e-12)  # +-i are two obstacles


def _detour_radius(gap):
    """Radius kept clear around an obstacle: 0.3 times its gap, clipped to [2e-3, 1]."""
    return 0.3 * min(max(gap, 2e-3), 1.0)


def _guard_path(data, path):
    """Reject a polyline passing within 1e-3 local gaps of an obstacle, naming the
    first such segment's first such obstacle."""
    offsets = [1e-3 * min(gap, 1.0) for gap in data.gaps]
    for p, q in zip(path, path[1:]):
        for o, offset in zip(data.obstacles, offsets):
            if _segment_distance(p, q, o) < offset:
                raise DomainError(f"integration path passes within {offset:.2e} of the branch point {o}")


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
    worst = None
    for o, gap in zip(data.obstacles, data.gaps):
        r = _detour_radius(gap)
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
# The normalized ln mu: 0 at the branch points, in closed form or from the base.


def _closed_form(data):
    """u with ln mu = 2 pi i u(kappa)/nu, or None: the least-squares solution
    of u'p - u p'/2 = ab over deg u <= g+1, p = (kappa^2+1)a, kept when its
    residual is at most _EXACT_TOL relative to ab.

    d(u/nu) = (u'p - u p'/2)/(p nu) dkappa, so such a u makes d ln mu exact.
    Conversely an exact d ln mu has a single-valued primitive, odd under the
    sheet swap with poles only over +-i: 2 pi i u/nu with deg u <= g+1.  The
    equation forces u = 0 at every root of a (so ln mu = 0 at the branch
    points), and these rows join the solve: with roots of a near +-i, p is
    nearly a square, and sqrt(p) nearly solves u'p = u p'/2 (on a = k^2 +
    alpha the equation alone fixes ln mu only to ~eps/(1 - alpha)^2).  A root
    of a at +-i (merged into +-i by branch_points) is left to the legs.
    """
    if data.root_at_pm_i:
        return None
    p = data.p_coeffs
    dp = npoly.polyder(p)
    n = data.g + 2
    mat = np.zeros((3 * n - 3, n))
    for j in range(n):  # column j: coefficients of (kappa^j)' p - kappa^j p'/2
        if j:
            mat[j - 1: j - 1 + len(p), j] += j * p
        mat[j: j + len(dp), j] -= 0.5 * dp
    rhs = np.zeros(3 * n - 3)
    ab = npoly.polymul(data.a.coeffs, data.b.coeffs)
    rhs[: len(ab)] = ab
    pins = np.vander(np.array([r.value for r in data.a_roots], dtype=complex), n, increasing=True)
    sol, *_ = np.linalg.lstsq(np.vstack((mat, pins.real, pins.imag)),
                              np.concatenate((rhs, np.zeros(2 * len(pins)))), rcond=None)
    if np.linalg.norm(mat @ sol - rhs) > _EXACT_TOL * np.linalg.norm(rhs):
        return None
    return la.RealPolynomial(sol)


def _integrate_base_leg(data, waypoint):
    """ln mu increment from the base branch point to a nearby waypoint.

    Uses kappa = base + s^2 d, d = waypoint - base, which removes the
    square-root singularity: phi(s) = nu(kappa)/s = sqrt(d q(kappa)), with
    q = p/(kappa - base) by exact division, is analytic through s = 0, and
    d ln mu = 2 pi i b 2d ds/((kappa^2+1) phi), integrated to _LNMU_TOL.  The
    sheet is seeded with the principal root phi(0) = sqrt(d q(base)); the
    overall sign of ln mu is fixed downstream (the base value is 0 on both
    sheets).  Returns the increment and phi(1) = nu(waypoint).
    """
    base, _, q = data.base_leg
    d = waypoint - base

    def phi(s):
        return np.sqrt(d * npoly.polyval(base + s * s * d, q))

    def dlnmu(ss, phis):
        ks = base + ss * ss * d
        return 2.0 * _TWO_PI_I * d * data.b(ks) / ((ks * ks + 1.0) * phis)

    _, gains, phi1 = _adaptive(dlnmu, np.zeros(1), np.ones(1), _LNMU_TOL, root=phi)
    return complex(gains.sum()), phi1


def lnmu_at(data, kappa):
    """ln mu at kappa, 0 at the base; returns (value, nu at kappa).

    kappa must be finite and more than 1e-12 from every branch point and
    +-i, else DomainError, on both routes.  With the closed form u of
    _closed_form, ln mu = 2 pi i u(kappa)/nu with nu = sqrt(p(kappa)), which
    is 0 at every branch point.  Otherwise it is the base leg from the base,
    the odd-multiplicity root of a with smallest |kappa|, plus a polyline (the
    differential is antisymmetric under the sheet swap, so ln mu lies in
    pi i Z at every branch point; any base gives the same mu(kappa_j) = +-1
    verdict).  For real kappa the sheet is normalized so nu > 0.
    """
    kappa = complex(kappa)
    if not cmath.isfinite(kappa):
        raise DomainError(f"ln mu needs a finite kappa, got {kappa}")
    if any(abs(o - kappa) < 1e-12 for o in data.obstacles):
        raise DomainError("path endpoint sits on a branch point")
    u = data.closed_form
    if u is not None:
        nu_val = cmath.sqrt(complex(data.p(kappa)))
        val = _TWO_PI_I * complex(u(kappa)) / nu_val
    else:
        if data.base_leg is None:
            raise InconsistencyError(
                "ln mu has no closed form and a no odd root: b is not divisible by sqrt(a) "
                "(d ln mu has residues at the nodes), or a vanishes at +-i"
            )
        base, gap, _ = data.base_leg
        direction = kappa - base
        leg_len = min(0.45 * gap, abs(direction))
        waypoint = base + leg_len * direction / abs(direction)
        val, nu_val = _integrate_base_leg(data, waypoint)
        if abs(waypoint - kappa) > 1e-13:
            more, nu_val = integrate_dlnmu(data, safe_path(data, waypoint, kappa), nu_start=nu_val)
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


_TRAPEZOID_START = 32  # points of the first trapezoidal sum over a period's cut
_TRAPEZOID_CAP = 1 << 15  # most points over a cut before ConvergenceError


def homology_cycles(data):
    """Consecutive pairs (p1, p2) of odd roots of a, sorted by plane_key: the
    homology cycles, each collapsed onto its cut p1 p2 (+-i are not paired,
    see period_loops).  A third branch point o bounds the strip |Im s| < A,
    cosh A = (|o - p1| + |o - p2|)/|p2 - p1|, where the integrand of
    _cut_period is analytic, and its trapezoidal rule needs N of about 50/A.
    A < 2e-3 (so any o within 1e-3 local gaps of the cut) is rejected."""
    pts = sorted((r.value for r in data.a_roots if r.multiplicity % 2 == 1), key=plane_key)
    if len(pts) % 2 != 0:
        raise InconsistencyError("odd number of odd-multiplicity branch points")
    pairs = list(zip(pts[0::2], pts[1::2]))
    for p1, p2 in pairs:
        reach = math.cosh(2e-3) * abs(p2 - p1)
        if any(abs(o - p1) + abs(o - p2) < reach and min(abs(o - p1), abs(o - p2)) > 1e-9
               for o in data.obstacles):
            raise InconsistencyError("homology cut passes a third branch point; "
                                     "configuration not supported")
    return pairs


def _cut_period(data, p1, p2, r, tol):
    """Integral of d ln mu around the cycle of the pair (p1, p2), on its cut.

    kappa = c + h cos s, c = (p1 + p2)/2, h = (p2 - p1)/2, gives nu = i h sin s
    Q(kappa), Q^2 = q = p/((kappa - p1)(kappa - p2)) by exact division, and the
    period -2 pi int_0^2pi b/((kappa^2+1) Q) ds.  The integrand is analytic,
    periodic and even, so the N-point trapezoidal rule, summed over its nodes
    in [0, pi], converges geometrically (Trefethen-Weideman, SIAM Rev. 56,
    2014).  N doubles until two sums agree, and without a sum while the chain
    of Q breaks.  Q starts at c + (h/|h|)(|h| + r), where an ellipse of minor
    radius r around the pair would, as sqrt(p)/w with sqrt(p) principal and
    w ~ kappa - c, and is tracked along the axis to p2, then over the cut."""
    c, h = 0.5 * (p1 + p2), 0.5 * (p2 - p1)
    q = npoly.polydiv(data.p_coeffs, npoly.polyfromroots([p1, p2]))[0]
    if np.any(np.abs(npoly.polyval([p1, p2], q)) < 1e-9 * npoly.polyval(np.abs([p1, p2]), np.abs(q))):
        raise InconsistencyError("an end of a homology cut is a multiple branch point")
    start = c + h / abs(h) * (abs(h) + r)
    seed = cmath.sqrt(complex(data.p(start))) / ((start - c) * cmath.sqrt(1.0 - (h / (start - c)) ** 2))
    n, total, diff = _TRAPEZOID_START, math.inf, math.inf
    while True:
        kappa = c + h * np.cos(np.linspace(0.0, math.pi, n // 2 + 1))
        axis = start + (p2 - start) * np.linspace(0.0, 1.0, n // 4, endpoint=False)
        qs, broken = _track_chain(np.sqrt(npoly.polyval(np.concatenate((axis, kappa)), q)), seed)
        if not broken:
            f = data.b(kappa) / ((kappa * kappa + 1.0) * qs[len(axis):])
            prev, total = total, -8.0 * math.pi**2 / n * (f[1:-1].sum() + 0.5 * (f[0] + f[-1]))
            diff = abs(total - prev)
            if diff < max(tol, 1e-15 * abs(total)):
                return total
        if 2 * n > _TRAPEZOID_CAP:
            what, residual = ("difference", diff) if math.isfinite(diff) else ("sheet jump", broken)
            raise ConvergenceError(f"trapezoidal rule along a homology cut stalled at N = {n} "
                                   f"with {what} {residual:.3e}", residual=float(residual))
        n *= 2


def _node_period(data, e):
    """Integral of d ln mu around the node e, a double root of a: (2 pi i)^2
    b(e)/((e^2+1) Q(e)), Q^2 = p/(kappa - e)^2 by exact division, with the sign
    of Q nearer sqrt(p)(e + r)/r (r = _detour_radius), where a circle would start."""
    q = npoly.polydiv(data.p_coeffs, npoly.polyfromroots([e, e]))[0]
    r = _detour_radius(data.gap_at(e))
    root, near = cmath.sqrt(complex(npoly.polyval(e, q))), cmath.sqrt(complex(data.p(e + r))) / r
    root = root if abs(root - near) <= abs(root + near) else -root
    return _TWO_PI_I**2 * complex(data.b(e)) / ((e * e + 1.0) * root)


def period_loops(data):
    """The cycles of condition B: the homology_cycles pairs, and the even
    roots of a (nodes), whose periods are residues.  +-i need none: with
    kappa = +-i + w^2, d ln mu = G(w^2) dw/w^2 has no 1/w term when
    a(+-i) != 0.  A root of a at +-i, of any multiplicity, is outside the
    envelope: InconsistencyError."""
    if data.root_at_pm_i:
        raise InconsistencyError("+-i is a multiple branch point (a vanishes there); "
                                 "condition B has no cycle around it")
    return homology_cycles(data), [r.value for r in data.a_roots if r.multiplicity % 2 == 0]


def period_integrals(data, tol=1e-10):
    """The periods of d ln mu checked by condition B: one per homology pair,
    then one per node (see period_loops)."""
    pairs, nodes = period_loops(data)
    r = 0.5 * min(data.gaps)
    return [_cut_period(data, p1, p2, r, tol) for p1, p2 in pairs] + [_node_period(data, e) for e in nodes]


def _canonical_lnmu(z):
    """Shift Im into (-pi, pi] for reporting; within _LNMU_TOL of -pi is +pi."""
    im = math.remainder(z.imag, 2.0 * math.pi)
    return complex(z.real, im + 2.0 * math.pi if im < _LNMU_TOL - math.pi else im)


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
    # A: a >= 0 on the real axis; a is monic of even degree: no odd real root.
    pass_a = all(r.multiplicity % 2 == 0 for r in data.a_roots if r.is_real)

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


def delta_scan(data, kappas):
    """(Delta at real kappas, in any order, with a > 0 between them, and the
    real_branch_points of [min kappas, max kappas]) off one _walk.

    ln mu is taken once, at kappas[0]; theta at a sample is theta at the left
    edge of its cell plus one GL16 sum.  On the positive branch nu > 0,
    d ln mu = i dtheta; this path and lnmu_at's own differ by a closed loop,
    whose integral lies in 2 pi i Z when condition B holds, so Delta is the same.
    """
    ts = np.arctan(kappas)
    edges, theta = _walk(data, np.min(kappas), np.max(kappas), kappas[0])
    theta, lnmu0 = _anchored(data, edges, theta, kappas[0])
    report, = _branch_entries(data, (edges, theta))
    cell = np.maximum(np.searchsorted(edges, ts, side="right") - 1, 0)
    theta = theta[cell] + _theta_increments(data, edges[cell], ts)
    return 2.0 * np.cosh(lnmu0.real + 1j * theta), report


# ---------------------------------------------------------------------------
# theta = Im ln mu on the real circle t = arctan kappa, kappa = infinity included.


_T_END = np.nextafter(0.5 * math.pi, 0.0)  # t of the finite kappa nearest infinity


def _circle_t(kappas):
    """t = arctan kappa, with finite kappa kept inside (-pi/2, pi/2): arctan
    rounds every |kappa| > 1.6e16 onto +-pi/2, which is kappa = infinity."""
    t = np.arctan(kappas)
    return np.where(np.isinf(kappas), t, np.clip(t, -_T_END, _T_END))


def _theta_prime(data, ts):
    """dtheta/dt on the positive real branch: 2 pi b~/sqrt(a~), where
    b~ = cos^(g+1) t b(tan t) and a~ = cos^(2g) t a(tan t) are finite on the
    whole circle (a~ = 1 at t = +-pi/2, as a is monic)."""
    s, c = np.sin(ts), np.cos(ts)

    def homogeneous(poly, n):  # sum_j p_j s^j c^(n-j) = c^(n-d) H, H by Horner in s
        d = poly.degree
        h, c_power = poly.coeffs[d], c
        for p in poly.coeffs[:d][::-1]:
            h, c_power = h * s + p * c_power, c_power * c
        return h * c ** (n - d)

    return 2.0 * math.pi * homogeneous(data.b, data.g + 1) / np.sqrt(homogeneous(data.a, 2 * data.g))


def _theta_increments(data, lo, hi):
    """theta gained from t = lo to hi, one GL16 sum per pair, vectorized over
    arrays of endpoints."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    halfs = 0.5 * (hi - lo)
    ts = (0.5 * (lo + hi))[..., None] + halfs[..., None] * _GL_NODES
    return halfs * np.sum(_GL_WEIGHTS * _theta_prime(data, ts), axis=-1)


def _theta_walk(data, ts):
    """(edges, theta - theta(ts[0])) of the cells of one _adaptive pass, to
    _LNMU_TOL, over the strictly increasing float array ts in [-pi/2, pi/2];
    every ts is an edge.  a > 0 is decided before any quadrature: no real
    root of a in the range, and so one sign there, positive at its middle.
    """
    if (any(r.is_real and ts[0] <= _circle_t(r.value.real) <= ts[-1] for r in data.a_roots)
            or data.a(math.tan(0.5 * (ts[0] + ts[-1]))) <= 0):
        raise DomainError("a has real zeros and is not positive on the range; no positive branch")
    starts, gains, _ = _adaptive(lambda t, _: _theta_prime(data, t), ts[:-1], ts[1:], _LNMU_TOL,
                                 label="theta quadrature along the real axis")
    return np.append(starts, ts[-1]), np.concatenate(([0.0], np.cumsum(gains)))


def _newton_crossings(data, t_lo, th_lo, t_hi, th_hi, levels):
    """Roots of theta - pi*levels in the cells [t_lo, t_hi], all at once, by
    safeguarded Newton (rtsafe, Numerical Recipes 9.4).

    Each start solves a quadratic model of theta on its cell: through both
    edges, with theta' of the flatter edge there (clipped to [0, 1] of the
    secant slope).  On a straight theta that is the secant point; next to a
    root of b, where theta' = 0, the square-root point of the tangency.
    theta(t) = th_lo + GL16 on [t_lo, t]: one _theta_increments call per
    iteration for all crossings.  A step that leaves its bracket or does not
    halve the one before is a bisection.  A crossing stops at a step below
    1e-13 relative in kappa or 4 ulps of t; past the cap, at its bracket's middle.
    """
    target = math.pi * levels
    lo, hi = t_lo.copy(), t_hi.copy()
    width, rise = t_hi - t_lo, th_hi - th_lo
    slope_lo, slope_hi = _theta_prime(data, np.concatenate((t_lo, t_hi))).reshape(2, -1) * width / rise
    flat_hi = np.abs(slope_hi) < np.abs(slope_lo)
    m = np.clip(np.where(flat_hi, slope_hi, slope_lo), 0.0, 1.0)
    # x, y: fractions of the width and the rise from the flatter edge, on
    # the model y = m x + (1 - m) x^2
    y = np.clip((target - th_lo) / rise, 0.0, 1.0)
    y = np.where(flat_hi, 1.0 - y, y)
    root = m + np.sqrt(m * m + 4.0 * (1.0 - m) * y)
    x = np.divide(2.0 * y, root, out=np.zeros_like(y), where=root > 0)
    t = np.where(flat_hi, t_hi - width * x, t_lo + width * x)
    step, i = width.copy(), np.arange(len(t))
    for _ in range(80):
        if not len(i):
            break
        f = th_lo[i] + _theta_increments(data, t_lo[i], t[i]) - target[i]
        df = _theta_prime(data, t[i])
        left = np.sign(f) == np.sign(th_lo[i] - target[i])
        lo[i[left]], hi[i[~left]] = t[i[left]], t[i[~left]]
        with np.errstate(divide="ignore", invalid="ignore"):
            new = t[i] - np.where(f == 0, 0.0, f / df)
        bisect = ~((lo[i] <= new) & (new <= hi[i])) | (np.abs(2 * f) > np.abs(step[i] * df))
        new = np.where(bisect, 0.5 * (lo[i] + hi[i]), new)
        step[i], t[i], c = np.abs(new - t[i]), new, np.abs(np.cos(new))
        tol = np.maximum(1e-13 * c * np.maximum(c, np.abs(np.sin(new))), 4 * np.spacing(np.abs(new)))
        i = i[(step[i] > tol) & (hi[i] - lo[i] > tol)]
    t[i] = 0.5 * (lo[i] + hi[i])
    return t


def _level_crossings(data, *walks):
    """Per walk (edges, theta): the (t, L) where theta crosses pi L, sorted by t.

    An edge with theta within 1e-12 pi of a level is a crossing itself, the
    ends of the walk included: the walk's range is closed.  Cells whose
    levels differ are refined one crossing per level, those of all walks in
    one _newton_crossings.
    """
    found, brackets = [], []
    for k, (edges, theta) in enumerate(walks):
        ratio = theta / math.pi
        nearest = np.round(ratio)
        found.append([(edges[i], int(nearest[i])) for i in np.flatnonzero(np.abs(ratio - nearest) < 1e-12)])
        levels_lo, levels_hi = np.floor(ratio[:-1]), np.floor(ratio[1:])
        bounds = np.sort([levels_lo, levels_hi], axis=0).astype(int)
        brackets += [(k, edges[i], theta[i], edges[i + 1], theta[i + 1], level)
                     for i in np.flatnonzero(levels_lo != levels_hi)
                     for level in range(bounds[0, i] + 1, bounds[1, i] + 1)]
    walk, *cells = np.array(brackets, dtype=float).reshape(-1, 6).T
    for k, t_star, level in zip(walk.astype(int).tolist(), _newton_crossings(data, *cells).tolist(),
                                cells[-1].astype(int).tolist()):
        found[k].append((t_star, level))
    # An edge on a level next to a cell that crosses it is found twice: once
    # by the edge test and once by refining the cell.  Merge.
    out = []
    for crossings in found:
        crossings.sort(key=lambda c: c[0])
        merged = []
        for t_star, level in crossings:
            same = merged and merged[-1][1] == level
            if same and abs(t_star - merged[-1][0]) < 1e-7 * max(1.0, abs(t_star)):
                continue
            merged.append((t_star, level))
        out.append(merged)
    return out


def _kappa_err(data, ts):
    """2 _LNMU_TOL / |dtheta/dkappa| at crossings ts, dtheta/dkappa = theta'(t) cos^2 t."""
    with np.errstate(divide="ignore"):  # inf where theta is flat: a tangency
        return 2 * _LNMU_TOL / np.abs(_theta_prime(data, ts) * np.cos(ts) ** 2)


def _real_b_ts(data):
    """(t = arctan beta, root) of the real roots beta of b."""
    roots = [r for r in data.b_roots if r.is_real]
    return list(zip(_circle_t([r.value.real for r in roots]).tolist(), roots))


def _anchored(data, edges, theta, kappa):
    """(theta of a walk shifted to Im lnmu_at(kappa) at the edge arctan kappa, that ln mu)."""
    lnmu = lnmu_at(data, kappa)[0]
    return theta + lnmu.imag - theta[np.searchsorted(edges, _circle_t(kappa))], lnmu


def _branch_entries(data, *walks):
    """Per walk (edges, theta), theta anchored, whose edges hold the real
    roots of b in its closed range [edges[0], edges[-1]]: the
    real_branch_points of that range.

    kappa = infinity, an end of the walk at t = +-pi/2 (both ends of the whole
    circle), enters as a root of b of multiplicity g+1-deg b.  A point on a
    level (m = 0 too) drops the crossings of that level in its cells, where
    rounding of theta scatters them.
    """
    reports = []
    for (edges, theta), crossings in zip(walks, _level_crossings(data, *walks)):
        points = [(r.value.real, r.multiplicity, [np.searchsorted(edges, t)])
                  for t, r in _real_b_ts(data) if edges[0] <= t <= edges[-1]]
        ends = [i for i in (0, len(edges) - 1) if abs(edges[i]) == 0.5 * math.pi]
        if ends:
            points.append((math.inf, data.g + 1 - data.b.degree, ends))
        entries = []
        for kappa, m, at in points:
            level = round(theta[at[0]] / math.pi)
            if abs(theta[at[0]] - math.pi * level) >= _BRANCH_TOL:
                entries += [BranchEntry(kappa, 2.0 * math.cos(theta[at[0]]), m, "b_root")] if m else []
                continue
            kind = "both" if m else "double_point"
            entries.append(BranchEntry(kappa, 2.0 * ((-1.0) ** level), 2 * m + 1, kind))
            for i in at:
                level, (t0, t1) = round(theta[i] / math.pi), edges[np.clip([i - 1, i + 1], 0, len(edges) - 1)]
                crossings = [c for c in crossings if c[1] != level or not t0 <= c[0] <= t1]
        errs = _kappa_err(data, np.array([t for t, _ in crossings])).tolist()
        entries = [BranchEntry(math.tan(t), 2.0 * ((-1.0) ** level), 1, "double_point", err)
                   for (t, level), err in zip(crossings, errs)] + entries
        entries.sort(key=lambda e: e.kappa.real)
        reports.append(entries)
    return reports


def _walk(data, lo, hi, *kappas):
    """(edges, theta - theta(lo)) of the _theta_walk of [lo, hi] (-inf, inf:
    the whole circle) with the kappas and the real roots of b in it among its
    edges; the window is closed."""
    t_lo, t_hi = _circle_t([lo, hi])
    t_roots = [t for t, _ in _real_b_ts(data) if t_lo <= t <= t_hi]
    return _theta_walk(data, np.unique(np.r_[_circle_t([lo, hi, *kappas]), t_roots]))


def real_branch_points(data, window):
    """Real zeros of Delta': roots of b plus real solutions of mu = +-1.

    Returns BranchEntry items sorted by kappa.  A real root beta of b of
    multiplicity m with theta = Im ln mu within _BRANCH_TOL of pi L gives
    (beta, 2(-1)^L, 2m+1, "both").  Other roots of b are "b_root" of order m,
    other crossings double points of order 1.  theta is one _theta_walk from
    lnmu_at(window[0]) with the roots of b among its edges, monotone in each
    cell.  The window is closed: a point on either end is in it.  Requires
    a > 0 on the window (no real nodes).
    """
    lo, hi = float(window[0]), float(window[1])
    edges, theta = _walk(data, lo, hi)
    return _branch_entries(data, (edges, _anchored(data, edges, theta, lo)[0]))[0]


def _g_from(data, report):
    """g_invariant from the real_branch_points report of the whole circle."""
    nonreal_curve_points = 0
    for root in data.b_roots:
        if root.is_real:
            continue
        on_branch = any(abs(root.value - v) < 1e-8 for v in data.obstacles)
        nonreal_curve_points += root.multiplicity * (1 if on_branch else 2)
    doubles = [e for e in report if e.kind in ("double_point", "both")]
    g_val = nonreal_curve_points // 2 + len(doubles) - 1
    details = {
        "nonreal_curve_points": nonreal_curve_points,
        "real_double_points": len(doubles),
        "real_delta_prime_zeros": len(report),
        "naive_count": nonreal_curve_points // 2 + len(report) - 1,
    }
    return g_val, details


def g_invariant(data):
    """Integer invariant: half the non-real zero count of b on the curve, plus
    the number of real double points (mu = +-1) on RP^1, minus one.

    RP^1 is one walk of t = arctan kappa over [-pi/2, pi/2] from lnmu_at(0).
    Returns (G, details) where details carries both raw counts (see the
    caveats around genus-zero cylinders: the two counting rules in the source
    material disagree there, so both numbers are reported).
    """
    edges, theta = _walk(data, -math.inf, math.inf, 0.0)
    return _g_from(data, _branch_entries(data, (edges, _anchored(data, edges, theta, 0.0)[0]))[0])


def branch_points_and_g(data, window):
    """(real_branch_points(data, window), *g_invariant(data)) off one walk of
    RP^1 that has the window's ends among its edges.

    Each report keeps its own anchor: G reads theta from lnmu_at(0), the
    window report theta - theta(lo) + Im lnmu_at(lo) on the window's cells.
    The two agree up to 2 pi Z only where condition B holds.
    """
    lo, hi = float(window[0]), float(window[1])
    edges, theta = _walk(data, -math.inf, math.inf, 0.0, lo, hi)
    i, j = np.searchsorted(edges, _circle_t([lo, hi]))
    cells = slice(i, j + 1)
    window = edges[cells], _anchored(data, edges[cells], theta[cells], lo)[0]
    report, circle = _branch_entries(data, window, (edges, _anchored(data, edges, theta, 0.0)[0]))
    return (report, *_g_from(data, circle))


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
