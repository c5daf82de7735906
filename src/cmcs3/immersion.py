"""From frames to surfaces in the 3-sphere.

Evaluating the extended frame at two marked unimodular spectral values and
multiplying, f = F(lam_1) F(lam_0)^{-1}, gives a conformal immersion into
SU(2) = S^3.  This module assembles surface samples over rectangular grids,
extracts the metric exponent and the numeric mean curvature / Hopf
differential, checks periodicity, flows along normals, and exports meshes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import iwasawa
from . import loop_algebra as la
from .errors import ConvergenceError, DomainError, PreconditionError

# Side of the square tiles that TiledFrames splits a grid into.  Each
# tile costs one direct factorization; a wider tile lengthens the offset
# loops exp(w zeta0): degree 4-6 for Delaunay fields at |w| <= 1.4, against
# 7-8 for exp(z xi) at |z| = 5.
_TILE = 1.0
# find_period: Gauss-Newton stops below this residual norm, and fails above
# it after _PERIOD_MAX_ITER iterations per sign branch.
_PERIOD_TOL = 1e-8
_PERIOD_MAX_ITER = 60


@dataclass(frozen=True)
class MarkedPoints:
    """The two unimodular evaluation points of the Sym-Bobenko formula."""

    lam0: complex
    lam1: complex

    def __post_init__(self):
        l0, l1 = complex(self.lam0), complex(self.lam1)
        for lam in (l0, l1):
            if not abs(abs(lam) - 1.0) <= 1e-12:  # NaN fails too
                raise PreconditionError(f"marked point {lam} is not unimodular")
        if abs(l0 - l1) < 1e-12:
            raise DomainError("marked points coincide (mean curvature blows up)")
        object.__setattr__(self, "lam0", l0)
        object.__setattr__(self, "lam1", l1)
        h_lam = 1j * (l0 + l1) / (l0 - l1)
        if abs(h_lam.imag) > 1e-10 * max(1.0, abs(h_lam)):
            raise PreconditionError("mean curvature formula returned a non-real value")
        k0 = la.mobius_to_kappa(l0)
        k1 = la.mobius_to_kappa(l1)
        h_kappa = (1.0 + k0.real * k1.real) / (k0.real - k1.real)
        if abs(h_lam.real - h_kappa) > 1e-10 * max(1.0, abs(h_lam)):
            raise PreconditionError("the two mean-curvature formulas disagree")

    @classmethod
    def from_kappa(cls, kappa0, kappa1):
        if not (math.isfinite(kappa0) and math.isfinite(kappa1)):
            raise PreconditionError("marked points must be finite")
        return cls(complex(la.mobius_to_lambda(kappa0)), complex(la.mobius_to_lambda(kappa1)))

    @property
    def kappa0(self):
        return float(la.mobius_to_kappa(self.lam0).real)

    @property
    def kappa1(self):
        return float(la.mobius_to_kappa(self.lam1).real)

    @property
    def mean_curvature(self):
        return float((1j * (self.lam0 + self.lam1) / (self.lam0 - self.lam1)).real)

    @property
    def lams(self):
        return np.array([self.lam0, self.lam1])


def expected_invariants(marked):
    """(H, Q, sqrt(H^2+1)) for the given marked points."""
    h = marked.mean_curvature
    q = 1j * (1.0 / marked.lam1 - 1.0 / marked.lam0) / 4.0
    return h, complex(q), math.sqrt(h * h + 1.0)


def hopf_scale(xi):
    """Rescaling of the marked-point Hopf coefficient for a general model.

    The marked-point formula assumes the off-diagonal weights of the lowest
    two coefficients multiply to -1/4 (e.g. the flat family).  For a general
    initial value the Hopf coefficient picks up 4 * w_minus * w_zero, where
    i*w_minus is the upper-right entry of the lambda^-1 coefficient and
    i*w_zero the lower-left entry of the constant coefficient.
    """
    w_minus = complex(xi.coeffs[0][0, 1]) / 1j
    w_zero = complex(xi.coeffs[1][1, 0]) / 1j
    return 4.0 * w_minus * w_zero


def sym_bobenko(f0, f1):
    """Immersion point from the frames at the two marked values."""
    return f1 @ iwasawa.inv2_general(f0)


def normal(f0, f1):
    """Unit normal from the same frame pair."""
    return f1 @ la.EPS @ iwasawa.inv2_general(f0)


def su2_to_r4(m):
    """Identify [[x0+ix1, x2+ix3], [-x2+ix3, x0-ix1]] with (x0,x1,x2,x3)."""
    m = np.asarray(m)
    return np.stack(
        [m[..., 0, 0].real, m[..., 0, 0].imag, m[..., 0, 1].real, m[..., 0, 1].imag],
        axis=-1,
    )


def _tiles(zs):
    """Index arrays splitting the points zs into square tiles of side <= _TILE.

    The bounding box of zs is cut evenly along each axis.
    """
    keys = np.zeros(zs.shape, dtype=int)
    for coord in (zs.real, zs.imag):
        lo, extent = coord.min(), np.ptp(coord)
        count = max(int(np.ceil(extent / _TILE)), 1)
        idx = np.zeros(zs.shape, dtype=int)
        if extent > 0:
            idx = np.minimum(((coord - lo) * (count / extent)).astype(int), count - 1)
        keys = keys * count + idx
    _, inverse = np.unique(keys, return_inverse=True)
    return [np.nonzero(inverse == t)[0] for t in range(inverse.max() + 1)]


class TiledFrames:
    """Frame supplier backed by the loop-group factorization, vectorized over z.

    frames(zs, lams) returns F(z)(lam) with shape zs.shape + lams.shape +
    (2, 2), like the closed forms of the families.  The points are split
    into tiles of side at most _TILE.  Each tile's anchor z0, its point
    farthest from the origin, is factorized directly, and the rest of the
    tile follows from F(z0 + w) = F(z0) F_zeta0(w), where
    zeta0 = F(z0)^{-1} xi F(z0) is the transported Killing field: one
    stacked factorization of exp(w zeta0) over the tile's offsets w.  After
    a call, .defects holds the largest unitarity and reconstruction defects
    over the grid and the number of anchors.
    """

    def __init__(self, xi):
        self.xi = xi
        self.defects = None

    def __call__(self, zs, lams):
        zs = np.asarray(zs, dtype=complex)
        lams = np.asarray(lams, dtype=complex)
        flat, lam_flat = zs.ravel(), lams.ravel()
        vals = np.empty((flat.size, lam_flat.size, 2, 2), dtype=complex)
        tiles = [(flat[idx][np.argmax(np.abs(flat[idx]))], idx) for idx in _tiles(flat)]
        # the tile reaching farthest out is the likeliest to fail: factor it first
        tiles.sort(key=lambda tile: -abs(tile[0]))
        unit = recon = 0.0
        for z0, idx in tiles:
            fp = iwasawa.frame(self.xi, z0)
            f_z0 = fp.f.evaluate(lam_flat)
            vals[idx] = f_z0
            unit = max(unit, fp.unitarity_defect)
            recon = max(recon, fp.reconstruction_defect)
            rest = idx[flat[idx] != z0]
            if rest.size:
                zeta, _ = iwasawa.transport(self.xi, fp)
                local, u, r = iwasawa.frame_values(zeta, flat[rest] - z0, lam_flat)
                vals[rest] = iwasawa.mul2(f_z0, local)
                unit = max(unit, float(u.max()))
                recon = max(recon, float(r.max()))
        self.defects = {"unitarity_max": unit, "reconstruction_max": recon,
                        "anchors": len(tiles)}
        return vals.reshape(zs.shape + lams.shape + (2, 2))


@dataclass(frozen=True)
class SurfaceSample:
    """A sampled surface with its first/second-order fields (see derive_geometry)."""

    marked: MarkedPoints
    x: np.ndarray  # (nx,)
    y: np.ndarray  # (ny,)
    f: np.ndarray  # (ny, nx, 2, 2)
    n: np.ndarray  # (ny, nx, 2, 2)
    f4: np.ndarray
    n4: np.ndarray
    u: np.ndarray
    v: np.ndarray
    h_num: np.ndarray
    q_num: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    conformality: np.ndarray

    @property
    def h(self):
        return float(self.x[1] - self.x[0])

    def interior(self, arr):
        return arr[1:-1, 1:-1]


def _central_diff(field4, h, axis):
    out = np.full_like(field4, np.nan)
    if axis == 0:
        out[1:-1] = (field4[2:] - field4[:-2]) / (2.0 * h)
    else:
        out[:, 1:-1] = (field4[:, 2:] - field4[:, :-2]) / (2.0 * h)
    return out


def _dot4(a, b):
    return np.sum(a * b, axis=-1)


def derive_geometry(marked, x, y, f, n):
    """The SurfaceSample of the points f and normals n on the grid (x, y).

    Raises ConvergenceError when a point leaves SU(2) or the unit sphere, or
    a normal is not orthogonal to its point.
    """
    det = f[..., 0, 0] * f[..., 1, 1] - f[..., 0, 1] * f[..., 1, 0]
    if np.max(np.abs(det - 1.0)) > 1e-8:
        raise ConvergenceError("immersion points left SU(2): det defect")
    f4 = su2_to_r4(f)
    n4 = su2_to_r4(n)
    if np.max(np.abs(_dot4(f4, f4) - 1.0)) > 1e-8:
        raise ConvergenceError("immersion points left the unit sphere")
    if np.max(np.abs(_dot4(f4, n4))) > 1e-6:
        raise ConvergenceError("normal is not orthogonal to the position")
    h = float(x[1] - x[0])
    _, _, vscale = expected_invariants(marked)

    fx = _central_diff(f4, h, axis=1)
    fy = _central_diff(f4, h, axis=0)
    nx = _central_diff(n4, h, axis=1)
    ny = _central_diff(n4, h, axis=0)
    fz = 0.5 * (fx - 1j * fy)
    fzb = 0.5 * (fx + 1j * fy)
    nz = 0.5 * (nx - 1j * ny)

    # Conformal factor from the complexified first derivatives: the metric is
    # v^2 (dx^2+dy^2) with v^2 = 2 <f_z, f_zbar>.
    v_sq = 2.0 * _dot4(fz, fzb)
    v = np.sqrt(np.maximum(v_sq.real, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.log(v * vscale)

    e = _dot4(fx, fx)
    ff = _dot4(fx, fy)
    g = _dot4(fy, fy)
    l = -_dot4(nx, fx)
    m = -0.5 * (_dot4(nx, fy) + _dot4(ny, fx))
    n2 = -_dot4(ny, fy)
    det_i = e * g - ff * ff
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = (e * n2 - 2.0 * ff * m + g * l) / (2.0 * det_i)
        gauss = (l * n2 - m * m) / det_i
        disc = np.sqrt(np.maximum(mean * mean - gauss, 0.0))
    return SurfaceSample(
        marked, x, y, f, n, f4, n4, u, v, h_num=mean, q_num=_dot4(fz, nz),
        k1=mean + disc, k2=mean - disc, conformality=np.abs(_dot4(fz, fz)),
    )


def sample_surface(frames, marked, domain, nx, ny):
    """Sample the immersion and its normal over a rectangle in z = x + iy.

    domain is (x_min, x_max, y_min, y_max); the grid spacing must be equal in
    both directions for the finite-difference stencils, so ny is adjusted to
    the nearest count with matching spacing if necessary (len(sample.y) is
    the count used).  frames is a frame supplier: frames(zs, lams) gets the
    whole grid of z, shape (ny, nx), and marked.lams in one call and returns
    the frames of shape (ny, nx, 2, 2, 2).  The closed forms of the families
    and TiledFrames are frame suppliers.
    """
    x0, x1, y0, y1 = domain
    x = np.linspace(x0, x1, nx)
    hx = x[1] - x[0]
    ny_eff = max(int(round((y1 - y0) / hx)) + 1, 5)
    y = y0 + hx * np.arange(ny_eff)
    vals = frames(x[None, :] + 1j * y[:, None], marked.lams)
    f0, f1 = vals[..., 0, :, :], vals[..., 1, :, :]
    return derive_geometry(marked, x, y, sym_bobenko(f0, f1), normal(f0, f1))


def sinh_gordon_residual(sample):
    """Residual field R = (u_xx + u_yy)/2 + sinh(2u) and its interior max."""
    u = sample.u
    h = sample.h
    lap = np.full_like(u, np.nan)
    lap[1:-1, 1:-1] = (
        u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1] - 4.0 * u[1:-1, 1:-1]
    ) / (h * h)
    r = 0.5 * lap + np.sinh(2.0 * u)
    interior = r[2:-2, 2:-2]
    if interior.size == 0:
        raise PreconditionError("grid too coarse for the residual stencil (need >= 5x5)")
    return r, float(np.nanmax(np.abs(interior)))


def _marked_monodromy(xi, marked, tau):
    """The monodromy M(tau) at the two marked points, stacked as (2, 2, 2)."""
    loop, _ = iwasawa.monodromy(xi, tau)
    return loop.evaluate(marked.lams)


def periodicity_check(xi, marked, tau, tol=1e-6):
    """Check whether tau is a translational period of the immersion."""
    if tau == 0:
        raise PreconditionError("tau must be nonzero")
    mon = _marked_monodromy(xi, marked, tau)
    eye = np.eye(2)
    report = {}
    best = None
    for sign in (1.0, -1.0):
        res = max(float(np.max(np.abs(mon[0] - sign * eye))),
                  float(np.max(np.abs(mon[1] - sign * eye))))
        report[f"residual_{'plus' if sign > 0 else 'minus'}"] = res
        if best is None or res < best[1]:
            best = (sign, res)
    report["sign"] = best[0]
    report["residual"] = best[1]
    report["passes"] = best[1] < tol
    report["trace0"] = complex(np.trace(mon[0]))
    report["trace1"] = complex(np.trace(mon[1]))
    return report


def _period_residual_vec(xi, marked, tau, sign):
    mon = _marked_monodromy(xi, marked, tau)
    diff = np.concatenate([(mon[0] - sign * np.eye(2)).ravel(),
                           (mon[1] - sign * np.eye(2)).ravel()])
    return np.concatenate([diff.real, diff.imag])


def find_period(xi, marked, tau_guess):
    """Numerically invert the periodicity condition near tau_guess.

    Damped Gauss-Newton on the stacked real residual of M(tau) -+ 1 at both
    marked points, trying both sign branches and keeping the better one.
    """
    best = None
    for sign in (1.0, -1.0):
        tau = complex(tau_guess)
        for _ in range(_PERIOD_MAX_ITER):
            r = _period_residual_vec(xi, marked, tau, sign)
            nrm = np.linalg.norm(r)
            if nrm < _PERIOD_TOL:
                break
            h = 1e-6 * max(1.0, abs(tau))
            jx = (_period_residual_vec(xi, marked, tau + h, sign) - r) / h
            jy = (_period_residual_vec(xi, marked, tau + 1j * h, sign) - r) / h
            jac = np.stack([jx, jy], axis=1)
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            scale = 1.0
            for _ in range(8):
                cand = tau + scale * (step[0] + 1j * step[1])
                if np.linalg.norm(_period_residual_vec(xi, marked, cand, sign)) < nrm:
                    tau = cand
                    break
                scale *= 0.5
            else:
                break
        r = np.linalg.norm(_period_residual_vec(xi, marked, tau, sign))
        if best is None or r < best[1]:
            best = (tau, r, sign)
    tau, resid, sign = best
    if resid > _PERIOD_TOL:
        raise ConvergenceError(
            f"period search stalled at residual {resid:.3e}", residual=float(resid)
        )
    return tau


def focal_distance(sample):
    """Smallest focal parameter over the interior vertices."""
    kmax = np.maximum(sample.k1, sample.k2)
    t_foc = np.arctan2(1.0, kmax)  # arctan(1/kmax) with the right quadrant
    return float(np.nanmin(t_foc[1:-1, 1:-1]))


def parallel_surface(sample, t):
    """Geodesic normal flow f_t = cos(t) f + sin(t) N with expected H(t)."""
    t_foc = focal_distance(sample)
    if not 0.0 <= t < t_foc:
        raise DomainError(f"flow parameter {t} beyond the focal distance {t_foc:.6f}")
    f_t = math.cos(t) * sample.f + math.sin(t) * sample.n
    n_t = -math.sin(t) * sample.f + math.cos(t) * sample.n
    out = derive_geometry(sample.marked, sample.x, sample.y, f_t, n_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        h_expected = 0.5 * (
            1.0 / np.tan(np.arctan2(1.0, sample.k1) - t)
            + 1.0 / np.tan(np.arctan2(1.0, sample.k2) - t)
        )
    return out, h_expected


def stereographic(sample, pole=None):
    """Project the R^4 point cloud to R^3 from a pole on the sphere."""
    if pole is None:
        pole = np.array([-1.0, 0.0, 0.0, 0.0])
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    basis = []
    for cand in np.eye(4):
        vec = cand - np.dot(cand, pole) * pole
        for b in basis:
            vec = vec - np.dot(vec, b) * b
        nrm = np.linalg.norm(vec)
        if nrm > 1e-8:
            basis.append(vec / nrm)
        if len(basis) == 3:
            break
    basis = np.array(basis)
    denom = 1.0 - sample.f4 @ pole
    if np.min(np.abs(denom)) < 1e-8:
        raise DomainError("surface passes through the projection pole; pick another pole")
    return (sample.f4 @ basis.T) / denom[..., None]


def export_mesh(sample, path, stitch_x=False, stitch_y=False, pole=None):
    """Write a quad OBJ of the stereographic projection.

    stitch_x / stitch_y close the strip into a tube/torus by identifying the
    last grid line with the first (use after periodicity_check passes for the
    corresponding width).
    """
    pts = stereographic(sample, pole)
    ny, nx = pts.shape[:2]
    ncols = nx - 1 if stitch_x else nx
    nrows = ny - 1 if stitch_y else ny
    verts = pts[:nrows, :ncols].reshape(nrows * ncols, 3).tolist()
    # corners (iy, ix), (iy, ix+1), (iy+1, ix+1), (iy+1, ix) of every quad
    iy, ix = np.mgrid[: ny - 1, : nx - 1].reshape(2, -1)
    rows = np.stack([iy, iy, iy + 1, iy + 1]) % nrows
    cols = np.stack([ix, ix + 1, ix + 1, ix]) % ncols
    faces = (rows * ncols + cols + 1).T.tolist()
    lines = ["v %.9g %.9g %.9g" % tuple(v) for v in verts]
    lines += ["f %d %d %d %d" % tuple(f) for f in faces]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_surface_csv(sample, path):
    """Dump the per-vertex fields as CSV (9 significant digits; NaN Q as nan,nan)."""
    ny, nx = sample.f4.shape[:2]
    q = sample.q_num
    cols = [
        np.broadcast_to(sample.x[None, :], (ny, nx)),
        np.broadcast_to(sample.y[:, None], (ny, nx)),
        *np.moveaxis(sample.f4, -1, 0),
        np.real(sample.u), np.real(sample.v), np.real(sample.h_num),
        q.real, np.where(np.isnan(q.real), np.nan, q.imag),
    ]
    table = np.stack(cols, axis=-1).reshape(ny * nx, len(cols)).tolist()
    fmt = ",".join(["%.9g"] * len(cols))
    rows = ["x,y,f0,f1,f2,f3,u,v,H,Q_re,Q_im"] + [fmt % tuple(r) for r in table]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return path
