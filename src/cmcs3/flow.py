"""Deformations of spectral data driven by a polynomial c.

A polynomial c of degree at most g+1 determines rates (a-dot, b-dot) through
the linear integrability identity

    2 b-dot a - b a-dot = 2(k^2+1) a c' - 2 k a c - (k^2+1) a' c

and moves the marked points by k_j-dot = -(k_j^2+1) c(k_j)/b(k_j).  The flow
preserves the closing conditions; the integrator here monitors them and
rejects steps that drift.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import loop_algebra as la
from . import spectral as sp
from .errors import ConditioningError, ConvergenceError, DomainError, PreconditionError

# Gate on the relative residual of the integrability system.
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DeformationState:
    data: sp.SpectralData
    t: float
    monitors: dict = field(default_factory=dict)


def _resultant_normalized(a, b):
    """|res(a, b)| scaled by the Hadamard bound of the Sylvester matrix."""
    na, nb = a.degree, b.degree
    if na <= 0 and nb <= 0:
        return 1.0 if (abs(a.coeffs[0]) > 0 or abs(b.coeffs[0]) > 0) else 0.0
    if na == 0:
        return 1.0 if abs(a.coeffs[0]) > 0 else 0.0
    if nb == 0:
        return 1.0 if abs(b.coeffs[0]) > 0 else 0.0
    size = na + nb
    syl = np.zeros((size, size))
    ac = a.coeffs[: na + 1][::-1]  # descending
    bc = b.coeffs[: nb + 1][::-1]
    for i in range(nb):
        syl[i, i : i + na + 1] = ac
    for i in range(na):
        syl[nb + i, i : i + nb + 1] = bc
    det = np.linalg.det(syl)
    hadamard = np.prod(np.linalg.norm(syl, axis=1))
    return abs(det) / hadamard if hadamard > 0 else 0.0


def solve_ab_dot(a, b, c):
    """Solve the integrability identity for (a-dot, b-dot).

    a must be monic of even degree 2g; the unknowns are the 2g low
    coefficients of a-dot (degree <= 2g-1) and the g+2 coefficients of b-dot
    (degree <= g+1).  Coefficient matching gives a square (3g+2)-system.
    """
    if a.degree % 2 != 0:
        raise PreconditionError("a must have even degree")
    g = a.degree // 2
    if c.degree > g + 1:
        raise PreconditionError(f"deg c = {c.degree} exceeds g+1 = {g + 1}")
    if _resultant_normalized(a, b) < 1e-12:
        raise ConditioningError("a and b share a root (within tolerance); flow undefined")

    ac, bc, cc = a.coeffs, b.coeffs, c.coeffs
    w = np.array([1.0, 0.0, 1.0])  # kappa^2 + 1
    rhs = (
        2.0 * npoly.polymul(npoly.polymul(w, ac), npoly.polyder(cc))
        - 2.0 * npoly.polymul(np.array([0.0, 1.0]), npoly.polymul(ac, cc))
        - npoly.polymul(npoly.polymul(w, npoly.polyder(ac)), cc)
    )
    n_eq = 3 * g + 2
    rhs_full = np.zeros(max(n_eq, len(rhs)))
    rhs_full[: len(rhs)] = rhs
    scale = max(np.max(np.abs(rhs_full)), 1.0)
    if rhs_full.size > n_eq and np.max(np.abs(rhs_full[n_eq:])) > 1e-9 * scale:
        raise PreconditionError("right-hand side exceeds the expected degree 3g+1")
    rhs_vec = rhs_full[:n_eq]

    n_adot, n_bdot = 2 * g, g + 2
    mat = np.zeros((n_eq, n_adot + n_bdot))
    for j in range(n_adot):  # column of -b shifted by j
        seg = bc[: min(len(bc), n_eq - j)]
        mat[j : j + len(seg), j] -= seg
    for j in range(n_bdot):  # column of 2a shifted by j
        seg = ac[: min(len(ac), n_eq - j)]
        mat[j : j + len(seg), n_adot + j] += 2.0 * seg
    sol, *_ = np.linalg.lstsq(mat, rhs_vec, rcond=None)
    resid = np.linalg.norm(mat @ sol - rhs_vec) / scale
    if resid > _RESIDUAL_TOL:
        raise ConditioningError(
            f"integrability system residual {resid:.3e} exceeds {_RESIDUAL_TOL:.1e}"
        )
    adot = la.RealPolynomial(sol[:n_adot] if n_adot else np.zeros(1))
    bdot = la.RealPolynomial(sol[n_adot:])
    return adot, bdot, float(resid)


def kappa_dot(data, c):
    """Rates of the marked points under the flow of c."""
    out = []
    for k in (data.kappa0, data.kappa1):
        bv = data.b(k)
        if abs(bv) < 1e-12 * max(np.max(np.abs(data.b.coeffs)), 1.0):
            raise PreconditionError(
                f"marked point {k} sits on a root of b; the flow is singular there"
            )
        out.append(-(k * k + 1.0) * c(k) / bv)
    return float(out[0]), float(out[1])


def delta_dot(data, c, kappa):
    """Rate of Delta at fixed kappa: (k^2+1) c Delta' / b, evaluated stably.

    Delta' = 2 sinh(ln mu) (ln mu)' makes this 4 pi i sinh(ln mu) c / nu, which
    stays finite at roots of b.
    """
    lnmu, nu_val = sp.lnmu_at(data, kappa)
    val = 4j * math.pi * cmath.sinh(lnmu) * complex(c(kappa)) / nu_val
    return val


def b_root_basis(data):
    """Simple roots of b sorted by (Re, Im); the branch targets of the flow."""
    if any(r.multiplicity > 1 for r in data.b_roots):
        raise PreconditionError("b has a multiple root; branch-target flows undefined")
    return sorted(data.b_roots, key=lambda r: sp.plane_key(r.value))


def build_c_branch_target(data, i):
    """The polynomial c moving Delta at the i-th root of b at unit rate.

    c vanishes at every other root of b, so the Delta-values there are
    stationary to first order.
    """
    roots = b_root_basis(data)
    if not roots:
        raise PreconditionError("b has no roots to target")
    if not 0 <= i < len(roots):
        raise PreconditionError(f"root index {i} out of range (b has {len(roots)} roots)")
    beta = roots[i].value
    if abs(beta.imag) > 1e-10:
        raise DomainError("targeted root of b is not real; real flows need a real target")
    beta = beta.real
    a_root_vals = [r.value for r in data.a_roots]
    for r in roots:
        if any(abs(r.value - v) < 1e-8 for v in a_root_vals):
            raise PreconditionError("a root of b coincides with a root of a")
    prod = np.array([1.0 + 0.0j])
    shift = 1.0
    for j, r in enumerate(roots):
        if j == i:
            continue
        prod = npoly.polymul(prod, np.array([-r.value, 1.0]))
        shift *= beta - r.value
    lnmu, nu_val = sp.lnmu_at(data, beta)
    sh = cmath.sinh(lnmu)
    if abs(sh) < 1e-10:
        raise DomainError(
            "Delta = +-2 at the targeted root of b; the unit-rate normalization blows up"
        )
    const = nu_val / (4j * math.pi * sh * shift)
    coeffs = const * prod
    if np.max(np.abs(coeffs.imag)) > 1e-8 * max(np.max(np.abs(coeffs)), 1e-300):
        raise PreconditionError("branch-target construction produced a non-real c")
    c = la.RealPolynomial(coeffs.real)
    if c.degree > data.g + 1:
        raise PreconditionError("constructed c exceeds the allowed degree")
    return c


# ---------------------------------------------------------------------------
# Flow integration (embedded Dormand-Prince 5(4) with condition monitors).

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _padded(coeffs, n):
    """The first n coefficients, zero-padded to length n."""
    out = np.zeros(n)
    out[: min(len(coeffs), n)] = coeffs[:n]
    return out


def _pack(data):
    g = data.g
    b = _padded(data.b.coeffs, g + 2)
    return np.concatenate([_padded(data.a.coeffs, 2 * g), b, [data.kappa0, data.kappa1]])


def _unpack(y, g):
    a = np.concatenate([y[: 2 * g], [1.0]])
    b = y[2 * g : 3 * g + 2]
    return sp.SpectralData(la.RealPolynomial(a), la.RealPolynomial(b), y[-2], y[-1])


def _monitors(data):
    return sp.closing_residuals(data, 1e-9)


def _stopped(reason, t):
    """Status of a flow that stopped early at time t."""
    return {"completed": False, "reason": reason, "t_reached": t}


def flow_integrate(
    data,
    c_supplier,
    t_final,
    dt0=1e-3,
    rtol=1e-8,
    monitor_tol=1e-6,
    sample_times=None,
):
    """Integrate the deformation, monitoring the closing conditions.

    c_supplier maps the current SpectralData to the polynomial c (so flows
    like "keep targeting the same root of b" can re-resolve their target).
    Steps whose closing residuals exceed monitor_tol are rejected and halved.
    Returns (trajectory, status); trajectory rows are DeformationState at 0,
    the requested sample times, and t_final.
    """
    if t_final <= 0:
        raise PreconditionError("t_final must be positive")
    g = data.g
    if sample_times is None:
        sample_times = []
    targets = sorted({float(t) for t in sample_times if 0.0 < t < t_final} | {t_final})

    def deriv(y):
        state = _unpack(y, g)
        c = c_supplier(state)
        adot, bdot, _ = solve_ab_dot(state.a, state.b, c)
        k0d, k1d = kappa_dot(state, c)
        return np.concatenate(
            [_padded(adot.coeffs, 2 * g), _padded(bdot.coeffs, g + 2), [k0d, k1d]]
        )

    y = _pack(data)
    t = 0.0
    mon = _monitors(data)
    trajectory = [DeformationState(data, 0.0, mon)]
    status = {"completed": True, "reason": "", "t_reached": 0.0}
    dt = dt0
    rejections = 0

    for target in targets:
        while t < target - 1e-14:
            dt = min(dt, target - t)
            try:
                ks = [deriv(y)]
                for row in range(1, 7):
                    yi = y + dt * sum(aij * kj for aij, kj in zip(_DP_A[row], ks))
                    ks.append(deriv(yi))
            except (ConditioningError, PreconditionError) as exc:
                status = _stopped(str(exc), t)
                break
            ks = np.array(ks)
            y5 = y + dt * (_DP_B5 @ ks)
            y4 = y + dt * (_DP_B4 @ ks)
            scale = rtol * (1.0 + np.abs(y5))
            err = float(np.sqrt(np.mean((np.abs(y5 - y4) / scale) ** 2)))
            accept = err <= 1.0
            if accept:
                cand = _unpack(y5, g)
                if abs(cand.kappa0 - cand.kappa1) < 1e-6:
                    status = _stopped("marked points collided (mean curvature blow-up)", t)
                    break
                try:
                    mon = _monitors(cand)
                except (ConvergenceError, DomainError) as exc:
                    status = _stopped(str(exc), t)
                    break
                if max(mon["res_C0"], mon["res_C1"], mon["res_B"]) > monitor_tol:
                    accept = False
            if accept:
                t += dt
                y = y5
                rejections = 0
            else:
                rejections += 1
                if rejections > 40:
                    status = _stopped("step size collapsed under monitor rejections", t)
                    break
            # standard PI-free step update, with halving on rejection
            if err > 0:
                dt *= min(4.0, max(0.1, 0.9 * err ** -0.2)) if accept else 0.5
            elif not accept:
                dt *= 0.5
        if not status["completed"]:
            break
        # the last accepted step already ran the monitors on this state
        trajectory.append(DeformationState(_unpack(y, g), t, mon))
        status["t_reached"] = t
    return trajectory, status


def trajectory_to_csv(trajectory, path):
    """Write trajectory rows as CSV (one row per emitted state)."""
    if not trajectory:
        raise PreconditionError("empty trajectory")
    g = trajectory[0].data.g
    a_cols = [f"a{i}" for i in range(2 * g + 1)]
    b_cols = [f"b{i}" for i in range(g + 2)]
    header = ["t"] + a_cols + b_cols + ["kappa0", "kappa1", "H", "res_C0", "res_C1", "res_B"]
    lines = [",".join(header)]
    for st in trajectory:
        vals = (
            [st.t]
            + list(_padded(st.data.a.coeffs, 2 * g + 1))
            + list(_padded(st.data.b.coeffs, g + 2))
            + [
                st.data.kappa0,
                st.data.kappa1,
                st.data.mean_curvature,
                st.monitors["res_C0"],
                st.monitors["res_C1"],
                st.monitors["res_B"],
            ]
        )
        lines.append(",".join(f"{v:.9g}" for v in vals))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
