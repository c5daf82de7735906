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


def solve_ab_dot(a, b, c):
    """Solve the integrability identity for (a-dot, b-dot).

    a must be monic of even degree 2g, and b and c of degree at most g+1; the
    unknowns are the 2g low coefficients of a-dot (degree <= 2g-1) and the g+2
    coefficients of b-dot (degree <= g+1).  Coefficient matching gives a square
    (3g+2)-system M with det M = +-2^(g+2) res(a, b), so M is singular exactly
    where a and b share a root.
    """
    if a.degree % 2 != 0 or a.coeffs[a.degree] != 1.0:
        raise PreconditionError("a must be monic of even degree")
    g = a.degree // 2
    for name, p in (("b", b), ("c", c)):
        if p.degree > g + 1:
            raise PreconditionError(f"deg {name} = {p.degree} exceeds g+1 = {g + 1}")

    ac, cc = a.coeffs, c.coeffs
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

    mat = _integrability_matrix(a, b, g)
    sol, _, _, sv = np.linalg.lstsq(mat, rhs_vec, rcond=None)
    if _common_root_measure(sv, a, b) < 1e-12:
        raise ConditioningError("a and b share a root (within tolerance); flow undefined")
    resid = np.linalg.norm(mat @ sol - rhs_vec) / scale
    if resid > _RESIDUAL_TOL:
        raise ConditioningError(
            f"integrability system residual {resid:.3e} exceeds {_RESIDUAL_TOL:.1e}"
        )
    adot = la.RealPolynomial(sol[: 2 * g] if g else np.zeros(1))
    bdot = la.RealPolynomial(sol[2 * g :])
    return adot, bdot, float(resid)


def _integrability_matrix(a, b, g):
    """M of solve_ab_dot: 2g columns of -b, then g+2 columns of 2a, the j-th
    column of each shifted down by j."""
    n_eq = 3 * g + 2
    mat = np.zeros((n_eq, n_eq))
    for j in range(2 * g):
        seg = b.coeffs[: n_eq - j]
        mat[j : j + len(seg), j] -= seg
    for j in range(g + 2):
        seg = a.coeffs[: n_eq - j]
        mat[j : j + len(seg), 2 * g + j] += 2.0 * seg
    return mat


def _common_root_measure(sv, a, b):
    """|res(a, b)| over |a|^deg b |b|^2g, the Hadamard bound of the Sylvester
    matrix of a and b, read off the singular values sv of M: |det M| =
    2^(g+2) |res(a, b)|."""
    g = a.degree // 2
    norms = np.linalg.norm(a.coeffs) ** b.degree * np.linalg.norm(b.coeffs) ** (2 * g)
    bound = 2.0 ** (g + 2) * norms
    return float(np.prod(sv)) / bound if bound > 0 else 0.0


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


def _target_root(data, i):
    """beta, the i-th root of b in (Re, Im) order: real, simple, off the roots of a."""
    roots = b_root_basis(data)
    if not roots:
        raise PreconditionError("b has no roots to target")
    if not 0 <= i < len(roots):
        raise PreconditionError(f"root index {i} out of range (b has {len(roots)} roots)")
    beta = roots[i].value
    if abs(beta.imag) > 1e-10:
        raise DomainError("targeted root of b is not real; real flows need a real target")
    beta = beta.real
    # |a(beta)| below what a's first two Taylor terms change over h = 1e-8:
    # beta is within about h of a simple root of a, or of a node, where a'
    # vanishes too
    v = d1 = d2 = 0.0  # a, a' and a''/2 at beta by one Horner pass
    for coef in data.a.coeffs[::-1].tolist():
        d2, d1, v = d2 * beta + d1, d1 * beta + v, v * beta + coef
    if abs(v) <= 1e-8 * abs(d1) + 1e-16 * abs(d2):
        raise PreconditionError("a root of b coincides with a root of a")
    return beta


def _branch_c(b, beta, sh, nu_val):
    """The polynomial c moving Delta at the root beta of b at unit rate, from
    sinh ln mu and nu at beta on one sheet (c does not depend on which).

    c = nu/(4 pi i sh) q/q(beta) with q = b/(kappa - beta) by exact division,
    q(beta) = b'(beta): c(beta) = nu/(4 pi i sh), and c vanishes at the other
    roots of b, so the Delta-values there are stationary to first order.
    """
    if abs(sh) < 1e-10:
        raise DomainError(
            "Delta = +-2 at the targeted root of b; the unit-rate normalization blows up"
        )
    const = nu_val / (4j * math.pi * sh)
    if abs(const.imag) > 1e-8 * abs(const):
        raise PreconditionError("branch-target construction produced a non-real c")
    q = npoly.polydiv(b.coeffs, [-beta, 1.0])[0]
    return la.RealPolynomial(const.real * (q / npoly.polyval(beta, q)))


def branch_target_supplier(data, i):
    """c_supplier(state, t) of the flow that moves Delta at the i-th root of b
    at unit rate, started at data.

    Along the exact flow d ln mu/dkappa vanishes at the targeted root beta, so
    Delta(beta(t)) = Delta(beta(0)) + t and sinh ln mu(beta(t)) =
    +-sqrt((Delta0 + t)^2/4 - 1), taken as +-sqrt(s0^2 + t (2 Delta0 + t)/4)
    with s0 = sinh ln mu(beta(0)), which keeps s0 to the last bit at t = 0
    near Delta0 = +-2.  ln mu is taken once, at beta(0) of data on the first
    call; each call then takes nu(beta) = sqrt(p(beta)) with the principal
    root and the sign of sinh ln mu on its sheet with Re(sinh conj(s0)) > 0,
    which holds no state between calls (rejected steps rerun their stages).
    """
    anchor = []

    def supplier(state, t):
        if not anchor:
            beta = _target_root(data, i)
            lnmu, nu_val = sp.lnmu_at(data, beta)
            principal = cmath.sqrt(complex(data.p(beta)))
            sheet = math.copysign(1.0, (nu_val * principal.conjugate()).real)
            anchor.append((2.0 * cmath.cosh(lnmu), sheet * cmath.sinh(lnmu)))
        delta0, s0 = anchor[0]
        beta = _target_root(state, i)
        sh = cmath.sqrt(s0 * s0 + t * (2.0 * delta0 + t) / 4.0)
        sh = sh if (sh * s0.conjugate()).real >= 0 else -sh
        return _branch_c(state.b, beta, sh, cmath.sqrt(complex(state.p(beta))))

    return supplier


def build_c_branch_target(data, i):
    """The polynomial c moving Delta at the i-th root of b of data at unit rate."""
    return branch_target_supplier(data, i)(data, 0.0)


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
# y5 - y4 = dt (E @ stage rates): summing E first keeps the error estimate
# nonzero when the rates differ by less than an ulp of y
_DP_E = _DP_B5 - _DP_B4


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


def _stopped(status, reason, t):
    """status, marked as a flow that stopped early at time t."""
    status.update(completed=False, reason=reason, t_reached=t)


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

    c_supplier(state, t) gives the polynomial c at a stage's SpectralData and
    time (so flows like "keep targeting the same root of b" can re-resolve
    their target).  Steps whose closing residuals exceed monitor_tol are
    rejected and halved.  Returns (trajectory, status); trajectory rows are
    DeformationState at 0, the requested sample times, and t_final.  status
    counts the right-hand sides, the accepted steps and the steps rejected by
    the error estimate and by the monitors.
    """
    if not t_final > 0:  # NaN too
        raise PreconditionError("t_final must be positive")
    g = data.g
    if sample_times is None:
        sample_times = []
    targets = sorted({float(t) for t in sample_times if 0.0 < t < t_final} | {t_final})
    status = dict(completed=True, reason="", t_reached=0.0, rhs_evals=0, steps_accepted=0,
                  rejected_error=0, rejected_monitor=0)

    def deriv(y, t):
        status["rhs_evals"] += 1
        state = _unpack(y, g)
        c = c_supplier(state, t)
        adot, bdot, _ = solve_ab_dot(state.a, state.b, c)
        k0d, k1d = kappa_dot(state, c)
        return np.concatenate(
            [_padded(adot.coeffs, 2 * g), _padded(bdot.coeffs, g + 2), [k0d, k1d]]
        )

    y = _pack(data)
    t = 0.0
    mon = _monitors(data)
    trajectory = [DeformationState(data, 0.0, mon)]
    dt = dt0
    rejections = 0

    for target in targets:
        while t < target - 1e-14:
            dt = min(dt, target - t)
            try:
                ks = [deriv(y, t)]
                for row in range(1, 7):
                    yi = y + dt * sum(aij * kj for aij, kj in zip(_DP_A[row], ks))
                    ks.append(deriv(yi, t + _DP_C[row] * dt))
            except (ConditioningError, PreconditionError) as exc:
                _stopped(status, str(exc), t)
                break
            ks = np.array(ks)
            y5 = y + dt * (_DP_B5 @ ks)
            scale = rtol * (1.0 + np.abs(y5))
            err = float(np.sqrt(np.mean((np.abs(dt * (_DP_E @ ks)) / scale) ** 2)))
            accept = err <= 1.0
            if accept:
                cand = _unpack(y5, g)
                if abs(cand.kappa0 - cand.kappa1) < 1e-6:
                    _stopped(status, "marked points collided (mean curvature blow-up)", t)
                    break
                try:
                    mon = _monitors(cand)
                except (ConvergenceError, DomainError) as exc:
                    _stopped(status, str(exc), t)
                    break
                if max(mon["res_C0"], mon["res_C1"], mon["res_B"]) > monitor_tol:
                    accept = False
                    status["rejected_monitor"] += 1
            else:
                status["rejected_error"] += 1
            if accept:
                t += dt
                y = y5
                rejections = 0
                status["steps_accepted"] += 1
            else:
                rejections += 1
                if rejections > 40:
                    _stopped(status, "step size collapsed under monitor rejections", t)
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
