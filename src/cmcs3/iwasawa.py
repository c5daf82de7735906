"""Numerical loop-group machinery.

Loops S^1 -> 2x2 complex matrices are held as truncated Fourier series,
singly or as a stack of loops sharing one degree.  The central operation
factorizes a loop Phi with det = 1 into a unitary loop F and a "plus" loop B
(holomorphic in the disk, B(0) upper triangular with positive diagonal):

    Phi = F B.

B is obtained from the matrix spectral factorization B*B = Phi*Phi on the
unit circle by a Bauer-type block-Toeplitz Cholesky step.  Because S = Phi*Phi
is a trigonometric matrix polynomial of band 2N, its spectral factor is a
matrix polynomial of degree at most 2N, and the first block row of the
triangular Toeplitz factor recovers its coefficients without truncation
error.  A polar projection of the unitary samples then removes the
conditioning floor of F = Phi B^{-1}.

Every step runs on a whole stack at once: the 2x2 products are written out
entrywise over the stack and the Cholesky sections are factorized in one
batched call.  A single loop is a stack with no leading axis.
"""

from dataclasses import dataclass

import numpy as np

from . import loop_algebra as la
from .errors import ConditioningError, ConvergenceError, PreconditionError

_I2 = np.eye(2, dtype=complex)

# Gates and sizes.  A factorization's unitarity defect and acausal energy stay
# below _FRAME_TOL and its reconstruction defect below 100 _FRAME_TOL.
_FRAME_TOL = 1e-9
_TAIL_TOL = 1e-12  # Fourier modes below this times a loop's largest one are dropped
_PROJECTION_TOL = 1e-6  # energy that transport may drop outside degrees -1..g
_EXP_MAX_SAMPLES, _FACTOR_MAX_SAMPLES = 4096, 8192  # circle sample caps
_ODE_STEPS = 400  # fixed RK4 steps of integrate_frame_ode

# Memory budget of one stacked factorization pass.  Per loop of degree n the
# block-Toeplitz section and its Cholesky factor hold 2 (8n)^2 complex
# entries, and the circle samples about 16 arrays of m 2x2 matrices.
_STACK_BYTES = 4 << 20


def expm_traceless(a):
    """exp of traceless 2x2 matrices, vectorized over leading axes.

    Uses exp(A) = cosh(q) I + sinh(q)/q A with q^2 = -det A; any branch of
    the square root gives the same result since cosh and sinh/q are even.
    """
    a = np.asarray(a, dtype=complex)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    q = np.sqrt(-det.astype(complex))
    small = np.abs(q) < 1e-5
    qs = np.where(small, 1.0, q)
    sinhc = np.where(small, 1.0 + q * q / 6.0 + q**4 / 120.0, np.sinh(qs) / qs)
    return np.cosh(q)[..., None, None] * _I2 + sinhc[..., None, None] * a


def mul2(a, b):
    """Products a b of 2x2 matrices, written out entrywise (broadcast over leading axes).

    On stacks this is several times faster than matmul, which calls one
    small gemm per matrix.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def adjoint2(a):
    """Conjugate transpose of 2x2 matrices (vectorized)."""
    return np.conj(np.swapaxes(a, -1, -2))


def inv2_general(m):
    """Inverse of 2x2 matrices (vectorized); a singular matrix raises."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.any(np.abs(det) < 1e-300):
        raise ConditioningError("singular 2x2 matrix in loop inversion")
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out / det[..., None, None]


def circle_points(m):
    return np.exp(2j * np.pi * np.arange(m) / m)


def _per_loop_max(x):
    """Max of |x| over the last three axes (one value per loop of a stack)."""
    return np.max(np.abs(x), axis=(-3, -2, -1))


@dataclass(frozen=True)
class FourierLoop:
    """Truncated Fourier series C_{-N} ... C_N of a loop S^1 -> C^{2x2}.

    coeffs has shape (2n+1, 2, 2), or (P, 2n+1, 2, 2) for a stack of P loops
    of common degree n; coeffs[..., k + n, :, :] multiplies lam^k.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim not in (3, 4) or c.shape[-3:] != (2 * self.n + 1, 2, 2):
            raise PreconditionError(
                f"expected shape ([P,] {2 * self.n + 1}, 2, 2), got {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)

    def coeff(self, k):
        if -self.n <= k <= self.n:
            return self.coeffs[..., k + self.n, :, :]
        return np.zeros(self.coeffs.shape[:-3] + (2, 2), dtype=complex)

    def evaluate(self, lam):
        """Values at lam, with shape stack + lam.shape + (2, 2)."""
        lam = np.asarray(lam, dtype=complex)
        powers = lam[..., None] ** np.arange(-self.n, self.n + 1)
        out = np.tensordot(self.coeffs, powers, axes=([-3], [-1]))
        s = self.coeffs.ndim - 3
        return np.moveaxis(out, (s, s + 1), (-2, -1))

    def samples(self, m):
        """Values at the m-th roots of unity (exact for m >= 2n+1)."""
        if m < 2 * self.n + 1:
            raise PreconditionError("sample count below Nyquist for this loop")
        pad = np.zeros(self.coeffs.shape[:-3] + (m, 2, 2), dtype=complex)
        pad[..., np.arange(-self.n, self.n + 1) % m, :, :] = self.coeffs
        return np.fft.ifft(pad, axis=-3) * m

    def trimmed(self):
        """Drop the outer modes outside the significant band (see _band)."""
        half = _band(self.coeffs, np.arange(-self.n, self.n + 1))
        return FourierLoop(half, self.coeffs[..., self.n - half: self.n + half + 1, :, :])


def _band(coeffs, ks):
    """Largest |k| of a mode above _TAIL_TOL times its loop's largest mode.

    coeffs holds the modes k = ks along axis -3; a stack keeps the widest
    significant band of its loops.
    """
    norms = np.max(np.abs(coeffs), axis=(-2, -1)).reshape(-1, len(ks))
    cut = _TAIL_TOL * np.maximum(norms.max(axis=1, keepdims=True), 1e-300)
    return int(np.max(np.abs(ks[np.any(norms > cut, axis=0)]), initial=0))


def identity_loop():
    c = np.zeros((1, 2, 2), dtype=complex)
    c[0] = _I2
    return FourierLoop(0, c)


def coeffs_from_samples(samples):
    """Centered Fourier coefficients (k = -m/2 .. m/2-1) from circle samples.

    The samples run along axis -3, so a stack (P, m, 2, 2) transforms at once.
    """
    m = samples.shape[-3]
    raw = np.fft.fft(samples, axis=-3) / m
    ks = np.arange(-(m // 2), m - m // 2)
    return ks, raw[..., ks % m, :, :]


def loop_from_samples(samples):
    """Build a FourierLoop (or a stack) of the significant band (see _band) of
    circle samples, or None if the band reaches a quarter of the sample count."""
    ks, cs = coeffs_from_samples(samples)
    half = _band(cs, ks)
    if half >= samples.shape[-3] // 4:
        return None
    return FourierLoop(half, cs[..., np.abs(ks) <= half, :, :])


def exp_loop(xi, z):
    """Fourier loop of lam -> exp(z xi(lam)), adaptively truncated.

    z is a scalar, or a 1-D array giving a stack of loops that share the
    sample count and the degree.
    """
    z = np.asarray(z, dtype=complex)
    m = 64
    while m <= _EXP_MAX_SAMPLES:
        a = z[..., None, None, None] * la.evaluate(xi, circle_points(m))
        loop = loop_from_samples(expm_traceless(a))
        if loop is not None:
            return loop
        m *= 2
    raise ConvergenceError(
        f"exp loop tail above {_TAIL_TOL} at {_EXP_MAX_SAMPLES} samples", residual=None
    )


@dataclass(frozen=True)
class FramePoint:
    f: FourierLoop
    b: FourierLoop
    unitarity_defect: float
    reconstruction_defect: float


def _sample_count(n):
    """Circle samples for factorizing a degree-n loop: a power of two >= 8(n+1)."""
    m = 64
    while m < 8 * (n + 1):
        m *= 2
    return m


def _blocks(n):
    """Block rows of the Bauer section for a degree-n loop (>= band + 2 = 2n + 2)."""
    return max(4 * n, 8)


def _stack_bytes(n):
    """Working memory of factorizing one degree-n loop (see _STACK_BYTES)."""
    return 16 * (2 * (2 * _blocks(n)) ** 2 + 64 * _sample_count(n))


def _bauer_factor(s_band, n):
    """Spectral factor coefficients from a block-Toeplitz Cholesky section.

    s_band[..., k + band, :, :] holds S_k for |k| <= band = 2n.  Factors the
    finite section T[i, j] = S_{j-i} of _blocks(n) block rows as U^H U and
    reads B_0 ... B_{band} from the last fully banded block row of U, where
    the recursion has converged; then S(lam) = B(lam)^* B(lam) on the circle
    with B_0 upper triangular, positive diagonal.  A stack of S gives a stack
    of B in one batched Cholesky call.
    """
    band, m = 2 * n, _blocks(n)
    stack = s_band.shape[:-3]
    # conj(T) = L L^H, so T = U^H U with U = L^T.  Entry (2i+a, 2j+b) of
    # conj(T) is entry (a, b) of conj(S_{j-i}): one gather from the padded
    # sequence conj(S_k), k = -(m-1) .. m-1, flattened.
    s_pad = np.zeros(stack + (2 * m - 1, 2, 2), dtype=complex)
    s_pad[..., m - 1 - band: m + band, :, :] = np.conj(s_band)
    blk = np.arange(2 * m) // 2
    sub = np.arange(2 * m) % 2
    flat_idx = 4 * (blk[None, :] - blk[:, None] + m - 1) + 2 * sub[:, None] + sub[None, :]
    t = np.take(s_pad.reshape(stack + (-1,)), flat_idx, axis=-1)
    try:
        c = np.linalg.cholesky(t)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"block-Toeplitz matrix lost positive definiteness: {exc}")
    r = m - 1 - band
    rows = np.swapaxes(c[..., :, 2 * r: 2 * r + 2], -1, -2)  # block row r of U
    return np.stack(
        [rows[..., 2 * (r + k): 2 * (r + k) + 2] for k in range(band + 1)], axis=-3
    )


def _plus_loop(b_coeffs):
    """The plus loops with coefficients B_0 ... B_band, as a FourierLoop of degree band."""
    acausal = np.zeros_like(b_coeffs[..., 1:, :, :])
    return FourierLoop(b_coeffs.shape[-3] - 1, np.concatenate([acausal, b_coeffs], axis=-3))


def _unitary_polish(f_samples):
    """Project samples onto the unitary group (polar decomposition).

    For 2x2 Hermitian positive H = F^H F near the identity, the principal
    square root is (H + sqrt(det H) I)/sqrt(tr H + 2 sqrt(det H)).
    """
    h = mul2(adjoint2(f_samples), f_samples)
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    sq = np.sqrt(det.real)
    tr = (h[..., 0, 0] + h[..., 1, 1]).real
    root = (h + sq[..., None, None] * _I2) / np.sqrt(tr + 2.0 * sq)[..., None, None]
    return mul2(f_samples, inv2_general(root))


def _normalize_b0(b_coeffs, f_samples):
    """Rotate the plus factor so B(0) is upper triangular, positive diagonal."""
    q, r = np.linalg.qr(b_coeffs[..., 0, :, :])
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    v = q * (phases / np.abs(phases))[..., None, :]
    return mul2(adjoint2(v)[..., None, :, :], b_coeffs), mul2(f_samples, v[..., None, :, :])


def _unitarity_defect(f_samples):
    """max |F F^H - I| over the circle samples, one value per loop."""
    return _per_loop_max(mul2(f_samples, adjoint2(f_samples)) - _I2)


def iwasawa_factor(phi):
    """Split det-1 loops into unitary and plus factors, Phi = F B.

    phi is one loop or a stack; the stack is factorized in one pass and
    every check runs per loop.  Bauer block-Toeplitz factorization of
    S = Phi^H Phi seeds the plus factor, and a polar projection of the
    unitary samples removes the conditioning floor of F = Phi B^{-1}.  The
    causality of B = F^H Phi and the loop reconstruction Phi = F B are the
    structural checks.  Returns (F, B, unitarity defects, reconstruction
    defects), the defects with the stack's shape; a failing check raises
    with the worst residual of the stack.
    """
    n = phi.n
    band = 2 * n
    m = _sample_count(n)
    while True:
        phi_s = phi.samples(m)
        ks, s_cs = coeffs_from_samples(mul2(adjoint2(phi_s), phi_s))
        b_coeffs = _bauer_factor(s_cs[..., np.abs(ks) <= band, :, :], n)
        f_s = mul2(phi_s, inv2_general(_plus_loop(b_coeffs).samples(m)))
        seed = float(np.max(_unitarity_defect(f_s)))
        if seed > 1e-3:
            raise ConvergenceError(
                "spectral factorization failed to seed the unitary factor", residual=seed
            )
        # Polar projection onto the unitary group, then recompute the plus
        # factor exactly from it; its acausal tail measures the residual.
        f_s = _unitary_polish(f_s)
        ks_b, b_cs = coeffs_from_samples(mul2(adjoint2(f_s), phi_s))
        scale = np.maximum(_per_loop_max(b_cs), 1e-300)
        acausal = float(np.max(_per_loop_max(b_cs[..., ks_b < 0, :, :]) / scale))
        if acausal > _FRAME_TOL:
            raise ConvergenceError(
                f"plus factor has acausal energy {acausal:.3e}", residual=acausal
            )
        b_coeffs, f_s = _normalize_b0(b_cs[..., (ks_b >= 0) & (ks_b <= band), :, :], f_s)
        defect = _unitarity_defect(f_s)
        worst = float(np.max(defect))
        if worst > _FRAME_TOL:
            raise ConvergenceError(
                f"unitarity defect {worst:.3e} above tolerance {_FRAME_TOL}", residual=worst
            )
        f_loop = loop_from_samples(f_s)
        if f_loop is None:
            if m >= _FACTOR_MAX_SAMPLES:
                raise ConvergenceError("unitary factor tail not resolved", residual=None)
            m *= 2
            continue
        b_loop = _plus_loop(b_coeffs).trimmed()
        recon_err = mul2(f_loop.samples(m), b_loop.samples(m)) - phi_s
        recon = _per_loop_max(recon_err) / np.maximum(_per_loop_max(phi.coeffs), 1e-300)
        worst = float(np.max(recon))
        if worst > 100 * _FRAME_TOL:
            raise ConvergenceError(f"reconstruction defect {worst:.3e}", residual=worst)
        return f_loop, b_loop, defect, recon


def frame(xi, z):
    """Extended frame at z: unitary factor of the split of exp(z xi)."""
    if z == 0:
        return FramePoint(identity_loop(), identity_loop(), 0.0, 0.0)
    f, b, defect, recon = iwasawa_factor(exp_loop(xi, z))
    return FramePoint(f, b, float(defect), float(recon))


def frame_values(xi, zs, lams):
    """Frames F(z)(lam) for a 1-D stack of z at the spectral values lams.

    Returns values of shape (P, L, 2, 2) and the per-point unitarity and
    reconstruction defects.  The stack is factorized in chunks whose working
    memory fits _STACK_BYTES at the loop degree of the largest |z|; the
    chunks run in order of |z|, so each one shares the degree of similar
    points.
    """
    zs = np.asarray(zs, dtype=complex)
    lams = np.asarray(lams, dtype=complex)
    order = np.argsort(np.abs(zs), kind="stable")
    n_far = exp_loop(xi, zs[order[-1]]).n
    step = max(1, _STACK_BYTES // _stack_bytes(n_far))
    vals = np.empty((zs.size, lams.size, 2, 2), dtype=complex)
    unit = np.empty(zs.size)
    recon = np.empty(zs.size)
    for i in range(0, zs.size, step):
        part = order[i: i + step]
        f, _, unit[part], recon[part] = iwasawa_factor(exp_loop(xi, zs[part]))
        vals[part] = f.evaluate(lams)
    return vals, unit, recon


def transport(xi, fp):
    """Transport the matrix polynomial to a frame point: F^{-1} xi F.

    The conjugated loop is re-projected onto Laurent degrees -1..g; the
    dropped energy is the projection residual.  Returns (zeta, residual).
    """
    m = _sample_count(fp.f.n + xi.g + 1)
    lam = circle_points(m)
    f_s = fp.f.samples(m)
    zeta_s = mul2(mul2(inv2_general(f_s), la.evaluate(xi, lam)), f_s)
    # Multiply by lam so the result is a plain Fourier series starting at 0.
    ks, cs = coeffs_from_samples(lam[:, None, None] * zeta_s)
    keep = (ks >= 0) & (ks <= xi.g + 1)
    resid = float(np.max(np.abs(cs[~keep]))) / xi.scale()
    if resid > _PROJECTION_TOL:
        raise ConvergenceError(f"Laurent projection residual {resid:.3e}", residual=resid)
    return la.LaurentMatrix(xi.g, cs[keep], validate=False), resid


def killing_field(xi, z):
    """The matrix polynomial transported along the surface: F^{-1} xi F at z."""
    return transport(xi, frame(xi, z))[0]


def monodromy(xi, tau):
    """Monodromy loop M(lam) = F(lam) at z = tau (base point z = 0).

    Returns the loop together with the trace function Delta(lam) = tr M.
    """
    loop = frame(xi, tau).f

    def delta(lam):
        vals = loop.evaluate(lam)
        return vals[..., 0, 0] + vals[..., 1, 1]

    return loop, delta


def integrate_frame_ode(alpha, z, lam):
    """Cross-check route: integrate dF = F alpha along the segment 0 -> z.

    alpha(z, lam) must return the pair (alpha', alpha'') multiplying dz and
    d(conj z).  Classical RK4 with _ODE_STEPS fixed steps; used only to
    validate closed forms on the example families.
    """
    z = complex(z)
    f = _I2.copy()
    h = 1.0 / _ODE_STEPS
    for j in range(_ODE_STEPS):
        t = j * h

        def rhs(fm, tt):
            ap, app = alpha(tt * z, lam)
            return fm @ (ap * z + app * np.conj(z))

        k1 = rhs(f, t)
        k2 = rhs(f + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(f + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(f + h * k3, t + h)
        f = f + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return f
