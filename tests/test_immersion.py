import os

import numpy as np
import pytest

from cmcs3 import families, immersion as im, iwasawa
from cmcs3 import loop_algebra as la
from cmcs3.errors import CMCError, DomainError, PreconditionError


@pytest.fixture(scope="module")
def flat_sample(minimal_marked):
    fn = im.frame_fn_from_closed_form(families.flat_frame, minimal_marked)
    return im.sample_surface(fn, minimal_marked, (-0.5, 0.5, -0.5, 0.5), 17, 17)


def test_marked_points_invariants():
    mk = im.MarkedPoints(1j, -1j)
    assert abs(mk.mean_curvature) < 1e-12
    assert abs(abs(mk.lam0) - 1.0) < 1e-12
    # the two mean-curvature formulas agree
    mk2 = im.MarkedPoints.from_kappa(1.0, -1.0)
    assert abs(mk2.mean_curvature) < 1e-10
    h_kappa = (1.0 + mk2.kappa0 * mk2.kappa1) / (mk2.kappa0 - mk2.kappa1)
    assert abs(mk2.mean_curvature - h_kappa) < 1e-10


def test_marked_points_reject_collision():
    with pytest.raises(CMCError):
        im.MarkedPoints(1j, 1j)


def test_expected_invariants_examples(minimal_marked):
    h, q, vscale = im.expected_invariants(minimal_marked)
    assert abs(h) < 1e-12
    assert abs(q + 0.5) < 1e-12
    assert abs(vscale - 1.0) < 1e-12
    _, marked6 = families.flat_xi(np.pi / 6)
    h6, _, _ = im.expected_invariants(marked6)
    assert abs(h6 - 1.0 / np.tan(np.pi / 3)) < 1e-10


def test_sym_bobenko_base_point(minimal_marked):
    eye = np.eye(2, dtype=complex)
    assert np.allclose(im.sym_bobenko(eye, eye), eye)
    n0 = im.normal(eye, eye)
    assert np.allclose(n0, np.diag([1j, -1j]))


def test_su2_to_r4_norm():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    m = np.array(
        [[x[0] + 1j * x[1], x[2] + 1j * x[3]], [-x[2] + 1j * x[3], x[0] - 1j * x[1]]]
    )
    back = im.su2_to_r4(m)
    assert np.max(np.abs(back - x)) < 1e-14
    assert abs(np.linalg.det(m) - 1.0) < 1e-14


def test_flat_sample_geometry(flat_sample):
    s = flat_sample
    assert np.nanmax(np.abs(s.interior(s.u))) < 5e-3
    assert np.nanmax(np.abs(s.interior(s.h_num))) < 1e-10
    assert np.nanmax(np.abs(s.interior(s.conformality))) < 1e-10
    q = s.interior(s.q_num)
    assert np.max(np.abs(q - (-0.5))) < 1e-2
    # normal is orthogonal to the x-derivative of the position
    fx = (s.f4[:, 2:] - s.f4[:, :-2]) / (2 * s.h)
    dots = np.sum(s.n4[:, 1:-1] * fx, axis=-1)
    assert np.max(np.abs(dots)) < 1e-6


def test_flat_u_vanishes_on_fine_grid(minimal_marked):
    fn = im.frame_fn_from_closed_form(families.flat_frame, minimal_marked)
    s = im.sample_surface(fn, minimal_marked, (-0.25, 0.25, -0.05, 0.05), 101, 21)
    assert np.nanmax(np.abs(s.interior(s.u))) < 1e-5


def test_flat_residual_small(flat_sample):
    _, mx = im.sinh_gordon_residual(flat_sample)
    assert mx < 1e-2


def test_residual_requires_geometry(flat_sample):
    bare = im.SurfaceSample(
        marked=flat_sample.marked,
        x=flat_sample.x,
        y=flat_sample.y,
        f=flat_sample.f,
        n=flat_sample.n,
    )
    with pytest.raises(PreconditionError):
        im.sinh_gordon_residual(bare)


def test_sphere_sample_liouville_control(minimal_marked):
    fn = im.frame_fn_from_closed_form(families.sphere_frame, minimal_marked)
    s = im.sample_surface(fn, minimal_marked, (-0.4, 0.4, -0.4, 0.4), 33, 33)
    z = s.x[None, :] + 1j * s.y[:, None]
    # conformal exponent matches the closed form up to the radius constant
    diff = s.interior(s.u - families.sphere_u(z))
    assert np.nanmax(np.abs(diff - np.log(2.0))) < 1e-3
    # this family does not solve the target equation: residual stays O(1)
    _, mx = im.sinh_gordon_residual(s)
    assert mx > 0.1


def test_associated_family_isometry(minimal_marked):
    domain = (-0.12, 0.12, -0.12, 0.12)
    fn = im.frame_fn_from_closed_form(families.flat_frame, minimal_marked)
    s0 = im.sample_surface(fn, minimal_marked, domain, 33, 33)
    phi = 0.3
    rotated = im.MarkedPoints(
        minimal_marked.lam0 * np.exp(1j * phi), minimal_marked.lam1 * np.exp(1j * phi)
    )
    fn2 = im.frame_fn_from_closed_form(families.flat_frame, rotated)
    s1 = im.sample_surface(fn2, rotated, domain, 33, 33)
    assert np.nanmax(np.abs(s0.interior(s0.v - s1.v))) < 1e-6
    assert np.nanmax(np.abs(s0.interior(s0.h_num - s1.h_num))) < 1e-6


def test_periodicity_check_clifford(flat_pi4):
    xi, marked = flat_pi4
    tau = np.pi * np.sqrt(2.0)
    rep = im.periodicity_check(xi, marked, tau)
    assert rep["passes"] and rep["sign"] == -1.0
    rep2 = im.periodicity_check(xi, marked, 1j * tau)
    assert rep2["passes"]
    rep3 = im.periodicity_check(xi, marked, 0.5 * tau)
    assert not rep3["passes"]


def test_periodicity_check_rejects_zero(flat_pi4):
    xi, marked = flat_pi4
    with pytest.raises(PreconditionError):
        im.periodicity_check(xi, marked, 0.0)


def test_find_period_recovers_clifford(flat_pi4):
    xi, marked = flat_pi4
    tau = im.find_period(xi, marked, 4.0)
    assert abs(tau - np.pi * np.sqrt(2.0)) < 1e-8


def test_parallel_surface_flat(flat_sample):
    out0, _ = im.parallel_surface(flat_sample, 0.0)
    assert np.max(np.abs(out0.f - flat_sample.f)) < 1e-14
    t = 0.3
    out, h_exp = im.parallel_surface(flat_sample, t)
    num = out.interior(out.h_num)
    exp = h_exp[1:-1, 1:-1]
    assert np.nanmax(np.abs(num - exp)) < 0.02 * max(1.0, np.nanmax(np.abs(exp)))
    with pytest.raises(DomainError):
        im.parallel_surface(flat_sample, 1.0)  # beyond the focal distance pi/4


def test_focal_distance_flat(flat_sample):
    assert abs(im.focal_distance(flat_sample) - np.pi / 4.0) < 1e-8


def test_stereographic_origin(flat_sample):
    pts = im.stereographic(flat_sample)
    # base point z=0 is the identity, mapped to the origin for the default pole
    iy = len(flat_sample.y) // 2
    ix = len(flat_sample.x) // 2
    assert np.max(np.abs(pts[iy, ix])) < 1e-12


def test_export_mesh_counts(flat_sample, tmp_path):
    path = str(tmp_path / "strip.obj")
    im.export_mesh(flat_sample, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    nv = sum(1 for l in lines if l.startswith("v "))
    nf = sum(1 for l in lines if l.startswith("f "))
    ny, nx = flat_sample.f.shape[:2]
    assert nv == nx * ny
    assert nf == (nx - 1) * (ny - 1)
    # stitched in both directions: torus with chi = V - E + F = 0
    path2 = str(tmp_path / "torus.obj")
    im.export_mesh(flat_sample, path2, stitch_x=True, stitch_y=True)
    with open(path2) as fh:
        lines = fh.read().splitlines()
    nv2 = sum(1 for l in lines if l.startswith("v "))
    nf2 = sum(1 for l in lines if l.startswith("f "))
    assert nv2 == (nx - 1) * (ny - 1)
    assert nf2 == (nx - 1) * (ny - 1)
    edges = set()
    for l in lines:
        if l.startswith("f "):
            ids = [int(t) for t in l.split()[1:]]
            for a, b in zip(ids, ids[1:] + ids[:1]):
                edges.add((min(a, b), max(a, b)))
    assert nv2 - len(edges) + nf2 == 0


def test_write_surface_csv(flat_sample, tmp_path):
    path = str(tmp_path / "surf.csv")
    im.write_surface_csv(flat_sample, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x,y,f0,f1,f2,f3,u,v,H,Q_re,Q_im"
    ny, nx = flat_sample.f.shape[:2]
    assert len(lines) == 1 + nx * ny


def test_hopf_scale(flat_pi4, delaunay_xi, delaunay_params):
    xi, _ = flat_pi4
    assert abs(im.hopf_scale(xi) - 1.0) < 1e-12
    expect = 4.0 * delaunay_params.a_r * delaunay_params.b_r
    assert abs(im.hopf_scale(delaunay_xi) - expect) < 1e-12


def test_frame_fn_from_xi_matches_closed_form(flat_pi4):
    xi, marked = flat_pi4
    fn_num = im.frame_fn_from_xi(xi, marked)
    fn_ref = im.frame_fn_from_closed_form(families.flat_frame, marked)
    for z in (0.2, 0.3 - 0.1j):
        a0, a1 = fn_num(z)
        b0, b1 = fn_ref(z)
        assert np.max(np.abs(a0 - b0)) < 1e-8
        assert np.max(np.abs(a1 - b1)) < 1e-8


def _direct_frames(xi, marked, zs):
    lams = np.array([marked.lam0, marked.lam1])
    out = np.empty(zs.shape + (2, 2, 2), dtype=complex)
    for idx, z in np.ndenumerate(zs):
        out[idx] = iwasawa.frame(xi, z).f.evaluate(lams)
    return out[..., 0, :, :], out[..., 1, :, :]


def _window(x0, y0, n=8, h=0.1):
    return (x0 + h * np.arange(n))[None, :] + 1j * (y0 + h * np.arange(n))[:, None]


@pytest.mark.parametrize(
    "a_r, b_r, x0, y0",
    [(0.3, 0.45, 0.2, 4.2), (0.22, 0.4, 3.0, 2.5), (0.38, 0.5, -1.2, 0.3)],
)
def test_tiled_frames_match_direct_delaunay(minimal_marked, a_r, b_r, x0, y0):
    xi = families.delaunay_xi(families.DelaunayParams(a_r, b_r))
    zs = _window(x0, y0)
    assert np.max(np.abs(zs)) <= 5.0
    fn = im.frame_fn_from_xi(xi, minimal_marked)
    f0, f1 = fn(zs)
    r0, r1 = _direct_frames(xi, minimal_marked, zs)
    assert f0.shape == f1.shape == zs.shape + (2, 2)
    assert max(np.max(np.abs(f0 - r0)), np.max(np.abs(f1 - r1))) < 1e-9
    assert fn.defects["anchors"] == 1
    assert fn.defects["unitarity_max"] < 1e-9 and fn.defects["reconstruction_max"] < 1e-9


@pytest.mark.parametrize("beta", [0.3 * np.exp(0.4j), 0.6 * np.exp(-2.2j)])
def test_tiled_frames_match_direct_dressed(minimal_marked, beta):
    base = families.delaunay_xi(families.DelaunayParams(0.28, 0.45))
    xi = la.dress_simple_factor(base, beta)
    zs = _window(0.4, 0.3, n=6, h=0.12)
    f0, f1 = im.frame_fn_from_xi(xi, minimal_marked)(zs)
    r0, r1 = _direct_frames(xi, minimal_marked, zs)
    assert max(np.max(np.abs(f0 - r0)), np.max(np.abs(f1 - r1))) < 1e-9


def test_tiles_cover_grid_with_far_anchors(delaunay_xi, minimal_marked):
    # a 2.5 x 1.2 grid splits into 3 x 2 tiles, each anchored at its farthest point
    zs = (np.linspace(-1.0, 1.5, 11)[None, :] + 1j * np.linspace(0.1, 1.3, 5)[:, None])
    fn = im.frame_fn_from_xi(delaunay_xi, minimal_marked)
    f0, f1 = fn(zs)
    assert fn.defects["anchors"] == 6
    r0, r1 = _direct_frames(delaunay_xi, minimal_marked, zs)
    assert max(np.max(np.abs(f0 - r0)), np.max(np.abs(f1 - r1))) < 1e-9


def test_scalar_supplier_calls(delaunay_xi, minimal_marked, flat_pi4):
    for fn in (
        im.frame_fn_from_xi(delaunay_xi, minimal_marked),
        im.frame_fn_from_closed_form(families.flat_frame, flat_pi4[1]),
        im.frame_fn_from_closed_form(families.sphere_frame, minimal_marked),
    ):
        for z in (0.0, 0.35 - 0.2j):
            f0, f1 = fn(z)
            assert f0.shape == f1.shape == (2, 2)
            assert abs(np.linalg.det(f0) - 1.0) < 1e-9 and abs(np.linalg.det(f1) - 1.0) < 1e-9


def test_closed_form_sample_bit_identical_to_pointwise(minimal_marked):
    # reference: the per-point sampling loop, one supplier call per vertex
    fn = im.frame_fn_from_closed_form(families.flat_frame, minimal_marked)
    s = im.sample_surface(fn, minimal_marked, (0.1, 2.3, -0.4, 1.8), 23, 23)
    f = np.empty_like(s.f)
    n = np.empty_like(s.n)
    for iy, yy in enumerate(s.y):
        for ix, xx in enumerate(s.x):
            f0, f1 = fn(complex(xx, yy))
            f[iy, ix] = im.sym_bobenko(f0, f1)
            n[iy, ix] = im.normal(f0, f1)
    assert np.array_equal(f, s.f) and np.array_equal(n, s.n)


def _reference_csv(sample):
    """The per-value CSV formatter the vectorized writer replaced."""
    rows = ["x,y,f0,f1,f2,f3,u,v,H,Q_re,Q_im"]
    ny, nx = sample.f4.shape[:2]
    for iy in range(ny):
        for ix in range(nx):
            p = sample.f4[iy, ix]
            vals = [
                sample.x[ix], sample.y[iy], p[0], p[1], p[2], p[3],
                sample.u[iy, ix], sample.v[iy, ix], sample.h_num[iy, ix],
            ]
            q = sample.q_num[iy, ix]
            txt = ",".join("nan" if np.isnan(np.real(v)) else f"{np.real(v):.9g}" for v in vals)
            qtxt = (
                "nan,nan"
                if q is None or np.isnan(q.real)
                else f"{q.real:.9g},{q.imag:.9g}"
            )
            rows.append(f"{txt},{qtxt}")
    return ("\n".join(rows) + "\n").encode()


def test_write_surface_csv_bytes_match_reference(minimal_marked, tmp_path):
    fn = im.frame_fn_from_closed_form(families.flat_frame, minimal_marked)
    s = im.sample_surface(fn, minimal_marked, (-0.6, 0.6, -0.3, 0.5), 13, 9)
    # edge cases: -inf and -0.0 fields, Q with only its real or imaginary part NaN
    s.u[3, 4] = -np.inf
    s.v[4, 5] = -0.0
    s.h_num[2, 2] = 1e-300
    s.q_num[3, 3] = complex(np.nan, 0.25)
    s.q_num[4, 4] = complex(0.25, np.nan)
    path = str(tmp_path / "surf.csv")
    im.write_surface_csv(s, path)
    with open(path, "rb") as fh:
        assert fh.read() == _reference_csv(s)


def _reference_obj(sample, stitch_x, stitch_y):
    """The per-vertex, per-face OBJ writer the vectorized export replaced."""
    pts = im.stereographic(sample)
    ny, nx = pts.shape[:2]
    ncols = nx - 1 if stitch_x else nx
    nrows = ny - 1 if stitch_y else ny
    lines = []
    for iy in range(nrows):
        for ix in range(ncols):
            p = pts[iy, ix]
            lines.append(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")

    def vid(iy, ix):
        return (iy % nrows) * ncols + (ix % ncols) + 1

    for iy in range(ny - 1):
        for ix in range(nx - 1):
            lines.append(
                "f {} {} {} {}".format(
                    vid(iy, ix), vid(iy, ix + 1), vid(iy + 1, ix + 1), vid(iy + 1, ix)
                )
            )
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "stitch_x, stitch_y", [(False, False), (True, False), (False, True), (True, True)]
)
def test_export_mesh_bytes_match_reference(minimal_marked, tmp_path, stitch_x, stitch_y):
    fn = im.frame_fn_from_closed_form(families.flat_frame, minimal_marked)
    s = im.sample_surface(fn, minimal_marked, (0.37, 4.812882938, 0.21, 4.652882938), 13, 13)
    path = str(tmp_path / "mesh.obj")
    im.export_mesh(s, path, stitch_x=stitch_x, stitch_y=stitch_y)
    with open(path, "rb") as fh:
        assert fh.read() == _reference_obj(s, stitch_x, stitch_y)
