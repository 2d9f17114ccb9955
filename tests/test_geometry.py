import math
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from proxipair import geometry
from proxipair.errors import (
    DimensionMismatchError,
    DomainError,
    UnsupportedProjectionError,
)
from proxipair.geometry import (
    Ball,
    Box,
    LpSpace,
    Polytope,
    ProximityInstance,
    distance_between,
    project,
)
from proxipair.mappings import MEMBER_TOL
from proxipair.operators import verify_projector_properties

P_GRID = [1.5, 2.0, 3.0]


def segment(space, a, b):
    return Polytope(space, [a, b])


# ---------------------------------------------------------------- spaces


def test_norm_euclidean_345():
    sp = LpSpace(2, 2.0)
    assert sp.norm([3.0, 4.0]) == 5.0


@pytest.mark.parametrize("p", [1000.0, 1e300])
def test_norm_at_large_p_neither_overflows_nor_underflows(p):
    # |5|^1000 overflows and |1e-3|^1000 underflows; both norms are finite,
    # nonzero and right, and nothing warns
    X = np.array([[5.0, 5.0, 1.0], [1e-3, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = LpSpace(3, p).norms(X)
    assert_allclose(norms, [5.0 * 2.0 ** (1.0 / p), 1e-3, 0.0], rtol=1e-14)


@pytest.mark.parametrize("p", [1.5, 3.0, 64.0])
def test_norm_is_the_direct_sum_where_that_is_normal(p, rng):
    X = rng.uniform(-3.0, 3.0, (200, 4))
    assert_array_equal(LpSpace(4, p).norms(X),
                       np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p))


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("dim", [3, 8])
def test_norm_of_a_vector_is_its_norm_as_a_row(p, dim, rng):
    # numpy's p-th root of a scalar and its pairwise sum of one vector from
    # dim 8 on may each differ in the last bit from the row path
    sp = LpSpace(dim, p)
    X = rng.normal(size=(2000, dim))
    assert _same_bits(np.array([sp.norms(x) for x in X]), sp.norms(X))
    assert [sp.norm(x) for x in X] == sp.norms(X).tolist()


def test_norm_keeps_infinite_and_nan_entries():
    norms = LpSpace(2, 3.0).norms(np.array([[np.inf, 1.0], [np.nan, 0.0]]))
    assert norms[0] == np.inf and np.isnan(norms[1])


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("x", [1e200, 1e-200])
def test_norm_rescales_where_the_squares_leave_the_floats(p, x):
    # at p = 2, 1e200^2 overflows and 1e-200^2 underflows to 0
    sp = LpSpace(2, p)
    X = np.array([[x, 0.0], [x, -x], [0.0, 0.0], [3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sp.norm([x, 0.0]) == x
        norms = sp.norms(X)
    assert_allclose(norms, [x, 2.0 ** (1.0 / p) * x, 0.0, sp.norm([3.0, 4.0])],
                    rtol=1e-15)


def test_norm_p2_is_the_direct_sum_where_that_is_normal(rng):
    X = rng.uniform(-3.0, 3.0, (200, 4))
    X[::7] = 0.0
    assert_array_equal(LpSpace(4, 2.0).norms(X),
                       np.sqrt(np.sum(X * X, axis=1)))
    for x in X[:20]:
        assert LpSpace(4, 2.0).norm(x) == np.sqrt(np.sum(x * x))


def _stack(rng, n, dim):
    """Normal entries with zero rows, infinities and nans mixed in."""
    X = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 8, (n, dim))
    if n >= 5:
        X[1] = 0.0
        X[2, 0] = np.inf
        X[3, -1] = -np.inf
        X[4, 0] = np.nan
    return X


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_row_reductions_equal_numpy_bit_for_bit(dim, n, rng):
    X = _stack(rng, n, dim)
    assert _same_bits(geometry._reduce_rows(np.add, X), np.sum(X, axis=1))
    assert _same_bits(geometry._reduce_rows(np.maximum, X), np.max(X, axis=1))
    assert _same_bits(geometry._reduce_rows(np.logical_and, X > 0.0),
                      np.all(X > 0.0, axis=1))


@pytest.mark.parametrize("dim", [8, 16])
def test_row_sums_past_dim_7_agree_with_numpy_to_rounding(dim, rng):
    # numpy sums a row of 8 or more pairwise, the column loop left to right
    X = _stack(rng, 1000, dim)
    X[:5] = rng.normal(size=(5, dim))
    A = np.abs(X)
    assert_allclose(geometry._reduce_rows(np.add, A), np.sum(A, axis=1), rtol=1e-15)
    assert _same_bits(geometry._reduce_rows(np.maximum, A), np.max(A, axis=1))


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_clamp_equals_clip(dim, n, rng):
    X = _stack(rng, n, dim)
    lo = rng.normal(size=dim)
    hi = lo + rng.uniform(0.0, 2.0, dim)
    hi[::2] = lo[::2]  # flat axes
    assert _same_bits(geometry._clamp_rows(X, lo, hi), np.clip(X, lo, hi))


def _layouts(rng, n, dim, stack=_stack):
    """The same kind of stack C-ordered, Fortran-ordered and strided."""
    return [stack(rng, n, dim), np.asfortranarray(stack(rng, n, dim)),
            stack(rng, 2 * n, dim)[::2]]


def _finite_stack(rng, n, dim):
    return rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 8, (n, dim))


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_affine_rows_equal_the_row_major_product_bit_for_bit(dim, n, rng):
    for k in (dim, 3):  # a map's matrix, or three face normals
        M = rng.normal(size=(k, dim))
        c = rng.normal(size=k)
        for X in _layouts(rng, n, dim, _finite_stack):
            assert _same_bits(geometry._affine_rows(X, M, c), X @ M.T + c)
            assert _same_bits(geometry._affine_rows(X, M), X @ M.T)


@pytest.mark.parametrize("dim", [8, 16])
def test_affine_rows_past_dim_7_agree_to_rounding(dim, rng):
    # positive terms: no cancellation, so any summation order is within
    # dim rounding errors of any other
    X = rng.uniform(0.0, 1.0, (1000, dim))
    M = rng.uniform(0.0, 1.0, (dim, dim))
    c = rng.uniform(0.0, 1.0, dim)
    assert_allclose(geometry._affine_rows(X, M, c), X @ M.T + c, rtol=1e-14, atol=0)


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_segment_nearest_equals_the_row_major_expression(dim, n, rng):
    v0 = rng.normal(size=dim)
    d = rng.normal(size=dim)
    for X in _layouts(rng, n, dim, _finite_stack):
        C = np.ascontiguousarray(X)
        t = (C - v0) @ d / (d @ d)
        nearest, got_t = geometry._segment_nearest(X, v0, d)
        assert _same_bits(got_t, t)
        assert _same_bits(nearest, v0 + np.clip(t, 0.0, 1.0)[:, None] * d)


def test_norm_p4_diagonal():
    # (1^4 + 1^4)^(1/4) = 2^(1/4)
    sp = LpSpace(2, 4.0)
    assert_allclose(sp.norm([1.0, 1.0]), 2.0 ** 0.25, atol=1e-15)


def test_norm_zero_vector():
    sp = LpSpace(3, 1.7)
    assert sp.norm([0.0, 0.0, 0.0]) == 0.0


@pytest.mark.parametrize("p", [1.0, 0.5, 0.0, -2.0, math.inf, math.nan])
def test_space_rejects_bad_exponents(p):
    with pytest.raises(ValueError):
        LpSpace(2, p)


@pytest.mark.parametrize("dim", [0, -1])
def test_space_rejects_bad_dims(dim):
    with pytest.raises(ValueError):
        LpSpace(dim, 2.0)


def test_norm_dimension_mismatch():
    sp = LpSpace(3, 2.0)
    with pytest.raises(DimensionMismatchError):
        sp.norm([1.0, 2.0])


@pytest.mark.parametrize("p", P_GRID)
def test_norm_axioms_sampled(p, rng):
    sp = LpSpace(4, p)
    for _ in range(200):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        t = rng.uniform(-3, 3)
        assert sp.norm(x) >= 0.0
        assert_allclose(sp.norm(t * x), abs(t) * sp.norm(x), rtol=1e-12)
        assert sp.norm(x + y) <= sp.norm(x) + sp.norm(y) + 1e-12


@pytest.mark.parametrize("p", P_GRID)
def test_strict_convexity_of_midpoints(p, rng):
    # distinct points of the unit sphere average strictly inside it
    sp = LpSpace(3, p)
    for _ in range(100):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        x = x / sp.norms(x)
        y = y / sp.norms(y)
        if sp.norm(x - y) < 1e-6:
            continue
        assert sp.norm((x + y) / 2.0) < 1.0


# ------------------------------------------------------------ projections


def test_ball_projection_p2():
    sp = LpSpace(2, 2.0)
    ball = Ball(sp, [2.0, 0.0], 1.0)
    assert_allclose(project(ball, [0.0, 0.0]), [1.0, 0.0], atol=1e-15)


def test_ball_projection_inside_is_identity():
    sp = LpSpace(2, 3.0)
    ball = Ball(sp, [0.0, 0.0], 2.0)
    assert_allclose(project(ball, [0.5, -0.3]), [0.5, -0.3], atol=0)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
def test_ball_projection_matches_constrained_solver(p, rng):
    # independent oracle: SLSQP on min ||x-y||_p subject to ||y-c||_p <= r
    from scipy.optimize import minimize

    sp = LpSpace(3, p)
    for _ in range(5):
        c = rng.uniform(-2, 2, 3)
        r = rng.uniform(0.5, 2.0)
        x = c + rng.uniform(1.5, 4.0) * rng.normal(size=3)
        if sp.norm(x - c) <= r:
            continue
        ball = Ball(sp, c, r)
        y = project(ball, x)
        start = c + (x - c) / np.linalg.norm(x - c) * r * 0.9
        res = minimize(
            lambda z: sp.norm(x - z), start,
            constraints=[{"type": "ineq", "fun": lambda z: r - sp.norm(z - c)}],
            method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
        assert sp.norm(x - y) <= sp.norm(x - res.x) + 1e-9
        assert_allclose(sp.norm(y - c), r, atol=1e-12)


@pytest.mark.parametrize("p", P_GRID)
def test_box_projection_is_clamp(p):
    sp = LpSpace(2, p)
    box = Box(sp, [0.0, 0.0], [1.0, 1.0])
    assert_allclose(project(box, [2.0, -1.0]), [1.0, 0.0], atol=0)
    assert_allclose(project(box, [0.25, 0.75]), [0.25, 0.75], atol=0)


def test_box_member_many_matches_member(rng):
    sp = LpSpace(3, 2.0)
    box = Box(sp, [0.0, 1.0, -2.0], [1.0, 1.0, 0.5])  # flat along axis 1
    X = rng.uniform(-1.0, 2.0, (300, 3))
    X[::3, 1] = 1.0 + rng.uniform(-2e-9, 2e-9, 100)
    X[5] = [0.5, np.nan, 0.0]
    X[6] = [0.5, 1.0, np.inf]
    for tol in (0.0, 1e-9):
        assert_array_equal(box.member_many(X, tol), [box.member(x, tol) for x in X])


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("tol", [0.0, 1e-9, MEMBER_TOL])
def test_ball_member_many_matches_member(p, tol, rng):
    # random points, points of the sphere, and those pushed radially in and
    # out by half and twice the tolerance
    sp = LpSpace(3, p)
    ball = Ball(sp, [0.5, -1.0, 2.0], 1.5)
    random = rng.uniform(-2.0, 4.0, (200, 3))
    u = rng.normal(size=(200, 3))
    u /= sp.norms(u)[:, None]
    pushed = [ball.center + (ball.radius + f * tol) * u
              for f in (-2.0, -0.5, 0.0, 0.5, 2.0)]
    X = np.vstack([random, *pushed])
    assert_array_equal(ball.member_many(X, tol), [ball.member(x, tol) for x in X])


def test_box_corners_list_a_flat_axis_once():
    sp = LpSpace(3, 2.0)
    corners = Box(sp, [0.0, 1.0, -2.0], [1.0, 1.0, 0.5]).corners()
    assert_array_equal(corners, [[0.0, 1.0, -2.0], [0.0, 1.0, 0.5],
                                 [1.0, 1.0, -2.0], [1.0, 1.0, 0.5]])
    # the bound is on free axes: 20 axes of which 16 are free
    sp20 = LpSpace(20, 2.0)
    hi = np.ones(20)
    hi[:4] = 0.0
    assert len(Box(sp20, np.zeros(20), hi).corners()) == 2 ** 16
    assert Box(sp20, np.zeros(20), np.ones(20)).corners() is None


def test_triangle_projection():
    # active face x+y <= 2 gives the closed form used as oracle
    sp = LpSpace(2, 2.0)
    tri = Polytope(sp, [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert_allclose(project(tri, [2.0, 2.0]), [1.0, 1.0], atol=1e-9)
    assert_allclose(project(tri, [0.5, 0.5]), [0.5, 0.5], atol=1e-12)
    assert_allclose(project(tri, [-1.0, -1.0]), [0.0, 0.0], atol=1e-9)


def _polygon_qp_oracle(verts, x):
    # independent oracle: nearest point as a small QP over hull coefficients,
    # y = sum_i w_i v_i with w on the simplex
    from scipy.optimize import minimize

    k = len(verts)
    w0 = np.full(k, 1.0 / k)
    res = minimize(
        lambda w: float(np.sum((w @ verts - x) ** 2)), w0,
        constraints=[{"type": "eq", "fun": lambda w: np.sum(w) - 1.0}],
        bounds=[(0.0, 1.0)] * k,
        method="SLSQP", options={"maxiter": 1000, "ftol": 1e-16})
    return res.x @ verts


def test_polygon_projection_matches_qp_oracle(rng):
    sp = LpSpace(2, 2.0)
    checked = 0
    for _ in range(20):
        k = rng.integers(3, 8)
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        rad = rng.uniform(0.5, 2.0, k)
        verts = np.c_[rad * np.cos(ang), rad * np.sin(ang)] + rng.uniform(-1, 1, 2)
        poly = Polytope(sp, verts)
        x = rng.uniform(-6, 6, 2)
        if poly.member(x, 1e-9):
            continue
        y = project(poly, x)
        oracle = _polygon_qp_oracle(verts, x)
        assert sp.norm(x - y) <= sp.norm(x - oracle) + 1e-7
        checked += 1
    assert checked >= 10


def test_sliver_polygon_projection_stays_robust():
    # nearly collinear triangle: halfspace iterations would crawl here
    sp = LpSpace(2, 2.0)
    verts = np.array([[0.8067109278030417, -0.4195112071436067],
                      [1.2583568721476723, -0.05036530071992368],
                      [1.2595050457229067, -0.03901773232718142]])
    poly = Polytope(sp, verts)
    x = np.array([-0.041139674413763316, -4.037479005642236])
    y = project(poly, x)
    oracle = _polygon_qp_oracle(verts, x)
    assert sp.norm(x - y) <= sp.norm(x - oracle) + 1e-9


@pytest.mark.parametrize("p", P_GRID)
def test_axis_aligned_segment_projection_any_p(p):
    sp = LpSpace(2, p)
    seg = segment(sp, [1.0, 0.0], [2.0, 0.0])
    assert_allclose(project(seg, [3.0, 4.0]), [2.0, 0.0], atol=0)
    assert_allclose(project(seg, [1.25, -2.0]), [1.25, 0.0], atol=0)


def test_general_segment_projection_p2():
    sp = LpSpace(2, 2.0)
    seg = segment(sp, [0.0, 0.0], [2.0, 2.0])
    assert_allclose(project(seg, [2.0, 0.0]), [1.0, 1.0], atol=1e-12)


def test_general_segment_unsupported_off_p2():
    sp = LpSpace(2, 3.0)
    seg = segment(sp, [0.0, 0.0], [2.0, 2.0])
    with pytest.raises(UnsupportedProjectionError):
        project(seg, [2.0, 0.0])


@pytest.mark.parametrize("p", P_GRID)
def test_single_vertex_polytope_any_p(p):
    sp = LpSpace(3, p)
    pt = Polytope(sp, [[1.0, 2.0, 3.0]])
    assert_allclose(project(pt, [0.0, 0.0, 0.0]), [1.0, 2.0, 3.0], atol=0)


def test_polytope_dim3_projection_is_unsupported():
    sp = LpSpace(3, 2.0)
    simplex = Polytope(sp, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(UnsupportedProjectionError):
        project(simplex, [1.0, 1.0, 1.0])


def _random_bodies(sp, rng):
    yield Ball(sp, rng.uniform(-2, 2, sp.dim), rng.uniform(0.5, 2.0))
    lo = rng.uniform(-2, 0, sp.dim)
    yield Box(sp, lo, lo + rng.uniform(0.2, 2.0, sp.dim))
    a = rng.uniform(0, 1, sp.dim)
    yield segment(sp, a, a + np.eye(sp.dim)[0] * rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("p", P_GRID)
def test_projection_idempotent(p, rng):
    sp = LpSpace(3, p)
    for body in _random_bodies(sp, rng):
        for _ in range(50):
            x = rng.uniform(-4, 4, 3)
            y = project(body, x)
            assert sp.norm(project(body, y) - y) <= 1e-9


def test_projection_variational_characterization_p2(rng):
    # at p=2 the projection satisfies <x - Px, a - Px> <= 0 for all a in the body
    sp = LpSpace(3, 2.0)
    for body in _random_bodies(sp, rng):
        pts = body.sample(rng, 100)
        for _ in range(20):
            x = rng.uniform(-4, 4, 3)
            y = project(body, x)
            inner = (pts - y) @ (x - y)
            assert float(np.max(inner)) <= 1e-9


def test_projection_nonexpansive_p2(rng):
    sp = LpSpace(3, 2.0)
    for body in _random_bodies(sp, rng):
        for _ in range(50):
            x = rng.uniform(-4, 4, 3)
            y = rng.uniform(-4, 4, 3)
            assert (sp.norm(project(body, x) - project(body, y))
                    <= sp.norm(x - y) + 1e-12)


def test_project_many_matches_pointwise(rng):
    sp = LpSpace(2, 2.0)
    tri = Polytope(sp, [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    X = rng.uniform(-3, 3, (25, 2))
    batch = tri.project_many(X)
    single = np.array([project(tri, x) for x in X])
    assert_allclose(batch, single, atol=1e-9)


def test_polygon_face_halfspaces_are_built_once(monkeypatch):
    sp = LpSpace(2, 2.0)
    tri = Polytope(sp, [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert tri.member([0.5, 0.5])
    tri.project_many([[2.0, 2.0]])
    calls = []
    monkeypatch.setattr(geometry, "_hull_edges_2d", lambda V: calls.append(1))
    assert tri.member([0.5, 0.5])
    assert not tri.member([2.0, 2.0])
    assert_allclose(tri.project_many([[2.0, 2.0], [0.5, 0.5]]),
                    [[1.0, 1.0], [0.5, 0.5]], atol=1e-12)
    assert calls == []
    assert "_faces" in vars(tri)


def _project_polygon_per_edge(sp, H, X):
    """The reference for the polygon projection: inside rows stay, every
    other row takes the nearest of `_segment_nearest` over the edges, one
    edge at a time, a later edge only when strictly nearer."""
    edges = [(H[i], H[(i + 1) % len(H)]) for i in range(len(H))]
    normals = np.array([[v1[1] - v0[1], v0[0] - v1[0]] for v0, v1 in edges])
    offsets = np.array([float(a @ v0) for a, (v0, _) in zip(normals, edges)])
    inside = np.all(geometry._affine_rows(X, normals, -offsets) <= 0.0, axis=1)
    out = np.array(X)
    Y = X[~inside]
    best = best_d = None
    for v0, v1 in edges:
        cand = geometry._segment_nearest(Y, v0, v1 - v0)[0]
        dist = sp.norms(Y - cand)
        if best is None:
            best, best_d = cand, dist
        else:
            nearer = dist < best_d
            best[nearer], best_d[nearer] = cand[nearer], dist[nearer]
    out[~inside] = best
    return out, Y


def test_polygon_projection_equals_the_per_edge_loop_bit_for_bit(rng):
    sp = LpSpace(2, 2.0)
    ties = 0
    for _ in range(200):
        V = rng.normal(size=(rng.integers(3, 12), 2)) * rng.uniform(0.01, 100.0)
        poly = Polytope(sp, V)
        H = poly._faces[0]
        assert_array_equal(H, geometry._hull_edges_2d(V))
        # points around the polygon, and points in the cone outside each
        # vertex, which are nearest to that vertex on both of its edges: edge
        # i reaches H[i + 1] as H[i] + D[i], which may differ in the last
        # bit, at the same distance, and edge i + 1 as H[i + 1] itself
        N = poly._faces[2] / poly._faces[4][:, None]
        cone = (H + rng.uniform(0.0, 10.0, (len(H), 1))
                * (N + np.roll(N, 1, axis=0)) * rng.uniform(0.1, 1.0, (len(H), 1)))
        X = np.vstack([rng.normal(size=(300, 2)) * 2.0 * np.abs(V).max(), cone])
        ref, Y = _project_polygon_per_edge(sp, H, X)
        assert _same_bits(poly.project_many(X), ref)
        # how many rows meet two edges' different candidates at one distance
        D = np.roll(H, -1, axis=0) - H
        cands = [geometry._segment_nearest(Y, h, d)[0] for h, d in zip(H, D)]
        dists = np.array([sp.norms(Y - c) for c in cands])
        first = dists.argmin(axis=0)
        for j, i in enumerate(first):
            later = np.flatnonzero(dists[i + 1:, j] == dists[i, j]) + i + 1
            ties += any(not np.array_equal(cands[k][j], cands[i][j]) for k in later)
    assert ties > 0


def test_hull_edges_match_scipy_convex_hull(rng):
    # an independent reference: qhull lists a 2-D hull's vertices counter-
    # clockwise, without the points inside it or on its edges
    from scipy.spatial import ConvexHull, QhullError

    for _ in range(200):
        # even coordinates on a small grid: many duplicates, interior points
        # and points on hull edges, which the edge midpoints add exactly
        X = 2.0 * rng.integers(0, 5, (rng.integers(3, 25), 2))
        try:
            order = ConvexHull(X).vertices
        except QhullError:  # qhull rejects collinear sets
            continue
        X = np.vstack([X, X[:3], (X[order] + np.roll(X[order], -1, axis=0)) / 2.0])
        H = geometry._hull_edges_2d(X)
        ref = X[order]
        assert len(H) == len(ref)
        first = int(np.flatnonzero((ref == H[0]).all(axis=1))[0])
        assert_array_equal(H, np.roll(ref, -first, axis=0))


def test_hull_edges_of_a_point_or_collinear_points_are_none(rng):
    assert geometry._hull_edges_2d(np.array([[1.0, 2.0]] * 3)) is None
    t = rng.uniform(-1.0, 1.0, (10, 1))
    for X in ([0.0, 1.0] + t * [2.0, 0.0], [1.0, 0.0] + np.round(8 * t) * [1.0, 2.0]):
        assert geometry._hull_edges_2d(X) is None


def test_collinear_vertices_are_the_segment_between_the_extremes():
    sp2, sp3 = LpSpace(2, 2.0), LpSpace(3, 2.0)
    diagonal = Polytope(sp2, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [0.5, 0.5]])
    assert_array_equal(diagonal.distinct_vertices, [[0.0, 0.0], [2.0, 2.0]])
    skew = Polytope(sp3, [[2.0, -4.0, 6.0], [0.0, 0.0, 0.0], [1.0, -2.0, 3.0]])
    assert_array_equal(skew.distinct_vertices, [[0.0, 0.0, 0.0], [2.0, -4.0, 6.0]])
    assert_allclose(project(skew, [1.0, 1.0, 1.0]), [1 / 7, -2 / 7, 3 / 7], atol=1e-15)
    axis = Polytope(sp3, [[0.0, 1.0, 2.0], [0.0, 3.0, 2.0], [0.0, 2.0, 2.0]])
    assert_array_equal(axis.box[0], [0.0, 1.0, 2.0])
    assert_array_equal(axis.box[1], [0.0, 3.0, 2.0])
    # one unit in the last place off the line: a triangle
    thin = Polytope(sp2, [[0.0, 0.0], [1.0, 1.0 + 2.0 ** -52], [2.0, 2.0]])
    assert len(thin.distinct_vertices) == 3


def _polytope_shapes():
    sp2, sp3 = LpSpace(2, 2.0), LpSpace(3, 2.0)
    return {
        "point": Polytope(sp2, [[1.0, -1.0], [1.0, -1.0]]),
        "axis-segment": Polytope(sp3, [[0.0, 1.0, 2.0], [0.0, 4.0, 2.0]]),
        "short-axis-segment": Polytope(sp2, [[0.5, 1.0], [0.25, 1.0]]),
        "segment": Polytope(sp2, [[0.0, 0.0], [2.0, 1.0]]),
        "collinear": Polytope(sp3, [[0.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.5, 2.0, -0.5]]),
        "polygon": Polytope(sp2, [[0.0, 0.0], [2.0, 0.0], [2.5, 1.5], [0.0, 2.0]]),
    }


@pytest.mark.parametrize("shape", sorted(_polytope_shapes()))
@pytest.mark.parametrize("tol", [1e-12, 1e-7])
def test_polytope_member_many_matches_member(shape, tol, rng):
    body = _polytope_shapes()[shape]
    V = body.distinct_vertices
    random = rng.uniform(V.min(axis=0) - 1.0, V.max(axis=0) + 1.0, (200, body.space.dim))
    # vertices, points on segments between vertex pairs (hull edges among
    # them), and the same points pushed off by half and twice the tolerance
    i, j = rng.integers(0, len(V), (2, 200))
    lam = rng.uniform(0.0, 1.0, (200, 1))
    boundary = np.vstack([V, lam * V[i] + (1.0 - lam) * V[j]])
    push = rng.normal(size=boundary.shape)
    push /= np.linalg.norm(push, axis=1, keepdims=True)
    X = np.vstack([random, boundary, boundary + 0.5 * tol * push,
                   boundary + 2.0 * tol * push])
    assert_array_equal(body.member_many(X, tol), [body.member(x, tol) for x in X])


@pytest.mark.parametrize("tol", [1e-12, 1e-7])
@pytest.mark.parametrize("length", [0.25, 3.0])
def test_axis_segment_membership_is_the_parameter_window(length, tol):
    # a point is on the segment when its parameter t along it lies in
    # [-tol, 1 + tol] and it is within tol of the clamped point: so past an
    # end, along the axis, within tol * min(1, length)
    seg = Polytope(LpSpace(2, 2.0), [[0.5, 1.0], [0.5 + length, 1.0]])
    reach = tol * min(1.0, length)
    ends = np.array([[0.5, 1.0], [0.5 + length, 1.0]])
    out = np.array([[-1.0, 0.0], [1.0, 0.0]])
    X = np.vstack([ends + f * reach * out for f in (0.5, 2.0)]
                  + [ends + [0.0, f * tol] for f in (0.5, 2.0)])
    expected = [True, True, False, False, True, True, False, False]
    assert_array_equal(seg.member_many(X, tol), expected)
    assert [seg.member(x, tol) for x in X] == expected


def test_body_validation():
    sp = LpSpace(2, 2.0)
    with pytest.raises(ValueError):
        Ball(sp, [0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        Box(sp, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        Polytope(sp, np.empty((0, 2)))
    with pytest.raises(DimensionMismatchError):
        Ball(sp, [0.0, 0.0, 0.0], 1.0)


# ------------------------------------------------------------- membership


def test_contains_examples():
    sp = LpSpace(2, 2.0)
    ball = Ball(sp, [0.0, 0.0], 1.0)
    assert ball.member([0.0, 0.0])
    assert not ball.member([2.0, 0.0])
    box = Box(sp, [0.0, 0.0], [1.0, 1.0])
    assert box.member([1.0 + 1e-12, 0.5], tol=1e-9)
    assert not box.member([1.1, 0.5], tol=1e-9)


# -------------------------------------------------------------- distances


def test_distance_between_balls():
    sp = LpSpace(2, 2.0)
    res = distance_between(Ball(sp, [-2.0, 0.0], 1.0), Ball(sp, [2.0, 0.0], 1.0))
    assert res.converged
    assert_allclose(res.dist, 2.0, atol=1e-8)
    assert_allclose(res.a, [-1.0, 0.0], atol=1e-8)
    assert_allclose(res.b, [1.0, 0.0], atol=1e-8)


@pytest.mark.parametrize("p", P_GRID)
def test_distance_parallel_segments(p):
    sp = LpSpace(2, p)
    res = distance_between(segment(sp, [1.0, 0.0], [2.0, 0.0]),
                           segment(sp, [1.0, 1.0], [2.0, 1.0]))
    assert res.converged
    assert_allclose(res.dist, 1.0, atol=1e-9)


def test_distance_overlapping_boxes_is_zero():
    sp = LpSpace(2, 2.0)
    res = distance_between(Box(sp, [0, 0], [1, 1]), Box(sp, [0.5, 0], [1.5, 1]))
    assert res.converged
    assert_allclose(res.dist, 0.0, atol=1e-12)


def test_distance_unpacks_as_triple():
    sp = LpSpace(2, 2.0)
    res = distance_between(Ball(sp, [-2, 0], 1.0), Ball(sp, [2, 0], 1.0))
    assert_allclose(res.dist, 2.0, atol=1e-8)
    assert_allclose(res.a, [-1.0, 0.0], atol=1e-8)
    assert_allclose(res.b, [1.0, 0.0], atol=1e-8)


@pytest.mark.parametrize("p", P_GRID)
def test_distance_lower_bounds_cross_pairs(p, rng):
    sp = LpSpace(2, p)
    A = Box(sp, [-2.0, -1.0], [-0.5, 1.0])
    B = Ball(sp, [2.0, 0.0], 1.0)
    res = distance_between(A, B)
    xs = A.sample(rng, 200)
    ys = B.sample(rng, 200)
    cross = sp.norms(xs - ys)
    assert res.dist <= float(np.min(cross)) + 1e-9


def test_distance_mismatched_spaces():
    with pytest.raises(DimensionMismatchError):
        distance_between(Ball(LpSpace(2, 2.0), [0, 0], 1.0),
                         Ball(LpSpace(3, 2.0), [0, 0, 0], 1.0))


# ----------------------------------------------------------- proximal sets


def seg_instance(p=2.0, seed=0):
    sp = LpSpace(2, p)
    return ProximityInstance(segment(sp, [1.0, 0.0], [2.0, 0.0]),
                             segment(sp, [1.0, 1.0], [2.0, 1.0]), seed=seed)


def ball_instance():
    sp = LpSpace(2, 2.0)
    return ProximityInstance(Ball(sp, [-2.0, 0.0], 1.0), Ball(sp, [2.0, 0.0], 1.0))


def test_instance_caches_distance():
    inst = seg_instance()
    assert_allclose(inst.dist, 1.0, atol=1e-9)
    a, b = inst.realizing_pair
    assert_allclose(inst.space.norm(a - b), inst.dist, atol=1e-9)


def test_sample_proximal_segment_pair(rng):
    inst = seg_instance()
    xs = inst.sample_proximal("A", 64, rng)
    assert xs.shape == (64, 2)
    assert_allclose(xs[:, 1], 0.0, atol=1e-12)
    assert float(np.ptp(xs[:, 0])) > 0.2  # spread across the proximal segment
    assert float(np.max(inst.proximal_deviations(xs, "A"))) <= 1e-9


def test_sample_proximal_ball_pair_collapses(rng):
    inst = ball_instance()
    xs = inst.sample_proximal("A", 32, rng)
    assert_allclose(xs, np.tile([-1.0, 0.0], (32, 1)), atol=1e-6)


@pytest.mark.parametrize("centre, points", [(7.0, True), (6.0, True), (5.0, False)])
def test_proximal_sets_are_points_when_a_ball_is_apart_or_touching(centre, points,
                                                                    rng):
    # radius-2 balls at p = 3: apart, touching at (4, 2), and overlapping,
    # where A and B share interior points
    sp = LpSpace(2, 3.0)
    inst = ProximityInstance(Ball(sp, [2.0, 2.0], 2.0), Ball(sp, [centre, 2.0], 2.0))
    assert inst.proximal_sets_are_points is points
    if points:
        a_star = inst.realizing_pair[0]
        assert_array_equal(inst.sample_proximal("A", 5, rng), np.tile(a_star, (5, 1)))


def _facing_quads(tilt: float):
    """A's top edge on y = 0 from x = -1 to 1; B's bottom edge rises from
    (0, 0.5) at angle `tilt`, so B's lowest vertex is (0, 0.5) when tilt > 0."""
    sp = LpSpace(2, 2.0)
    gap = 0.5
    rise = gap + math.tan(tilt)
    A = Polytope(sp, [[-1.0, -1.0], [1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]])
    B = Polytope(sp, [[0.0, gap], [1.0, rise], [1.0, rise + 1.0], [0.0, gap + 1.0]])
    return A, B


def _touching_squares():
    """A unit square on A's top edge: A0, the common part, is [0, 1] x {0}."""
    A, _ = _facing_quads(1e-3)
    return A, Polytope(A.space, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _box_pair(p: float, b_lo: list):
    sp = LpSpace(2, p)
    return Box(sp, [0.0, 0.0], [1.0, 1.0]), Box(sp, b_lo, [b_lo[0] + 1.0, b_lo[1] + 1.0])


@pytest.mark.parametrize("pair, points", [
    (_facing_quads(1e-3), True),
    (_facing_quads(1e-13), False),  # the facing vertices lie within tol of a line
    (_facing_quads(0.0), False),  # parallel facing edges: A0 is a segment
    (_touching_squares(), False),  # dist 0: no exposing direction
    (_box_pair(1.5, [2.0, 2.0]), True),  # diagonal boxes: A0 is the corner (1, 1)
    (_box_pair(3.0, [2.0, 2.0]), True),
    (_box_pair(3.0, [2.0, 0.0]), False),  # flat-facing boxes: A0 is an edge
], ids=["tilt-1e-3", "tilt-1e-13", "parallel", "touching", "diagonal-boxes-1.5",
        "diagonal-boxes-3", "flat-boxes"])
def test_proximal_sets_are_points_when_an_exposed_face_is_a_vertex(pair, points, rng):
    inst = ProximityInstance(*pair)
    assert inst.proximal_sets_are_points is points
    if points:
        a_star = inst.realizing_pair[0]
        assert_array_equal(inst.sample_proximal("A", 5, rng), np.tile(a_star, (5, 1)))
    checks = verify_projector_properties(inst, samples=50)
    assert {tuple(c.flags) for c in checks} == {("degenerate",) if points else ()}


@pytest.mark.parametrize("B_is_a_ball", [True, False])
def test_sample_proximal_with_a_ball_is_the_realizing_pair(B_is_a_ball, monkeypatch,
                                                           rng):
    # one strictly convex body makes both proximal sets single points, so
    # no alternating projections run and nothing is drawn
    sp = LpSpace(2, 3.0)
    B = (Ball(sp, [2.0, 0.5], 1.0) if B_is_a_ball
         else Box(sp, [1.0, -1.0], [2.0, 1.0]))
    inst = ProximityInstance(Ball(sp, [-2.0, 0.0], 1.0), B)

    def proximalize(*args, **kwargs):
        raise AssertionError("proximalize called")

    monkeypatch.setattr(ProximityInstance, "proximalize", proximalize)
    state = rng.bit_generator.state
    a_star, b_star = inst.realizing_pair
    assert_array_equal(inst.sample_proximal("A", 7, rng), np.tile(a_star, (7, 1)))
    assert_array_equal(inst.sample_proximal("B", 7, rng), np.tile(b_star, (7, 1)))
    assert rng.bit_generator.state == state


def test_cross_samples_are_drawn_once_from_one_stream():
    inst = seg_instance(seed=3)
    xs, ys = inst.cross_samples(50)
    again = inst.cross_samples(50)
    assert again[0] is xs and again[1] is ys
    stream = np.random.default_rng(3)
    assert_array_equal(xs, inst.A.sample(stream, 50))
    assert_array_equal(ys, inst.B.sample(stream, 50))
    px, py = inst.cross_samples(50, proximal=True)
    stream = np.random.default_rng(3)
    assert_array_equal(px, inst.sample_proximal("A", 50, stream))
    assert_array_equal(py, inst.sample_proximal("B", 50, stream))
    assert not np.array_equal(seg_instance(seed=4).cross_samples(50)[0], xs)
    assert inst.cross_samples(51)[0] is not xs


@pytest.mark.parametrize("proximal", [False, True])
def test_cross_samples_are_read_only(proximal):
    xs, ys = seg_instance().cross_samples(20, proximal)
    with pytest.raises(ValueError):
        xs[0, 0] = 1.0
    with pytest.raises(ValueError):
        ys[:] = 0.0


@pytest.mark.parametrize("shape", sorted(_polytope_shapes()))
def test_polytope_sample_covers_the_body(shape, rng):
    # Dirichlet vertex weights stay inside the hull and reach every vertex
    body = _polytope_shapes()[shape]
    X = body.sample(rng, 1000)
    assert X.shape == (1000, body.space.dim)
    assert body.member_many(X, 1e-12).all()
    for v in body.distinct_vertices:
        assert float(np.min(body.space.norms(X - v))) < 0.3


def test_sliver_triangle_samples_quickly(rng):
    # about one bounding-box draw in 200,000 lands in this triangle
    sp = LpSpace(2, 2.0)
    tri = Polytope(sp, [[0.0, 0.0], [10.0, 10.0], [10.0, 10.0001]])
    start = time.perf_counter()
    X = tri.sample(rng, 1000)
    assert time.perf_counter() - start < 1.0
    assert tri.member_many(X).all()


@pytest.mark.parametrize("dim,p", [(3, 3.0), (16, 2.0)])
def test_ball_sample_is_uniform(dim, p, rng):
    # for a uniform point of a dim-dimensional ball, (||x - c|| / r)^dim is
    # uniform on [0, 1]; over 20k samples its mean is 0.5 within 0.002 (1 sd)
    sp = LpSpace(dim, p)
    ball = Ball(sp, np.linspace(-1.0, 1.0, dim), 1.5)
    X = ball.sample(rng, 20_000)
    assert X.shape == (20_000, dim)
    assert ball.member_many(X, 0.0).all()
    fraction = (sp.norms(X - ball.center) / ball.radius) ** dim
    assert abs(float(np.mean(fraction)) - 0.5) <= 0.02
