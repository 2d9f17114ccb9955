"""Ambient lp spaces, convex bodies, nearest-point projections, set distances.

Everything downstream (projectors, solvers, certification) reduces to three
primitives defined here: the lp norm, the metric projection onto a convex
body, and the distance between a pair of bodies computed by alternating
projections.  Projections come in closed form for balls, boxes, points,
segments and 2-D polygons; a polytope is the hull of its vertices, and one
of dimension >= 3 that is not a point or a segment has no projection.

Every certifier, check and solver applies these primitives to tall, thin
stacks of points: thousands of rows of a few coordinates each.  numpy
reduces such an (n, dim) stack along its rows with an inner loop of length
dim per row.  On (10000, dim) stacks with dim from 2 to 6 (numpy 2.4, one
x86 core), a row sum took 5 to 20 times, a row maximum 18 to 65 times and
a clip 1.5 to 8 times as long as the same work done one column at a time.
So reductions and clamps go through `_reduce_rows` and `_clamp_rows`,
which work column by column.  A column loop adds a row left to right, as
numpy does for dim <= 7; from dim 8 on numpy sums pairwise, so there a sum
may differ in the last bit.  At dim 2 to 3, X @ M.T + c took 129 to 146 us
(one OpenBLAS thread) and `_affine_rows`, which adds c along the rows of
M @ X.T, 36 us; they agree bit for bit up to dim 11, past it to rounding.
`_affine_rows` returns Fortran order, whose matrix-vector products may
differ from C order in the last bit, so `_segment_nearest` takes its
product on a C-ordered difference.

A 2-D polygon is its counter-clockwise hull, kept once as arrays
(`Polytope._faces`): the hull vertices, edge vectors, outward normals,
offsets and normal lengths.  Membership reads the normals and offsets, and
the projection takes every edge's nearest point in one pass over an
(edges, rows, 2) stack.  Its products are batched `np.matmul`s, which
equal `_segment_nearest`'s bit for bit; elementwise sums and `einsum`
differed from them in the last bit in about a quarter of the entries.

`ProximityInstance` keeps dist(A, B), a realizing pair (a*, b*) and their
difference v = b* - a*, which every realizing pair shares: x is in A0 when
x is in A and x + v in B (`proximal_deviations`).  It decides once whether
A0 and B0 are single points: from a ball of the pair, or from a face of a
box or polytope exposed towards the other body.  Then their samples are
copies of the realizing pair; otherwise alternating projections find them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InstanceFormatError,
    ProjectionConvergenceError,
    UnsupportedProjectionError,
)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
MAX_SWEEPS = 10_000  # alternating-projection sweeps `proximalize` may take
_TINY = np.finfo(float).tiny  # smallest normal float

Side = Literal["A", "B"]


def _reduce_rows(ufunc: np.ufunc, X: np.ndarray) -> np.ndarray:
    """`ufunc` reduced along each row of an (n, dim) stack, column by column.

    At dim 1 the result is X's one column itself, not a copy.
    """
    return functools.reduce(ufunc, X.T)


def _clamp_rows(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """`np.clip(X, lo, hi)` for an (n, dim) stack, one column at a time."""
    out = np.empty_like(X)
    for i in range(X.shape[1]):
        np.minimum(np.maximum(X[:, i], lo[i]), hi[i], out=out[:, i])
    return out


def _affine_rows(X: np.ndarray, M: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """`X @ M.T + c` for an (n, dim) stack, computed as (M @ X.T + c[:, None]).T."""
    Y = M @ X.T
    if c is not None:
        Y += c[:, None]
    return Y.T


def _segment_nearest(X: np.ndarray, v0: np.ndarray, d: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The p = 2 nearest points of v0 + [0, 1] d to X's rows, and their unclamped t."""
    t = np.subtract(X, v0, order="C") @ d / float(d @ d)
    # t[:, None] * d, built coordinate-major as the (dim, n) outer product
    return np.multiply.outer(d, np.clip(t, 0.0, 1.0)).T + v0, t


def _in_box_rows(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which rows of an (n, dim) stack lie in [lo, hi]: those that clamping keeps."""
    return _reduce_rows(np.logical_and, _clamp_rows(X, lo, hi) == X)


def _as_matrix(X: np.ndarray | Sequence, dim: int) -> np.ndarray:
    """Coerce one point or a stack of points into an (n, dim) float array."""
    arr = np.atleast_2d(np.asarray(X, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected points of dimension {dim}, got shape {np.asarray(X).shape}")
    return arr


@dataclass(frozen=True)
class LpSpace:
    """R^dim under the lp norm with 1 < p < inf.

    The endpoint exponents are rejected on purpose: at p = 1 and p = inf the
    norm is not strictly convex, nearest points stop being unique, and every
    operator built on top of the projection breaks down.
    """

    dim: int
    p: float

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise InstanceFormatError(f"dim must be a positive integer, got {self.dim!r}")
        p = float(self.p)
        if not math.isfinite(p) or not p > 1.0:
            raise InstanceFormatError(f"p must satisfy 1 < p < inf, got {self.p!r}")
        object.__setattr__(self, "p", p)

    def check_vector(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected a vector of length {self.dim}, got shape {arr.shape}")
        return arr

    def _direct(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sums of |x_i|^p along the rows, and their p-th roots."""
        if self.p == 2.0:
            s = _reduce_rows(np.add, X * X)
            return s, np.sqrt(s)
        s = _reduce_rows(np.add, np.abs(X) ** self.p)
        return s, s ** (1.0 / self.p)

    # norms runs this on every call; as a decorator errstate costs about
    # 1.4 us a call, as a `with` block about 2.2 us
    _direct_or_raise = np.errstate(over="raise", under="raise")(_direct)

    def norms(self, X: np.ndarray) -> np.ndarray:
        """lp norms of the rows of an (n, dim) stack, or the norm of one vector.

        One vector is taken as a one-row stack: numpy's p-th root of a
        scalar may differ in the last bit from its root of an array.

        The sum of |x_i|^p is taken directly.  Where it leaves the normal
        floats (at p = 2 that happens for an |x_i| above 1e154 or nonzero
        ones all below 1e-154, at p = 1000 for |x_i| all below 1/2 or one
        above 2), the norm is recomputed as m ||x / m||_p, with m the
        largest |x_i|.  The floating-point flags say when to look: a term or
        a sum leaves the normal floats, other than exactly, only by raising
        the overflow or underflow flag, so the rows of a stack are checked
        only after one of these went up.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return self.norms(X[None, :])[0]
        try:
            return self._direct_or_raise(X)[1]
        except FloatingPointError:
            pass
        with np.errstate(over="ignore", under="ignore"):
            s, out = self._direct(X)
        A = np.abs(X)
        m = _reduce_rows(np.maximum, A)
        # rows of zeros, or with an entry that is not finite, keep the direct sum
        redo = ((s < _TINY) & (m > 0.0)) | ((s == math.inf) & (m < math.inf))
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            scaled = m * _reduce_rows(np.add, (A / m[:, None]) ** self.p) ** (1.0 / self.p)
        return np.where(redo, scaled, out)

    def norm(self, x) -> float:
        return float(self.norms(self.check_vector(x)))

    def distance(self, x, y) -> float:
        return float(self.norms(self.check_vector(x) - self.check_vector(y)))


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


class ConvexBody:
    """Closed convex subset of an LpSpace with a nearest-point projection.

    Subclasses implement the exact projection and the membership of an
    (n, dim) stack, an anchor point and sampling; `project` and `member` are
    the one-row calls; only a ball overrides `member`, for speed.  Bodies
    are immutable after construction.  `box` is (lo, hi) when the body is an
    axis-aligned box, which a point and an axis-aligned segment are too, and
    None otherwise.
    """

    space: LpSpace
    box: tuple[np.ndarray, np.ndarray] | None = None

    def project_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def member(self, x, tol: float = DEFAULT_TOL) -> bool:
        """Membership of one point: `member_many` on a one-row stack."""
        return bool(self.member_many(self.space.check_vector(x)[None, :], tol)[0])

    def member_many(self, X: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Boolean membership mask over an (n, dim) stack."""
        raise NotImplementedError

    def anchor(self) -> np.ndarray:
        """Some point of the body, used to seed iterations."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points of the body, spread over all of it."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Ball(ConvexBody):
    """lp ball {x : ||x - center||_p <= radius}."""

    space: LpSpace
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(self.space.check_vector(self.center)))
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "radius", r)

    def project_many(self, X):
        # Radial pullback is the exact lp nearest point for every p in
        # (1, inf): stationarity of ||x-y||_p^p on the sphere forces y - c
        # colinear with x - c, with a nonnegative multiplier.
        X = _as_matrix(X, self.space.dim)
        D = X - self.center
        r = self.space.norms(D)
        scale = np.ones_like(r)
        outside = r > self.radius
        scale[outside] = self.radius / r[outside]
        return D * scale[:, None] + self.center

    def member(self, x, tol=DEFAULT_TOL):
        # skips member_many's stack checks: the solvers test one point a
        # step, and the inherited call made solve-balls about 2% slower
        # (40 alternating rounds in one process, 2-core x86, dim 3, p = 3)
        D = self.space.check_vector(x) - self.center
        return bool(self.space.norms(D) <= self.radius + tol)

    def member_many(self, X, tol=DEFAULT_TOL):
        X = _as_matrix(X, self.space.dim)
        return self.space.norms(X - self.center) <= self.radius + tol

    def sample(self, rng, n):
        # Exact and uniform at every dimension (Barthe, Guedon, Mendelson and
        # Naor, Ann. Probab. 2005): with g_i = +-G_i^(1/p), G_i ~ Gamma(1/p, 1)
        # and W ~ Exp(1), g / (||g||_p^p + W)^(1/p) is uniform in the unit lp
        # ball.  Here ||g||_p^p = sum G_i.
        p, dim = self.space.p, self.space.dim
        G = rng.gamma(1.0 / p, 1.0, size=(n, dim))
        signs = rng.choice((-1.0, 1.0), size=(n, dim))
        W = rng.exponential(1.0, size=n)
        unit = signs * (G / (_reduce_rows(np.add, G) + W)[:, None]) ** (1.0 / p)
        return self.radius * unit + self.center

    def anchor(self):
        return np.array(self.center)


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    """Axis-aligned box {x : lo <= x <= hi}; flat faces (lo == hi) allowed."""

    space: LpSpace
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = self.space.check_vector(self.lo)
        hi = self.space.check_vector(self.hi)
        if np.any(lo > hi):
            raise ValueError("box needs lo <= hi componentwise")
        object.__setattr__(self, "lo", _readonly(lo))
        object.__setattr__(self, "hi", _readonly(hi))

    def project_many(self, X):
        # clamp is exact for every p: the objective separates per coordinate
        X = _as_matrix(X, self.space.dim)
        return _clamp_rows(X, self.lo, self.hi)

    def member_many(self, X, tol=DEFAULT_TOL):
        X = _as_matrix(X, self.space.dim)
        return _in_box_rows(X, self.lo - tol, self.hi + tol)

    @property
    def box(self):
        return self.lo, self.hi

    def anchor(self):
        return (self.lo + self.hi) / 2.0

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, self.space.dim))

    def corners(self) -> np.ndarray | None:
        """The 2^k distinct vertices, k the number of free axes (lo < hi),
        lo before hi and the first axis slowest; None past 16 free axes."""
        free = np.flatnonzero(self.hi > self.lo)
        k = len(free)
        if k > 16:
            return None
        high = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1 == 1
        C = np.tile(self.lo, (2 ** k, 1))
        C[:, free] = np.where(high, self.hi[free], self.lo[free])
        return C


def _hull_edges_2d(vertices: np.ndarray) -> np.ndarray | None:
    """The hull of 2-D vertices as its vertex array H, in counter-clockwise
    order: edge i runs from H[i] to H[i + 1], the last back to H[0].

    Andrew's monotone chain (Inform. Process. Lett. 9, 1979) on the distinct
    vertices, taken in lexicographic order: the lower chain left to right,
    then the upper one back, each dropping every point that does not turn
    left, so collinear points are dropped too.  Returns None when the hull
    has fewer than three vertices (a point or a segment), which callers
    handle through the lower-dimensional paths.
    """
    points = np.unique(vertices, axis=0)  # sorted by x, then y

    def chain(rows):
        out = []
        for c in rows:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0.0:
                    break  # a, b, c turn left
                out.pop()
            out.append(c)
        return out[:-1]

    hull = chain(points) + chain(points[::-1])
    return np.array(hull) if len(hull) >= 3 else None


@dataclass(frozen=True, eq=False)
class Polytope(ConvexBody):
    """Convex hull of finitely many vertices.

    The vertex list is the body's one description.  Distinct vertices that
    are exactly collinear are the segment between the two extremes, in any
    dim, and are reduced to those two.  Projection support depends on shape:
    single points and axis-aligned segments are boxes, projected by a clamp
    at every p; general segments and 2-D polygons work at p = 2.  Any other
    polytope, such as a 3-D simplex, has no projection or membership test.
    """

    space: LpSpace
    vertices: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if V.ndim != 2 or V.shape[1] != self.space.dim or V.shape[0] < 1:
            raise ValueError(
                f"vertices must be a nonempty (k, {self.space.dim}) array, got {V.shape}")
        object.__setattr__(self, "vertices", _readonly(V))
        W = np.unique(V, axis=0)  # lexicographic: along the line, when collinear
        D = W - W[0]
        # collinear: every row of D is a multiple of its last, nonzero row,
        # so that each 2x2 minor of the two rows is exactly 0
        if len(W) > 2 and np.array_equal(D[:, :, None] * D[-1], D[:, None, :] * D[-1][:, None]):
            W = W[[0, -1]]
        W = _readonly(W)
        object.__setattr__(self, "_distinct", W)
        if len(W) == 1 or (len(W) == 2 and np.count_nonzero(W[1] - W[0]) == 1):
            object.__setattr__(self, "box", (_readonly(W.min(axis=0)),
                                             _readonly(W.max(axis=0))))
            object.__setattr__(self, "_box_windows", {})

    @property
    def distinct_vertices(self) -> np.ndarray:
        return self._distinct

    def _box_window(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """`box` widened by tol across it and by tol * min(1, length) along
        it: the points within tol of a vertex, or of the segment at a
        parameter in [-tol, 1 + tol].  Kept per tol; callers use a few."""
        window = self._box_windows.get(tol)
        if window is None:
            lo, hi = self.box
            margin = tol * np.minimum(1.0, np.where(hi > lo, hi - lo, 1.0))
            window = self._box_windows[tol] = (lo - margin, hi + margin)
        return window

    @functools.cached_property
    def _faces(self) -> tuple[np.ndarray, ...]:
        """(H, D, N, offsets, lengths) of a 2-D polygon: its hull vertices
        (`_hull_edges_2d`), the edge vectors D[i] = H[i + 1] - H[i], the
        outward normals N[i] = (D[i, 1], -D[i, 0]), the offsets N[i] . H[i]
        and the normals' lengths.  The polygon is the points x with N x <=
        offsets; the batched `np.matmul` of the offsets equals each N[i] @ H[i]
        bit for bit."""
        H = _hull_edges_2d(self._distinct) if self.space.dim == 2 else None
        if H is None:
            raise UnsupportedProjectionError(
                "a polytope of >= 3 distinct vertices is supported only in dim 2, "
                "with vertices that are not collinear")
        D = np.roll(H, -1, axis=0) - H
        N = np.stack([D[:, 1], -D[:, 0]], axis=1)  # outward for CCW orientation
        offsets = np.matmul(N[:, None, :], H[:, :, None])[:, 0, 0]
        return H, D, N, offsets, np.linalg.norm(N, axis=1)

    def project_many(self, X):
        X = _as_matrix(X, self.space.dim)
        if self.box is not None:
            # clamp is exact for every p, as for a Box
            return _clamp_rows(X, *self.box)
        W = self._distinct
        if len(W) == 2:
            if self.space.p != 2.0:
                raise UnsupportedProjectionError(
                    f"general segment projection only available at p=2, got p={self.space.p}")
            return _segment_nearest(X, W[0], W[1] - W[0])[0]
        if self.space.p != 2.0:
            raise UnsupportedProjectionError(
                f"polytope projection only available at p=2, got p={self.space.p}")
        return _project_polygon_edges(self.space, self._faces, X)

    def member_many(self, X, tol=DEFAULT_TOL):
        X = _as_matrix(X, self.space.dim)
        if self.box is not None:
            return _in_box_rows(X, *self._box_window(tol))
        W = self._distinct
        if len(W) == 2:
            nearest, t = _segment_nearest(X, W[0], W[1] - W[0])
            return ((-tol <= t) & (t <= 1.0 + tol)
                    & (_reduce_rows(np.maximum, np.abs(X - nearest)) <= tol))
        _, _, N, offsets, lengths = self._faces
        return _reduce_rows(np.logical_and, _affine_rows(X, N, -offsets) / lengths <= tol)

    def anchor(self):
        return self.vertices.mean(axis=0)

    def sample(self, rng, n):
        """Convex combinations of the distinct vertices, flat-Dirichlet weights.

        One rule for every polytope.  The draw is uniform on a segment (and
        on any simplex), but not on larger polytopes, where it crowds towards
        the vertex centroid.  Certifying a map only needs samples that cover
        the body, not uniform ones.
        """
        W = self._distinct
        return rng.dirichlet(np.ones(len(W)), n) @ W


def _vertex_set(body: ConvexBody) -> np.ndarray | None:
    """Enumerable extreme points, when the body has them (box / polytope)."""
    if isinstance(body, Box):
        return body.corners()
    if isinstance(body, Polytope):
        return np.array(body.distinct_vertices)
    return None


def _project_polygon_edges(space: LpSpace, faces: tuple[np.ndarray, ...],
                           X: np.ndarray) -> np.ndarray:
    """Exact p=2 projection onto a 2-D polygon, given as its `Polytope._faces`.

    Points inside every face halfspace stay put; for points outside the
    nearest point lies on the boundary, so it is the nearest of the per-edge
    segment projections, the first edge's on a tie.  All edges are taken in
    one pass over an (edges, rows, 2) stack.  Being exact, it does not
    degrade on sliver polygons.
    """
    H, D, N, offsets, _ = faces
    inside = _reduce_rows(np.logical_and, _affine_rows(X, N, -offsets) <= 0.0)
    out = np.array(X, dtype=float)
    todo = ~inside
    if not np.any(todo):
        return out
    Y = X[todo]
    # as `_segment_nearest` on every edge: t = (y - H[i]) . D[i] / D[i] . D[i]
    numerators = np.matmul(np.subtract(Y, H[:, None, :]), D[:, :, None])[:, :, 0]
    t = numerators / np.matmul(D[:, None, :], D[:, :, None])[:, 0]
    cand = D[:, None, :] * np.clip(t, 0.0, 1.0)[:, :, None] + H[:, None, :]
    dist = space.norms((Y - cand).reshape(-1, 2)).reshape(t.shape)
    out[todo] = cand[dist.argmin(axis=0), np.arange(len(Y))]
    return out


def project(body: ConvexBody, x) -> np.ndarray:
    """Nearest point of `body` to x in the body's own lp norm."""
    x = body.space.check_vector(x)
    return body.project_many(x[None, :])[0]


@dataclass
class DistanceResult:
    """Distance between two bodies plus the realizing pair found."""

    dist: float
    a: np.ndarray
    b: np.ndarray
    converged: bool
    iterations: int


def _alternate(onto: ConvexBody, other: ConvexBody, X: np.ndarray, tol: float,
               max_sweeps: int) -> tuple[np.ndarray, int | None]:
    """X <- proj_onto(proj_other(X)) on an (n, dim) stack until no row moves by
    tol: the last X and the sweeps taken, or None for them after max_sweeps."""
    for sweep in range(1, max_sweeps + 1):
        X_next = onto.project_many(other.project_many(X))
        moved = float(np.max(onto.space.norms(X_next - X)))
        X = X_next
        if moved < tol:
            return X, sweep
    return X, None


def distance_between(A: ConvexBody, B: ConvexBody, tol: float = DEFAULT_TOL
                     ) -> DistanceResult:
    """dist(A, B) by alternating projections, with the realizing pair.

    a_1 = proj_A(anchor of B), a_{k+1} = proj_A(proj_B(a_k)), b_k = proj_B(a_k);
    stops when consecutive a-iterates move less than tol.  After
    DEFAULT_MAX_ITER steps the last pair is returned with converged=False.
    """
    if A.space != B.space:
        raise DimensionMismatchError("bodies live in different spaces")
    X, sweeps = _alternate(A, B, project(A, B.anchor())[None, :], tol, DEFAULT_MAX_ITER - 1)
    a, b = X[0], project(B, X[0])
    iterations = DEFAULT_MAX_ITER if sweeps is None else sweeps + 1
    return DistanceResult(A.space.distance(a, b), a, b, sweeps is not None, iterations)


class ProximityInstance:
    """A pair of convex bodies with cached separation data.

    The distance and a realizing pair are computed once at construction;
    v, proximal deviations and proximal sampling are answered against that
    cache.  The certifiers' samples are kept too (`cross_samples`), drawn
    from `seed`.  `tol` is this instance's default tolerance for membership.
    """

    def __init__(self, A: ConvexBody, B: ConvexBody, tol: float = DEFAULT_TOL,
                 seed: int = 0):
        if A.space != B.space:
            raise DimensionMismatchError("bodies live in different spaces")
        self.space = A.space
        self.A = A
        self.B = B
        self.tol = float(tol)
        self.seed = int(seed)
        res = distance_between(A, B, self.tol)
        if not res.converged:
            raise ProjectionConvergenceError(
                "alternating projections did not converge while computing dist(A, B)",
                achieved_gap=res.dist, iterations=res.iterations)
        self.dist = res.dist
        self.realizing_pair = (_readonly(res.a), _readonly(res.b))
        self._cross_samples: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def body(self, side: Side) -> ConvexBody:
        if side == "A":
            return self.A
        if side == "B":
            return self.B
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")

    def opposite_body(self, side: Side) -> ConvexBody:
        return self.body("B" if side == "A" else "A")

    @property
    def v(self) -> np.ndarray:
        """b* - a*, the difference of every pair that realizes dist(A, B)."""
        return self.realizing_pair[1] - self.realizing_pair[0]

    def proximal_deviations(self, X: np.ndarray, side: Side) -> np.ndarray:
        """How far each row is from the proximal part of `side`: the larger
        of its distance to `side` and its translate's (x + v for A, x - v
        for B) to the other body."""
        X = _as_matrix(X, self.space.dim)

        def dist_to(Y, body):
            return self.space.norms(Y - body.project_many(Y))

        image = X + self.v if side == "A" else X - self.v
        return np.maximum(dist_to(X, self.body(side)),
                          dist_to(image, self.opposite_body(side)))

    def proximalize(self, X: np.ndarray, side: Side) -> np.ndarray:
        """Drive points of `side` into its proximal set by alternating projections."""
        X, sweeps = _alternate(self.body(side), self.opposite_body(side),
                               _as_matrix(X, self.space.dim), self.tol, MAX_SWEEPS)
        if sweeps is None:
            raise ProjectionConvergenceError(
                "proximal refinement did not converge", iterations=MAX_SWEEPS)
        return X

    @functools.cached_property
    def proximal_sets_are_points(self) -> bool:
        """Whether A0 and B0 are the points a* and b*; A0 is a point exactly
        when B0 is, as P is an isometry between them.

        They are when a ball of the pair has its centre at least radius - tol
        from the other body, apart or touching: that body misses the ball's
        interior, so the ball's proximal set is a convex part of its strictly
        convex boundary.  They are too when the pair is apart and a body's
        face exposed towards the other has one vertex.  With v = b* - a*
        and u = J(v / dist), u_i = sign(v_i) |v_i / dist|^(p - 1), every
        point of A0 maximizes <u, .> over A and every point of B0 minimizes
        it over B (Rockafellar, Convex Analysis, 1970, section 18).  As
        ||u||_q = 1, a vertex within tol of the extreme value of <u, .>
        counts as on the face.
        """
        for ball, other in ((self.A, self.B), (self.B, self.A)):
            if isinstance(ball, Ball):
                nearest = project(other, ball.center)
                if self.space.distance(ball.center, nearest) >= ball.radius - self.tol:
                    return True
        if self.dist <= self.tol:
            return False
        v = self.v / self.dist
        u = np.sign(v) * np.abs(v) ** (self.space.p - 1.0)
        for body, w in ((self.A, u), (self.B, -u)):
            V = _vertex_set(body)
            if V is not None:
                heights = V @ w
                if np.count_nonzero(heights >= heights.max() - self.tol) == 1:
                    return True
        return False

    def sample_proximal(self, side: Side, n: int, rng: np.random.Generator) -> np.ndarray:
        """n points of the proximal part of `side`.

        When the proximal sets are points (`proximal_sets_are_points`), the
        result is n copies of this side's point of the realizing pair, and
        nothing is drawn from `rng`.  Otherwise the points start spread over
        the full body and the batched alternating scheme (`proximalize`) runs
        until the batch stops moving; each limit realizes dist(A, B).  The
        realizing pair's point is always included.
        """
        own = self.realizing_pair[0 if side == "A" else 1]
        if self.proximal_sets_are_points:
            return np.tile(own, (n, 1))
        body = self.body(side)
        X = body.sample(rng, max(n - 1, 0))
        X = np.vstack([own[None, :], X])[:n]
        return self.proximalize(X, side)

    def cross_samples(self, n: int, proximal: bool = False
                      ) -> tuple[np.ndarray, np.ndarray]:
        """n points of A and n points of B, drawn once per (n, proximal).

        One `np.random.default_rng(self.seed)` draws A's points, then B's:
        body samples, or proximal samples when `proximal`.  Every certifier
        and check of the instance shares the pair, so it is kept read-only
        and handed out without a copy.
        """
        key = (int(n), bool(proximal))
        pair = self._cross_samples.get(key)
        if pair is None:
            rng = np.random.default_rng(self.seed)
            if proximal:
                pair = tuple(self.sample_proximal(side, n, rng) for side in ("A", "B"))
            else:
                pair = tuple(self.body(side).sample(rng, n) for side in ("A", "B"))
            for X in pair:
                X.setflags(write=False)
            self._cross_samples[key] = pair
        return pair
