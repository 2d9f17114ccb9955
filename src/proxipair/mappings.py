"""Cyclic and noncyclic maps on a body pair, with numeric certification.

A map is cyclic when it swaps the two bodies (T(A) in B, T(B) in A) and
noncyclic when each body is invariant.  Certification routines sample (or,
for affine maps on vertex-enumerable bodies, enumerate exactly) to check the
declared mode and the contraction modulus

    d(Tx, Ty) <= alpha * d(x, y) + (1 - alpha) * dist(A, B)

over cross pairs.  For an affine map Tx - Ty = M(x - y), so the modulus is
a supremum over the difference body A - B, which is a box when A and B
are.  A one-piece affine map on such a pair that splits along the gap axis
(see `_split_modulus`) gets a proven upper bound on the modulus, from the
norm of one block of M, and is not sampled.  Every other map gets the
smallest alpha consistent with the pairs it is evaluated on, a lower
estimate; an estimate of at most 1 is relative nonexpansiveness on the same
pairs.  A map whose pieces all have the zero matrix is certified exactly,
on a* and b*, which every lower estimate evaluates too.

The samples come from the instance: `ProximityInstance.cross_samples(n,
proximal)` draws n points of A and then n of B from the instance's seed, of
the bodies or of their proximal sets (for a map of domain "proximal"), once
per instance.  Every map of an instance is checked on the same points.  When
the proximal sets are points, a map of domain "proximal" is checked on the
realizing pair alone, which is exact.

A map keeps what has been established about it: `MapSpec.mode_check` and
`MapSpec.contraction` run `certify_mode` and `certify_contraction` the first
time a caller reads them, and keep the result.  The mode certificate is a
`CheckResult`, the record of every check of the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .errors import DimensionMismatchError
from .geometry import ProximityInstance, Side, _affine_rows, _as_matrix, _vertex_set

Mode = Literal["cyclic", "noncyclic"]
Domain = Literal["full", "proximal"]

MODES = ("cyclic", "noncyclic")

DEFAULT_MODE_SAMPLES = 1000
DEFAULT_CONTRACTION_SAMPLES = 10_000
GRID_BUDGET = 1024
REFINE_ROUNDS = 3
MAX_GRID_AXES = 16  # past it, 2 points per axis exceed 2**16 (Box.corners stops there too)
# how far outside A a point may lie and still take a two-piece map's A-side
# piece; it absorbs the rounding of points computed to lie on A's boundary
MEMBER_TOL = 1e-7
BLOCK = 32  # steps of `MapSpec.iterate` taken from one set of k-step products


@dataclass
class CheckResult:
    """One check: its worst deviation against a threshold, and whether it passed.

    `witness` holds the points of a failed check's worst deviation, or None;
    `to_dict` leaves it out of the JSON record.
    """

    name: str
    tag: str
    passed: bool
    worst_deviation: float
    threshold: float
    flags: list = field(default_factory=list)
    details: str = ""
    witness: tuple | None = None

    @classmethod
    def failed(cls, name: str, tag: str, threshold: float, details: str,
               **fields) -> "CheckResult":
        """A check that failed at an infinite deviation, such as one whose
        evaluation raised; `details` says why."""
        return cls(name=name, tag=tag, passed=False, worst_deviation=math.inf,
                   threshold=threshold, details=details, **fields)

    @classmethod
    def worst_of(cls, name: str, tag: str, devs, threshold: float, witnesses=(),
                 **fields) -> "CheckResult":
        """The check of the deviations `devs` (an array or a list): the largest,
        the first on a tie, is its worst deviation, and it passes when that
        is at most `threshold`.  A failed check keeps the row of the worst
        deviation in each of `witnesses` as its witness."""
        devs = np.asarray(devs)
        i = int(devs.argmax())  # on short arrays a fraction of np.argmax's or max's cost
        worst = float(devs[i])
        passed = worst <= threshold
        witness = tuple(w[i] for w in witnesses) if witnesses and not passed else None
        return cls(name=name, tag=tag, passed=passed, worst_deviation=worst,
                   threshold=threshold, witness=witness, **fields)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "passed": bool(self.passed),
            "worst_deviation": float(self.worst_deviation),
            "threshold": float(self.threshold),
            "flags": list(self.flags),
            "details": self.details,
        }


def through_first(mask: np.ndarray) -> list:
    """For each row of an (s, k) mask, the length of its part up to and with
    its first True, or k when it has none."""
    k = mask.shape[1]
    firsts = mask.argmax(axis=1).tolist() if k else [0] * len(mask)
    return [j + 1 if k and mask[i, j] else k for i, j in enumerate(firsts)]


def opposite(side: Side) -> Side:
    return "B" if side == "A" else "A"


def flip_mode(mode: Mode) -> Mode:
    return "noncyclic" if mode == "cyclic" else "cyclic"


@dataclass(frozen=True, eq=False)
class MapSpec:
    """A self-map of A union B: one affine piece, two affine pieces, or a callable.

    A one-piece map is x @ matrix.T + offset everywhere.  A two-piece map
    sends the points of A (within MEMBER_TOL) through (matrix, offset) and
    every other point through (matrix_b, offset_b); it is how the map kinds
    whose value depends on the side (`constant-pair`, `sidewise-affine`)
    are represented.  Both evaluate an (n, dim) stack, or one point as a
    one-row stack, with one matrix product per piece that some row selects.
    A callable is evaluated one row at a time.  `iterate` gives an orbit as a
    stack, from cached block products for a map with matrices, by a scalar
    loop for a callable; `block_size` says how many steps a solver asks for
    at a time.

    `mode` is the declared behavior; `mode_check` checks it and
    `contraction` estimates the modulus, each on first use, and the map
    keeps both.  `domain` is "proximal" for a map defined on A0 union B0
    only (a composition with P), certified on proximal samples.  `composed`
    is the map's composition with P, set once by
    `operators.compose_with_projector`.
    """

    instance: ProximityInstance
    mode: Mode
    name: str = ""
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    matrix_b: np.ndarray | None = None
    offset_b: np.ndarray | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None
    domain: Domain = "full"
    composed: "MapSpec | None" = field(default=None, init=False, repr=False)
    _blocks: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        has_affine = self.matrix is not None
        if has_affine == (self.func is not None):
            raise ValueError("exactly one of (matrix, offset) or func is required")
        if self.matrix_b is not None and not has_affine:
            raise ValueError("a B-side piece needs an A-side (matrix, offset)")
        for m_key, o_key in (("matrix", "offset"), ("matrix_b", "offset_b")):
            if getattr(self, m_key) is not None:
                M, b = self._piece(getattr(self, m_key), getattr(self, o_key))
                object.__setattr__(self, m_key, M)
                object.__setattr__(self, o_key, b)

    def _piece(self, matrix, offset) -> tuple[np.ndarray, np.ndarray]:
        dim = self.instance.space.dim
        M = np.asarray(matrix, dtype=float)
        if M.shape != (dim, dim):
            raise DimensionMismatchError(f"matrix must be ({dim}, {dim}), got {M.shape}")
        b = self.instance.space.check_vector(np.zeros(dim) if offset is None else offset)
        M.setflags(write=False)
        b.setflags(write=False)
        return M, b

    @classmethod
    def affine(cls, instance: ProximityInstance, mode: Mode, matrix, offset=None,
               name: str = "") -> "MapSpec":
        return cls(instance, mode, name=name, matrix=np.asarray(matrix, dtype=float),
                   offset=offset)

    @classmethod
    def sidewise(cls, instance: ProximityInstance, mode: Mode, matrix_a, offset_a,
                 matrix_b, offset_b, name: str = "") -> "MapSpec":
        """x -> matrix_a x + offset_a on A, matrix_b x + offset_b elsewhere."""
        return cls(instance, mode, name=name, matrix=matrix_a, offset=offset_a,
                   matrix_b=matrix_b, offset_b=offset_b)

    @classmethod
    def blackbox(cls, instance: ProximityInstance, mode: Mode,
                 func: Callable[[np.ndarray], np.ndarray], name: str = "") -> "MapSpec":
        return cls(instance, mode, name=name, func=func)

    @functools.cached_property
    def mode_check(self) -> CheckResult:
        return certify_mode(self)

    @functools.cached_property
    def contraction(self) -> ContractionCertificate:
        return certify_contraction(self)

    def _products(self, on_a: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P, S, in_a), built on first use and kept, for orbits whose first
        step takes A's piece (`on_a`) or the other: the k-th iterate is
        P_k x + S_k for k <= BLOCK, and in_a[k - 1] says whether step k + 1
        takes A's piece.  Cyclic two-piece maps alternate pieces, others keep
        the first, so for even m, P_{m+j} = P_j P_m and S_{m+j} = P_j S_m + S_j:
        the products double in place from m = 2.  When both pieces the orbit
        uses have zero matrices, P is zero and S_k is the offset of step k's
        piece, with no product taken.  P is stacked (BLOCK * dim, dim): one
        matrix-vector product gives a block."""
        if on_a not in self._blocks:
            pieces = ((self.matrix, self.offset), (self.matrix_b, self.offset_b))
            alternate = self.matrix_b is not None and self.mode == "cyclic"
            piece = [int(not on_a) ^ (alternate and k % 2) for k in range(BLOCK + 1)]
            (M, c), (M2, c2) = pieces[piece[0]], pieces[piece[1]]
            dim = len(c)
            P, S = np.zeros((BLOCK, dim, dim)), np.empty((BLOCK, dim))
            if M.any() or M2.any():
                # einsum (optimize=False) and broadcast sums take no BLAS
                # matrix product, whose first call allocates a buffer
                P[0], S[0], S[1] = M, c, M2 @ c + c2
                np.einsum("ab,bc->ac", M2, M, out=P[1])
                m = 2
                while m < BLOCK:  # steps m + 1 .. 2m take the pieces of steps 1 .. m
                    n = min(m, BLOCK - m)
                    np.einsum("kab,bc->kac", P[:n], P[m - 1], out=P[m:m + n])
                    S[m:m + n] = (P[:n] * S[m - 1]).sum(2) + S[:n]
                    m += n
            else:
                S[:] = [pieces[k][1] for k in piece[:BLOCK]]
            self._blocks[on_a] = P.reshape(BLOCK * dim, dim), S, np.array(piece[1:]) == 0
        return self._blocks[on_a]

    def block_size(self, done: int) -> int:
        """How many iterates a solver takes at once after `done` of them: BLOCK
        for a map with matrices, whose block costs one product; for a
        callable 1, then as many as it has taken, up to BLOCK, so that a run
        that stops at step n >= 1 evaluates it at most 2n - 1 times."""
        return BLOCK if self.func is None else min(BLOCK, max(done, 1))

    def iterate(self, x, count: int) -> np.ndarray:
        """The next `count` iterates T(x), T^2(x), ... as a (count, dim) stack, or
        for an (s, dim) stack of starts as an (s, count, dim) one, each row its
        one-start orbit bit for bit: by blocks (`_orbits`) for a map with
        matrices, by `apply`, step by step, for a callable."""
        space = self.instance.space
        one = np.ndim(x) == 1
        X = space.check_vector(x)[None, :] if one else _as_matrix(x, space.dim)
        if self.func is None:
            out = self._orbits(X, count, None if self.matrix_b is not None else [True] * len(X))
        else:
            out = np.empty((len(X), count, space.dim))
            for row, x in zip(out, X):
                for k in range(count):
                    row[k] = x = self.apply(x)
        return out[0] if one else out

    def _orbits(self, X: np.ndarray, count: int, on_a: list | None) -> np.ndarray:
        """`iterate` from rows whose first steps take A's piece where `on_a`
        (None: one `member_many` says).  Rows of one piece take a block of up
        to BLOCK steps from one batched product, `np.matmul` of the k-step
        products with each row, which equals `P[:k * dim] @ x` bit for bit (a
        product over all rows, X @ P.T, does not).  Each row's block ends at
        its first iterate that one `member_many` puts on another piece than
        assumed; rows that part ways go on as stacks of their own."""
        A, dim = self.instance.A, X.shape[1]
        out = np.empty((len(X), count, dim))
        on_a = A.member_many(X, MEMBER_TOL).tolist() if on_a is None else on_a
        ends = [(0, on) for on in on_a]  # each row's steps so far, and its next piece
        while len(set(ends)) == 1 and ends[0][0] < count:
            done, on = ends[0]
            X, k = out[:, done - 1] if done else X, min(BLOCK, count - done)
            # a one-step block is the piece itself, with no products built
            M, c = (self.matrix, self.offset) if on else (self.matrix_b, self.offset_b)
            P, S, in_a = self._products(on) if k > 1 else (M, c[None, :], None)
            Y = out[:, done:done + k]
            Y[:] = np.matmul(P[:k * dim], X[:, :, None]).reshape(len(X), k, dim) + S[:k]
            ends = [(done + k, on)] * len(X)
            if self.matrix_b is not None and k > 1:
                Y_in_a = A.member_many(Y.reshape(-1, dim), MEMBER_TOL).reshape(len(X), k)
                ends = [(done + cut, bool(Y_in_a[i, cut - 1]))
                        for i, cut in enumerate(through_first(Y_in_a != in_a[:k]))]
        for done, on in set(ends) if len(set(ends)) > 1 else ():
            rows = [i for i, end in enumerate(ends) if end == (done, on)]
            start = out[rows, done - 1] if done else X[rows]
            out[rows, done:] = self._orbits(start, count - done, [on] * len(rows))
        return out

    @property
    def is_affine(self) -> bool:
        """One affine piece on the whole of A union B."""
        return self.matrix is not None and self.matrix_b is None

    def apply(self, x) -> np.ndarray:
        x = self.instance.space.check_vector(x)
        if self.func is not None:
            return self.instance.space.check_vector(self.func(x))
        if self.matrix_b is None or self.instance.A.member(x, MEMBER_TOL):
            return self.matrix @ x + self.offset
        return self.matrix_b @ x + self.offset_b

    def apply_many(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, self.instance.space.dim)
        if self.func is not None:
            return np.array([self.apply(x) for x in X]).reshape(X.shape)
        if self.matrix_b is None:
            return _affine_rows(X, self.matrix, self.offset)
        in_a = self.instance.A.member_many(X, MEMBER_TOL)
        if not in_a.any():
            return _affine_rows(X, self.matrix_b, self.offset_b)
        on_a = _affine_rows(X, self.matrix, self.offset)
        if in_a.all():
            return on_a
        return np.where(in_a[:, None], on_a, _affine_rows(X, self.matrix_b, self.offset_b))


def _target_deviations(m, side: Side, images: np.ndarray) -> np.ndarray:
    """How far each image is from the body, or proximal part, its mode requires."""
    inst = m.instance
    target: Side = opposite(side) if m.mode == "cyclic" else side
    if m.domain == "proximal":
        return inst.proximal_deviations(images, target)
    body = inst.body(target)
    return inst.space.norms(images - body.project_many(images))


def _constant_images(m) -> tuple[np.ndarray, np.ndarray] | None:
    """(c_A, c_B) when m sends A to c_A and B to c_B: its pieces have zero
    matrices, and no point of B takes A's piece, as dist > MEMBER_TOL."""
    if m.func is not None or m.matrix.any() or (m.matrix_b is not None and (
            m.matrix_b.any() or m.instance.dist <= MEMBER_TOL)):
        return None
    return m.offset, m.offset if m.matrix_b is None else m.offset_b


def _exact_points(m, k: int) -> np.ndarray | None:
    """Points of side k ("AB"[k]) on which m's behavior there is decided
    exactly, or None: a* (b*) for a map constant on each side or on proximal
    sets that are points, or the body's vertices for a one-piece affine map."""
    inst = m.instance
    if ((m.domain == "proximal" and inst.proximal_sets_are_points)
            or _constant_images(m) is not None):
        return inst.realizing_pair[k][None, :]
    return _vertex_set(inst.body("AB"[k])) if m.is_affine and m.domain == "full" else None


def certify_mode(m) -> CheckResult:
    """Check the declared mode on both sides, within 10 * tol.

    Affine maps on vertex-enumerable bodies are checked exactly through
    vertex images (the image of a hull is the hull of the images, and a hull
    lies in a convex target iff its vertices do), and so are maps of domain
    "proximal" when the proximal sets are points, and maps whose pieces all
    have the zero matrix, on a* and b*; every other side is checked on its
    half of the instance's `cross_samples(DEFAULT_MODE_SAMPLES, ...)`.  The
    check is flagged "exact" when both sides were; a failed one's witness is
    the point farthest off its target, A's on a tie, and its image.
    """
    inst = m.instance
    flags = ["exact"]
    sides = []
    for k, side in enumerate(("A", "B")):
        pts = _exact_points(m, k)
        if pts is None:
            pts = inst.cross_samples(DEFAULT_MODE_SAMPLES, m.domain == "proximal")[k]
            flags = []
        imgs = m.apply_many(pts)
        sides.append((_target_deviations(m, side, imgs), pts, imgs))
    devs, *witnesses = max(sides, key=lambda s: s[0][s[0].argmax()])
    return CheckResult.worst_of(f"map-{m.name}-mode", "map-has-declared-mode", devs,
                                10.0 * inst.tol, witnesses, flags=flags,
                                details=f"declared {m.mode}")


def _cross_pairs(m) -> tuple[np.ndarray, np.ndarray]:
    vx, vy = _exact_points(m, 0), _exact_points(m, 1)
    if m.domain == "proximal" and m.instance.proximal_sets_are_points:
        return vx, vy  # the one pair (a*, b*)
    xs, ys = m.instance.cross_samples(DEFAULT_CONTRACTION_SAMPLES, m.domain == "proximal")
    if vx is not None and vy is not None and len(vx) * len(vy) <= 4096:
        gx, gy = np.broadcast_arrays(vx[:, None, :], vy[None, :, :])
        xs = np.vstack([xs, gx.reshape(-1, xs.shape[1])])
        ys = np.vstack([ys, gy.reshape(-1, ys.shape[1])])
    return xs, ys


def _reaches_past_dist(inst) -> bool:
    """Whether a vertex of A (its anchor, when it has no vertex set, as a ball)
    lies farther than dist + tol from b*, or one of B from a*."""
    for body, other in zip((inst.A, inst.B), inst.realizing_pair[::-1]):
        V = _vertex_set(body)
        V = body.anchor()[None, :] if V is None else V
        if np.any(inst.space.norms(V - other) - inst.dist > inst.tol):
            return True
    return False


ContractionMethod = Literal["exact", "bound", "grid", "sampled", "inherited"]


@dataclass
class ContractionCertificate:
    """A contraction modulus alpha_hat and where it comes from (`method`).

    "exact" is the supremum of a map whose pieces all have the zero matrix.
    "bound" is a proven upper bound on the modulus of a map that splits
    along the gap axis (`_split_modulus`); no pair is evaluated for it.
    "grid" and "sampled" are lower estimates: the smallest modulus
    consistent with the evaluated cross pairs.  "grid" when a grid over the
    difference body A - B, refined around the worst difference, was also
    searched (other affine maps on boxes, points and axis-aligned segments),
    "sampled" when only sampled pairs (plus vertex pairs, for affine maps on
    polytopal bodies) were.  The sampled pairs are row i of A's and of B's
    points in the instance's `cross_samples`, the same points for every map
    of the instance; a map of domain "proximal" on point proximal sets has
    the one pair (a*, b*).  "inherited" is carried over from the outer map
    of a composition with the proximal projection.  `samples` counts the
    sampled and vertex pairs plus the grid differences evaluated (1 when
    exact, 0 when bound or inherited).  A worst pair found on the grid is a
    pair of A x B with the worst difference.  `worst_pair` is None when no
    pair set a ratio, as when every cross pair realizes dist(A, B), and for
    a bound.
    """

    alpha_hat: float
    samples: int
    method: ContractionMethod
    worst_pair: tuple[np.ndarray, np.ndarray] | None


def _split_modulus(m) -> float | None:
    """A proven modulus of m when it splits along the gap axis, else None.

    m splits when it is one affine piece x -> M x + c of domain "full" on
    boxes (points, axis-aligned segments) A and B that are apart along
    exactly one axis i, flat along i in both bodies, while M e_i = +-e_i and
    row i of M is 0 on the free axes F, along which A or B extends.  Each is
    decided by exact comparisons of the bodies' bounds.  Then every cross
    difference z = x - y has z_i = D, with |D| = dist(A, B), and z_j = 0 off
    F and i, so ||z||^p = |D|^p + ||z_F||^p and ||Mz||^p = |D|^p +
    ||M' z_F||^p, where M' is M without row i, on the columns F.  As
    h(s) = (|D|^p + s^p)^(1/p) - |D| is convex and increasing with h(0) = 0,
    h(ms) <= m h(s) for m <= 1, so (d(Tx, Ty) - dist) / (d(x, y) - dist) <=
    m for every m >= ||M'||_p.  m is the Riesz-Thorin bound
    ||M'||_1^(1/p) ||M'||_inf^(1 - 1/p), exact for a signed diagonal M',
    and taken as ||M'||_1 itself when the two norms are equal.
    """
    boxes = m.instance.A.box, m.instance.B.box
    if not m.is_affine or m.domain != "full" or None in boxes:
        return None
    (lo_a, hi_a), (lo_b, hi_b) = boxes
    apart = np.flatnonzero((hi_a < lo_b) | (hi_b < lo_a))
    if len(apart) != 1:
        return None
    free = (lo_a < hi_a) | (lo_b < hi_b)
    i, M = apart[0], m.matrix
    # with M[i, i] = +-1, row i is 0 on the free axes only if i is flat
    if abs(M[i, i]) != 1.0 or np.count_nonzero(M[:, i]) != 1 or M[i, free].any():
        return None
    block = np.abs(np.delete(M, i, axis=0)[:, free])
    col, row = (float(block.sum(axis=k).max(initial=0.0)) for k in (0, 1))
    p = m.instance.space.p
    return col if col == row else col ** (1.0 / p) * row ** (1.0 - 1.0 / p)


def worst_ratio(m, xs: np.ndarray, ys: np.ndarray
                ) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """The largest (d(Tx, Ty) - dist) / (d(x, y) - dist) over the rows x of
    xs and y of ys with d(x, y) - dist > tol, and its pair; (0.0, None) when
    no pair has one."""
    inst = m.instance
    before = inst.space.norms(xs - ys) - inst.dist
    after = inst.space.norms(m.apply_many(xs) - m.apply_many(ys)) - inst.dist
    valid = np.flatnonzero(before > inst.tol)
    if not len(valid):
        return 0.0, None
    ratios = after[valid] / before[valid]
    i = int(np.argmax(ratios))
    return float(ratios[i]), (xs[valid[i]], ys[valid[i]])


def _grid_alpha(m, lo: np.ndarray, hi: np.ndarray, dist: float, tol: float):
    """The worst difference z on a regular grid over the box [lo, hi], its
    ratio (-inf when no z is longer than dist + tol), and the grid's size."""
    n_free = int(np.count_nonzero(hi > lo))
    k = max(2, min(41, int(round(GRID_BUDGET ** (1.0 / n_free))))) if n_free else 1
    axes = [np.linspace(l, h, k) if h > l else np.array([l]) for l, h in zip(lo, hi)]
    Z = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    before = m.instance.space.norms(Z) - dist
    after = m.instance.space.norms(_affine_rows(Z, m.matrix)) - dist
    valid = before > tol
    ratios = np.where(valid, after / np.where(valid, before, 1.0), -np.inf)
    i = int(np.argmax(ratios))
    return Z[i], float(ratios[i]), len(Z)


def certify_contraction(m) -> ContractionCertificate:
    """Certify or estimate the contraction modulus over cross pairs.

    A map of domain "full" that is c_A on A and c_B on B gets the supremum
    max(0, ||c_A - c_B|| - dist) / tol when the bodies have a cross pair past
    dist + tol: A x B is connected, so d(x, y) - dist comes down to tol.  When
    positive, it comes with the pair (a*, b*), which breaks the inequality for
    every alpha.  A map that splits along the gap axis with a modulus bound
    m < 1 (`_split_modulus`) gets alpha_hat = m, with method "bound", and no
    pair is evaluated.  Otherwise sampled pairs contribute (`worst_ratio`).
    An affine map on boxes, points or axis-aligned segments is also searched
    on a grid over the box A - B = [lo_A - hi_B, hi_A - lo_B], refined around
    the worst difference, and gets the method "grid", unless A - B has over
    MAX_GRID_AXES free axes.
    Then (a*, b*), not counted in `samples`, is evaluated: images farther
    apart than dist + tol break the inequality for every alpha, so alpha_hat
    is at least the exact path's excess / tol, with (a*, b*) the worst pair
    when that is the largest.
    """
    inst = m.instance
    dist = inst.dist
    images = _constant_images(m) if m.domain == "full" else None
    if images is not None and _reaches_past_dist(inst):
        excess = inst.space.distance(*images) - dist
        return ContractionCertificate(
            alpha_hat=max(excess, 0.0) / inst.tol, samples=1, method="exact",
            worst_pair=inst.realizing_pair if excess > 0 else None)

    bound = _split_modulus(m)
    if bound is not None and bound < 1.0:
        return ContractionCertificate(alpha_hat=bound, samples=0, method="bound",
                                      worst_pair=None)

    xs, ys = _cross_pairs(m)
    alpha, worst_pair = worst_ratio(m, xs, ys)
    evaluated = int(len(xs))

    method: ContractionMethod = "sampled"
    boxes = inst.A.box, inst.B.box
    if m.is_affine and m.domain == "full" and None not in boxes:
        (lo_a, hi_a), (lo_b, hi_b) = boxes
        lo, hi = lo_a - hi_b, hi_a - lo_b
        if np.count_nonzero(hi > lo) <= MAX_GRID_AXES:
            method = "grid"
            window = (lo, hi)
            for r in range(1, REFINE_ROUNDS + 2):
                z, a, n = _grid_alpha(m, *window, dist, inst.tol)
                evaluated += n
                if a > alpha:  # x - z lies in B, as z lies in A - B
                    x = np.clip(z + lo_b, lo_a, hi_a)
                    alpha, worst_pair = a, (x, x - z)
                if worst_pair is None:
                    break
                center, half = worst_pair[0] - worst_pair[1], (hi - lo) * 8.0 ** (-r)
                window = (np.maximum(lo, center - half), np.minimum(hi, center + half))

    excess = inst.space.distance(*m.apply_many(np.stack(inst.realizing_pair))) - dist
    if excess > inst.tol and excess / inst.tol > alpha:
        alpha, worst_pair = excess / inst.tol, inst.realizing_pair
    return ContractionCertificate(alpha_hat=max(alpha, 0.0), samples=evaluated,
                                  method=method, worst_pair=worst_pair)

