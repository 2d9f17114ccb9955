"""The proximal projection operator and its certified algebraic properties.

On a pair (A, B) at distance d, points of the proximal sets A0, B0 project
onto the opposite body at exactly distance d.  That projection, restricted
to A0 union B0, is the pivot of the whole package: it swaps the two proximal
sets, realizes the distance everywhere, and is an affine isometric involution
between them.  `verify_projector_properties` checks all of that numerically;
`compose_with_projector` uses it to flip a map's mode while preserving its
contraction behavior, checking its preconditions once per map, and
`check_commutation` measures how far a map is from commuting with the
projector.  Both checks return `CheckResult`s, the one check record of the
package (defined in `mappings`, whose mode certificate is one too), which
`verification` collects into the verify report.  Whether the
proximal sets are single points, which makes the checks that sample them
vacuous and flags them `degenerate`, is decided once by the instance
(`ProximityInstance.proximal_sets_are_points`), not from the samples.

The lp norm with 1 < p < inf is strictly convex, so every pair realizing
dist(A, B) has the same difference v = b* - a* (`ProximityInstance.v`): if
two pairs had different differences, the midpoints of the two pairs would
lie in A and B at less than d.  So P is the translation x -> x + v on A0
and x -> x - v on B0 (the P-property of Sankar Raj, Nonlinear Anal. 74,
2011).  `ProximalProjector.project_many` evaluates exactly that on a stack,
after checking with the bodies' membership tests that each point is in its
side and its translate in the other body, the rule that
`ProximityInstance.proximal_deviations` measures; it projects onto no body.
The composition T after P is lowered to a MapSpec in which P is a shift of
the offsets, so no map evaluates P point by point, and the solvers check a
whole run against P's domain in one `project_many` call.  The nearest-point
projection onto the opposite body decides no point's proximality: it is the
reference that `verify_projector_properties` checks the translation
against, so a wrong v fails a check instead of raising.

Because P is an isometry between the proximal sets that swaps them, the
composed map's modulus follows from the outer map's: for x in A0 and y in
B0, d(TPx, TPy) <= alpha d(Px, Py) + (1 - alpha) dist(A, B), and
d(Px, Py) = d(x, y).  So T after P has modulus at most alpha, and is never
re-sampled to establish it; its precondition of relative nonexpansiveness
is read off the same certificate of T.  T after P has the opposite mode
exactly when T preserves the proximal sets, so the composed map's own mode
check is that precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .geometry import ProximityInstance, Side, _as_matrix
from .mappings import MEMBER_TOL, CheckResult, ContractionCertificate, MapSpec, flip_mode

PROPERTY_TOL = 1e-8
COMMUTATION_THRESHOLD = 1e-8
DOMAIN_SLACK = 10.0  # P's domain window, in units of the instance tol


@dataclass(frozen=True, eq=False)
class ProximalProjector:
    """P on the proximal sets: x -> x + v on A0 and x -> x - v on B0.

    v = b* - a* is `ProximityInstance.v`.  A point is admitted when it is
    a member of its side and its translate a member of the other body,
    both within DOMAIN_SLACK * tol; everything else raises DomainError,
    naming the point and its row.  Without a given side, a point that lies
    in A is taken as A's and any other point as B's.  `project_many` takes
    an (n, dim) stack, numbering its rows from `first_row`; `project` a point.
    """

    instance: ProximityInstance

    def _refuse(self, x: np.ndarray, side: Side | None, fault: str,
                row: int) -> DomainError:
        """The error for row `row`, point x: it is in "neither" body, not in
        its "side", or its translate misses ("distance")."""
        window = DOMAIN_SLACK * self.instance.tol
        where = f"point {x.tolist()} (row {row})"
        if fault == "neither":
            return DomainError(f"{where} is in neither body (window {window:.1e})")
        if fault == "side":
            return DomainError(f"{where} is not in side {side} "
                               f"(it lies outside by more than window {window:.1e})")
        return DomainError(f"{where} is in side {side} but does not realize "
                           f"dist(A, B): its translate by b* - a* misses the other "
                           f"body by more than window {window:.1e}")

    def project(self, x, side: Side | None = None) -> np.ndarray:
        """P(x) for one point: `project_many` on a one-row stack."""
        x = self.instance.space.check_vector(x)
        return self.project_many(x[None, :], side)[0]

    def project_many(self, X: np.ndarray, side: Side | None = None,
                     first_row: int = 0) -> np.ndarray:
        inst = self.instance
        X = _as_matrix(X, inst.space.dim)
        window = DOMAIN_SLACK * inst.tol
        if side is not None:
            self._raise_first(~inst.body(side).member_many(X, window), X, side, "side",
                              first_row)
            return self._translate(X, side, first_row)
        in_a = inst.A.member_many(X, window)
        if in_a.all():
            return self._translate(X, "A", first_row)
        self._raise_first(~in_a & ~inst.B.member_many(X, window), X, None, "neither",
                          first_row)
        out = np.empty_like(X)
        for s, rows in (("A", np.flatnonzero(in_a)), ("B", np.flatnonzero(~in_a))):
            out[rows] = self._translate(X[rows], s, rows + first_row)
        return out

    def _translate(self, X: np.ndarray, side: Side, rows: np.ndarray | int = 0
                   ) -> np.ndarray:
        """X + v (A) or X - v (B), checked to land in the other body."""
        inst = self.instance
        image = X + inst.v if side == "A" else X - inst.v
        misses = ~inst.opposite_body(side).member_many(image, DOMAIN_SLACK * inst.tol)
        self._raise_first(misses, X, side, "distance", rows)
        return image

    def _raise_first(self, bad: np.ndarray, X: np.ndarray, side: Side | None,
                     fault: str, rows: np.ndarray | int = 0) -> None:
        """Raise the DomainError of the first row flagged in `bad`; `rows`
        maps rows of X to rows of the caller's stack, or is the row of X[0]."""
        if bad.any():
            i = int(np.argmax(bad))
            row = int(rows[i]) if np.ndim(rows) else i + rows
            raise self._refuse(X[i], side, fault, row)


def verify_projector_properties(inst: ProximityInstance,
                                samples: int = 1000) -> list[CheckResult]:
    """Numerically certify the five defining properties of the projector.

    The properties are checked on the nearest-point projection onto the
    opposite body, computed here apart from the projector, and the first
    check ties that reference to the projector's translation by v.  One
    CheckResult per property, named as `verify` reports it:

    1. projector-cyclic-distance: images land in the opposite proximal set,
       realize dist(A, B), and equal the translates x + v (y - v) that the
       projector returns;
    2. projector-isometry: cross-pair distances are preserved;
    3. projector-affine: images of proximal segments' midcombinations match
       the combinations of the images;
    4. projector-involution: applying the operator twice returns the start;
    5. projector-continuity: probed as nonexpansiveness on nearby pairs
       (already forced by the isometry property; reported for completeness).

    The translates are taken raw, not through the projector's domain check,
    so a wrong v fails check 1 instead of raising.  Singleton proximal sets
    make several checks vacuous, so when the instance's
    `proximal_sets_are_points` says they are, every check carries the flag
    `degenerate`.  Each check is `CheckResult.worst_of` its deviations
    against PROPERTY_TOL.  The points are the instance's proximal
    `cross_samples(samples)`; pairings, weights and jitter are drawn from a
    generator of the instance's seed.
    """
    xs, ys = inst.cross_samples(samples, proximal=True)
    rng = np.random.default_rng(inst.seed)
    flags = ["degenerate"] if inst.proximal_sets_are_points else []

    def result(name: str, tag: str, devs: np.ndarray, witnesses,
               note: str = "") -> CheckResult:
        return CheckResult.worst_of(
            f"projector-{name}", tag, devs, PROPERTY_TOL, witnesses, flags=list(flags),
            details=f"worst over {samples} proximal samples per side" + note)

    def nearest(X, side: Side):
        return inst.opposite_body(side).project_many(X)

    p_xs = nearest(xs, "A")
    p_ys = nearest(ys, "B")

    # 1: cyclicity and distance realization, both sides at once; the
    # nearest-point images must also be the translates x + v and y - v
    def landing_devs(points, images, target: Side, translates):
        realize = np.abs(inst.space.norms(points - images) - inst.dist)
        shift = inst.space.norms(images - translates)
        return np.maximum.reduce([inst.proximal_deviations(images, target),
                                  realize, shift])

    dev1 = np.concatenate([landing_devs(xs, p_xs, "B", xs + inst.v),
                           landing_devs(ys, p_ys, "A", ys - inst.v)])
    checks = [result("cyclic-distance", "projection-realizes-distance", dev1,
                     (np.vstack([xs, ys]), np.vstack([p_xs, p_ys])))]

    # 2: isometry over randomly matched cross pairs
    j = rng.integers(0, len(ys), size=len(xs))
    before = inst.space.norms(xs - ys[j])
    after = inst.space.norms(p_xs - p_ys[j])
    checks.append(result("isometry", "projection-preserves-distances",
                         np.abs(after - before), (xs, ys[j])))

    # 3: affineness on random proximal combinations, both sides
    def affine_devs(points, images, side: Side):
        k = rng.integers(0, len(points), size=len(points))
        lam = rng.uniform(0.0, 1.0, size=len(points))
        z = points * lam[:, None] + points[k] * (1.0 - lam)[:, None]
        combo = images * lam[:, None] + images[k] * (1.0 - lam)[:, None]
        return inst.space.norms(nearest(z, side) - combo), z

    dev3a, za = affine_devs(xs, p_xs, "A")
    dev3b, zb = affine_devs(ys, p_ys, "B")
    checks.append(result("affine", "projection-affine-on-chords",
                         np.concatenate([dev3a, dev3b]), (np.vstack([za, zb]),)))

    # 4: involution
    back_x = nearest(p_xs, "B")
    back_y = nearest(p_ys, "A")
    dev4 = np.concatenate([inst.space.norms(back_x - xs), inst.space.norms(back_y - ys)])
    checks.append(result("involution", "projection-is-involutive", dev4,
                         (np.vstack([xs, ys]), np.vstack([back_x, back_y]))))

    # 5: continuity probe on jittered nearby pairs, on the samples' scale
    spread = max(float(inst.space.norms(np.ptp(xs, axis=0))),
                 float(inst.space.norms(np.ptp(ys, axis=0))))
    scale = max(spread, 1.0)
    jitter = rng.normal(size=xs.shape) * (1e-3 * scale)
    xs2 = inst.proximalize(inst.A.project_many(xs + jitter), "A")
    p_xs2 = nearest(xs2, "A")
    moved_in = inst.space.norms(xs - xs2)
    moved_out = inst.space.norms(p_xs - p_xs2)
    checks.append(result("continuity", "projection-continuous",
                         np.maximum(0.0, moved_out - moved_in), (xs, xs2),
                         note="; nonexpansiveness on nearby pairs; implied by isometry"))
    return checks


def compose_with_projector(outer) -> MapSpec:
    """outer after P, as a MapSpec of domain "proximal", once its preconditions hold.

    With (M, c) the piece of outer that runs at b* (B's, or A's when b* is
    within MEMBER_TOL of A, as on touching pairs), the composition is
    M x + (c + M v) on A and outer's A piece at x - v elsewhere.  A
    blackbox outer becomes the callable x -> outer(x +- v), the side chosen
    by the same test.  Points are not checked against P's domain here.

    The preconditions are relative nonexpansiveness, alpha_hat <= 1 on
    outer's contraction certificate (every cyclic or noncyclic contraction
    has it: Eldred and Veeramani, J. Math. Anal. Appl. 323, 2006), and
    preservation of the proximal sets.  The composition has the opposite
    mode, and its images of A0 and B0 are outer's images of B0 and A0, so
    its ordinary `mode_check` is the preservation check.  Its contraction
    certificate is outer's alpha_hat, with method "inherited".  The
    composition is kept on outer (`outer.composed`) and returned by later
    calls.
    """
    if outer.composed is not None:
        return outer.composed
    inst = outer.instance
    modulus = outer.contraction
    if modulus.alpha_hat > 1.0:
        x, y = (w.tolist() for w in modulus.worst_pair)
        raise PreconditionError(
            f"map is not relatively nonexpansive (alpha_hat {modulus.alpha_hat:.6g} "
            f"> 1 at the pair {x}, {y})")
    v = inst.v
    A = inst.A
    if outer.func is not None:
        def lowered(x):
            return outer.apply(x + v if A.member(x, MEMBER_TOL) else x - v)
        pieces = {"func": lowered}
    else:
        M, c = M_a, c_a = outer.matrix, outer.offset
        if outer.matrix_b is not None and not A.member(inst.realizing_pair[1], MEMBER_TOL):
            M, c = outer.matrix_b, outer.offset_b
        pieces = {"matrix": M, "offset": c + M @ v,
                  "matrix_b": M_a, "offset_b": c_a - M_a @ v}
    composed = MapSpec(inst, flip_mode(outer.mode), name=f"{outer.name or 'map'}*P",
                       domain="proximal", **pieces)
    check = composed.mode_check
    if not check.passed:
        x, image = (w.tolist() for w in check.witness)
        raise PreconditionError(
            f"map does not preserve the proximal sets: composed with P it maps "
            f"the point {x} to {image}, {check.worst_deviation:.3e} away from "
            f"the proximal set its mode requires")
    vars(composed)["contraction"] = ContractionCertificate(
        alpha_hat=modulus.alpha_hat, samples=0, method="inherited", worst_pair=None)
    object.__setattr__(outer, "composed", composed)
    return composed


def check_commutation(m, samples: int = 1000) -> CheckResult:
    """The check `map-<name>-commutation`: max ||T(Px) - P(Tx)|| over the
    instance's proximal `cross_samples(samples, proximal=True)` of both sides;
    a failed check's witness is (x, T(Px), P(Tx)) at the worst x, A's on a tie.

    When T sends a proximal point off the proximal sets, P(Tx) does not
    exist: the check fails at an infinite deviation, with P's DomainError,
    which names the image and its row, appended to its details.
    """
    inst = m.instance
    projector = ProximalProjector(inst)
    name, tag = f"map-{m.name}-commutation", "map-commutes-with-projection"
    details = f"max over {samples} proximal points per side"
    sides = []
    for side, pts in zip(("A", "B"), inst.cross_samples(samples, proximal=True)):
        t_p = m.apply_many(projector.project_many(pts, side))
        try:
            p_t = projector.project_many(m.apply_many(pts))
        except DomainError as exc:
            return CheckResult.failed(name, tag, COMMUTATION_THRESHOLD, f"{details}; {exc}")
        sides.append((inst.space.norms(t_p - p_t), pts, t_p, p_t))
    devs, *witnesses = max(sides, key=lambda s: s[0][s[0].argmax()])
    return CheckResult.worst_of(name, tag, devs, COMMUTATION_THRESHOLD, witnesses,
                                details=details)
