"""The proximal projection operator and its certified algebraic properties.

On a pair (A, B) at distance d, points of the proximal sets A0, B0 project
onto the opposite body at exactly distance d.  That projection, restricted
to A0 union B0, is the pivot of the whole package: it swaps the two proximal
sets, realizes the distance everywhere, and is an affine isometric involution
between them.  `verify_projector_properties` checks all of that numerically;
`compose_with_projector` uses it to flip a map's mode while preserving its
contraction behavior, checking its preconditions once per map, and
`check_commutation` measures how far a map is from commuting with the
projector.

The lp norm with 1 < p < inf is strictly convex, so every pair realizing
dist(A, B) has the same difference v = b* - a*: if two pairs had different
differences, the midpoints of the two pairs would lie in A and B at less
than d.  So P is the translation x -> x + v on A0 and x -> x - v on B0 (the
P-property of Sankar Raj, Nonlinear Anal. 74, 2011).  `project`, the
single-point call that composed maps make on every step, evaluates exactly
that, after checking with the bodies' own membership tests that x is in its
side and that its translate is in the other body.  It makes no body
projection.  `project_many`, which the property checks, commutation and the
certifiers call on whole stacks, stays the nearest-point projection onto
the opposite body, so the check battery computes P by a path that does not
go through v, and compares the two.

Because P is an isometry between the proximal sets that swaps them, the
composed map's certificate follows from the outer map's: for x in A0 and
y in B0, d(TPx, TPy) <= alpha d(Px, Py) + (1 - alpha) dist(A, B), and
d(Px, Py) = d(x, y).  So T after P has the opposite mode and modulus at
most alpha, and is never re-sampled to establish either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DomainError, PreconditionError
from .geometry import ProximityInstance, Side, _as_matrix
from .mappings import (
    ContractionCertificate,
    MapCertificate,
    Mode,
    ModeCheck,
    certificate_of,
    certify_relatively_nonexpansive,
    contraction_of,
    flip_mode,
    opposite,
)

PROPERTY_TOL = 1e-8
DOMAIN_SLACK = 10.0
DEGENERATE_SPREAD = 1e-7


@dataclass(frozen=True, eq=False)
class ProximalProjector:
    """Projection onto the opposite body, restricted to the proximal sets.

    Accepts points within `slack` * tol of realizing dist(A, B); everything
    else raises DomainError.  `project` (and calling the projector) takes
    one point and translates it by v = b* - a*, the difference of the
    instance's realizing pair; `project_many` takes a stack with a known or
    row-detected side and projects it onto the opposite body.
    """

    instance: ProximityInstance
    slack: float = DOMAIN_SLACK
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a_star, b_star = self.instance.realizing_pair
        object.__setattr__(self, "v", b_star - a_star)

    def _window(self) -> float:
        return self.slack * self.instance.tol

    def _admit(self, X: np.ndarray, side: Side) -> np.ndarray:
        """Domain-check a single-side stack, returning the projected images."""
        inst = self.instance
        body = inst.body(side)
        res = inst.space.norms(X - body.project_many(X, inst.tol, inst.max_iter), axis=1)
        i = int(np.argmax(res))
        if res[i] > self._window():
            raise DomainError(
                f"point {X[i].tolist()} is not in side {side} "
                f"(residual {res[i]:.3e} exceeds window {self._window():.1e})")
        other = inst.opposite_body(side)
        images = other.project_many(X, inst.tol, inst.max_iter)
        gaps = inst.space.norms(X - images, axis=1) - inst.dist
        j = int(np.argmax(gaps))
        if gaps[j] > self._window():
            raise DomainError(
                f"point {X[j].tolist()} is in side {side} but does not realize "
                f"dist(A, B): achieved {inst.dist + gaps[j]:.12g} vs dist {inst.dist:.12g}")
        return images

    def sides_of(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the row belongs to side A (nearest body)."""
        inst = self.instance
        X = _as_matrix(X, inst.space.dim)
        res_a = inst.space.norms(
            X - inst.A.project_many(X, inst.tol, inst.max_iter), axis=1)
        res_b = inst.space.norms(
            X - inst.B.project_many(X, inst.tol, inst.max_iter), axis=1)
        nearest = np.minimum(res_a, res_b)
        i = int(np.argmax(nearest))
        if nearest[i] > self._window():
            raise DomainError(
                f"point {X[i].tolist()} is in neither body "
                f"(best residual {nearest[i]:.3e})")
        return res_a <= res_b

    def project_many(self, X: np.ndarray, side: Side | None = None) -> np.ndarray:
        X = _as_matrix(X, self.instance.space.dim)
        if side is not None:
            return self._admit(X, side)
        in_a = self.sides_of(X)
        out = np.empty_like(X)
        if np.any(in_a):
            out[in_a] = self._admit(X[in_a], "A")
        if np.any(~in_a):
            out[~in_a] = self._admit(X[~in_a], "B")
        return out

    def project(self, x, side: Side | None = None) -> np.ndarray:
        """P(x) = x + v on A0 and x - v on B0, with the same domain errors
        as `project_many` but checked by membership, not by projection."""
        inst = self.instance
        x = inst.space.check_vector(x)
        window = self._window()
        if side is None:
            if inst.A.member(x, window):
                side = "A"
            elif inst.B.member(x, window):
                side = "B"
            else:
                raise DomainError(
                    f"point {x.tolist()} is in neither body (window {window:.1e})")
        elif not inst.body(side).member(x, window):
            raise DomainError(
                f"point {x.tolist()} is not in side {side} "
                f"(it lies outside by more than window {window:.1e})")
        image = x + self.v if side == "A" else x - self.v
        if not inst.opposite_body(side).member(image, window):
            raise DomainError(
                f"point {x.tolist()} is in side {side} but does not realize "
                f"dist(A, B): its translate by b* - a* misses the other body "
                f"by more than window {window:.1e}")
        return image

    def __call__(self, x) -> np.ndarray:
        return self.project(x)


@dataclass
class PropertyCheck:
    holds: bool
    worst_deviation: float
    witness: Any = None
    note: str = ""

    def to_dict(self) -> dict:
        witness = self.witness
        if witness is not None:
            witness = [np.asarray(w).tolist() for w in witness]
        out = {"holds": bool(self.holds),
               "worst_deviation": float(self.worst_deviation),
               "witness": witness}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ProjectorReport:
    """Five property checks of the projector, plus degeneracy information."""

    cyclic_distance: PropertyCheck
    isometry: PropertyCheck
    affine: PropertyCheck
    involution: PropertyCheck
    continuity: PropertyCheck
    degenerate: bool
    samples: int
    tol: float = PROPERTY_TOL

    def checks(self) -> dict[str, PropertyCheck]:
        return {"cyclic_distance": self.cyclic_distance,
                "isometry": self.isometry,
                "affine": self.affine,
                "involution": self.involution,
                "continuity": self.continuity}

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks().values())

    def __bool__(self) -> bool:
        return self.all_hold

    def to_dict(self) -> dict:
        out = {name: check.to_dict() for name, check in self.checks().items()}
        out["degenerate"] = bool(self.degenerate)
        out["samples"] = int(self.samples)
        out["tol"] = float(self.tol)
        return out


def _check(devs: np.ndarray, witnesses, tol: float, note: str = "") -> PropertyCheck:
    i = int(np.argmax(devs))
    worst = float(devs[i])
    holds = worst <= tol
    witness = None if holds else tuple(w[i] for w in witnesses)
    return PropertyCheck(holds=holds, worst_deviation=worst, witness=witness, note=note)


def verify_projector_properties(projector: ProximalProjector, samples: int = 1000,
                                seed: int = 0, tol: float = PROPERTY_TOL
                                ) -> ProjectorReport:
    """Numerically certify the five defining properties of the projector.

    1. cyclic_distance: images land in the opposite proximal set, realize
       dist(A, B), and equal the translates x + v (y - v) that `project`
       returns;
    2. isometry: cross-pair distances are preserved;
    3. affine: images of proximal segments' midcombinations match the
       combinations of the images;
    4. involution: applying the operator twice returns the start;
    5. continuity: probed as nonexpansiveness on nearby pairs (already forced
       by the isometry property; reported for completeness).

    Singleton proximal sets make several checks vacuous; the report flags
    that via `degenerate` instead of failing.
    """
    inst = projector.instance
    rng = np.random.default_rng(seed)
    xs = inst.sample_proximal("A", samples, rng)
    ys = inst.sample_proximal("B", samples, rng)
    spread = max(float(inst.space.norms(np.ptp(xs, axis=0))),
                 float(inst.space.norms(np.ptp(ys, axis=0))))
    degenerate = spread < DEGENERATE_SPREAD

    p_xs = projector.project_many(xs, "A")
    p_ys = projector.project_many(ys, "B")

    # 1: cyclicity and distance realization, both sides at once; the
    # nearest-point images must also be the translates x + v and y - v
    # that `project` returns
    def landing_devs(points, images, target: Side, translates):
        body = inst.body(target)
        res = inst.space.norms(
            images - body.project_many(images, inst.tol, inst.max_iter), axis=1)
        gap = np.abs(inst.proximal_gaps(images, target))
        realize = np.abs(inst.space.norms(points - images, axis=1) - inst.dist)
        shift = inst.space.norms(images - translates, axis=1)
        return np.maximum.reduce([res, gap, realize, shift])

    dev1 = np.concatenate([landing_devs(xs, p_xs, "B", xs + projector.v),
                           landing_devs(ys, p_ys, "A", ys - projector.v)])
    check1 = _check(dev1, (np.vstack([xs, ys]), np.vstack([p_xs, p_ys])), tol)

    # 2: isometry over randomly matched cross pairs
    j = rng.integers(0, len(ys), size=len(xs))
    before = inst.space.norms(xs - ys[j], axis=1)
    after = inst.space.norms(p_xs - p_ys[j], axis=1)
    check2 = _check(np.abs(after - before), (xs, ys[j]), tol)

    # 3: affineness on random proximal combinations, both sides
    def affine_devs(points, images, side: Side):
        k = rng.integers(0, len(points), size=len(points))
        lam = rng.uniform(0.0, 1.0, size=len(points))[:, None]
        z = lam * points + (1.0 - lam) * points[k]
        p_z = projector.project_many(z, side)
        combo = lam * images + (1.0 - lam) * images[k]
        return inst.space.norms(p_z - combo, axis=1), z

    dev3a, za = affine_devs(xs, p_xs, "A")
    dev3b, zb = affine_devs(ys, p_ys, "B")
    check3 = _check(np.concatenate([dev3a, dev3b]),
                    (np.vstack([za, zb]),), tol)

    # 4: involution
    back_x = projector.project_many(p_xs, "B")
    back_y = projector.project_many(p_ys, "A")
    dev4 = np.concatenate([inst.space.norms(back_x - xs, axis=1),
                           inst.space.norms(back_y - ys, axis=1)])
    check4 = _check(dev4, (np.vstack([xs, ys]), np.vstack([back_x, back_y])), tol)

    # 5: continuity probe on jittered nearby pairs
    scale = max(spread, 1.0)
    jitter = rng.normal(size=xs.shape) * (1e-3 * scale)
    xs2 = inst.proximalize(inst.A.project_many(xs + jitter, inst.tol, inst.max_iter), "A")
    p_xs2 = projector.project_many(xs2, "A")
    moved_in = inst.space.norms(xs - xs2, axis=1)
    moved_out = inst.space.norms(p_xs - p_xs2, axis=1)
    dev5 = np.maximum(0.0, moved_out - moved_in)
    check5 = _check(dev5, (xs, xs2), tol,
                    note="nonexpansiveness on nearby pairs; implied by isometry")

    return ProjectorReport(cyclic_distance=check1, isometry=check2, affine=check3,
                           involution=check4, continuity=check5,
                           degenerate=degenerate, samples=samples, tol=tol)


@dataclass(frozen=True, eq=False)
class ComposedMap:
    """outer applied after the proximal projection; flips the outer's mode.

    Lives on the proximal sets only (domain 'proximal'): iterating it only
    makes sense from points that realize dist(A, B).  Its certificate is
    derived from the outer map's by `compose_with_projector`.
    """

    outer: Any
    projector: ProximalProjector
    mode: Mode
    certificate: MapCertificate
    name: str = ""

    domain = "proximal"

    @property
    def instance(self) -> ProximityInstance:
        return self.outer.instance

    @property
    def is_affine(self) -> bool:
        return False

    def apply(self, x) -> np.ndarray:
        return self.outer.apply(self.projector.project(x))

    def apply_many(self, X: np.ndarray) -> np.ndarray:
        return self.outer.apply_many(self.projector.project_many(X))


def compose_with_projector(outer, projector: ProximalProjector | None = None,
                           samples: int = 200) -> ComposedMap:
    """Build the map x -> outer(P(x)) after checking it is legitimate.

    Requires outer to be relatively nonexpansive and to preserve the proximal
    sets, both checked on the instance's `cross_samples` for the seed of
    outer's certificate (body and proximal samples respectively).  The result's
    certificate is derived from outer's: the mode is flipped, its mode check
    is the proximal-preservation check (outer's images of A0 and B0 are the
    composition's images of B0 and A0), and alpha_hat is outer's, with
    method "inherited".  That certificate is kept on outer's, and a later
    call with a projector of the same window and the same `samples` reuses
    it without checking again.  (Keeping the certificate, not the composed
    map, keeps outer out of a reference cycle with its own certificate.)
    """
    inst = outer.instance
    if projector is None:
        projector = ProximalProjector(inst)
    if projector.instance is not inst:
        raise PreconditionError("projector and map belong to different instances")
    kept = certificate_of(outer).compositions
    key = (projector.slack, samples)
    if key not in kept:
        kept[key] = _composition_certificate(outer, projector, samples)
    certificate = kept[key]
    return ComposedMap(outer=outer, projector=projector, mode=certificate.mode.mode,
                       certificate=certificate, name=f"{outer.name or 'map'}*P")


def _composition_certificate(outer, projector: ProximalProjector,
                             samples: int) -> MapCertificate:
    """Check the preconditions of outer after P; the composition's certificate."""
    inst = outer.instance
    seed = certificate_of(outer).seed
    nonexp = certify_relatively_nonexpansive(outer, samples=samples, seed=seed)
    if not nonexp:
        raise PreconditionError(
            "map is not relatively nonexpansive "
            f"(worst excess {nonexp.worst_excess:.3e} at {nonexp.witness})")

    window = projector.slack * inst.tol
    worst = 0.0
    for side, pts in zip(("A", "B"), inst.cross_samples(samples, seed, proximal=True)):
        imgs = outer.apply_many(pts)
        target: Side = side if outer.mode == "noncyclic" else opposite(side)
        body = inst.body(target)
        res = inst.space.norms(
            imgs - body.project_many(imgs, inst.tol, inst.max_iter), axis=1)
        gaps = np.maximum(0.0, inst.proximal_gaps(imgs, target))
        devs = np.maximum(res, gaps)
        i = int(np.argmax(devs))
        if devs[i] > window:
            raise PreconditionError(
                f"map does not preserve the proximal sets: point {pts[i].tolist()} "
                f"maps {devs[i]:.3e} away from the proximal part of side {target}")
        worst = max(worst, float(devs[i]))

    mode: Mode = flip_mode(outer.mode)
    modulus = contraction_of(outer)
    return MapCertificate(
        seed=seed,
        mode=ModeCheck(ok=True, mode=mode, exact=False, worst_deviation=worst),
        contraction=ContractionCertificate(
            alpha_hat=modulus.alpha_hat, samples=0, method="inherited",
            degenerate=modulus.degenerate, worst_pair=None))


@dataclass
class CommutationReport:
    """Worst deviation of map(P(x)) from P(map(x)) over sampled proximal points."""

    max_deviation: float
    witness: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    samples: int

    def __float__(self) -> float:
        return float(self.max_deviation)


def check_commutation(m, projector: ProximalProjector | None = None,
                      samples: int = 1000, seed: int = 0) -> CommutationReport:
    """Measure max ||T(Px) - P(Tx)|| over the instance's proximal
    `cross_samples(samples, seed, proximal=True)` of both sides."""
    inst = m.instance
    if projector is None:
        projector = ProximalProjector(inst)
    worst = 0.0
    witness = None
    for side, pts in zip(("A", "B"), inst.cross_samples(samples, seed, proximal=True)):
        t_p = m.apply_many(projector.project_many(pts, side))
        try:
            p_t = projector.project_many(m.apply_many(pts))
        except DomainError:
            # the map threw an iterate off the proximal sets entirely
            return CommutationReport(max_deviation=math.inf,
                                     witness=(pts[0], t_p[0], np.full_like(pts[0], np.nan)),
                                     samples=2 * samples)
        devs = inst.space.norms(t_p - p_t, axis=1)
        i = int(np.argmax(devs))
        if devs[i] >= worst:
            worst = float(devs[i])
            witness = (pts[i], t_p[i], p_t[i])
    return CommutationReport(max_deviation=worst, witness=witness, samples=2 * samples)
