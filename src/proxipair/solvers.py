"""Iteration schemes returning best proximity points and pairs.

Two direct solvers (Picard iteration for cyclic contractions, map-then-
project iteration for noncyclic ones) and two reductions that route one kind
of problem through the other by composing with the proximal projector.  All
solvers check their preconditions against the map's certificate (made on
first use when the map has none), record a full trace with the gap
d(x_n, companion_n) - dist(A, B), and flag non-convergence instead of
raising.

No solver projects onto a body or evaluates P in its loop.  P is the
translation by v = b* - a* (see `operators`), so a map composed with P is
a MapSpec of domain "proximal".  After its loop a run checks all its
points against P's domain (each in its side, its translate in the other
body) in one `ProximalProjector.project_many` call, which also gives the
projection iteration its companions y_n = P(x_n).  A run that leaves the
proximal sets ends in a DomainError naming the point and its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Literal

import numpy as np

from .errors import DomainError, PreconditionError
from .geometry import ProximityInstance, Side
from .mappings import (
    ContractionCertificate,
    ContractionMethod,
    certificate_of,
    contraction_of,
)
from .operators import ProximalProjector, compose_with_projector

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000
IDENTITY_TERMS = 20

Kind = Literal["best_proximity_point", "best_proximity_pair"]


@dataclass
class TraceStep:
    index: int
    side: Side
    point: np.ndarray
    companion: np.ndarray
    gap: float


@dataclass
class IterationTrace:
    """Per-iteration record of a solver run."""

    steps: list[TraceStep]
    converged: bool
    iterations_used: int
    dist: float
    predicted_iterations: int | None = None

    def gaps(self) -> np.ndarray:
        return np.array([s.gap for s in self.steps])

    def write_csv(self, handle: IO[str]) -> None:
        dim = len(self.steps[0].point)
        cols = ["index", "side"]
        cols += [f"x{i}" for i in range(dim)]
        cols += [f"y{i}" for i in range(dim)]
        cols.append("gap")
        handle.write(",".join(cols) + "\n")
        for s in self.steps:
            row = [str(s.index), s.side]
            row += [repr(float(v)) for v in s.point]
            row += [repr(float(v)) for v in s.companion]
            row.append(repr(float(s.gap)))
            handle.write(",".join(row) + "\n")


@dataclass
class SolveResult:
    """Outcome of a solver run; `summary()` is the JSON-ready view."""

    kind: Kind
    residual: float
    converged: bool
    trace: IterationTrace
    alpha_hat: float
    alpha_method: ContractionMethod
    map_name: str = ""
    x_star: np.ndarray | None = None
    pair: tuple[np.ndarray, np.ndarray] | None = None
    identity_deviation: float | None = None
    odd_membership_deviation: float | None = None

    def __bool__(self) -> bool:
        return self.converged

    def summary(self) -> dict:
        out = {
            "kind": self.kind,
            "map": self.map_name,
            "converged": bool(self.converged),
            "iterations": int(self.trace.iterations_used),
            "predicted_iterations": self.trace.predicted_iterations,
            "residual": float(self.residual),
            "alpha_hat": float(self.alpha_hat),
            "alpha_method": self.alpha_method,
            "dist": float(self.trace.dist),
            "final_gap": float(self.trace.steps[-1].gap),
        }
        if self.x_star is not None:
            out["x_star"] = [float(v) for v in self.x_star]
        if self.pair is not None:
            out["pair"] = [[float(v) for v in p] for p in self.pair]
        if self.identity_deviation is not None:
            out["identity_deviation"] = float(self.identity_deviation)
        if self.odd_membership_deviation is not None:
            out["odd_membership_deviation"] = float(self.odd_membership_deviation)
        return out


def _require_limits(tol: float, max_iter: int) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 0:
        raise PreconditionError(f"max_iter must be at least 0, got {max_iter!r}")


def _require_contraction(m, expected_mode: str) -> ContractionCertificate:
    if m.mode != expected_mode:
        raise PreconditionError(
            f"solver needs a {expected_mode} map, got mode {m.mode!r}")
    mode_check = certificate_of(m).mode
    if not mode_check:
        raise PreconditionError(
            f"map failed {expected_mode} mode certification "
            f"(worst deviation {mode_check.worst_deviation:.3e})")
    cert = contraction_of(m)
    if not cert.alpha_hat < 1.0:
        raise PreconditionError(
            f"map is not a contraction on cross pairs (alpha_hat={cert.alpha_hat})")
    return cert


def _require_start_in_A(m, x0) -> np.ndarray:
    inst = m.instance
    x0 = inst.space.check_vector(x0)
    if m.domain == "proximal":
        return _require_proximal_start(inst, x0)
    if not inst.A.member(x0, inst.tol):
        raise PreconditionError(f"start {x0.tolist()} is not a point of A")
    return x0


def _require_proximal_start(inst: ProximityInstance, x0) -> np.ndarray:
    x0 = inst.space.check_vector(x0)
    try:
        ok = inst.proximal_membership(x0, "A")
    except DomainError as exc:
        raise PreconditionError(str(exc)) from exc
    if not ok:
        raise PreconditionError(
            f"start {x0.tolist()} does not realize dist(A, B); "
            "the projection iteration needs a proximal start and never "
            "projects the start implicitly")
    return x0


def _predict_iterations(gap0: float, alpha: float, tol: float) -> int | None:
    if gap0 <= tol:
        return 0
    if alpha <= 0.0:
        return 1
    if alpha >= 1.0:
        return None
    return int(math.ceil(math.log(tol / gap0) / math.log(alpha)))


def picard_cyclic(m, x0, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Iterate x_{n+1} = T(x_n) for a certified cyclic contraction.

    Stops when an even iterate repeats within tol and the running gap has
    closed; the limit of the even subsequence is the best proximity point.
    Hitting max_iter returns the best even iterate with converged=False.
    """
    inst = m.instance
    _require_limits(tol, max_iter)
    cert = _require_contraction(m, "cyclic")
    x = _require_start_in_A(m, x0)
    space = inst.space

    steps: list[TraceStep] = []
    prev_even = None
    x_star = None
    converged = False
    n = 0
    while True:
        x_next = m.apply(x)
        gap = space.distance(x, x_next) - inst.dist
        steps.append(TraceStep(n, "A" if n % 2 == 0 else "B", x, x_next, gap))
        if n % 2 == 0:
            if (prev_even is not None and space.distance(x, prev_even) < tol
                    and abs(gap) < tol):
                x_star = x
                converged = True
                break
            prev_even = x
        if n >= max_iter:
            break
        x = x_next
        n += 1
    if m.domain == "proximal":
        ProximalProjector(inst).project_many(np.array([s.point for s in steps]))
    if x_star is None:
        x_star = prev_even
    residual = abs(space.distance(x_star, m.apply(x_star)) - inst.dist)
    trace = IterationTrace(steps=steps, converged=converged, iterations_used=n,
                           dist=inst.dist,
                           predicted_iterations=_predict_iterations(
                               steps[0].gap, cert.alpha_hat, tol))
    return SolveResult(kind="best_proximity_point", residual=residual,
                       converged=converged, trace=trace, alpha_hat=cert.alpha_hat,
                       alpha_method=cert.method, map_name=m.name, x_star=x_star)


def noncyclic_projection_iteration(m, x0, tol: float = DEFAULT_TOL,
                                   max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Iterate x_n = T^n(x0) in A0 with companions y_n = P(x_n) in B0.

    The start must already realize dist(A, B); it is never projected
    implicitly.  (x_n, y_n) converges to a best proximity pair when T is a
    certified noncyclic contraction.  The loop iterates x alone; the
    companions of the whole run are the translates x_n + v, from one
    `project_many` call after it, which also checks that every iterate
    stayed in A and its translate in B.
    """
    inst = m.instance
    _require_limits(tol, max_iter)
    cert = _require_contraction(m, "noncyclic")
    x = _require_proximal_start(inst, x0)
    space = inst.space

    iterates = [x]
    converged = False
    n = 0
    while n < max_iter:
        n += 1
        x_next = m.apply(x)
        iterates.append(x_next)
        moved = space.distance(x_next, x)
        x = x_next
        if moved < tol:
            converged = True
            break
    # every companion, and the domain check of every iterate, in one call
    X = np.array(iterates)
    Y = ProximalProjector(inst).project_many(X, "A")
    gaps = space.norms(X - Y, axis=1) - inst.dist
    steps = [TraceStep(i, "A", X[i], Y[i], float(gaps[i])) for i in range(len(X))]
    x, y = X[-1], Y[-1]
    residual = max(space.distance(x, m.apply(x)),
                   space.distance(y, m.apply(y)),
                   abs(space.distance(x, y) - inst.dist))
    trace = IterationTrace(steps=steps, converged=converged, iterations_used=n,
                           dist=inst.dist,
                           predicted_iterations=_predict_iterations(
                               space.distance(steps[0].point, m.apply(steps[0].point)),
                               cert.alpha_hat, tol))
    return SolveResult(kind="best_proximity_pair", residual=residual,
                       converged=converged, trace=trace, alpha_hat=cert.alpha_hat,
                       alpha_method=cert.method, map_name=m.name, pair=(x, y))


def _orbit(m, x0: np.ndarray, count: int) -> list[np.ndarray]:
    pts = [np.asarray(x0, dtype=float)]
    for _ in range(count):
        pts.append(m.apply(pts[-1]))
    return pts


def _even_identity_deviation(composed_orbit: list[np.ndarray], outer, space) -> float:
    """Max over n <= IDENTITY_TERMS of d(composed^2n x0, outer^2n x0), where
    composed_orbit is the composition's orbit from x0 = composed_orbit[0]."""
    outer_orbit = _orbit(outer, composed_orbit[0], 2 * IDENTITY_TERMS)
    devs = [space.distance(composed_orbit[2 * n], outer_orbit[2 * n])
            for n in range(1, IDENTITY_TERMS + 1)]
    return float(max(devs))


def solve_cyclic_via_reduction(m, x0, tol: float = DEFAULT_TOL,
                               max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Solve a cyclic contraction by running the noncyclic solver on m after P.

    The composition is noncyclic; the A-side of its best proximity pair is
    the best proximity point of m.  Records the deviation of the even-orbit
    identity (composition iterated 2n times vs m iterated 2n times).
    """
    inst = m.instance
    _require_limits(tol, max_iter)
    _require_contraction(m, "cyclic")
    x0 = _require_proximal_start(inst, x0)
    composed = compose_with_projector(m)
    inner = noncyclic_projection_iteration(composed, x0, tol=tol, max_iter=max_iter)
    orb = _orbit(composed, x0, 2 * IDENTITY_TERMS)
    # check the orbit against P's domain as the inner run checks its iterates
    ProximalProjector(inst).project_many(np.array(orb[:-1]), "A")
    p = inner.pair[0]
    residual = abs(inst.space.distance(p, m.apply(p)) - inst.dist)
    identity = _even_identity_deviation(orb, m, inst.space)
    return SolveResult(kind="best_proximity_point", residual=residual,
                       converged=inner.converged, trace=inner.trace,
                       alpha_hat=inner.alpha_hat, alpha_method=inner.alpha_method,
                       map_name=m.name, x_star=p, identity_deviation=identity)


def solve_noncyclic_via_reduction(m, x0, tol: float = DEFAULT_TOL,
                                  max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Solve a noncyclic contraction by running Picard on m after P.

    The composition is cyclic, so its even Picard iterates converge to a
    point p of A0; (p, P(p)) is the best proximity pair of m.  Records the
    even-orbit identity deviation and how far the odd iterates of the
    composition stray from the proximal part of B.
    """
    inst = m.instance
    _require_limits(tol, max_iter)
    _require_contraction(m, "noncyclic")
    x0 = _require_proximal_start(inst, x0)
    composed = compose_with_projector(m)
    inner = picard_cyclic(composed, x0, tol=tol, max_iter=max_iter)
    orb = _orbit(composed, x0, 2 * IDENTITY_TERMS + 1)
    projector = ProximalProjector(inst)
    projector.project_many(np.array(orb[:-1]))  # as picard_cyclic checks
    p = inner.x_star
    q = projector.project(p, "A")
    space = inst.space
    residual = max(space.distance(p, m.apply(p)),
                   space.distance(q, m.apply(q)),
                   abs(space.distance(p, q) - inst.dist))
    identity = _even_identity_deviation(orb, m, space)
    odd = np.array([orb[2 * n + 1] for n in range(IDENTITY_TERMS + 1)])
    odd_dev = float(np.max(inst.proximal_deviations(odd, "B")))
    return SolveResult(kind="best_proximity_pair", residual=residual,
                       converged=inner.converged, trace=inner.trace,
                       alpha_hat=inner.alpha_hat, alpha_method=inner.alpha_method,
                       map_name=m.name, pair=(p, q), identity_deviation=identity,
                       odd_membership_deviation=odd_dev)
