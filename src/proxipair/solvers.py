"""Iteration schemes returning best proximity points and pairs.

Two direct solvers (Picard iteration for cyclic contractions, map-then-
project iteration for noncyclic ones) and two reductions that route one kind
of problem through the other by composing with the proximal projector P.
All solvers check their preconditions against the map's certificates
(`mode_check` and `contraction`, made on first use and kept on the map) and
flag non-convergence instead of raising.

A run computes its orbit x_0, x_1, ... in blocks of up to BLOCK iterates
(`MapSpec.iterate`), decides its stopping rule on each block's stacked
norms, which are also the trace's gaps, and stacks the blocks into one
(n, dim) array for the trace, the residual and the reductions.  No solver
projects onto a body or evaluates P step by step: P is the translation by
v = b* - a* (`ProximityInstance.v`), a map composed with P is a MapSpec of
domain "proximal", and a run checks each block's points against P's domain
in one `ProximalProjector.project_many` call, which also gives the
projection iteration its companions y_n = P(x_n).  A proximal start passes
the same check; a run that leaves the proximal sets ends with that block, in
a DomainError naming the point and its row in the run.  A reduction's
composed orbit is its inner run's, extended by the composed map only past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Literal

import numpy as np

from .errors import DomainError, PreconditionError
from .geometry import Side
from .mappings import BLOCK, ContractionCertificate, ContractionMethod
from .operators import ProximalProjector, compose_with_projector

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000
IDENTITY_TERMS = 20

Kind = Literal["best_proximity_point", "best_proximity_pair"]


@dataclass
class IterationTrace:
    """The orbit of a solver run, one row per iteration: the iterates x_n
    (`points`), their companions y_n and the gaps d(x_n, y_n) - dist(A, B).
    Picard's companions are its next iterates, and its rows alternate
    between A and B; the projection iteration's rows are all in A."""

    points: np.ndarray
    companions: np.ndarray
    gaps: np.ndarray
    iterations_used: int
    dist: float
    alternating: bool
    predicted_iterations: int | None = None

    def side(self, index: int) -> Side:
        return "B" if self.alternating and index % 2 else "A"

    def write_csv(self, handle: IO[str]) -> None:
        dim = self.points.shape[1]
        cols = ["index", "side", *(f"{c}{i}" for c in "xy" for i in range(dim)), "gap"]
        handle.write(",".join(cols) + "\n")
        rows = zip(self.points.tolist(), self.companions.tolist(), self.gaps.tolist())
        for i, (x, y, gap) in enumerate(rows):
            handle.write(",".join([str(i), self.side(i), *map(repr, x + y), repr(gap)])
                         + "\n")


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
            "final_gap": float(self.trace.gaps[-1]),
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
    mode_check = m.mode_check
    if not mode_check.passed:
        raise PreconditionError(
            f"map failed {expected_mode} mode certification "
            f"(worst deviation {mode_check.worst_deviation:.3e})")
    cert = m.contraction
    if not cert.alpha_hat < 1.0:
        at = "" if cert.worst_pair is None else " at the pair {}, {}".format(
            *(w.tolist() for w in cert.worst_pair))
        raise PreconditionError(
            f"map is not a contraction on cross pairs (alpha_hat={cert.alpha_hat}{at})")
    return cert


def _require_start(m, x0, proximal: bool) -> np.ndarray:
    """x0 as a vector, once it is a point of A, or with `proximal` a point
    of A0: it passes P's domain check, in A and its translate in B."""
    inst = m.instance
    x0 = inst.space.check_vector(x0)
    if not proximal:
        if not inst.A.member(x0, inst.tol):
            raise PreconditionError(f"start {x0.tolist()} is not a point of A")
        return x0
    try:
        ProximalProjector(inst).project_many(x0[None, :], "A")
    except DomainError as exc:
        raise PreconditionError(f"start {exc}") from exc
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
    Hitting max_iter returns the last even iterate with converged=False.
    """
    inst = m.instance
    _require_limits(tol, max_iter)
    cert = _require_contraction(m, "cyclic")
    x = _require_start(m, x0, m.domain == "proximal")
    space = inst.space

    # W: x_{n0-2} .. x_{n0+k}, with x_0 for x_{-2} and x_{-1}; it decides n0 .. n0+k-1
    orbit, gap_blocks, prev = [x[None, :]], [], np.repeat(x[None, :], 3, axis=0)
    n0, converged = 0, False
    while not converged and n0 <= max_iter:
        k = min(BLOCK, max_iter + 1 - n0)
        W = np.vstack([prev, m.iterate(prev[-1], k)])
        g = space.norms(W[3:] - W[2:-1]) - inst.dist
        ns = np.arange(n0, n0 + k)
        stops = ((ns % 2 == 0) & (ns >= 2) & (np.abs(g) < tol)
                 & (space.norms(W[2:-1] - W[:-3]) < tol))
        if stops.any():
            k, converged = int(np.argmax(stops)) + 1, True
        if m.domain == "proximal":
            ProximalProjector(inst).project_many(W[2:2 + k], first_row=n0)
        orbit.append(W[3:3 + k])
        gap_blocks.append(g[:k])
        prev, n0 = W[k:k + 3], n0 + k
    n = n0 - 1
    X = np.vstack(orbit)
    points, companions = X[:-1], X[1:]
    gaps = np.concatenate(gap_blocks)
    star = n - n % 2  # the last even iterate
    trace = IterationTrace(points=points, companions=companions, gaps=gaps,
                           iterations_used=n, dist=inst.dist, alternating=True,
                           predicted_iterations=_predict_iterations(
                               gaps[0], cert.alpha_hat, tol))
    return SolveResult(kind="best_proximity_point", residual=abs(gaps[star]),
                       converged=converged, trace=trace, alpha_hat=cert.alpha_hat,
                       alpha_method=cert.method, map_name=m.name, x_star=points[star])


def noncyclic_projection_iteration(m, x0, tol: float = DEFAULT_TOL,
                                   max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Iterate x_n = T^n(x0) in A0 with companions y_n = P(x_n) in B0.

    The start must already realize dist(A, B); it is never projected
    implicitly.  (x_n, y_n) converges to a best proximity pair when T is a
    certified noncyclic contraction.  The loop iterates x alone, to the first
    k with ||x_k - x_{k-1}|| < tol; each block's companions are the translates
    x_n + v, from one `project_many` call that also checks that its iterates
    stayed in A and their translates in B (the first block's with the start).
    The run has converged when the residual it reports is below tol too.
    """
    inst = m.instance
    _require_limits(tol, max_iter)
    cert = _require_contraction(m, "noncyclic")
    x = _require_start(m, x0, proximal=True)
    space = inst.space

    orbit, companions = [], []
    rows, n, converged = x[None, :], 0, False  # the start, checked with the first block
    while not orbit or (not converged and n < max_iter):
        block = m.iterate(rows[-1], min(BLOCK, max_iter - n))
        small = space.norms(np.diff(np.vstack([rows[-1:], block]), axis=0)) < tol
        if small.any():
            block, converged = block[:int(np.argmax(small)) + 1], True
        first_row, rows = (n + 1, block) if orbit else (0, np.vstack([rows, block]))
        companions.append(ProximalProjector(inst).project_many(rows, "A", first_row))
        orbit.append(rows)
        n += len(block)
    X, Y = np.vstack(orbit), np.vstack(companions)
    gaps = space.norms(X - Y) - inst.dist
    x, y = X[-1], Y[-1]
    residual = max(space.distance(x, m.apply(x)),
                   space.distance(y, m.apply(y)),
                   abs(space.distance(x, y) - inst.dist))
    converged = converged and residual < tol
    trace = IterationTrace(points=X, companions=Y, gaps=gaps,
                           iterations_used=len(X) - 1, dist=inst.dist, alternating=False,
                           predicted_iterations=_predict_iterations(
                               space.distance(X[0], m.apply(X[0])),
                               cert.alpha_hat, tol))
    return SolveResult(kind="best_proximity_pair", residual=residual,
                       converged=converged, trace=trace, alpha_hat=cert.alpha_hat,
                       alpha_method=cert.method, map_name=m.name, pair=(x, y))


def _orbit(m, head: np.ndarray, count: int) -> np.ndarray:
    """The first `count` points of the orbit under m that begins with the
    rows of `head`, iterating m only past them."""
    head = head[:count]
    return np.vstack([head, m.iterate(head[-1], count - len(head))])


def _even_identity_deviation(composed_orbit: np.ndarray, outer, space) -> float:
    """Max over n <= IDENTITY_TERMS of d(composed^2n x0, outer^2n x0), where
    composed_orbit is the composition's orbit from x0 = composed_orbit[0]."""
    outer_orbit = _orbit(outer, composed_orbit[:1], 2 * IDENTITY_TERMS + 1)
    even = slice(2, 2 * IDENTITY_TERMS + 1, 2)
    return float(np.max(space.norms(composed_orbit[even] - outer_orbit[even])))


def solve_cyclic_via_reduction(m, x0, tol: float = DEFAULT_TOL,
                               max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Solve a cyclic contraction by running the noncyclic solver on m after P.

    The composition is noncyclic; the A-side of its best proximity pair is
    the best proximity point of m.  Records the deviation of the even-orbit
    identity (composition iterated 2n times vs m iterated 2n times); the
    composition's orbit is the inner run's iterates, extended past them.
    """
    inst = m.instance
    _require_limits(tol, max_iter)
    _require_contraction(m, "cyclic")
    composed = compose_with_projector(m)
    inner = noncyclic_projection_iteration(composed, x0, tol=tol, max_iter=max_iter)
    orb = _orbit(composed, inner.trace.points, 2 * IDENTITY_TERMS + 1)
    # check the orbit against P's domain as the inner run checks its iterates
    ProximalProjector(inst).project_many(orb[:-1], "A")
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
    even-orbit identity deviation and the odd iterates' largest
    `proximal_deviations` from B; the composition's orbit is the inner
    run's iterates and last companion, extended past them.
    """
    inst = m.instance
    _require_limits(tol, max_iter)
    _require_contraction(m, "noncyclic")
    composed = compose_with_projector(m)
    inner = picard_cyclic(composed, x0, tol=tol, max_iter=max_iter)
    trace = inner.trace
    orb = _orbit(composed, np.vstack([trace.points, trace.companions[-1:]]),
                 2 * IDENTITY_TERMS + 2)
    projector = ProximalProjector(inst)
    projector.project_many(orb[:-1])  # as picard_cyclic checks
    p = inner.x_star
    q = projector.project(p, "A")
    space = inst.space
    residual = max(space.distance(p, m.apply(p)),
                   space.distance(q, m.apply(q)),
                   abs(space.distance(p, q) - inst.dist))
    identity = _even_identity_deviation(orb, m, space)
    odd_dev = float(np.max(inst.proximal_deviations(orb[1::2], "B")))
    return SolveResult(kind="best_proximity_pair", residual=residual,
                       converged=inner.converged, trace=trace,
                       alpha_hat=inner.alpha_hat, alpha_method=inner.alpha_method,
                       map_name=m.name, pair=(p, q), identity_deviation=identity,
                       odd_membership_deviation=odd_dev)
