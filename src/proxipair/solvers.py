"""Iteration schemes returning best proximity points and pairs.

Two direct solvers (Picard iteration for cyclic contractions, map-then-
project iteration for noncyclic ones) and two reductions that route one kind
of problem through the other by composing with the proximal projector P.
All solvers check their preconditions against the map's certificates
(`mode_check` and `contraction`, made on first use and kept on the map) and
flag non-convergence instead of raising.

A direct run is a stack of starts (`picard_cyclic_many`,
`noncyclic_projection_iteration_many`), one start a one-row stack, and each
row's result is its start's alone, bit for bit.  The run computes the orbits
of the starts still running in blocks of up to BLOCK iterates
(`MapSpec.iterate`, sized by `MapSpec.block_size`), decides each stopping
rule on the block's stacked norms, which are also the trace's gaps, and
stacks each start's blocks into one (n, dim) array for its trace, its
residual and the reductions.  No solver projects onto a body or evaluates P
step by step: P is the translation by v = b* - a* (`ProximityInstance.v`), a
map composed with P is a MapSpec of domain "proximal", and a run checks each
block's points against P's domain in one `ProximalProjector.project_many`
call, which also gives the projection iteration its companions y_n = P(x_n).
A start that fails the same check, or whose orbit leaves the proximal sets,
ends in its own error, naming the point and its row in its run.  A
reduction's composed orbit is its inner run's, extended only past it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import IO, Literal

import numpy as np

from .errors import DomainError, PreconditionError, ProxipairError
from .geometry import Side
from .mappings import ContractionCertificate, ContractionMethod, through_first
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


def _require_starts(m, starts, proximal: bool) -> tuple[np.ndarray, list]:
    """The starts as an (s, dim) stack, and for each its PreconditionError or,
    once it is a point of A, None; with `proximal`, once it is a point of A0
    (it passes P's domain check, in A and its translate in B), its image
    under P as a one-row stack."""
    inst = m.instance
    X0 = np.array([inst.space.check_vector(x0) for x0 in starts])
    if proximal:
        return X0, [PreconditionError(f"start {c}") if isinstance(c, DomainError) else c
                    for c in _each(ProximalProjector(inst), list(X0[:, None]), "A", 0)]
    return X0, [None if ok else PreconditionError(f"start {X0[i].tolist()} is not a point of A")
                for i, ok in enumerate(inst.A.member_many(X0, inst.tol).tolist())]


def _each(projector, blocks: list, side, first_row: int) -> list:
    """P of each (n, dim) block, its rows numbered from first_row, from one
    `project_many` call on all of them; once that raises, from one call per
    block, which gives each block its own image or DomainError."""
    try:
        out = projector.project_many(np.concatenate(blocks), side, first_row)
    except DomainError as exc:
        return [exc] if len(blocks) == 1 else [
            _each(projector, [block], side, first_row)[0] for block in blocks]
    ends = itertools.accumulate(map(len, blocks))
    return [out[end - len(block):end] for block, end in zip(blocks, ends)]


def _rows(stack: np.ndarray, rows: list) -> np.ndarray:
    """The rows `rows` of a stack: the stack itself when they are all of it."""
    return stack if len(rows) == len(stack) else stack[rows]


def _alone(outcomes: list) -> SolveResult:
    """The one outcome of a one-start run, raised when it is an error."""
    (outcome,) = outcomes
    if isinstance(outcome, ProxipairError):
        raise outcome
    return outcome


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
    return _alone(picard_cyclic_many(m, [x0], tol, max_iter))


def picard_cyclic_many(m, starts, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> list:
    """`picard_cyclic` from each of `starts`: for each, its SolveResult or
    the ProxipairError of its run alone."""
    inst, space = m.instance, m.instance.space
    _require_limits(tol, max_iter)
    cert = _require_contraction(m, "cyclic")
    X0, checked = _require_starts(m, starts, m.domain == "proximal")
    out = [c if isinstance(c, PreconditionError) else None for c in checked]
    live = [r for r, error in enumerate(out) if error is None]
    orbits, gap_blocks = [[x[None, :]] for x in X0], [[] for _ in X0]
    converged = [False] * len(X0)
    # W: x_{n0-2} .. x_{n0+k} of each live start, with x_0 for x_{-2} and
    # x_{-1}; it decides n0 .. n0+k-1
    prev, n0 = _rows(X0, live)[:, None, :].repeat(3, axis=1), 0
    while live and n0 <= max_iter:
        k = min(m.block_size(n0), max_iter + 1 - n0)
        W = np.concatenate([prev, m.iterate(prev[:, -1], k)], axis=1)
        # each step's length, and each iterate's distance from two steps back
        D = space.norms(np.concatenate([W[:, 3:] - W[:, 2:-1], W[:, 2:-1] - W[:, :-3]]))
        g = D[:len(W)] - inst.dist
        # stop at an even n >= 2 whose gap has closed and whose x_n repeats x_{n-2}
        stops = (np.abs(g) < tol) & (D[len(W):] < tol)
        stops[:, (n0 + 1) % 2::2] = stops[:, :max(2 - n0, 0)] = False
        ks, stopped = through_first(stops), stops.any(axis=1).tolist()
        checked = (_each(ProximalProjector(inst), [w[2:2 + j] for w, j in zip(W, ks)],
                         None, n0) if m.domain == "proximal" else [None] * len(W))
        for i, r in enumerate(live):
            out[r] = checked[i] if isinstance(checked[i], DomainError) else None
            orbits[r].append(W[i, 3:3 + ks[i]])
            gap_blocks[r].append(g[i, :ks[i]])
            converged[r] = stopped[i]
        keep = [i for i, r in enumerate(live) if out[r] is None and not stopped[i]]
        live, prev, n0 = [live[i] for i in keep], _rows(W, keep)[:, k:], n0 + k
    for r, error in enumerate(out):
        if error is None:
            X, gaps = np.vstack(orbits[r]), np.concatenate(gap_blocks[r])
            n = len(X) - 2
            star = n - n % 2  # the last even iterate
            trace = IterationTrace(points=X[:-1], companions=X[1:], gaps=gaps,
                                   iterations_used=n, dist=inst.dist, alternating=True,
                                   predicted_iterations=_predict_iterations(
                                       gaps[0], cert.alpha_hat, tol))
            out[r] = SolveResult(kind="best_proximity_point", residual=abs(gaps[star]),
                                 converged=converged[r], trace=trace, alpha_hat=cert.alpha_hat,
                                 alpha_method=cert.method, map_name=m.name, x_star=X[star])
    return out


def noncyclic_projection_iteration(m, x0, tol: float = DEFAULT_TOL,
                                   max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Iterate x_n = T^n(x0) in A0 with companions y_n = P(x_n) in B0.

    The start must already realize dist(A, B); it is never projected
    implicitly.  (x_n, y_n) converges to a best proximity pair when T is a
    certified noncyclic contraction.  The loop iterates x alone, to the first
    k with ||x_k - x_{k-1}|| < tol; each block's companions are the translates
    x_n + v, from one `project_many` call that also checks that its iterates
    stayed in A and their translates in B (the start's, from the start test).
    The run has converged when the residual it reports is below tol too.
    """
    return _alone(noncyclic_projection_iteration_many(m, [x0], tol, max_iter))


def noncyclic_projection_iteration_many(m, starts, tol: float = DEFAULT_TOL,
                                        max_iter: int = DEFAULT_MAX_ITER) -> list:
    """`noncyclic_projection_iteration` from each of `starts`: for each, its
    SolveResult or the ProxipairError of its run alone.  T at each run's
    last x and y and at its start is one `iterate` step of all of them."""
    inst, space = m.instance, m.instance.space
    _require_limits(tol, max_iter)
    cert = _require_contraction(m, "noncyclic")
    X0, checked = _require_starts(m, starts, proximal=True)
    out = [c if isinstance(c, PreconditionError) else None for c in checked]
    live = [r for r, error in enumerate(out) if error is None]
    orbits, companions = [[x[None, :]] for x in X0], [[c] for c in checked]
    converged = [False] * len(X0)
    last, n = _rows(X0, live), 0
    while live and n < max_iter:
        k = min(m.block_size(n), max_iter - n)
        W = np.concatenate([last[:, None], m.iterate(last, k)], axis=1)  # x_n .. x_{n+k}
        stops = space.norms(np.diff(W, axis=1)) < tol
        ks, stopped = through_first(stops), stops.any(axis=1).tolist()
        rows = [w[1:j + 1] for w, j in zip(W, ks)]
        checked = _each(ProximalProjector(inst), rows, "A", n + 1)
        for i, r in enumerate(live):
            out[r] = checked[i] if isinstance(checked[i], DomainError) else None
            orbits[r].append(rows[i])
            companions[r].append(checked[i])
            converged[r] = stopped[i]
        keep = [i for i, r in enumerate(live) if out[r] is None and not stopped[i]]
        live, last, n = [live[i] for i in keep], _rows(W, keep)[:, -1], n + k
    done = [r for r, error in enumerate(out) if error is None]
    XY = [(np.vstack(orbits[r]), np.vstack(companions[r])) for r in done]
    ends = np.array([p for X, Y in XY for p in (X[-1], Y[-1], X[0])]).reshape(-1, space.dim)
    moved = space.norms(ends - m.iterate(ends, 1)[:, 0]).reshape(-1, 3).tolist()
    for r, (X, Y), (dx, dy, d0) in zip(done, XY, moved):
        gaps = space.norms(X - Y) - inst.dist
        # the last gap is d(x, y) - dist(A, B) at the pair (x, y) = (X[-1], Y[-1])
        residual = max(dx, dy, abs(float(gaps[-1])))
        trace = IterationTrace(points=X, companions=Y, gaps=gaps,
                               iterations_used=len(X) - 1, dist=inst.dist,
                               alternating=False, predicted_iterations=_predict_iterations(
                                   d0, cert.alpha_hat, tol))
        out[r] = SolveResult(kind="best_proximity_pair", residual=residual,
                             converged=converged[r] and residual < tol, trace=trace,
                             alpha_hat=cert.alpha_hat, alpha_method=cert.method,
                             map_name=m.name, pair=(X[-1], Y[-1]))
    return out


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
    points = inner.trace.points
    orb = _orbit(composed, points, 2 * IDENTITY_TERMS + 1)
    # check the orbit's extension against P's domain, as the inner run
    # checked its iterates
    if len(orb) - 1 > len(points):
        ProximalProjector(inst).project_many(orb[len(points):-1], "A", len(points))
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
    n = len(trace.points)  # the inner run checked its points; check the rest
    if len(orb) - 1 > n:
        projector.project_many(orb[n:-1], first_row=n)  # as picard_cyclic checks
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
