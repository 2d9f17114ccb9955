"""Correctness checks on the program's outputs, computed apart from it.

Each check takes the instance document and what the program wrote, derives
the right answer from the document's own numbers with this module's lp norm
and map evaluation, and returns a list of problems (empty when the output is
right).  Nothing here imports `proxipair`.
"""

from __future__ import annotations

import numpy as np

# Residuals may reach RESIDUAL_FACTOR times the instance tol; points and
# distances must match to within POINT_TOL and DIST_TOL.
RESIDUAL_FACTOR = 10.0
POINT_TOL = 1e-6
DIST_TOL = 1e-7
MEMBER_TOL = 1e-7


def lp_norm(v, p: float) -> float:
    return float(np.sum(np.abs(np.asarray(v, dtype=float)) ** p) ** (1.0 / p))


def apply_map(doc: dict, map_name: str, x) -> np.ndarray:
    """Evaluate a declared map at x from the document's numbers."""
    spec = next(m for m in doc["maps"] if m["name"] == map_name)
    x = np.asarray(x, dtype=float)
    if spec["kind"] == "affine":
        return np.array(spec["matrix"]) @ x + np.array(spec["offset"])
    if spec["kind"] != "constant-pair" or doc["bodies"]["A"]["kind"] != "ball":
        raise ValueError("only affine maps, and constant-pair maps on balls, are used")
    A = doc["bodies"]["A"]
    own, other = np.array(spec["a"]), np.array(spec["b"])
    if lp_norm(x - np.array(A["center"]), doc["space"]["p"]) > A["radius"] + MEMBER_TOL:
        own, other = other, own
    return other if spec["mode"] == "cyclic" else own


def expected_solution(doc: dict) -> tuple[float, np.ndarray, np.ndarray]:
    """dist(A, B) and the realizing pair (a*, b*) that every run must reach.

    Boxes: the maps contract toward the centre c of A, which is flat along
    the gap axis, so a* = c and b* = c + gap * e_axis.  Balls: a* and b* are
    the points of each ball on the segment between the centres.
    """
    A, B = doc["bodies"]["A"], doc["bodies"]["B"]
    p = doc["space"]["p"]
    if A["kind"] == "box":
        lo_a, hi_a = np.array(A["lower"]), np.array(A["upper"])
        shift = np.array(B["lower"]) - lo_a
        c = (lo_a + hi_a) / 2.0
        return lp_norm(shift, p), c, c + shift
    if A["kind"] == "ball":
        c1, c2 = np.array(A["center"]), np.array(B["center"])
        span = lp_norm(c2 - c1, p)
        u = (c2 - c1) / span
        return (span - A["radius"] - B["radius"], c1 + A["radius"] * u,
                c2 - B["radius"] * u)
    raise ValueError(f"no closed-form solution for {A['kind']} bodies")


def _close(label: str, got, want, tol: float, p: float) -> list:
    err = lp_norm(np.asarray(got, dtype=float) - np.asarray(want, dtype=float), p)
    return [] if err <= tol else [f"{label}: off by {err:.3e} (tol {tol:.1e})"]


def check_solve_summary(doc: dict, summary: dict) -> list:
    """One `solve` run's summary JSON against the closed-form answer."""
    run = next(r for r in doc["runs"] if r["name"] == summary.get("run"))
    p, tol = doc["space"]["p"], doc["tol"]
    slack = RESIDUAL_FACTOR * tol
    dist, a_star, b_star = expected_solution(doc)
    where = f"{doc['name']}/{run['name']}"
    problems = [] if summary.get("converged") is True else [f"{where}: not converged"]
    if abs(summary["dist"] - dist) > DIST_TOL:
        problems.append(f"{where}: dist {summary['dist']!r} but expected {dist!r}")
    if "x_star" in summary:
        x = np.array(summary["x_star"])
        problems += _close(f"{where}: x*", x, a_star, POINT_TOL, p)
        gap = lp_norm(x - apply_map(doc, run["map"], x), p) - dist
        if abs(gap) > slack:
            problems.append(f"{where}: ||x* - T x*|| - dist = {gap:.3e} exceeds {slack:.1e}")
    elif "pair" in summary:
        x, y = (np.array(v) for v in summary["pair"])
        problems += _close(f"{where}: pair[0]", x, a_star, POINT_TOL, p)
        problems += _close(f"{where}: pair[1]", y, b_star, POINT_TOL, p)
        problems += _close(f"{where}: T pair[0]", apply_map(doc, run["map"], x), x, slack, p)
        problems += _close(f"{where}: T pair[1]", apply_map(doc, run["map"], y), y, slack, p)
        gap = lp_norm(x - y, p) - dist
        if abs(gap) > slack:
            problems.append(f"{where}: ||p - q|| - dist = {gap:.3e} exceeds {slack:.1e}")
    else:
        problems.append(f"{where}: summary holds neither x_star nor pair")
    return problems


def check_verify_report(doc: dict, report: dict) -> list:
    """Every check of a `verify` JSON report must pass, and its projector
    checks must be flagged `degenerate` exactly when the proximal sets are
    single points.  Of the pairs used here, the polygon pairs have a unique
    nearest pair; the segment pairs are parallel and overlap, so their
    proximal sets are segments."""
    name = doc["name"]
    checks = report.get("checks") or []
    if not checks:
        return [f"{name}: verify report holds no checks"]
    failed = [c["name"] for c in checks if c.get("passed") is not True]
    problems = [f"{name}: check {c} failed" for c in failed]
    if report.get("passed") is not True and not failed:
        problems.append(f"{name}: report not passed")
    points = len(doc["bodies"]["A"]["vertices"]) > 2
    projector = [c for c in checks if c["name"].startswith("projector-")]
    if not projector:
        problems.append(f"{name}: verify report holds no projector checks")
    for c in projector:
        if ("degenerate" in c.get("flags", [])) != points:
            problems.append(f"{name}: check {c['name']} flags {c.get('flags')}, but the "
                            f"proximal sets are {'points' if points else 'segments'}")
    return problems


def _point_segment(x, a, b) -> float:
    d = b - a
    t = float(np.clip((x - a) @ d / (d @ d), 0.0, 1.0))
    return float(np.linalg.norm(x - (a + t * d)))


def segment_distance(a0, a1, b0, b1) -> float:
    """Euclidean distance between segments [a0, a1] and [b0, b1], any dim.

    Minimizes |a0 + s u - b0 - t v|^2 over the unit square: the interior
    stationary point when it exists and lies inside, else the best edge of
    the square, where one parameter is fixed at 0 or 1.
    """
    a0, a1, b0, b1 = (np.asarray(v, dtype=float) for v in (a0, a1, b0, b1))
    u, v, w = a1 - a0, b1 - b0, a0 - b0
    uu, uv, vv, uw, vw = u @ u, u @ v, v @ v, u @ w, v @ w
    det = uu * vv - uv * uv
    best = min(_point_segment(a0, b0, b1), _point_segment(a1, b0, b1),
               _point_segment(b0, a0, a1), _point_segment(b1, a0, a1))
    if det > 1e-12 * uu * vv:
        s = (uv * vw - vv * uw) / det
        t = (uu * vw - uv * uw) / det
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            best = min(best, float(np.linalg.norm(w + s * u - t * v)))
    return best


def polygon_distance(va, vb) -> float:
    """Euclidean distance between two disjoint convex polygons given by their
    vertices in any order: the least vertex-to-edge distance either way.
    Edges are taken between angularly adjacent vertices about the centroid."""
    def edges(V):
        V = np.asarray(V, dtype=float)
        c = V.mean(axis=0)
        V = V[np.argsort(np.arctan2(V[:, 1] - c[1], V[:, 0] - c[0]))]
        return [(V[i], V[(i + 1) % len(V)]) for i in range(len(V))]

    best = np.inf
    for V, E in ((va, edges(vb)), (vb, edges(va))):
        for x in np.asarray(V, dtype=float):
            for a, b in E:
                best = min(best, _point_segment(x, a, b))
    return float(best)


def expected_distance(doc: dict) -> float:
    """Exact Euclidean distance of a polytope pair (two segments or two
    polygons), computed from the vertices."""
    va = doc["bodies"]["A"]["vertices"]
    vb = doc["bodies"]["B"]["vertices"]
    if len(va) == 2 and len(vb) == 2:
        return segment_distance(*va, *vb)
    return polygon_distance(va, vb)


def check_distance(doc: dict, program_dist: float) -> list:
    """The program's dist(A, B) against the exact value and the document's
    declared expected distance."""
    problems = []
    exact = expected_distance(doc)
    declared = doc["metadata"]["expected_dist"]
    if abs(program_dist - exact) > DIST_TOL:
        problems.append(f"{doc['name']}: program dist {program_dist!r}, exact {exact!r}")
    if abs(declared - exact) > DIST_TOL:
        problems.append(f"{doc['name']}: declared dist {declared!r}, exact {exact!r}")
    return problems
