"""Instance documents for the benchmark workloads, made from the seed alone.

Every workload is a fixed list of instance *slots*; one round runs each slot
once.  A slot fixes everything the cost of an instance depends on: family,
dim, p, body shapes and sizes, gap, map moduli, start point, and for the
polygons the tilt between the facing edges.  These come from a generator
seeded by the slot alone.  The benchmark seed then places the slot's
instance: it permutes and flips the coordinates (an isometry of every lp
norm) and translates the whole instance.  So the inputs differ from seed to
seed while a round costs the same, and a run's figures do not depend on
which seed it drew.

The documents follow the instance file format of `proxipair` (see its
README) and are built here, apart from the program's own generator, so the
checks in `checks.py` can derive the right answers from the same numbers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9

# (family, dim, p) per slot; one round runs every slot once, in this order.
BOX_SLOTS = [("separated-boxes", 3, 1.5), ("separated-boxes", 4, 1.5)]
BALL_SLOTS = [("separated-balls", 3, 3.0)] * 3
SEGMENT_SLOTS = [("segpair", 2, 2.0)] + [("parallel-polytopes", d, 2.0)
                                          for d in (2, 3, 4) for _ in range(3)]
# Angle in radians between the facing edges of each polygon pair.
# Alternating projections need about (edge length / gap) / tilt steps to
# reach the nearest corners, and the edge length is twice the gap.
POLYGON_TILT = 0.01
POLYGON_SLOTS = [("tilted-polygons", 2, 2.0)] * 5

WORKLOADS = {
    "solve-boxes": ("solve", BOX_SLOTS),
    "solve-balls": ("solve", BALL_SLOTS),
    "verify-segments": ("verify", SEGMENT_SLOTS),
    "verify-polygons": ("verify", POLYGON_SLOTS),
}


def _vec(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


class Placement:
    """x -> S x + t, with S a signed permutation matrix: an isometry of
    R^dim under every lp norm, so it keeps every distance and modulus."""

    def __init__(self, rng, dim: int):
        self.S = np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], dim)[:, None]
        self.t = rng.uniform(-5.0, 5.0, dim)

    def point(self, x) -> list:
        return _vec(self.S @ np.asarray(x, dtype=float) + self.t)

    def box(self, lo, hi) -> dict:
        a, b = self.S @ lo + self.t, self.S @ hi + self.t
        return {"kind": "box", "lower": _vec(np.minimum(a, b)),
                "upper": _vec(np.maximum(a, b))}

    def affine(self, name: str, mode: str, M, b) -> dict:
        """The map S M S^T (y - t) + S b + t, which is x -> M x + b seen
        through the placement."""
        M2 = self.S @ M @ self.S.T
        return {"name": name, "mode": mode, "kind": "affine",
                "matrix": [_vec(row) for row in M2],
                "offset": _vec(self.S @ b + self.t - M2 @ self.t)}


def _standard_runs(cyclic: str, noncyclic: str, x0: list) -> list:
    return [
        {"name": "picard", "solver": "picard", "map": cyclic, "x0": x0},
        {"name": "project", "solver": "project", "map": noncyclic, "x0": x0},
        {"name": "reduce-cyclic", "solver": "reduce-cyclic", "map": cyclic, "x0": x0},
        {"name": "reduce-noncyclic", "solver": "reduce-noncyclic", "map": noncyclic,
         "x0": x0},
    ]


def _shrink_maps(place: Placement, anchor, betas, gap: float) -> list:
    """Noncyclic x -> anchor + diag(betas)(x - anchor), and a cyclic map that
    first reflects axis 0 (the gap axis, where betas is 1) about the middle
    of the gap, swapping the bodies."""
    dim = len(anchor)
    M = np.diag(betas)
    off = anchor - M @ anchor
    R = np.eye(dim)
    R[0, 0] = -1.0
    r_off = np.zeros(dim)
    r_off[0] = 2.0 * anchor[0] + gap
    return [place.affine("shrink-swap", "cyclic", M @ R, M @ r_off + off),
            place.affine("shrink", "noncyclic", M, off)]


def _boxes(shape, place: Placement, dim: int):
    """Congruent boxes, flat along axis 0, B = A + gap * e_0."""
    half = np.concatenate([[0.0], shape.uniform(0.2, 2.0, dim - 1)])
    gap = float(shape.uniform(0.5, 3.0))
    betas = np.concatenate([[1.0], shape.uniform(0.2, 0.8, dim - 1)])
    x0 = shape.uniform(-half, half)
    shift = gap * np.eye(dim)[0]
    bodies = {"A": place.box(-half, half), "B": place.box(shift - half, shift + half)}
    maps = _shrink_maps(place, np.zeros(dim), betas, gap)
    return bodies, maps, _standard_runs("shrink-swap", "shrink", place.point(x0)), gap


def _balls(shape, place: Placement, dim: int, p: float):
    """Two lp balls along a direction; constant maps onto the realizing pair."""
    direction = shape.normal(size=dim)
    direction /= np.sum(np.abs(direction) ** p) ** (1.0 / p)
    r1, r2 = shape.uniform(0.5, 2.0, 2)
    gap = float(shape.uniform(0.5, 3.0))
    c2 = (r1 + r2 + gap) * direction
    a_star, b_star = place.point(r1 * direction), place.point(c2 - r2 * direction)
    bodies = {"A": {"kind": "ball", "center": place.point(np.zeros(dim)),
                    "radius": float(r1)},
              "B": {"kind": "ball", "center": place.point(c2), "radius": float(r2)}}
    maps = [{"name": "const-cyclic", "mode": "cyclic", "kind": "constant-pair",
             "a": a_star, "b": b_star},
            {"name": "const-noncyclic", "mode": "noncyclic", "kind": "constant-pair",
             "a": a_star, "b": b_star}]
    return bodies, maps, _standard_runs("const-cyclic", "const-noncyclic", a_star), gap


def _segments(shape, place: Placement, dim: int):
    """Parallel segments along axis 1, B = A + gap * e_0."""
    length = float(shape.uniform(0.5, 4.0))
    gap = float(shape.uniform(0.5, 3.0))
    betas = np.ones(dim)
    betas[1] = float(shape.uniform(0.2, 0.8))
    v1 = length * np.eye(dim)[1]
    shift = gap * np.eye(dim)[0]
    bodies = {"A": {"kind": "polytope",
                    "vertices": [place.point(np.zeros(dim)), place.point(v1)]},
              "B": {"kind": "polytope",
                    "vertices": [place.point(shift), place.point(v1 + shift)]}}
    maps = _shrink_maps(place, v1 / 2.0, betas, gap)
    x0 = place.point(float(shape.uniform(0.0, 1.0)) * v1)
    return bodies, maps, _standard_runs("shrink-swap", "shrink", x0), gap


def _polygons(shape, place: Placement, tilt: float):
    """Two convex quadrilaterals whose facing edges meet at angle `tilt`.

    In the local frame A's top edge runs from (0, 0) to (L, 0) with A below
    it, and B's bottom edge rises from (0, g) at slope tan(tilt) with B above
    it, so (0, 0) and (0, g) are the unique nearest pair.  Side heights stay
    comparable to L, so neither polygon is a sliver.  The pair is turned by
    an angle fixed per slot before it is placed.
    """
    gap = float(shape.uniform(0.5, 2.0))
    length = 2.0 * gap
    h = shape.uniform(0.6, 1.2, 4) * length
    inset = shape.uniform(0.0, 0.3, 4) * length
    A = np.array([[0.0, 0.0], [length, 0.0],
                  [length - inset[0], -h[0]], [inset[1], -h[1]]])
    along = np.array([math.cos(tilt), math.sin(tilt)])
    normal = np.array([-along[1], along[0]])
    foot = np.array([0.0, gap])
    B = np.array([foot, foot + length * along,
                  foot + (length - inset[2]) * along + h[2] * normal,
                  foot + inset[3] * along + h[3] * normal])
    theta = float(shape.uniform(0.0, 2.0 * math.pi))
    turn = np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])
    bodies = {"A": {"kind": "polytope", "vertices": [place.point(turn @ v) for v in A]},
              "B": {"kind": "polytope", "vertices": [place.point(turn @ v) for v in B]}}
    return bodies, [], [], gap


def make_documents(workload: str, seed: int) -> list:
    """The round of instance documents (JSON-ready dicts) for one seed.

    The builtin `segpair` is named by its builtin name instead of a document:
    the entry is the string "segpair".
    """
    _, slots = WORKLOADS[workload]
    wid = sorted(WORKLOADS).index(workload)
    placer = np.random.default_rng([seed, wid])
    docs = []
    for i, (family, dim, p) in enumerate(slots):
        if family == "segpair":
            docs.append("segpair")
            continue
        shape = np.random.default_rng([wid, i])
        place = Placement(placer, dim)
        if family == "separated-boxes":
            bodies, maps, runs, gap = _boxes(shape, place, dim)
        elif family == "separated-balls":
            bodies, maps, runs, gap = _balls(shape, place, dim, p)
        elif family == "parallel-polytopes":
            bodies, maps, runs, gap = _segments(shape, place, dim)
        else:
            bodies, maps, runs, gap = _polygons(shape, place, POLYGON_TILT)
        docs.append({
            "name": f"{family}-d{dim}-{i:02d}",
            "space": {"dim": dim, "p": p},
            "bodies": bodies, "maps": maps, "runs": runs, "tol": TOL,
            "metadata": {"family": family, "seed": seed, "expected_dist": gap},
        })
    return docs


def document_path(directory: Path, doc: dict) -> Path:
    return directory / f"{doc['name']}.json"


def write_documents(docs: list, directory: Path) -> None:
    """Write each document (not the builtin names) as <name>.json."""
    directory.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        if isinstance(doc, dict):
            document_path(directory, doc).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
