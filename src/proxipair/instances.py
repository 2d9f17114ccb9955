"""Instance documents: a JSON-serializable description of a proximity problem.

A document names an lp space, two convex bodies, a list of maps with their
declared modes, and a list of solver runs.  Parsing validates shape and
reports the offending field; building certifies every declared mode
against the actual bodies and keeps the certificate on the map, so a
mislabeled document is rejected at load time rather than producing quiet
nonsense, and no solver checks the mode again.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InstanceFormatError
from .geometry import Ball, Box, ConvexBody, LpSpace, Polytope, ProximityInstance
from .mappings import MODES, MapSpec
from .solvers import (
    DEFAULT_MAX_ITER,
    SolveResult,
    noncyclic_projection_iteration,
    noncyclic_projection_iteration_many,
    picard_cyclic,
    picard_cyclic_many,
    solve_cyclic_via_reduction,
    solve_noncyclic_via_reduction,
)

_BODY_FIELDS = {"ball": ("center", "radius"), "box": ("lower", "upper"),
                "polytope": ("vertices",)}
BODY_KINDS = tuple(_BODY_FIELDS)
MAP_KINDS = ("affine", "constant-pair", "sidewise-affine")
SOLVERS = {
    "picard": picard_cyclic,
    "project": noncyclic_projection_iteration,
    "reduce-cyclic": solve_cyclic_via_reduction,
    "reduce-noncyclic": solve_noncyclic_via_reduction,
}
GENERATOR_FAMILIES = ("separated-boxes", "separated-balls", "parallel-polytopes")


@dataclass
class InstanceDoc:
    """Plain-data view of an instance; values are JSON-ready python types."""

    name: str
    space: dict
    bodies: dict
    maps: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    tol: float = 1e-9
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def serialize_instance(doc: InstanceDoc) -> str:
    """Canonical JSON text; identical documents serialize to identical bytes."""
    return json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------- parsing


def _fail(path: str, message: str):
    raise InstanceFormatError(f"{path}: {message}")


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        _fail(path, f"expected a finite number, got {value!r}")
    if positive and out <= 0:
        _fail(path, f"expected a positive number, got {value!r}")
    return out


def _vector(value, dim: int, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        _fail(path, f"expected a list of {dim} numbers, got {value!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _matrix(value, dim: int, path: str) -> list[list[float]]:
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        _fail(path, f"expected a {dim}x{dim} matrix, got {value!r}")
    return [_vector(row, dim, f"{path}[{i}]") for i, row in enumerate(value)]


def _parse_body(obj, dim: int, path: str) -> dict:
    kind = _require(obj, "kind", path)
    if kind not in BODY_KINDS:
        _fail(f"{path}.kind", f"unknown body kind {kind!r}; expected one of {BODY_KINDS}")
    for key in obj:
        if key != "kind" and key not in _BODY_FIELDS[kind]:
            _fail(f"{path}.{key}", f"unknown field for a {kind}, which has only "
                  f"{' and '.join(_BODY_FIELDS[kind])}")
    out = {"kind": kind}
    if kind == "ball":
        out["center"] = _vector(_require(obj, "center", path), dim, f"{path}.center")
        out["radius"] = _number(_require(obj, "radius", path), f"{path}.radius",
                                positive=True)
    elif kind == "box":
        out["lower"] = _vector(_require(obj, "lower", path), dim, f"{path}.lower")
        out["upper"] = _vector(_require(obj, "upper", path), dim, f"{path}.upper")
        for i, (lo, hi) in enumerate(zip(out["lower"], out["upper"])):
            if lo > hi:
                _fail(f"{path}.lower[{i}]", f"lower bound {lo} exceeds upper bound {hi}")
    else:
        verts = _require(obj, "vertices", path)
        if not isinstance(verts, (list, tuple)) or len(verts) < 1:
            _fail(f"{path}.vertices", "expected a nonempty list of vertices")
        out["vertices"] = [_vector(v, dim, f"{path}.vertices[{i}]")
                           for i, v in enumerate(verts)]
    return out


def _parse_map(obj, dim: int, path: str) -> dict:
    name = _require(obj, "name", path)
    if not isinstance(name, str) or not name:
        _fail(f"{path}.name", "expected a nonempty string")
    mode = _require(obj, "mode", path)
    if mode not in MODES:
        _fail(f"{path}.mode", f"unknown mode {mode!r}; expected one of {MODES}")
    kind = _require(obj, "kind", path)
    if kind not in MAP_KINDS:
        _fail(f"{path}.kind", f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    out = {"name": name, "mode": mode, "kind": kind}
    if kind == "affine":
        out["matrix"] = _matrix(_require(obj, "matrix", path), dim, f"{path}.matrix")
        out["offset"] = _vector(_require(obj, "offset", path), dim, f"{path}.offset")
    elif kind == "constant-pair":
        out["a"] = _vector(_require(obj, "a", path), dim, f"{path}.a")
        out["b"] = _vector(_require(obj, "b", path), dim, f"{path}.b")
    else:
        for key in ("matrix_a", "matrix_b"):
            out[key] = _matrix(_require(obj, key, path), dim, f"{path}.{key}")
        for key in ("offset_a", "offset_b"):
            out[key] = _vector(_require(obj, key, path), dim, f"{path}.{key}")
    return out


def _parse_run(obj, dim: int, map_names: set[str], path: str) -> dict:
    name = _require(obj, "name", path)
    if not isinstance(name, str) or not name:
        _fail(f"{path}.name", "expected a nonempty string")
    solver = _require(obj, "solver", path)
    if solver not in SOLVERS:
        _fail(f"{path}.solver",
              f"unknown solver {solver!r}; expected one of {sorted(SOLVERS)}")
    map_name = _require(obj, "map", path)
    if map_name not in map_names:
        _fail(f"{path}.map", f"references unknown map {map_name!r}")
    x0 = _vector(_require(obj, "x0", path), dim, f"{path}.x0")
    return {"name": name, "solver": solver, "map": map_name, "x0": x0}


def parse_instance(obj: dict) -> InstanceDoc:
    """Validate a raw dict; InstanceFormatError names the offending field."""
    name = _require(obj, "name", "instance")
    if not isinstance(name, str) or not name:
        _fail("name", "expected a nonempty string")
    space = _require(obj, "space", "instance")
    dim_raw = _require(space, "dim", "space")
    if isinstance(dim_raw, bool) or not isinstance(dim_raw, int) or dim_raw < 1:
        _fail("space.dim", f"expected a positive integer, got {dim_raw!r}")
    dim = int(dim_raw)
    p = _number(_require(space, "p", "space"), "space.p")
    if not 1.0 < p < math.inf:
        _fail("space.p", f"expected an exponent in (1, inf), got {p}")

    bodies_raw = _require(obj, "bodies", "instance")
    for side in ("A", "B"):
        if side not in bodies_raw:
            _fail("bodies", f"missing body {side!r}")
    bodies = {side: _parse_body(bodies_raw[side], dim, f"bodies.{side}")
              for side in ("A", "B")}

    maps, seen = [], set()
    for i, m in enumerate(obj.get("maps") or []):
        parsed = _parse_map(m, dim, f"maps[{i}]")
        if parsed["name"] in seen:
            _fail(f"maps[{i}].name", f"duplicate map name {parsed['name']!r}")
        seen.add(parsed["name"])
        maps.append(parsed)

    runs, run_names = [], set()
    for i, r in enumerate(obj.get("runs") or []):
        parsed = _parse_run(r, dim, seen, f"runs[{i}]")
        if parsed["name"] in run_names:
            _fail(f"runs[{i}].name", f"duplicate run name {parsed['name']!r}")
        run_names.add(parsed["name"])
        runs.append(parsed)

    tol = _number(obj.get("tol", 1e-9), "tol", positive=True)
    metadata = obj.get("metadata") or {}
    if not isinstance(metadata, dict):
        _fail("metadata", "expected an object")
    return InstanceDoc(name=name, space={"dim": dim, "p": p}, bodies=bodies,
                       maps=maps, runs=runs, tol=tol, metadata=metadata)


def load_instance(path) -> InstanceDoc:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
    return parse_instance(raw)


# ----------------------------------------------------------------- building


def _build_body(spec: dict, space: LpSpace, path: str) -> ConvexBody:
    try:
        if spec["kind"] == "ball":
            return Ball(space, spec["center"], spec["radius"])
        if spec["kind"] == "box":
            return Box(space, spec["lower"], spec["upper"])
        return Polytope(space, spec["vertices"])
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def _build_map(spec: dict, instance: ProximityInstance) -> MapSpec:
    """Lower a map spec to a MapSpec.

    A constant-pair map is a sidewise-affine map with zero matrices: the
    cyclic one sends A to b and B to a, the noncyclic one A to a and B to b.
    """
    if spec["kind"] == "affine":
        return MapSpec.affine(instance, spec["mode"], spec["matrix"], spec["offset"],
                              name=spec["name"])
    if spec["kind"] == "constant-pair":
        zero = np.zeros((instance.space.dim, instance.space.dim))
        on_a, on_b = spec["a"], spec["b"]
        if spec["mode"] == "cyclic":
            on_a, on_b = on_b, on_a
        return MapSpec.sidewise(instance, spec["mode"], zero, on_a, zero, on_b,
                                name=spec["name"])
    return MapSpec.sidewise(instance, spec["mode"], spec["matrix_a"], spec["offset_a"],
                            spec["matrix_b"], spec["offset_b"], name=spec["name"])


@dataclass
class BuiltInstance:
    """An InstanceDoc realized as live geometry, maps, and runnable runs."""

    doc: InstanceDoc
    instance: ProximityInstance
    maps: dict
    runs: dict

    def run(self, name: str, tol: float | None = None,
            max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
        """Run a declared solver run from its declared start."""
        if name not in self.runs:
            raise InstanceFormatError(
                f"unknown run {name!r}; instance {self.doc.name!r} defines "
                f"{sorted(self.runs)}")
        spec = self.runs[name]
        solver = SOLVERS[spec["solver"]]
        mapping = self.maps[spec["map"]]
        effective = self.doc.tol if tol is None else tol
        return solver(mapping, spec["x0"], tol=effective, max_iter=max_iter)

    def run_many(self, name: str, starts) -> list:
        """A declared "picard" or "project" run from each of `starts` in one
        stacked run, at the document's tol: each start's SolveResult or error."""
        spec = self.runs[name]
        solve = (picard_cyclic_many if spec["solver"] == "picard"
                 else noncyclic_projection_iteration_many)
        return solve(self.maps[spec["map"]], starts, tol=self.doc.tol)


def build(doc: InstanceDoc, seed: int = 0) -> BuiltInstance:
    """Realize a document.

    Every certifier and check of the instance draws from `seed`.  Each map's
    declared mode is certified and the check kept on the map
    (`MapSpec.mode_check`); the contraction estimate is made when a solver
    first needs it.
    """
    space = LpSpace(doc.space["dim"], doc.space["p"])
    A = _build_body(doc.bodies["A"], space, "bodies.A")
    B = _build_body(doc.bodies["B"], space, "bodies.B")
    instance = ProximityInstance(A, B, tol=doc.tol, seed=seed)
    maps = {}
    for spec in doc.maps:
        m = _build_map(spec, instance)
        if not m.mode_check.passed:
            raise InstanceFormatError(
                f"map {spec['name']!r} is declared {spec['mode']} but failed "
                f"certification (worst deviation {m.mode_check.worst_deviation:.3e})")
        maps[spec["name"]] = m
    runs = {spec["name"]: spec for spec in doc.runs}
    return BuiltInstance(doc=doc, instance=instance, maps=maps, runs=runs)


# ----------------------------------------------------------------- builtins


def _segpair_doc() -> InstanceDoc:
    seg = {"A": {"kind": "polytope", "vertices": [[1.0, 0.0], [2.0, 0.0]]},
           "B": {"kind": "polytope", "vertices": [[1.0, 1.0], [2.0, 1.0]]}}
    maps = [
        {"name": "T", "mode": "cyclic", "kind": "affine",
         "matrix": [[0.5, 0.0], [0.0, -1.0]], "offset": [0.5, 1.0]},
        {"name": "S", "mode": "noncyclic", "kind": "affine",
         "matrix": [[0.5, 0.0], [0.0, 1.0]], "offset": [0.5, 0.0]},
        {"name": "swap", "mode": "cyclic", "kind": "affine",
         "matrix": [[1.0, 0.0], [0.0, -1.0]], "offset": [0.0, 1.0]},
        {"name": "identity", "mode": "noncyclic", "kind": "affine",
         "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]},
    ]
    runs = [
        {"name": "picard-T", "solver": "picard", "map": "T", "x0": [2.0, 0.0]},
        {"name": "project-S", "solver": "project", "map": "S", "x0": [2.0, 0.0]},
        {"name": "reduce-T", "solver": "reduce-cyclic", "map": "T", "x0": [2.0, 0.0]},
        {"name": "reduce-S", "solver": "reduce-noncyclic", "map": "S", "x0": [2.0, 0.0]},
    ]
    return InstanceDoc(name="segpair", space={"dim": 2, "p": 2.0}, bodies=seg,
                       maps=maps, runs=runs, tol=1e-9,
                       metadata={"family": "builtin", "expected_dist": 1.0})


def _ballpair_doc() -> InstanceDoc:
    bodies = {"A": {"kind": "ball", "center": [-2.0, 0.0], "radius": 1.0},
              "B": {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0}}
    maps = [
        {"name": "const-cyclic", "mode": "cyclic", "kind": "constant-pair",
         "a": [-1.0, 0.0], "b": [1.0, 0.0]},
        {"name": "const-noncyclic", "mode": "noncyclic", "kind": "constant-pair",
         "a": [-1.0, 0.0], "b": [1.0, 0.0]},
    ]
    runs = [
        {"name": "picard-const", "solver": "picard", "map": "const-cyclic",
         "x0": [-2.0, 0.0]},
        {"name": "project-const", "solver": "project", "map": "const-noncyclic",
         "x0": [-1.0, 0.0]},
        {"name": "reduce-const-cyclic", "solver": "reduce-cyclic",
         "map": "const-cyclic", "x0": [-1.0, 0.0]},
        {"name": "reduce-const-noncyclic", "solver": "reduce-noncyclic",
         "map": "const-noncyclic", "x0": [-1.0, 0.0]},
    ]
    return InstanceDoc(name="ballpair", space={"dim": 2, "p": 2.0}, bodies=bodies,
                       maps=maps, runs=runs, tol=1e-9,
                       metadata={"family": "builtin", "expected_dist": 2.0})


BUILTIN_INSTANCES = {"segpair": _segpair_doc, "ballpair": _ballpair_doc}


def builtin_instance(name: str) -> InstanceDoc:
    if name not in BUILTIN_INSTANCES:
        raise InstanceFormatError(
            f"unknown builtin instance {name!r}; available: {sorted(BUILTIN_INSTANCES)}")
    return BUILTIN_INSTANCES[name]()


# ---------------------------------------------------------------- generator


def _standard_runs(cyclic_name: str, noncyclic_name: str, x0: list[float]) -> list:
    return [
        {"name": "picard", "solver": "picard", "map": cyclic_name, "x0": x0},
        {"name": "project", "solver": "project", "map": noncyclic_name, "x0": x0},
        {"name": "reduce-cyclic", "solver": "reduce-cyclic", "map": cyclic_name,
         "x0": x0},
        {"name": "reduce-noncyclic", "solver": "reduce-noncyclic",
         "map": noncyclic_name, "x0": x0},
    ]


def _listify(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


def _contraction_pair_about(anchor: np.ndarray, betas: np.ndarray, axis: int,
                            reflect_about: float) -> tuple[dict, dict]:
    """Affine map specs contracting toward `anchor`, gap axis held rigid.

    The noncyclic map is x -> anchor + M (x - anchor) with M = diag(betas),
    betas[axis] = 1.  The cyclic one reflects the gap axis about
    reflect_about first, swapping the bodies, then applies the same
    contraction.
    """
    dim = len(anchor)
    M = np.diag(betas)
    off_n = anchor - M @ anchor
    R = np.eye(dim)
    R[axis, axis] = -1.0
    r_off = np.zeros(dim)
    r_off[axis] = 2.0 * reflect_about
    MC = M @ R
    off_c = M @ r_off + off_n
    noncyc = {"name": "shrink", "mode": "noncyclic", "kind": "affine",
              "matrix": [_listify(row) for row in M], "offset": _listify(off_n)}
    cyc = {"name": "shrink-swap", "mode": "cyclic", "kind": "affine",
           "matrix": [_listify(row) for row in MC], "offset": _listify(off_c)}
    return cyc, noncyc


def _gen_separated_boxes(rng, dim: int, gap: float) -> tuple[dict, list, list, list]:
    axis = int(rng.integers(dim))
    center = rng.uniform(-5.0, 5.0, dim)
    half = rng.uniform(0.2, 2.0, dim)
    half[axis] = 0.0
    lo, hi = center - half, center + half
    bodies = {"A": {"kind": "box", "lower": _listify(lo), "upper": _listify(hi)},
              "B": {"kind": "box", "lower": _listify(lo + gap * np.eye(dim)[axis]),
                    "upper": _listify(hi + gap * np.eye(dim)[axis])}}
    betas = rng.uniform(0.2, 0.8, dim)
    betas[axis] = 1.0
    cyc, noncyc = _contraction_pair_about(center, betas, axis,
                                          center[axis] + gap / 2.0)
    x0 = _listify(rng.uniform(lo, hi))
    return bodies, [cyc, noncyc], _standard_runs("shrink-swap", "shrink", x0), x0


def _gen_separated_balls(rng, space: LpSpace, gap: float) -> tuple[dict, list, list, list]:
    dim = space.dim
    direction = rng.normal(size=dim)
    direction /= space.norm(direction)
    c1 = rng.uniform(-5.0, 5.0, dim)
    r1, r2 = rng.uniform(0.5, 2.0, 2)
    c2 = c1 + (r1 + r2 + gap) * direction
    a_star = c1 + r1 * direction
    b_star = c2 - r2 * direction
    bodies = {"A": {"kind": "ball", "center": _listify(c1), "radius": float(r1)},
              "B": {"kind": "ball", "center": _listify(c2), "radius": float(r2)}}
    maps = [
        {"name": "const-cyclic", "mode": "cyclic", "kind": "constant-pair",
         "a": _listify(a_star), "b": _listify(b_star)},
        {"name": "const-noncyclic", "mode": "noncyclic", "kind": "constant-pair",
         "a": _listify(a_star), "b": _listify(b_star)},
    ]
    x0 = _listify(a_star)
    return bodies, maps, _standard_runs("const-cyclic", "const-noncyclic", x0), x0


def _gen_parallel_polytopes(rng, dim: int, gap: float) -> tuple[dict, list, list, list]:
    if dim > 8:
        raise InstanceFormatError("parallel-polytopes supports dim <= 8")
    if dim < 2:
        raise InstanceFormatError("parallel-polytopes needs dim >= 2")
    axis = int(rng.integers(dim))
    extent_axis = int(rng.integers(dim - 1))
    if extent_axis >= axis:
        extent_axis += 1
    v0 = rng.uniform(-5.0, 5.0, dim)
    length = float(rng.uniform(0.5, 4.0))
    v1 = v0 + length * np.eye(dim)[extent_axis]
    shift = gap * np.eye(dim)[axis]
    bodies = {"A": {"kind": "polytope", "vertices": [_listify(v0), _listify(v1)]},
              "B": {"kind": "polytope",
                    "vertices": [_listify(v0 + shift), _listify(v1 + shift)]}}
    betas = np.ones(dim)
    betas[extent_axis] = float(rng.uniform(0.2, 0.8))
    midpoint = (v0 + v1) / 2.0
    cyc, noncyc = _contraction_pair_about(midpoint, betas, axis,
                                          v0[axis] + gap / 2.0)
    t = float(rng.uniform(0.0, 1.0))
    x0 = _listify(v0 + t * (v1 - v0))
    return bodies, [cyc, noncyc], _standard_runs("shrink-swap", "shrink", x0), x0


def generate_random_instance(seed: int, dim: int = 2, p: float = 2.0,
                             family: str = "separated-boxes",
                             gap: float | None = None) -> InstanceDoc:
    """Deterministic instance with a known body distance.

    Bodies are congruent translates along one axis (or balls separated along
    a line), so the gap recorded in metadata["expected_dist"] is the true
    distance at every exponent p.
    """
    if family not in GENERATOR_FAMILIES:
        raise InstanceFormatError(
            f"unknown family {family!r}; available: {sorted(GENERATOR_FAMILIES)}")
    space = LpSpace(dim, p)
    rng = np.random.default_rng(seed)
    g = float(rng.uniform(0.5, 3.0)) if gap is None else float(gap)
    if not (math.isfinite(g) and g > 0):
        raise InstanceFormatError(f"gap must be positive and finite, got {g}")
    if family == "separated-boxes":
        bodies, maps, runs, _ = _gen_separated_boxes(rng, dim, g)
    elif family == "separated-balls":
        bodies, maps, runs, _ = _gen_separated_balls(rng, space, g)
    else:
        bodies, maps, runs, _ = _gen_parallel_polytopes(rng, dim, g)
    doc = InstanceDoc(
        name=f"{family}-{seed:04d}",
        space={"dim": dim, "p": float(p)},
        bodies=bodies, maps=maps, runs=runs, tol=1e-9,
        metadata={"family": family, "seed": int(seed), "expected_dist": g})
    return parse_instance(doc.to_dict())
