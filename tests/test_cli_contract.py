"""Contract of the command line: whatever its numeric arguments, a call ends
in exit 0, 1 or 2, writes at most one line to stderr and no warning, and
returns in bounded time.

Arguments are drawn with hypothesis, zero, negative and non-finite values
included.  The ranges are bounded so that each call stays small: `gen`
writes dense dim x dim map matrices, so --dim stays at 12 or less (6 for
`bench`, which also solves).  A finite --p for `gen` goes up to 1000, where
|x|^p overflows for |x| above 2.  `solve` and `verify` also run on random
instance documents, valid and not, under the same contract.
"""

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxipair.cli import main
from proxipair.instances import GENERATOR_FAMILIES

CALL_SECONDS = 10.0
EDGE_FLOATS = [0.0, -0.0, -1.0, 1.0, math.inf, -math.inf, math.nan]

CONTRACT = settings(max_examples=20, deadline=None, database=None, derandomize=True)


def floats(lo: float, hi: float):
    """Finite floats in [lo, hi], plus zero, negative and non-finite values."""
    return st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(lo, hi))


seeds = st.integers(-2, 3)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("contract"))


def call(argv: list) -> int:
    """Run the CLI once and check the contract; returns the exit code."""
    err = io.StringIO()
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    elapsed = time.perf_counter() - started
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    assert len(lines) <= 1, (argv, lines)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert elapsed < CALL_SECONDS, (argv, elapsed)
    return code


@CONTRACT
@given(instance=st.sampled_from(["segpair", "ballpair"]), tol=floats(1e-12, 1e3),
       max_iter=st.integers(-3, 200), seed=seeds)
def test_solve_contract(out_dir, instance, tol, max_iter, seed):
    code = call(["solve", instance, f"--tol={tol!r}", f"--max-iter={max_iter}",
                 f"--seed={seed}", "--out", out_dir])
    if not math.isfinite(tol) or not tol > 0 or max_iter < 0 or seed < 0:
        assert code == 1


@CONTRACT
@given(instance=st.sampled_from(["segpair", "ballpair"]),
       samples=st.integers(-3, 30), seed=seeds)
def test_verify_contract(out_dir, instance, samples, seed):
    code = call(["verify", instance, f"--samples={samples}", f"--seed={seed}",
                 "--out", out_dir])
    if samples < 1 or seed < 0:
        assert code == 1


@CONTRACT
@given(family=st.sampled_from(GENERATOR_FAMILIES), dim=st.integers(-3, 12),
       p=floats(1.0, 1000.0), gap=floats(1e-6, 1e6), seed=seeds)
def test_gen_contract(family, dim, p, gap, seed):
    code = call(["gen", "--family", family, f"--dim={dim}", f"--p={p!r}",
                 f"--gap={gap!r}", f"--seed={seed}", "--stdout"])
    if dim < 1 or not 1.0 < p < math.inf or not 0.0 < gap < math.inf or seed < 0:
        assert code == 1


@CONTRACT
@given(count=st.integers(-2, 2), dim=st.integers(-1, 6), p=floats(1.0, 8.0),
       seed=seeds)
def test_bench_contract(out_dir, count, dim, p, seed):
    code = call(["bench", f"--count={count}", f"--dim={dim}", f"--p={p!r}",
                 f"--seed={seed}", "--out", out_dir])
    if count < 1 or dim < 1 or not 1.0 < p < math.inf or seed < 0:
        assert code == 1


@st.composite
def documents(draw):
    """A random instance document at dim 1-3 and p in {1.5, 2, 3}.

    A is a ball, a box, or a polytope (a point, an axis-aligned segment or
    a triangle in the plane at p = 2); B is A moved along one axis, apart,
    touching or overlapping.  The maps are of one kind.  Affine maps shrink
    towards A's center off that axis, and the cyclic one first mirrors the
    axis between the bodies.  Constant-pair maps send the bodies to the
    points a of A and b of B that face each other along the axis.
    Sidewise-affine maps shrink towards A's center off the axis and move
    the axis coordinate to a's or b's, so their two pieces differ.  Where
    A is flat along the axis, or the maps are two-piece and the bodies
    apart, they are contractions that every solver runs on; the other
    draws (overlaps, starts outside A or off its proximal set, ...) must
    end in one error line or a failed check.
    """
    kind = draw(st.sampled_from(["segment", "box", "point", "ball", "triangle"]))
    if kind == "triangle":
        dim, p = 2, 2.0
    else:
        dim, p = draw(st.sampled_from([2, 3, 1])), draw(st.sampled_from([1.5, 2.0, 3.0]))
    g = draw(st.integers(0, dim - 1))  # the axis from A to B
    e = np.eye(dim)
    s = e[(g + 1) % dim]
    c = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)), float)
    size = draw(st.sampled_from([0.5, 1.0, 2.0]))
    if kind == "ball":
        body, extent = {"kind": "ball", "center": c, "radius": size}, size
    elif kind == "box":
        half = size * np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                             min_size=dim, max_size=dim)))
        half[g] = draw(st.sampled_from([0.0, 0.0, 0.5]))
        body, extent = {"kind": "box", "lower": c - half, "upper": c + half}, half[g]
    else:
        vertices = {"point": [c], "segment": [c - size * s, c + size * s],
                    "triangle": [c - size * e[g], c + size * e[g], c + size * s]}[kind]
        extent = float(np.max([v[g] - c[g] for v in vertices]))
        body = {"kind": "polytope", "vertices": vertices}
    shift = (2.0 * extent + draw(st.sampled_from([-0.25, 0.0, 0.5, 2.0]))) * e[g]
    other = {key: ([v + shift for v in val] if key == "vertices" else val + shift)
             if key in ("center", "lower", "upper", "vertices") else val
             for key, val in body.items()}
    M = np.diag([1.0 if i == g else draw(st.sampled_from([0.25, 0.5, 0.9]))
                 for i in range(dim)])
    mirror = np.eye(dim) - 2.0 * np.outer(e[g], e[g])
    # the points of A and B that face each other across the gap axis
    a, b = c + extent * e[g], c + shift - extent * e[g]
    map_kind = draw(st.sampled_from(["affine", "constant-pair", "sidewise-affine"]))
    if map_kind == "affine":
        maps = [
            {"name": "shrink", "mode": "noncyclic", "kind": "affine",
             "matrix": M, "offset": c - M @ c},
            {"name": "swap", "mode": "cyclic", "kind": "affine", "matrix": M @ mirror,
             "offset": M @ ((2.0 * c[g] + shift[g]) * e[g]) + c - M @ c},
        ]
    elif map_kind == "constant-pair":
        maps = [{"name": name, "mode": mode, "kind": map_kind, "a": a, "b": b}
                for name, mode in (("shrink", "noncyclic"), ("swap", "cyclic"))]
    else:
        # shrink towards A's center off the gap axis, and set the gap
        # coordinate to that of a (own side) or b (other side)
        flat, off = M - np.outer(e[g], e[g]), c - M @ c
        on_a, on_b = off + a[g] * e[g], off + b[g] * e[g]
        maps = [{"name": name, "mode": mode, "kind": map_kind,
                 "matrix_a": flat, "offset_a": offset_a,
                 "matrix_b": flat, "offset_b": offset_b}
                for name, mode, offset_a, offset_b in (
                    ("shrink", "noncyclic", on_a, on_b), ("swap", "cyclic", on_b, on_a))]
    x0 = c + draw(st.sampled_from([extent, extent, 0.0, extent + 1.0])) * e[g]
    runs = [{"name": solver, "solver": solver, "map": m, "x0": x0}
            for solver, m in (("picard", "swap"), ("project", "shrink"),
                              ("reduce-cyclic", "swap"), ("reduce-noncyclic", "shrink"))]
    doc = {"name": "fuzz", "space": {"dim": dim, "p": p},
           "bodies": {"A": body, "B": other}, "maps": maps, "runs": runs}
    return json.loads(json.dumps(doc, default=lambda a: np.asarray(a).tolist()))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(doc=documents())
def test_random_documents_keep_the_contract(out_dir, doc):
    path = f"{out_dir}/fuzz.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    for command in ("solve", "verify"):
        call([command, path, "--out", out_dir])
