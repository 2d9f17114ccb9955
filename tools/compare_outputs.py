"""Compare the outputs of two source trees of proxipair, call by call.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are each a source tree (a directory holding `src/`) or a
git revision of this repository, such as `HEAD` or `HEAD~1`; a revision's
`src/` is exported with `git archive` into the temporary directory.  For
example, `python3 tools/compare_outputs.py HEAD .` compares the last
commit with the working tree.  Runs `proxipair solve` and `proxipair
verify` on the builtins `segpair` and `ballpair` and on the instance
documents of seeds 1 and 2 of every workload in `perfbench/inputs.py`,
on the PLANTED documents, whose verify fails or whose build refuses a
map's declared mode, on the FACES documents, whose verify passes with
proximal sets that are a segment and a point, with maps on polygons, and
with affine maps that do not split along a gap axis, and on the EDGES
documents,
once against each tree's `src`, in a subprocess per tree.  The builtins are run a second time with `--seed 5`,
so that a change to how the seed reaches the certifiers' and checks'
samples shows up.  Then it reports whether the exit codes are equal, how
many output files are byte-identical, every key, flag, integer or string
that differs (in the JSON outputs, the CSV traces and the printed lines),
and the worst absolute difference between floats.

Exits 0 when the exit codes and every non-float value are equal and no
float differs by more than FLOAT_BOUND; 1 otherwise.  This script imports
`perfbench/inputs.py` only, never the program itself.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

SEEDS = (1, 2)
BUILTINS = ("segpair", "ballpair")
BUILTIN_SEED = "5"  # the builtins' second run, besides the default seed 0
FLOAT_BOUND = 1e-12
SHOWN = 20  # non-float differences listed in full

# Documents on which `verify` fails, so that failing checks are serialized
# too: segpair with a noncyclic map that reflects B but not A (a finite
# commutation failure), and two boxes with a map that sends the proximal
# faces off the domain of P (a commutation failure at an infinite
# deviation, with P's error in its details).  On the third, segpair with its
# cyclic T declared noncyclic, `solve` and `verify` both exit 1 when the
# instance is built, with the mode check's "failed certification (worst
# deviation ...)" line.
_SEGPAIR_BODIES = {"A": {"kind": "polytope", "vertices": [[1.0, 0.0], [2.0, 0.0]]},
                   "B": {"kind": "polytope", "vertices": [[1.0, 1.0], [2.0, 1.0]]}}
_SEGPAIR_MAPS = [
    {"name": "T", "mode": "cyclic", "kind": "affine",
     "matrix": [[0.5, 0.0], [0.0, -1.0]], "offset": [0.5, 1.0]},
    {"name": "S", "mode": "noncyclic", "kind": "affine",
     "matrix": [[0.5, 0.0], [0.0, 1.0]], "offset": [0.5, 0.0]},
    {"name": "swap", "mode": "cyclic", "kind": "affine",
     "matrix": [[1.0, 0.0], [0.0, -1.0]], "offset": [0.0, 1.0]},
    {"name": "identity", "mode": "noncyclic", "kind": "affine",
     "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]},
]
_SEGPAIR_RUNS = [
    {"name": "picard-T", "solver": "picard", "map": "T", "x0": [2.0, 0.0]},
    {"name": "project-S", "solver": "project", "map": "S", "x0": [2.0, 0.0]},
    {"name": "reduce-T", "solver": "reduce-cyclic", "map": "T", "x0": [2.0, 0.0]},
    {"name": "reduce-S", "solver": "reduce-noncyclic", "map": "S", "x0": [2.0, 0.0]},
]
PLANTED = [
    {"name": "segpair-skew", "space": {"dim": 2, "p": 2.0}, "tol": 1e-9,
     "bodies": _SEGPAIR_BODIES,
     "maps": _SEGPAIR_MAPS + [
         {"name": "skew", "mode": "noncyclic", "kind": "sidewise-affine",
          "matrix_a": [[1.0, 0.0], [0.0, 1.0]], "offset_a": [0.0, 0.0],
          "matrix_b": [[-1.0, 0.0], [0.0, 1.0]], "offset_b": [3.0, 0.0]}],
     "runs": _SEGPAIR_RUNS},
    {"name": "boxes-half", "space": {"dim": 2, "p": 2.0}, "tol": 1e-9,
     "bodies": {"A": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                "B": {"kind": "box", "lower": [3.0, 0.0], "upper": [4.0, 1.0]}},
     "maps": [{"name": "half", "mode": "noncyclic", "kind": "sidewise-affine",
               "matrix_a": [[0.5, 0.0], [0.0, 0.5]], "offset_a": [0.0, 0.0],
               "matrix_b": [[0.5, 0.0], [0.0, 0.5]], "offset_b": [2.0, 0.0]}]},
    {"name": "segpair-misdeclared", "space": {"dim": 2, "p": 2.0}, "tol": 1e-9,
     "bodies": _SEGPAIR_BODIES, "maps": [dict(_SEGPAIR_MAPS[0], mode="noncyclic")]},
]

# Documents on which `verify` passes, one for each answer of the rule that
# decides whether the proximal sets are points: a polygon pair with parallel
# facing edges, whose A0 is a segment, and two boxes apart along the
# diagonal, whose A0 is the corner (1, 1), with a noncyclic map that halves
# the distance to that corner and to B's (2, 2), run from the corner.  A
# third, two parallel diagonal segments, is the one document whose bodies
# are general (not axis-aligned) segments; its maps contract by 1/4 towards
# c = (0.75, 0.75), the middle of A0, and c + v, v = (0.5, -0.5).  The
# fourth is the polygon pair with a noncyclic map that halves the distance
# of the first coordinate to 0.5, so that maps and P's domain check meet
# polygons.  The fifth, two segments along axis 2 at p = 3 that lie apart
# along axes 0 and 1, has one-piece affine maps that halve the third
# coordinate about 0.5; the pair is not apart along a single axis, so the
# maps do not split and keep the grid estimate.
_POLYGON_BODIES = {
    "A": {"kind": "polytope",
          "vertices": [[-1.0, -1.0], [1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]]},
    "B": {"kind": "polytope",
          "vertices": [[0.0, 0.5], [1.5, 0.5], [1.2, 1.5], [0.2, 1.5]]}}
FACES = [
    {"name": "polygons-parallel", "space": {"dim": 2, "p": 2.0}, "tol": 1e-9,
     "bodies": _POLYGON_BODIES},
    {"name": "boxes-diagonal", "space": {"dim": 2, "p": 3.0}, "tol": 1e-9,
     "bodies": {"A": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                "B": {"kind": "box", "lower": [2.0, 2.0], "upper": [3.0, 3.0]}},
     "maps": [{"name": "halve", "mode": "noncyclic", "kind": "sidewise-affine",
               "matrix_a": [[0.5, 0.0], [0.0, 0.5]], "offset_a": [0.5, 0.5],
               "matrix_b": [[0.5, 0.0], [0.0, 0.5]], "offset_b": [1.0, 1.0]}],
     "runs": [{"name": "project-halve", "solver": "project", "map": "halve",
               "x0": [1.0, 1.0]},
              {"name": "reduce-halve", "solver": "reduce-noncyclic", "map": "halve",
               "x0": [1.0, 1.0]}]},
    {"name": "segments-diagonal", "space": {"dim": 2, "p": 2.0}, "tol": 1e-9,
     "bodies": {"A": {"kind": "polytope", "vertices": [[0.0, 0.0], [1.0, 1.0]]},
                "B": {"kind": "polytope", "vertices": [[1.0, 0.0], [2.0, 1.0]]}},
     "maps": [{"name": "T", "mode": "cyclic", "kind": "sidewise-affine",
               "matrix_a": [[0.25, 0.0], [0.0, 0.25]], "offset_a": [1.0625, 0.0625],
               "matrix_b": [[0.25, 0.0], [0.0, 0.25]], "offset_b": [0.4375, 0.6875]},
              {"name": "S", "mode": "noncyclic", "kind": "sidewise-affine",
               "matrix_a": [[0.25, 0.0], [0.0, 0.25]], "offset_a": [0.5625, 0.5625],
               "matrix_b": [[0.25, 0.0], [0.0, 0.25]], "offset_b": [0.9375, 0.1875]}],
     "runs": [{"name": "picard-T", "solver": "picard", "map": "T", "x0": [0.25, 0.25]},
              {"name": "project-S", "solver": "project", "map": "S", "x0": [0.75, 0.75]},
              {"name": "reduce-T", "solver": "reduce-cyclic", "map": "T",
               "x0": [0.75, 0.75]},
              {"name": "reduce-S", "solver": "reduce-noncyclic", "map": "S",
               "x0": [0.75, 0.75]}]},
    {"name": "polygons-parallel-maps", "space": {"dim": 2, "p": 2.0}, "tol": 1e-9,
     "bodies": _POLYGON_BODIES,
     "maps": [{"name": "S", "mode": "noncyclic", "kind": "affine",
               "matrix": [[0.5, 0.0], [0.0, 1.0]], "offset": [0.25, 0.0]}],
     "runs": [{"name": "project-S", "solver": "project", "map": "S", "x0": [0.0, 0.0]},
              {"name": "reduce-S", "solver": "reduce-noncyclic", "map": "S",
               "x0": [1.0, 0.0]}]},
    {"name": "segments-offset", "space": {"dim": 3, "p": 3.0}, "tol": 1e-9,
     "bodies": {"A": {"kind": "polytope", "vertices": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
                "B": {"kind": "polytope", "vertices": [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]}},
     "maps": [{"name": "T", "mode": "cyclic", "kind": "affine",
               "matrix": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.5]],
               "offset": [1.0, 1.0, 0.25]},
              {"name": "S", "mode": "noncyclic", "kind": "affine",
               "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]],
               "offset": [0.0, 0.0, 0.25]}],
     "runs": [{"name": "picard-T", "solver": "picard", "map": "T", "x0": [0.0, 0.0, 1.0]},
              {"name": "project-S", "solver": "project", "map": "S",
               "x0": [0.0, 0.0, 1.0]},
              {"name": "reduce-T", "solver": "reduce-cyclic", "map": "T",
               "x0": [0.0, 0.0, 1.0]},
              {"name": "reduce-S", "solver": "reduce-noncyclic", "map": "S",
               "x0": [0.0, 0.0, 1.0]}]},
]

# Documents at two edges of the input: a ball pair with a noncyclic map
# within 1e-12 of a constant pair whose B image misses b* by 1e-3, so that
# its certificate must refuse it at (a*, b*), where the sampled pairs alone
# would give alpha_hat 0.00686, and the segments of segments-diagonal with
# A declared by three vertices, one of them inside it.
EDGES = [
    {"name": "ballpair-near-constant", "space": {"dim": 2, "p": 2.0}, "tol": 1e-9,
     "bodies": {"A": {"kind": "ball", "center": [-2.0, 0.0], "radius": 1.0},
                "B": {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0}},
     "maps": [{"name": "near-constant", "mode": "noncyclic", "kind": "sidewise-affine",
               "matrix_a": [[1e-12, 0.0], [0.0, 1e-12]], "offset_a": [-1.0, 0.0],
               "matrix_b": [[1e-12, 0.0], [0.0, 1e-12]], "offset_b": [1.001, 0.0]}],
     "runs": [{"name": "project", "solver": "project", "map": "near-constant",
               "x0": [-1.0, 0.0]}]},
    {**FACES[2], "name": "segments-diagonal-midpoint",
     "bodies": {**FACES[2]["bodies"],
                "A": {"kind": "polytope", "vertices": [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]}}},
]

# Runs in the subprocess: each call of `cli.main`, its exit code and its
# printed lines, with its own output directory.
RUNNER = """
import contextlib, io, json, sys
from proxipair import cli
calls, out = json.loads(sys.argv[1]), sys.argv[2]
results = []
for i, call in enumerate(calls):
    directory = f"{out}/{i:03d}"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([*call, "--out", directory])
    results.append([code, sink.getvalue().replace(directory, "<out>")])
print(json.dumps(results))
"""

NUMBER = re.compile(r"(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|-?inf|nan)")


class Report:
    def __init__(self):
        self.other: list[str] = []
        self.worst = 0.0
        self.worst_at = ""

    def floats(self, where: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        diff = abs(a - b)
        if not math.isfinite(diff):
            diff = math.inf
        if diff > self.worst:
            self.worst, self.worst_at = diff, where

    def values(self, where: str, a, b) -> None:
        """JSON values: floats by difference, everything else exactly."""
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.other.append(f"{where}: keys differ: {sorted(a.keys() ^ b.keys())}")
            for key in sorted(a.keys() & b.keys()):
                self.values(f"{where}.{key}", a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.other.append(f"{where}: length {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.values(f"{where}[{i}]", x, y)
        elif type(a) is float and type(b) is float:
            self.floats(where, a, b)
        elif type(a) is not type(b) or a != b:
            self.other.append(f"{where}: {a!r} != {b!r}")

    def text(self, where: str, a: str, b: str) -> None:
        """Text line by line: numbers with a point or an exponent as floats,
        every other piece exactly."""
        lines_a, lines_b = a.splitlines(), b.splitlines()
        if len(lines_a) != len(lines_b):
            self.other.append(f"{where}: {len(lines_a)} lines != {len(lines_b)}")
        for n, (x, y) in enumerate(zip(lines_a, lines_b), 1):
            parts_x, parts_y = NUMBER.split(x), NUMBER.split(y)
            if len(parts_x) != len(parts_y):
                self.other.append(f"{where}:{n}: {x!r} != {y!r}")
                continue
            for i, (u, v) in enumerate(zip(parts_x, parts_y)):
                if i % 2 and _is_float(u) and _is_float(v):
                    self.floats(f"{where}:{n}", float(u), float(v))
                elif u != v:
                    self.other.append(f"{where}:{n}: {u!r} != {v!r} in {x!r}")


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eEin")


def _calls(docs_dir: Path) -> list:
    refs = list(BUILTINS)
    for seed in SEEDS:
        for workload in sorted(inputs.WORKLOADS):
            docs = [d for d in inputs.make_documents(workload, seed) if isinstance(d, dict)]
            directory = docs_dir / f"seed{seed}" / workload
            inputs.write_documents(docs, directory)
            refs += [str(inputs.document_path(directory, d)) for d in docs]
    for label, docs in (("planted", PLANTED), ("faces", FACES), ("edges", EDGES)):
        inputs.write_documents(docs, docs_dir / label)
        refs += [str(inputs.document_path(docs_dir / label, d)) for d in docs]
    args = [[ref] for ref in refs] + [[ref, "--seed", BUILTIN_SEED] for ref in BUILTINS]
    return [[command, *a] for a in args for command in ("solve", "verify")]


def _run_tree(tree: Path, calls: list, out: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(calls), str(out)],
                          env=env, capture_output=True, text=True, cwd=tree)
    if proc.returncode != 0:
        raise SystemExit(f"calls against {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _tree(arg: str, tmp: Path, label: str) -> Path:
    """The directory `arg`, or else the `src/` of git revision `arg`
    exported to tmp/label."""
    if Path(arg).is_dir():
        return Path(arg).resolve()
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", arg, "src"],
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"{arg!r} is neither a directory nor a git revision: "
                         f"{proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        archive.extractall(tmp / label, filter="data")
    return tmp / label


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p
            for p in sorted(directory.rglob("*")) if p.is_file()}


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    report = Report()
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        parent, change = (_tree(a, tmp, f"{label}-tree")
                          for a, label in zip(argv, ("parent", "change")))
        calls = _calls(tmp / "docs")
        results = [_run_tree(tree, calls, tmp / label)
                   for label, tree in (("parent", parent), ("change", change))]
        codes_differ = []
        for i, ((command, ref, *extra), (code_a, out_a), (code_b, out_b)) in enumerate(
                zip(calls, *results)):
            name = " ".join([command, Path(ref).stem, *extra]) + f"#{i:03d}"
            if code_a != code_b:
                codes_differ.append(f"{name}: exit {code_a} != {code_b}")
            report.text(f"{name} output", out_a, out_b)
        files_a, files_b = _files(tmp / "parent"), _files(tmp / "change")
        for missing in sorted(files_a.keys() ^ files_b.keys()):
            report.other.append(f"{missing}: written by one tree only")
        common = sorted(files_a.keys() & files_b.keys())
        differ = []
        for rel in common:
            a, b = files_a[rel].read_bytes(), files_b[rel].read_bytes()
            if a == b:
                continue
            differ.append(rel)
            if rel.endswith(".json"):
                report.values(rel, json.loads(a), json.loads(b))
            else:
                report.text(rel, a.decode(), b.decode())
    print(f"{len(calls)} calls; exit codes "
          + ("equal" if not codes_differ else f"differ in {len(codes_differ)}"))
    for line in codes_differ:
        print(f"  {line}")
    print(f"{len(common) - len(differ)} of {len(common)} files byte-identical")
    for rel in differ[:SHOWN]:
        print(f"  differs: {rel}")
    print(f"{len(report.other)} key, flag, integer or string differences")
    for line in report.other[:SHOWN]:
        print(f"  {line}")
    print(f"worst float difference {report.worst:.3g}"
          + (f" at {report.worst_at}" if report.worst_at else ""))
    ok = not codes_differ and not report.other and report.worst <= FLOAT_BOUND
    print("same outputs" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
