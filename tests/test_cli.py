import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxipair import cli, mappings
from proxipair.cli import main
from proxipair.errors import InstanceFormatError
from proxipair.geometry import Ball, ProximityInstance
from proxipair.instances import (
    BuiltInstance,
    build,
    builtin_instance,
    generate_random_instance,
    parse_instance,
    serialize_instance,
)
from proxipair.solvers import noncyclic_projection_iteration


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


def test_import_leaves_scipy_out(tmp_path):
    # the program computes polygon hulls itself: importing scipy.spatial
    # would make a process that meets a polygon start about three times
    # as slowly
    doc = {"name": "triangles", "space": {"dim": 2, "p": 2.0},
           "bodies": {"A": {"kind": "polytope", "vertices": [[0, 0], [2, 0], [0, 2]]},
                      "B": {"kind": "polytope", "vertices": [[3, 3], [5, 3], [3, 5]]}}}
    doc_path = tmp_path / "triangles.json"
    doc_path.write_text(json.dumps(doc))
    code = ("import sys; from proxipair.cli import main; "
            f"code = main(['verify', {str(doc_path)!r}, '--out', {str(tmp_path)!r}]); "
            "sys.exit(code or 3 * ('scipy' in sys.modules))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], timeout=60, capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert b"5/5 checks passed" in done.stdout


def test_solve_segpair_writes_everything(tmp_path, capsys):
    code = run_cli("solve", "segpair", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("converged") == 4
    for run in ("picard-T", "project-S", "reduce-T", "reduce-S"):
        summary_path = tmp_path / f"segpair-{run}.summary.json"
        trace_path = tmp_path / f"segpair-{run}.trace.csv"
        assert summary_path.exists() and trace_path.exists()
        summary = json.loads(summary_path.read_text())
        assert summary["instance"] == "segpair"
        assert summary["run"] == run
        assert summary["converged"] is True
        assert summary["trace"] == trace_path.name
        header = trace_path.read_text().splitlines()[0]
        assert header == "index,side,x0,x1,y0,y1,gap"
    direct = json.loads((tmp_path / "segpair-picard-T.summary.json").read_text())
    reduced = json.loads((tmp_path / "segpair-reduce-T.summary.json").read_text())
    assert direct["alpha_method"] == "grid"
    assert reduced["alpha_method"] == "inherited"
    assert reduced["alpha_hat"] == direct["alpha_hat"]


def test_solve_single_run_selection(tmp_path):
    code = run_cli("solve", "segpair", "--run", "picard-T", "--out", str(tmp_path))
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["segpair-picard-T.summary.json", "segpair-picard-T.trace.csv"]


def test_cached_parser_keeps_nothing_between_calls(tmp_path):
    # one parser serves every call of a process; the runs one call selects
    # with --run must not carry over into the next
    assert cli._parser() is cli._parser()
    assert run_cli("solve", "segpair", "--run", "picard-T",
                   "--out", str(tmp_path / "one")) == 0
    assert run_cli("solve", "segpair", "--out", str(tmp_path / "all")) == 0
    assert len(list((tmp_path / "one").glob("*.summary.json"))) == 1
    assert len(list((tmp_path / "all").glob("*.summary.json"))) == 4


def test_solve_nonconvergence_exit_code(tmp_path):
    code = run_cli("solve", "segpair", "--run", "picard-T", "--max-iter", "3",
                   "--out", str(tmp_path))
    assert code == 2
    summary = json.loads((tmp_path / "segpair-picard-T.summary.json").read_text())
    assert summary["converged"] is False


def test_solve_missing_file_is_input_error(tmp_path, capsys):
    code = run_cli("solve", str(tmp_path / "ghost.json"), "--out", str(tmp_path))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solve_unknown_run_is_input_error(tmp_path, capsys):
    code = run_cli("solve", "segpair", "--run", "nope", "--out", str(tmp_path))
    assert code == 1
    assert "unknown run" in capsys.readouterr().err


def test_solve_instance_file_round_trip(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(serialize_instance(builtin_instance("ballpair")))
    code = run_cli("solve", str(path), "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "ballpair-picard-const.summary.json").exists()


def test_verify_segpair_passes(tmp_path, capsys):
    code = run_cli("verify", "segpair", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    report = json.loads((tmp_path / "segpair.verify.json").read_text())
    assert report["passed"] is True


def test_verify_failing_instance_exits_2(tmp_path, capsys):
    doc = builtin_instance("segpair")
    doc.maps.append({"name": "skew", "mode": "noncyclic", "kind": "sidewise-affine",
                     "matrix_a": [[1.0, 0.0], [0.0, 1.0]], "offset_a": [0.0, 0.0],
                     "matrix_b": [[-1.0, 0.0], [0.0, 1.0]], "offset_b": [3.0, 0.0]})
    path = tmp_path / "skewed.json"
    path.write_text(serialize_instance(parse_instance(doc.to_dict())))
    code = run_cli("verify", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "[FAIL] segpair map-skew-commutation" in capsys.readouterr().out


def test_verify_mislabeled_mode_is_input_error(tmp_path, capsys):
    doc = builtin_instance("segpair")
    doc.maps[0]["mode"] = "noncyclic"
    path = tmp_path / "mislabeled.json"
    path.write_text(serialize_instance(doc))
    code = run_cli("verify", str(path), "--out", str(tmp_path))
    assert code == 1
    assert "declared noncyclic" in capsys.readouterr().err


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen", "--seed", "7", "--family", "separated-balls",
                   "--p", "1.5", "--out", str(a)) == 0
    assert run_cli("gen", "--seed", "7", "--family", "separated-balls",
                   "--p", "1.5", "--out", str(b)) == 0
    name = "separated-balls-0007.json"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_stdout_parses(tmp_path, capsys):
    code = run_cli("gen", "--seed", "3", "--stdout", "--out", str(tmp_path))
    assert code == 0
    doc = parse_instance(json.loads(capsys.readouterr().out))
    assert doc.metadata["seed"] == 3
    assert not list(tmp_path.iterdir())


def test_gen_then_solve(tmp_path):
    assert run_cli("gen", "--seed", "12", "--dim", "3", "--p", "3.0",
                   "--family", "parallel-polytopes", "--out", str(tmp_path)) == 0
    path = tmp_path / "parallel-polytopes-0012.json"
    assert run_cli("solve", str(path), "--out", str(tmp_path)) == 0
    summary = json.loads((tmp_path / "parallel-polytopes-0012-picard.summary.json")
                         .read_text())
    assert summary["converged"] is True


def test_gen_then_solve_dim16_balls(tmp_path):
    assert run_cli("gen", "--seed", "0", "--dim", "16", "--family", "separated-balls",
                   "--out", str(tmp_path)) == 0
    path = tmp_path / "separated-balls-0000.json"
    assert run_cli("solve", str(path), "--out", str(tmp_path)) == 0


def test_solve_ballpair_evaluates_no_map_row_by_row(tmp_path, monkeypatch):
    calls = collections.Counter()
    real_apply = mappings.MapSpec.apply

    def apply(m, x):
        calls["rowwise" if m.func is not None else "vectorized"] += 1
        return real_apply(m, x)

    monkeypatch.setattr(mappings.MapSpec, "apply", apply)
    assert run_cli("solve", "ballpair", "--out", str(tmp_path)) == 0
    assert calls["vectorized"] > 0 and calls["rowwise"] == 0


def test_solve_balls_draws_each_sample_once(tmp_path, monkeypatch):
    # the constant-pair maps are certified exactly, their mode on a* and b*
    # and their modulus in closed form, so no certifier draws a body
    # sample.  The proximal sets of two balls are the points a*, b*, so no
    # proximal sample draws from a body or needs alternating projections.
    doc = generate_random_instance(0, dim=3, p=3.0, family="separated-balls")
    path = tmp_path / "balls.json"
    path.write_text(serialize_instance(doc))
    calls = collections.Counter()
    real_sample, real_proximalize = Ball.sample, ProximityInstance.proximalize

    def sample(body, *args, **kwargs):
        calls["Ball.sample"] += 1
        return real_sample(body, *args, **kwargs)

    def proximalize(inst, *args, **kwargs):
        calls["proximalize"] += 1
        return real_proximalize(inst, *args, **kwargs)

    monkeypatch.setattr(Ball, "sample", sample)
    monkeypatch.setattr(ProximityInstance, "proximalize", proximalize)
    assert run_cli("solve", str(path), "--out", str(tmp_path)) == 0
    assert calls == {}


def test_solve_refuses_constant_pair_that_misses_the_pair(tmp_path, capsys):
    # ballpair with B sent to b* + 1e-3 (1, 0): the exact modulus is
    # 1e-3 / tol, so the first run is refused instead of iterating to max_iter
    doc = json.loads(serialize_instance(builtin_instance("ballpair")))
    for spec in doc["maps"]:
        spec["b"] = [1.001, 0.0]
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(doc))
    assert run_cli("solve", str(path), "--out", str(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: map is not a contraction on cross pairs (alpha_hat=")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.summary.json"))


def test_project_with_a_large_residual_does_not_converge(tmp_path, capsys):
    # within 1e-12 of a constant pair whose B image misses b* by 1e-3:
    # d(T a*, T b*) = dist + 1e-3, so the certificate refuses the map at
    # (a*, b*), although its sampled pairs alone gave alpha_hat 0.00686
    doc = json.loads(serialize_instance(builtin_instance("ballpair")))
    doc["maps"] = [{"name": "near-constant", "mode": "noncyclic", "kind": "sidewise-affine",
                    "matrix_a": [[1e-12, 0.0], [0.0, 1e-12]], "offset_a": [-1.0, 0.0],
                    "matrix_b": [[1e-12, 0.0], [0.0, 1e-12]], "offset_b": [1.001, 0.0]}]
    doc["runs"] = [{"name": "project", "solver": "project", "map": "near-constant",
                    "x0": [-1.0, 0.0]}]
    path = tmp_path / "near-constant.json"
    path.write_text(json.dumps(doc))
    assert run_cli("solve", str(path), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "not a contraction" in err[0]
    assert "at the pair [-1.0, 0.0], [1.0, 0.0]" in err[0]
    m = build(parse_instance(doc)).maps["near-constant"]
    assert m.contraction.alpha_hat == pytest.approx(1e-3 / 1e-9, rel=1e-6)
    # with the sampled certificate planted, the step after the start is
    # below tol but the residual d(y, Ty) is 1e-3: the run must not converge
    vars(m)["contraction"] = mappings.ContractionCertificate(
        alpha_hat=0.006864163419027252, samples=10_000, method="sampled", worst_pair=None)
    result = noncyclic_projection_iteration(m, [-1.0, 0.0])
    assert not result.converged
    assert result.trace.iterations_used == 1
    assert result.residual == pytest.approx(1e-3, rel=1e-6)


def test_segment_declared_with_an_interior_vertex(tmp_path):
    def doc(vertices):
        return {"name": "diagonal", "space": {"dim": 2, "p": 2.0}, "tol": 1e-9,
                "bodies": {"A": {"kind": "polytope", "vertices": vertices},
                           "B": {"kind": "polytope", "vertices": [[2.0, 0.0], [4.0, 2.0]]}}}

    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])))
    assert run_cli("verify", str(path), "--out", str(tmp_path)) == 0
    three, two = (build(parse_instance(doc(v))).instance
                  for v in ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[0.0, 0.0], [2.0, 2.0]]))
    assert three.dist == pytest.approx(two.dist, abs=1e-12)
    for p, q in zip(three.realizing_pair, two.realizing_pair):
        np.testing.assert_allclose(p, q, rtol=0, atol=1e-12)


def test_touching_balls_solve_and_verify(tmp_path, capsys):
    # radius-2 balls at p = 3 touching at (4, 2): A0 and B0 are that one
    # point, so proximal samples are its copies
    doc = {"name": "touching", "space": {"dim": 2, "p": 3.0},
           "bodies": {"A": {"kind": "ball", "center": [2.0, 2.0], "radius": 2.0},
                      "B": {"kind": "ball", "center": [6.0, 2.0], "radius": 2.0}},
           "maps": [{"name": "T", "mode": "cyclic", "kind": "affine",
                     "matrix": [[-0.5, 0.0], [0.0, 0.5]], "offset": [6.0, 1.0]},
                    {"name": "S", "mode": "noncyclic", "kind": "affine",
                     "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [2.0, 1.0]}],
           "runs": [{"name": "picard", "solver": "picard", "map": "T", "x0": [2.0, 2.0]},
                    {"name": "project", "solver": "project", "map": "S",
                     "x0": [4.0, 2.0]},
                    {"name": "reduce-cyclic", "solver": "reduce-cyclic", "map": "T",
                     "x0": [4.0, 2.0]},
                    {"name": "reduce-noncyclic", "solver": "reduce-noncyclic",
                     "map": "S", "x0": [4.0, 2.0]}],
           "tol": 1e-9, "metadata": {}}
    path = tmp_path / "touching.json"
    path.write_text(json.dumps(doc))
    assert run_cli("solve", str(path), "--out", str(tmp_path)) == 0
    assert run_cli("verify", str(path), "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""
    for run in ("picard", "reduce-cyclic"):
        summary = json.loads((tmp_path / f"touching-{run}.summary.json").read_text())
        np.testing.assert_allclose(summary["x_star"], [4.0, 2.0], atol=1e-6)


def test_verify_makes_each_declared_run_once(tmp_path, monkeypatch):
    # segpair declares 4 runs, 2 of them direct; each direct run's
    # uniqueness check adds 4 sampled starts to its declared one
    calls = []
    real = BuiltInstance.run
    monkeypatch.setattr(BuiltInstance, "run",
                        lambda built, *a, **k: calls.append(1) or real(built, *a, **k))
    assert run_cli("verify", "segpair", "--out", str(tmp_path)) == 0
    assert len(calls) == 12


def test_out_flag_holds_while_proxipair_out_is_set(tmp_path, monkeypatch):
    # --out is the one setting of the output directory
    monkeypatch.setenv("PROXIPAIR_OUT", str(tmp_path / "from-env"))
    assert run_cli("gen", "--seed", "2", "--out", str(tmp_path / "out")) == 0
    assert (tmp_path / "out" / "separated-boxes-0002.json").exists()
    assert not (tmp_path / "from-env").exists()


def test_bench_runs_batch(tmp_path, capsys):
    code = run_cli("bench", "--count", "3", "--seed", "5",
                   "--out", str(tmp_path))
    assert code == 0
    rows = json.loads((tmp_path / "bench-separated-boxes.json").read_text())
    assert len(rows) == 3
    assert all(r["converged"] for r in rows)
    assert capsys.readouterr().out.count(": ok") == 3


def test_bench_records_a_failing_instance_and_goes_on(tmp_path, capsys, monkeypatch):
    real_build = cli.build

    def build(doc, *args, **kwargs):
        if doc.metadata["seed"] == 6:
            raise InstanceFormatError("planted failure")
        return real_build(doc, *args, **kwargs)

    monkeypatch.setattr(cli, "build", build)
    code = run_cli("bench", "--count", "3", "--seed", "5",
                   "--out", str(tmp_path))
    assert code == 1
    rows = json.loads((tmp_path / "bench-separated-boxes.json").read_text())
    assert [r["error"] for r in rows] == [None, "planted failure", None]
    assert [r["converged"] for r in rows] == [True, False, True]
    out = capsys.readouterr().out
    assert out.count(": ok") == 2
    assert "3 instances in" in out and "(wall)" in out


@pytest.mark.parametrize("argv", [
    ("verify", "segpair", "--samples", "0"),
    ("solve", "segpair", "--tol", "0"),
    ("solve", "segpair", "--tol", "-1"),
    ("gen", "--dim", "0"),
    ("gen", "--p", "1.0"),
    ("solve", "segpair", "--tol", "inf"),
    ("solve", "segpair", "--tol", "nan"),
    ("solve", "segpair", "--max-iter", "-1"),
    ("bench", "--count", "0"),
    ("bench", "--count", "-1"),
    ("solve", "segpair", "--seed", "-1"),
    ("gen", "--gap", "inf"),
])
def test_invalid_arguments_give_one_error_line(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_out_of_memory_gives_one_error_line(tmp_path, capsys, monkeypatch):
    def generate(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "generate_random_instance", generate)
    assert run_cli("gen", "--dim", "100000", "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "74.5 GiB" in err[0]


# the inner solver of reduce-T checks its iterates on side A; that of
# reduce-S infers each iterate's side
_OFF_THE_PROXIMAL_SETS = {"reduce-T": "point [1.5, 0.5] (row 1) is not in side A",
                          "reduce-S": "point [1.5, 0.5] (row 1) is in neither body"}


@pytest.mark.parametrize("run", ["reduce-T", "reduce-S"])
def test_iterate_off_the_proximal_sets_gives_one_error_line(tmp_path, capsys,
                                                           monkeypatch, run):
    # the map of the run sends P(x0) = (2, 1) to (1.5, 0.5), in neither body;
    # sampled certification never draws that one point
    real_build = cli.build

    def build(doc, *args, **kwargs):
        built = real_build(doc, *args, **kwargs)
        for name in ("T", "S"):
            m = built.maps[name]

            def func(x, m=m):
                return np.array([1.5, 0.5]) if np.array_equal(x, [2.0, 1.0]) else m.apply(x)

            built.maps[name] = mappings.MapSpec.blackbox(built.instance, m.mode, func,
                                                         name=name)
        return built

    monkeypatch.setattr(cli, "build", build)
    assert run_cli("solve", "segpair", "--run", run, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert _OFF_THE_PROXIMAL_SETS[run] in err[0]


def _count_certifier_calls(monkeypatch, *argv):
    """Run the CLI with every binding of the two certifiers wrapped."""
    counts = collections.Counter()
    modules = [m for n, m in sys.modules.items() if n.startswith("proxipair")]
    for fname in ("certify_mode", "certify_contraction"):
        original = getattr(mappings, fname)

        def counted(m, *args, _original=original, _name=fname, **kwargs):
            counts[_name] += 1
            if m.domain == "proximal":
                counts[f"{_name} on a composed map"] += 1
            return _original(m, *args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert run_cli(*argv) == 0
    return counts


@pytest.mark.parametrize("command,instance,expected", [
    # each reduce run composes its map with P, which checks the composed
    # map's mode; its modulus is inherited
    ("solve", "ballpair", {"certify_mode": 4, "certify_contraction": 2,
                           "certify_mode on a composed map": 2}),
    ("solve", "segpair", {"certify_mode": 6, "certify_contraction": 2,
                          "certify_mode on a composed map": 2}),
    # verify reads each composition's mode check for the mode-flip check and
    # re-samples its modulus once for the inherited-modulus check
    ("verify", "segpair", {"certify_mode": 6, "certify_contraction": 6,
                           "certify_mode on a composed map": 2,
                           "certify_contraction on a composed map": 2}),
])
def test_each_map_is_certified_once(tmp_path, monkeypatch, command, instance,
                                    expected):
    counts = _count_certifier_calls(monkeypatch, command, instance,
                                    "--out", str(tmp_path))
    assert counts == expected


def test_verify_names_its_samples_per_side(tmp_path):
    assert run_cli("verify", "segpair", "--samples", "7", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "segpair.verify.json").read_text())
    details = {c["name"]: c["details"] for c in report["checks"]}
    assert details["map-S-commutation"] == "max over 7 proximal points per side"
    assert details["projector-isometry"] == "worst over 7 proximal samples per side"


def test_bad_family_is_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("gen", "--family", "mystery", "--out", str(tmp_path))
