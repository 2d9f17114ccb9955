"""The benchmark's correctness checks accept right answers and reject planted
wrong ones.  Run with `python3 -m pytest perfbench/tests`."""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from inputs import make_documents  # noqa: E402


def _right_summaries(doc):
    """The summaries a correct `solve` writes, one per declared run."""
    dist, a, b = checks.expected_solution(doc)
    out = []
    for run in doc["runs"]:
        summary = {"run": run["name"], "converged": True, "dist": dist}
        if run["solver"] in ("picard", "reduce-cyclic"):
            summary["x_star"] = a.tolist()
        else:
            summary["pair"] = [a.tolist(), b.tolist()]
        out.append(summary)
    return out


@pytest.mark.parametrize("workload", ["solve-boxes", "solve-balls"])
def test_right_solve_summaries_pass(workload):
    for doc in make_documents(workload, seed=3):
        for summary in _right_summaries(doc):
            assert checks.check_solve_summary(doc, summary) == []


@pytest.mark.parametrize("workload", ["solve-boxes", "solve-balls"])
def test_perturbed_solution_fails(workload):
    doc = make_documents(workload, seed=3)[0]
    for summary in _right_summaries(doc):
        bad = copy.deepcopy(summary)
        if "x_star" in bad:
            bad["x_star"][0] += 1e-3
        else:
            bad["pair"][1][-1] -= 1e-3
        assert checks.check_solve_summary(doc, bad), bad["run"]


def test_wrong_reported_distance_fails():
    doc = make_documents("solve-boxes", seed=3)[0]
    summary = _right_summaries(doc)[0]
    summary["dist"] += 1e-3
    assert any("dist" in p for p in checks.check_solve_summary(doc, summary))


def test_unconverged_run_fails():
    doc = make_documents("solve-balls", seed=3)[0]
    summary = _right_summaries(doc)[1]
    summary["converged"] = False
    assert checks.check_solve_summary(doc, summary)


@pytest.mark.parametrize("workload", ["verify-segments", "verify-polygons"])
def test_wrong_program_distance_fails(workload):
    doc = next(d for d in make_documents(workload, seed=3) if isinstance(d, dict))
    exact = checks.expected_distance(doc)
    assert checks.check_distance(doc, exact) == []
    assert checks.check_distance(doc, exact + 1e-4)
    assert checks.check_distance(doc, exact * 0.5)


def test_polygon_distance_is_the_declared_gap():
    for doc in make_documents("verify-polygons", seed=5):
        assert checks.expected_distance(doc) == pytest.approx(
            doc["metadata"]["expected_dist"], abs=1e-12)


def test_segment_distance_matches_dense_search():
    rng = np.random.default_rng(0)
    s = np.linspace(0.0, 1.0, 401)
    for _ in range(20):
        a0, a1, b0, b1 = rng.normal(size=(4, 3))
        pa = a0 + s[:, None] * (a1 - a0)
        pb = b0 + s[:, None] * (b1 - b0)
        brute = np.min(np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2))
        exact = checks.segment_distance(a0, a1, b0, b1)
        assert exact <= brute + 1e-12
        assert exact >= brute - 1e-2


PROJECTOR_CHECKS = ["projector-cyclic-distance", "projector-isometry",
                    "projector-affine", "projector-involution", "projector-continuity"]


def _doc(workload):
    return next(d for d in make_documents(workload, seed=3) if isinstance(d, dict))


def _report(passed_flags, degenerate=False):
    """A verify report whose first checks are the five projector checks."""
    names = PROJECTOR_CHECKS + [f"check-{i}" for i in range(len(passed_flags))]
    flags = ["degenerate"] if degenerate else []
    return {"passed": all(passed_flags),
            "checks": [{"name": n, "passed": ok, "flags": flags if n in PROJECTOR_CHECKS else []}
                       for n, ok in zip(names, passed_flags)]}


def test_verify_report_with_one_fail_fails():
    doc = _doc("verify-segments")
    assert checks.check_verify_report(doc, _report([True] * 6)) == []
    problems = checks.check_verify_report(doc, _report([True, True, False, True, True, True]))
    assert problems == [f"{doc['name']}: check projector-affine failed"]


def test_empty_verify_report_fails():
    assert checks.check_verify_report(_doc("verify-segments"), {"passed": True, "checks": []})


def test_projector_checks_must_be_degenerate_exactly_on_polygons():
    polygons, segments = _doc("verify-polygons"), _doc("verify-segments")
    assert checks.check_verify_report(polygons, _report([True] * 5, degenerate=True)) == []
    assert checks.check_verify_report(polygons, _report([True] * 5))
    assert checks.check_verify_report(segments, _report([True] * 5, degenerate=True))
    no_projector = {"passed": True, "checks": [{"name": "commutation-S", "passed": True}]}
    assert checks.check_verify_report(segments, no_projector)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for workload in ("solve-boxes", "verify-polygons"):
        assert make_documents(workload, 7) == make_documents(workload, 7)
        assert make_documents(workload, 7) != make_documents(workload, 8)
