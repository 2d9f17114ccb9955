import collections
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from proxipair import mappings, operators, verification
from proxipair.geometry import ProximityInstance
from proxipair.instances import build, builtin_instance, generate_random_instance, parse_instance
from proxipair.mappings import MapSpec
from proxipair.verification import GAP_DECAY_SLACK, UNIQUENESS_STARTS, run_verification

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def skew_doc():
    """Segment pair with an extra noncyclic map that reflects B but not A."""
    doc = builtin_instance("segpair")
    doc.maps.append({"name": "skew", "mode": "noncyclic", "kind": "sidewise-affine",
                     "matrix_a": [[1.0, 0.0], [0.0, 1.0]], "offset_a": [0.0, 0.0],
                     "matrix_b": [[-1.0, 0.0], [0.0, 1.0]], "offset_b": [3.0, 0.0]})
    return parse_instance(doc.to_dict())


def test_segpair_verifies_clean():
    report = run_verification(build(builtin_instance("segpair")))
    assert report.passed
    names = {c.name for c in report.checks}
    assert "projector-cyclic-distance" in names
    assert "map-S-commutation" in names
    assert "run-reduce-S-odd-membership" in names
    assert "run-picard-T-uniqueness" in names
    assert len(report.checks) >= 20


def test_segpair_deviations_are_tiny():
    report = run_verification(build(builtin_instance("segpair")))
    for check in report.checks:
        assert check.worst_deviation <= check.threshold, check.name


def test_each_contraction_is_composed_with_the_projector_once(monkeypatch):
    # segpair has 2 contraction maps; the map checks and the reduce runs
    # share each map's composition, so its mode is checked once
    checked = []
    real = mappings.certify_mode
    monkeypatch.setattr(mappings, "certify_mode",
                        lambda m: checked.append(m.name) or real(m))
    built = build(builtin_instance("segpair"))
    checked.clear()  # the declared maps' own mode checks
    assert run_verification(built).passed
    assert sorted(checked) == ["S*P", "T*P"]
    for name in ("S", "T"):
        m = built.maps[name]
        assert m.composed is not None
        assert operators.compose_with_projector(m) is m.composed
    assert len(checked) == 2


def test_verification_draws_each_proximal_sample_once(monkeypatch):
    # the projector checks, the commutation and mode-flip checks and the
    # certificates share the instance's store: one draw per side and size,
    # 1000 for the checks and the composed maps' mode checks, and 10,000
    # for the re-sampled moduli
    calls = collections.Counter()
    real = ProximityInstance.sample_proximal

    def counted(inst, side, n, rng):
        calls[side, n] += 1
        return real(inst, side, n, rng)

    monkeypatch.setattr(ProximityInstance, "sample_proximal", counted)
    built = build(builtin_instance("segpair"))
    assert run_verification(built).passed
    # the uniqueness starts of picard-T and project-S
    assert calls.pop(("A", UNIQUENESS_STARTS - 1)) == 2
    assert calls == {(side, n): 1 for side in "AB" for n in (1000, 10_000)}


def test_verify_proximalizes_tilted_polygons_only_in_the_continuity_probe(monkeypatch):
    # B's face exposed towards A is one vertex, so the proximal sets are
    # points: `sample_proximal` copies a* and b*, and every check is flagged
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    doc = inputs.make_documents("verify-polygons", 1)[0]
    callers = []
    real = ProximityInstance.proximalize

    def counted(inst, X, side):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(inst, X, side)

    monkeypatch.setattr(ProximityInstance, "proximalize", counted)
    report = run_verification(build(parse_instance(doc)))
    assert report.passed
    assert all(c.flags == ["degenerate"] for c in report.checks)
    assert callers == ["verify_projector_properties"]


def test_mode_flip_checks_present_for_contractions_only():
    built = build(builtin_instance("segpair"))
    report = run_verification(built)
    flips = {c.name: c for c in report.checks if c.tag == "composition-flips-mode"}
    # swap and identity are isometries, not contractions, so no flip check
    assert set(flips) == {"map-T-mode-flip", "map-S-mode-flip"}
    # each is its composed map's own mode check, renamed
    for name in ("T", "S"):
        composed, flip = built.maps[name].composed, flips[f"map-{name}-mode-flip"]
        own = composed.mode_check
        assert (flip.passed, flip.worst_deviation, flip.threshold) == (
            own.passed, own.worst_deviation, own.threshold)
        assert flip.details == f"composed map certifies as {composed.mode}"


def test_inherited_modulus_checks_present_for_contractions_only():
    report = run_verification(build(builtin_instance("segpair")))
    checks = [c for c in report.checks if c.tag == "composition-keeps-modulus"]
    assert {c.name for c in checks} == {"map-T-inherited-modulus",
                                        "map-S-inherited-modulus"}
    assert all(c.passed for c in checks)


def test_understated_certificate_fails_inherited_modulus():
    built = build(builtin_instance("segpair"))
    T = built.maps["T"]
    planted = dataclasses.replace(T.contraction, alpha_hat=0.1)  # true ~0.285
    vars(T)["contraction"] = planted
    report = run_verification(built, samples=200)
    check = next(c for c in report.checks if c.name == "map-T-inherited-modulus")
    assert not check.passed
    assert check.worst_deviation > 0.1
    assert next(c for c in report.checks
                if c.name == "map-S-inherited-modulus").passed


def test_ballpair_verifies_with_degenerate_flag():
    report = run_verification(build(builtin_instance("ballpair")))
    assert report.passed
    projector_checks = [c for c in report.checks if c.name.startswith("projector-")]
    assert all("degenerate" in c.flags for c in projector_checks)


def _sampling_checks(report):
    """The checks that draw their points from the proximal sets."""
    return [c for c in report.checks
            if c.name.startswith(("projector-", "map-")) or c.name.endswith("-uniqueness")]


def test_singleton_proximal_sets_flag_every_sampling_check():
    # on ballpair every proximal sample is a* or b*: no cross pair is valid
    # for the inherited modulus and every uniqueness start is a*
    report = run_verification(build(builtin_instance("ballpair")))
    checks = _sampling_checks(report)
    names = {c.name for c in checks}
    assert {"map-const-cyclic-inherited-modulus", "map-const-noncyclic-commutation",
            "run-picard-const-uniqueness", "run-project-const-uniqueness"} <= names
    assert all("degenerate" in c.flags for c in checks)
    # the other flags are those of the gap-decay checks on closed traces
    others = {c.name: c.flags for c in report.checks if c not in checks and c.flags}
    assert others == {f"run-{run}-gap-decay": ["vacuous"] for run in
                      ("project-const", "reduce-const-cyclic", "reduce-const-noncyclic")}


def test_spread_proximal_sets_flag_nothing():
    report = run_verification(build(builtin_instance("segpair")))
    assert len(_sampling_checks(report)) == 13
    assert not any("degenerate" in c.flags for c in report.checks)


def test_gap_decay_on_a_closed_trace_is_flagged_vacuous():
    # project-S and reduce-T iterate inside the proximal sets, so every gap
    # is 0 and their gap-decay checks cannot fail
    report = run_verification(build(builtin_instance("segpair")), samples=200)
    flagged = {c.name: c.flags for c in report.checks if c.flags}
    assert flagged == {"run-project-S-gap-decay": ["vacuous"],
                       "run-reduce-T-gap-decay": ["vacuous"]}
    for name in ("run-picard-T-gap-decay", "run-reduce-S-gap-decay"):
        check = next(c for c in report.checks if c.name == name)
        assert check.passed and not check.flags


@pytest.mark.parametrize("scale", [1.5, 0.5])
def test_gap_decay_reports_the_raw_excess(scale):
    # a planted trace whose last gap exceeds alpha times the one before by
    # scale * GAP_DECAY_SLACK: it fails exactly when that excess passes the
    # threshold, and the excess is the worst deviation reported
    built = build(builtin_instance("segpair"))
    result = built.run("picard-T")
    alpha = result.alpha_hat
    gaps = np.array([1e-3, alpha * 1e-3 + scale * GAP_DECAY_SLACK])
    trace = dataclasses.replace(result.trace, gaps=gaps)
    planted = dataclasses.replace(result, trace=trace)
    checks = verification._run_checks(built, {"picard-T": planted})
    check = next(c for c in checks if c.name == "run-picard-T-gap-decay")
    assert check.threshold == GAP_DECAY_SLACK
    assert check.worst_deviation == pytest.approx(scale * GAP_DECAY_SLACK, rel=1e-6)
    assert check.passed == (scale < 1.0)
    assert check.passed == (check.worst_deviation <= check.threshold)


def test_skew_map_fails_commutation():
    report = run_verification(build(skew_doc()))
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"map-skew-commutation"}
    skew = next(c for c in report.checks if c.name == "map-skew-commutation")
    assert skew.worst_deviation > 0.5


def test_map_leaving_the_proximal_sets_fails_commutation_with_a_reason():
    # x / 2 on A and x / 2 + (2, 0) on B keeps each box but sends the
    # proximal faces inward, off the domain of P
    doc = parse_instance({
        "name": "boxes-half", "space": {"dim": 2, "p": 2.0},
        "bodies": {"A": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                   "B": {"kind": "box", "lower": [3.0, 0.0], "upper": [4.0, 1.0]}},
        "maps": [{"name": "half", "mode": "noncyclic", "kind": "sidewise-affine",
                  "matrix_a": [[0.5, 0.0], [0.0, 0.5]], "offset_a": [0.0, 0.0],
                  "matrix_b": [[0.5, 0.0], [0.0, 0.5]], "offset_b": [2.0, 0.0]}]})
    report = run_verification(build(doc))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["map-half-commutation"]
    check = failed[0]
    assert check.worst_deviation == float("inf")
    assert check.flags == []
    assert check.details.startswith("max over 1000 proximal points per side; point [")
    assert "does not realize dist(A, B)" in check.details


def test_map_leaving_the_proximal_sets_on_a_face_fails_the_mode_flip():
    # a* on A and b* on B, except that the face x0 == 1 of A, but for a*
    # itself, goes to (0.5, x1).  Body samples never hit that face, so the
    # map certifies as a noncyclic contraction; composed with P it sends
    # B0 - v, which is that face, into A but off A0
    doc = parse_instance({
        "name": "boxes-face", "space": {"dim": 2, "p": 2.0},
        "bodies": {"A": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                   "B": {"kind": "box", "lower": [2.0, 0.0], "upper": [3.0, 1.0]}}})
    built = build(doc)
    inst = built.instance
    a_star, b_star = inst.realizing_pair

    def func(x):
        if x[0] == 1.0 and x[1] != a_star[1]:
            return np.array([0.5, x[1]])
        return np.array(a_star if inst.A.member(x) else b_star)

    m = MapSpec.blackbox(inst, "noncyclic", func, name="face")
    assert m.mode_check.passed and m.contraction.alpha_hat == 0.0
    built.maps["face"] = m
    report = run_verification(built)
    check = next(c for c in report.checks if c.name == "map-face-mode-flip")
    assert not check.passed
    assert check.worst_deviation == float("inf")
    assert "map does not preserve the proximal sets" in check.details


def test_isometry_run_fails_cleanly():
    doc = builtin_instance("segpair")
    doc.runs.append({"name": "picard-swap", "solver": "picard", "map": "swap",
                     "x0": [2.0, 0.0]})
    report = run_verification(build(parse_instance(doc.to_dict())))
    assert not report.passed
    check = next(c for c in report.checks if c.name == "run-picard-swap-converges")
    assert not check.passed
    assert "contraction" in check.details


def test_report_serializes_to_json():
    report = run_verification(build(builtin_instance("segpair")))
    raw = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(raw)
    assert parsed["instance"] == "segpair"
    assert parsed["passed"] is True
    assert len(parsed["checks"]) == len(report.checks)
    for check in parsed["checks"]:
        assert set(check) == {"name", "tag", "passed", "worst_deviation",
                              "threshold", "flags", "details"}


@pytest.mark.parametrize("family,p", [("separated-boxes", 1.5),
                                      ("separated-balls", 3.0),
                                      ("parallel-polytopes", 2.0)])
def test_generated_instances_verify(family, p):
    built = build(generate_random_instance(13, dim=2, p=p, family=family))
    report = run_verification(built, samples=400)
    assert report.passed, [c.name for c in report.checks if not c.passed]
