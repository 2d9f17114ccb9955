import copy
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from proxipair.errors import DomainError, PreconditionError
from proxipair.geometry import Ball, Box, LpSpace, Polytope, ProximityInstance
from proxipair.instances import build, builtin_instance, generate_random_instance
from proxipair.mappings import MapSpec, certify_contraction, certify_mode
from proxipair.operators import (
    ProximalProjector,
    check_commutation,
    compose_with_projector,
    verify_projector_properties,
)

PROPERTY_TOL = 1e-8


@pytest.fixture(scope="module")
def seg():
    sp = LpSpace(2, 2.0)
    return ProximityInstance(Polytope(sp, [[1.0, 0.0], [2.0, 0.0]]),
                             Polytope(sp, [[1.0, 1.0], [2.0, 1.0]]))


@pytest.fixture(scope="module")
def balls():
    sp = LpSpace(2, 2.0)
    return ProximityInstance(Ball(sp, [-2.0, 0.0], 1.0), Ball(sp, [2.0, 0.0], 1.0))


def map_S(seg):
    return MapSpec.affine(seg, "noncyclic", [[0.5, 0.0], [0.0, 1.0]], [0.5, 0.0], name="S")


def map_T(seg):
    return MapSpec.affine(seg, "cyclic", [[0.5, 0.0], [0.0, -1.0]], [0.5, 1.0], name="T")


# -------------------------------------------------------------- projection


def test_projector_on_segment_pair(seg):
    P = ProximalProjector(seg)
    assert_allclose(P.project([1.5, 0.0]), [1.5, 1.0], atol=1e-12)
    assert_allclose(P.project([1.25, 1.0]), [1.25, 0.0], atol=1e-12)


def test_projector_involution_pointwise(seg):
    P = ProximalProjector(seg)
    x = np.array([1.75, 0.0])
    assert_allclose(P.project(P.project(x)), x, atol=1e-12)


def test_projector_on_ball_pair(balls):
    P = ProximalProjector(balls)
    assert_allclose(P.project([-1.0, 0.0]), [1.0, 0.0], atol=1e-9)


def test_projector_rejects_point_off_both_bodies(seg):
    P = ProximalProjector(seg)
    with pytest.raises(DomainError):
        P.project([1.5, 0.5])


def test_projector_rejects_non_proximal_point(balls):
    # (-2, 0) is in A but its distance to B is 3, not dist = 2
    P = ProximalProjector(balls)
    with pytest.raises(DomainError) as err:
        P.project([-2.0, 0.0])
    assert "side A" in str(err.value)


def test_projector_batch_infers_sides(seg, rng):
    P = ProximalProjector(seg)
    xs = seg.sample_proximal("A", 20, rng)
    ys = seg.sample_proximal("B", 20, rng)
    mixed = np.vstack([xs, ys])
    out = P.project_many(mixed)
    assert_allclose(out[:20], P.project_many(xs, "A"), atol=0)
    assert_allclose(out[20:], P.project_many(ys, "B"), atol=0)


def _translation_cases():
    sp2, sp15, sp3 = LpSpace(2, 2.0), LpSpace(2, 1.5), LpSpace(3, 3.0)
    square = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]
    return {
        "segments": ProximityInstance(Polytope(sp2, [[1.0, 0.0], [2.0, 0.0]]),
                                      Polytope(sp2, [[1.0, 1.0], [2.0, 1.0]])),
        "boxes-p1.5": ProximityInstance(Box(sp15, [0.0, 0.0], [1.0, 1.0]),
                                        Box(sp15, [3.0, 0.5], [4.0, 2.0])),
        # the realizing pair of two balls, and so v, comes from alternating
        # projections and is only as exact as the instance tol: at the
        # default 1e-9 the two evaluations of P differ by up to ~3e-10
        "balls-p3": ProximityInstance(Ball(sp3, [0.0, 0.0, 0.0], 1.0),
                                      Ball(sp3, [3.0, 1.0, -0.5], 1.5), tol=1e-12),
        "polygons": ProximityInstance(Polytope(sp2, square),
                                      Polytope(sp2, [[0.5, 1.5], [1.5, 1.5],
                                                     [1.5, 3.0], [0.5, 3.0]])),
        "overlapping": ProximityInstance(Box(sp2, [0.0, 0.0], [2.0, 2.0]),
                                         Box(sp2, [1.0, 1.0], [3.0, 3.0])),
    }


@pytest.mark.parametrize("name", sorted(_translation_cases()))
def test_project_is_the_translation_by_v(name, rng):
    inst = _translation_cases()[name]
    P = ProximalProjector(inst)
    a_star, b_star = inst.realizing_pair
    assert_allclose(inst.v, b_star - a_star, atol=0)
    if name == "overlapping":
        assert inst.dist == 0.0 and not np.any(inst.v)
    for side in ("A", "B"):
        X = inst.sample_proximal(side, 40, rng)
        nearest = inst.opposite_body(side).project_many(X)
        assert_allclose(P.project_many(X), nearest, atol=1e-12, rtol=0)
        assert_allclose(P.project_many(X, side), nearest, atol=1e-12, rtol=0)
        for x, y in zip(X, nearest):
            assert_allclose(P.project(x), y, atol=1e-12, rtol=0)
            assert_allclose(P.project(x, side), y, atol=1e-12, rtol=0)


def test_project_makes_no_body_projection(seg, balls, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("body projection")

    for cls in (Ball, Box, Polytope):
        monkeypatch.setattr(cls, "project_many", forbidden)
    P = ProximalProjector(seg)
    assert_allclose(P.project([1.25, 0.0]), [1.25, 1.0], atol=0)
    assert_allclose(P.project([1.25, 1.0], "B"), [1.25, 0.0], atol=0)
    with pytest.raises(DomainError):
        P.project([1.5, 0.5])
    X = np.array([[1.25, 0.0], [1.75, 0.0]])
    assert_allclose(P.project_many(X, "A"), X + [0.0, 1.0], atol=0)
    assert_allclose(P.project_many(X), X + [0.0, 1.0], atol=0)
    mixed = np.array([[1.25, 0.0], [1.75, 1.0], [2.0, 0.0]])
    assert_allclose(P.project_many(mixed), [[1.25, 1.0], [1.75, 0.0], [2.0, 1.0]],
                    atol=0)
    with pytest.raises(DomainError):
        P.project_many([[1.5, 0.0], [1.5, 0.5]])
    a_star, b_star = balls.realizing_pair
    assert_allclose(ProximalProjector(balls).project_many([a_star, b_star]),
                    [b_star, a_star], atol=1e-15)


_ROW_FAULTS = {
    # instance, side given, the offending point, the message
    "neither": ("seg", None, [1.5, 0.5], "is in neither body"),
    "side": ("seg", "A", [1.5, 1.0], "is not in side A"),
    "distance": ("balls", None, [-2.0, 0.0],
                 r"is in side A but does not realize dist\(A, B\)"),
}


@pytest.mark.parametrize("fault", sorted(_ROW_FAULTS))
@pytest.mark.parametrize("k", [0, 3])
def test_project_many_names_the_row_off_the_proximal_sets(seg, balls, fault, k):
    name, side, bad, message = _ROW_FAULTS[fault]
    inst = {"seg": seg, "balls": balls}[name]
    a_star, b_star = inst.realizing_pair
    # without a side the stack mixes rows of A0 and B0
    X = np.array([a_star if side or i % 2 else b_star for i in range(6)])
    X[k] = bad
    with pytest.raises(DomainError, match=rf"\(row {k}\) {message}"):
        ProximalProjector(inst).project_many(X, side)


def test_project_domain_errors(seg, balls):
    P = ProximalProjector(seg)
    with pytest.raises(DomainError, match="in neither body"):
        P.project([1.5, 0.5])
    with pytest.raises(DomainError, match="not in side A"):
        P.project([1.5, 1.0], "A")
    with pytest.raises(DomainError, match=r"does not realize dist\(A, B\)"):
        ProximalProjector(balls).project([-2.0, 0.0])


def test_planted_wrong_v_fails_the_landing_check(seg):
    # shifting b* along the segments moves v by 1e-6.  Planted in the middle
    # of A, every translate of a sample inside the segment still lands in B,
    # so the projector cannot see it.  Planted at A's end (2, 0), which the
    # samples then include, the projector refuses that point.  Either way
    # the check compares the nearest-point images with the raw translates
    # x + v, and fails instead of raising.
    for a_star in ([1.5, 0.0], [2.0, 0.0]):
        planted = copy.copy(seg)
        a_star = np.array(a_star)
        planted.realizing_pair = (a_star, a_star + np.array([1e-6, 1.0]))
        P = ProximalProjector(planted)
        if a_star[0] < 2.0:
            assert_allclose(P.project([1.5, 0.0]), [1.5 + 1e-6, 1.0], atol=1e-15)
        else:
            with pytest.raises(DomainError, match="does not realize"):
                P.project(a_star)
        landing = verify_projector_properties(planted, samples=200)[0]
        assert landing.name == "projector-cyclic-distance"
        assert not landing.passed
        assert landing.worst_deviation == pytest.approx(1e-6, rel=1e-6)
        # the witness is the sample and its nearest-point image, which
        # misses the planted translate x + v by the worst deviation
        x, image = landing.witness
        assert seg.space.norm(image - (x + planted.v)) == pytest.approx(
            landing.worst_deviation)
    checks = verify_projector_properties(seg, samples=200)
    assert all(c.passed and c.witness is None for c in checks)


# ------------------------------------------------------- property report


def test_projector_properties_segment_pair(seg):
    checks = verify_projector_properties(seg, samples=500)
    assert len(checks) == 5
    for check in checks:
        assert check.passed
        assert check.flags == []
        assert check.worst_deviation <= check.threshold == PROPERTY_TOL


def test_projector_properties_ball_pair_degenerate(balls):
    checks = verify_projector_properties(balls, samples=200)
    assert all(c.passed for c in checks)
    assert all(c.flags == ["degenerate"] for c in checks)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_projector_properties_box_pair_any_p(p):
    # boxes with a shared cross-section; proximal sets are the facing faces
    sp = LpSpace(2, p)
    inst = ProximityInstance(Box(sp, [0.0, 0.0], [1.0, 1.0]),
                             Box(sp, [3.0, 0.0], [4.0, 1.0]))
    checks = verify_projector_properties(inst, samples=400)
    assert all(c.passed for c in checks)
    assert not any("degenerate" in c.flags for c in checks)
    P = ProximalProjector(inst)
    assert_allclose(P.project([1.0, 0.25]), [3.0, 0.25], atol=1e-12)


def test_property_report_serializes(seg):
    checks = verify_projector_properties(seg, samples=100)
    dicts = [c.to_dict() for c in checks]
    assert [d["name"] for d in dicts] == [
        "projector-cyclic-distance", "projector-isometry", "projector-affine",
        "projector-involution", "projector-continuity"]
    assert [d["tag"] for d in dicts] == [
        "projection-realizes-distance", "projection-preserves-distances",
        "projection-affine-on-chords", "projection-is-involutive",
        "projection-continuous"]
    for d in dicts:
        # the witness stays off the record
        assert set(d) == {"name", "tag", "passed", "worst_deviation", "threshold",
                          "flags", "details"}
        assert d["passed"] is True
        assert d["details"].startswith("worst over 100 proximal samples per side")


# ------------------------------------------------------------- composition


def test_compose_flips_mode_both_ways(seg):
    SP = compose_with_projector(map_S(seg))
    TP = compose_with_projector(map_T(seg))
    assert SP.mode == "cyclic"
    assert TP.mode == "noncyclic"
    assert certify_mode(SP).passed
    assert certify_mode(TP).passed


def test_composed_map_values(seg):
    SP = compose_with_projector(map_S(seg))
    TP = compose_with_projector(map_T(seg))
    # S(P(1.5, 0)) = S(1.5, 1) = (1.25, 1); T(P(2, 0)) = T(2, 1) = (1.5, 0)
    assert_allclose(SP.apply([1.5, 0.0]), [1.25, 1.0], atol=1e-12)
    assert_allclose(TP.apply([2.0, 0.0]), [1.5, 0.0], atol=1e-12)


def test_composed_identity_equals_projector(seg, rng):
    ident = MapSpec.affine(seg, "noncyclic", np.eye(2), name="id")
    IP = compose_with_projector(ident)
    P = ProximalProjector(seg)
    pts = seg.sample_proximal("A", 50, rng)
    assert_allclose(IP.apply_many(pts), P.project_many(pts, "A"), atol=1e-12)


def _composition_cases() -> dict:
    """Outer maps covering each way a composition is lowered: one affine
    piece, two pieces (constant-pair and sidewise-affine), a callable, and a
    touching pair, whose b* lies in A."""
    segpair = build(builtin_instance("segpair"))
    ballpair = build(builtin_instance("ballpair"))
    boxes = build(generate_random_instance(3, dim=3, p=1.5))
    cases = {f"{built.doc.name}-{name}": m
             for built in (segpair, ballpair, boxes) for name, m in built.maps.items()}
    seg = segpair.instance
    flat = [[0.5, 0.0], [0.0, 0.0]]  # the y-coordinate comes from the offset
    cases["sidewise-noncyclic"] = MapSpec.sidewise(seg, "noncyclic", flat, [0.5, 0.0],
                                                   flat, [0.5, 1.0])
    cases["sidewise-cyclic"] = MapSpec.sidewise(seg, "cyclic", flat, [0.5, 1.0],
                                                flat, [0.5, 0.0])
    S = map_S(seg)
    cases["blackbox"] = MapSpec.blackbox(seg, "noncyclic", S.apply)
    sp = LpSpace(2, 2.0)
    touching = ProximityInstance(Box(sp, [0.0, 0.0], [1.0, 1.0]),
                                 Box(sp, [1.0, 0.0], [2.0, 1.0]))
    # both pieces shrink towards the shared edge x = 1 and agree on it
    cases["touching-sidewise"] = MapSpec.sidewise(
        touching, "noncyclic", 0.5 * np.eye(2), [0.5, 0.25],
        np.diag([0.25, 0.5]), [0.75, 0.25])
    return cases


@pytest.mark.parametrize("name", sorted(_composition_cases()))
def test_composed_map_is_outer_after_the_projection(name, rng):
    outer = _composition_cases()[name]
    inst = outer.instance
    composed = compose_with_projector(outer)
    assert composed.domain == "proximal" and composed.mode != outer.mode
    P = ProximalProjector(inst)
    for side in ("A", "B"):
        X = inst.sample_proximal(side, 30, rng)
        translated = outer.apply_many(P.project_many(X))
        nearest = outer.apply_many(
            inst.opposite_body(side).project_many(X))
        assert_allclose(translated, nearest, atol=1e-12, rtol=0)
        assert_allclose(composed.apply_many(X), translated, atol=1e-12, rtol=0)
        assert_allclose([composed.apply(x) for x in X], translated, atol=1e-12, rtol=0)


def test_composed_map_inherits_certificate(seg):
    for outer in (map_S(seg), map_T(seg)):
        composed = compose_with_projector(outer)
        assert composed.mode_check.passed and composed.mode != outer.mode
        cert = vars(composed)["contraction"]  # kept, not estimated on first use
        assert cert.method == "inherited" and cert.samples == 0
        assert cert.alpha_hat == vars(outer)["contraction"].alpha_hat
        assert compose_with_projector(outer) is composed is outer.composed


def test_composed_map_on_point_proximal_sets_is_certified_on_the_realizing_pair():
    # the proximal sets of two balls are a* and b*: the composition's mode
    # check and its re-sampled modulus evaluate that one pair
    built = build(builtin_instance("ballpair"))
    contractions = [m for m in built.maps.values() if m.contraction.alpha_hat < 1.0]
    assert contractions
    for m in contractions:
        composed = compose_with_projector(m)
        assert composed.mode_check.passed and "exact" in composed.mode_check.flags
        cert = certify_contraction(composed)
        assert cert.samples == 1
        assert cert.worst_pair is None and cert.alpha_hat == 0.0


def test_composed_map_keeps_contraction_modulus():
    # segments along axis 2 apart along axes 0 and 1: S halves the third
    # coordinate about 0.5 and does not split along one gap axis, so the
    # outer estimate is the grid's, which the composition's samples meet
    sp = LpSpace(3, 3.0)
    inst = ProximityInstance(Polytope(sp, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                             Polytope(sp, [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))
    S = MapSpec.affine(inst, "noncyclic", np.diag([1.0, 1.0, 0.5]), [0.0, 0.0, 0.25])
    outer = certify_contraction(S)
    assert outer.method == "grid"
    alpha_comp = certify_contraction(compose_with_projector(S)).alpha_hat
    assert alpha_comp < 1.0
    assert abs(alpha_comp - outer.alpha_hat) < 0.05


def test_compose_rejects_expansive_map(seg):
    doubling = MapSpec.affine(seg, "noncyclic", [[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        compose_with_projector(doubling)


def test_compose_rejects_a_map_that_leaves_the_proximal_sets():
    # the identity, except that A's proximal edge x = 1 moves to x = 0.5 but
    # for a* = (1, 0.5): d(Tx, Ty) = d(x, y) on the sampled pairs and on
    # (a*, b*), so alpha_hat is 1.0 and the composition is refused only for
    # leaving the proximal sets
    sp = LpSpace(2, 2.0)
    inst = ProximityInstance(Box(sp, [0.0, 0.0], [1.0, 1.0]),
                             Box(sp, [2.0, 0.0], [3.0, 1.0]))
    assert_allclose(inst.realizing_pair[0], [1.0, 0.5])
    moves_edge = MapSpec.blackbox(
        inst, "noncyclic",
        lambda x: np.array([0.5, x[1]]) if x[0] == 1.0 and x[1] != 0.5 else x)
    assert certify_contraction(moves_edge).alpha_hat == 1.0
    with pytest.raises(PreconditionError,
                       match="does not preserve the proximal sets") as err:
        compose_with_projector(moves_edge)
    # the named point is proximal, (1, y) or its translate (2, y), at a
    # height y that the map moves
    named = json.loads(re.search(r"\[[^\]]*\]", str(err.value)).group())
    assert named[0] in (1.0, 2.0) and 0.0 <= named[1] <= 1.0 and named[1] != 0.5


def test_composed_domain_is_proximal(balls):
    a_star, b_star = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
    const = MapSpec.blackbox(
        balls, "noncyclic",
        lambda x: a_star if balls.A.member(x, 1e-7) else b_star, name="const")
    NP = compose_with_projector(const)
    assert NP.domain == "proximal" and const.domain == "full"
    assert_allclose(NP.apply(a_star), b_star, atol=1e-9)
    # a composed map is evaluated without P's domain check, which the
    # solvers make on a whole run: (-2, 0) is in A but not proximal
    assert_allclose(NP.apply([-2.0, 0.0]), b_star, atol=1e-9)
    with pytest.raises(DomainError, match=r"\(row 0\) is in side A but does not"):
        ProximalProjector(balls).project([-2.0, 0.0])


# ------------------------------------------------------------- commutation


def test_commutation_for_noncyclic_contraction(seg):
    check = check_commutation(map_S(seg))
    assert check.name == "map-S-commutation"
    assert check.passed
    assert check.worst_deviation <= 1e-9
    assert check.details == "max over 1000 proximal points per side"
    assert check.witness is None


def test_commutation_for_identity(seg):
    ident = MapSpec.affine(seg, "noncyclic", np.eye(2))
    check = check_commutation(ident)
    assert check.passed and check.worst_deviation <= 1e-12


def test_commutation_for_constant_maps(balls):
    a_star, b_star = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
    const = MapSpec.blackbox(
        balls, "noncyclic",
        lambda x: a_star if balls.A.member(x, 1e-7) else b_star)
    check = check_commutation(const, samples=100)
    assert check.passed and check.worst_deviation <= 1e-9


def test_commutation_fails_for_sidewise_skew(seg):
    # identity on A, horizontal flip on B: noncyclic but the flip does not
    # commute with the vertical translation
    def skew(x):
        if seg.A.member(x, 1e-7):
            return np.array(x, dtype=float)
        return np.array([3.0 - x[0], 1.0])

    K = MapSpec.blackbox(seg, "noncyclic", skew, name="skew")
    assert certify_mode(K).passed
    check = check_commutation(K)
    assert not check.passed
    assert check.worst_deviation > 0.5
    x, t_p, p_t = check.witness
    assert seg.space.norm(t_p - p_t) == pytest.approx(check.worst_deviation)
    # the witness is the first worst sample, A's before B's
    projector = ProximalProjector(seg)
    rows = []
    for side, pts in zip("AB", seg.cross_samples(1000, proximal=True)):
        devs = seg.space.norms(K.apply_many(projector.project_many(pts, side))
                               - projector.project_many(K.apply_many(pts)))
        rows += zip(devs.tolist(), pts)
    worst, first = max(rows, key=lambda row: row[0])
    assert check.worst_deviation == worst
    assert_array_equal(x, first)


def test_commutation_fails_with_the_domain_error_when_the_map_leaves_the_proximal_sets():
    # x -> x / 2 on A and x / 2 + (2, 0) on B maps each box into itself, but
    # sends A's proximal face {1} x [0, 1] to {0.5} x [0, 0.5], where P is
    # not defined
    sp = LpSpace(2, 2.0)
    inst = ProximityInstance(Box(sp, [0.0, 0.0], [1.0, 1.0]),
                             Box(sp, [3.0, 0.0], [4.0, 1.0]))
    half = MapSpec.sidewise(inst, "noncyclic", 0.5 * np.eye(2), [0.0, 0.0],
                            0.5 * np.eye(2), [2.0, 0.0], name="half")
    assert certify_mode(half).passed
    check = check_commutation(half, samples=50)
    assert check.name == "map-half-commutation"
    assert not check.passed
    assert check.worst_deviation == np.inf
    assert check.witness is None
    assert check.details.startswith("max over 50 proximal points per side; point [0.5, ")
    assert "(row 0) is in side A but does not realize dist(A, B)" in check.details
