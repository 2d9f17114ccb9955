import io
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from proxipair import mappings, solvers
from proxipair.errors import DomainError, PreconditionError
from proxipair.geometry import Ball, LpSpace, Polytope, ProximityInstance
from proxipair.mappings import BLOCK, MapSpec
from proxipair.operators import ProximalProjector, compose_with_projector
from proxipair.solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    IDENTITY_TERMS,
    noncyclic_projection_iteration,
    picard_cyclic,
    solve_cyclic_via_reduction,
    solve_noncyclic_via_reduction,
)


@pytest.fixture(scope="module")
def seg():
    sp = LpSpace(2, 2.0)
    return ProximityInstance(Polytope(sp, [[1.0, 0.0], [2.0, 0.0]]),
                             Polytope(sp, [[1.0, 1.0], [2.0, 1.0]]))


@pytest.fixture(scope="module")
def balls():
    sp = LpSpace(2, 2.0)
    return ProximityInstance(Ball(sp, [-2.0, 0.0], 1.0), Ball(sp, [2.0, 0.0], 1.0))


def map_T(seg):
    return MapSpec.affine(seg, "cyclic", [[0.5, 0.0], [0.0, -1.0]], [0.5, 1.0], name="T")


def map_S(seg):
    return MapSpec.affine(seg, "noncyclic", [[0.5, 0.0], [0.0, 1.0]], [0.5, 0.0], name="S")


def map_swap(seg):
    return MapSpec.affine(seg, "cyclic", [[1.0, 0.0], [0.0, -1.0]], [0.0, 1.0], name="swap")


def with_hole(inst, mode, matrix, offset, hole, image, name, calls=None):
    """The affine map x -> matrix x + offset, except that it sends the single
    point `hole` to `image`.  Sampled certification never draws that point,
    so the map certifies as a contraction of its mode.  Each evaluation
    appends to `calls`, when given."""
    matrix, offset = np.array(matrix), np.array(offset)

    def func(x):
        if calls is not None:
            calls.append(1)
        return np.array(image) if np.array_equal(x, hole) else matrix @ x + offset

    return MapSpec.blackbox(inst, mode, func, name=name)


def const_maps(balls):
    a_star, b_star = np.array([-1.0, 0.0]), np.array([1.0, 0.0])

    def cyc(x):
        return b_star if balls.A.member(x, 1e-7) else a_star

    def non(x):
        return a_star if balls.A.member(x, 1e-7) else b_star

    return (MapSpec.blackbox(balls, "cyclic", cyc, name="const-cyclic"),
            MapSpec.blackbox(balls, "noncyclic", non, name="const-noncyclic"))


# ------------------------------------------------------- cyclic Picard runs


def test_picard_orbit_matches_hand_recursion(seg):
    # iterating from (2, 0) gives x_k = (1 + 2**-k, k odd), found by
    # unrolling the affine recursion by hand
    res = picard_cyclic(map_T(seg), [2.0, 0.0])
    assert res.converged
    for k, point in enumerate(res.trace.points):
        assert_allclose(point, [1.0 + 2.0 ** -k, k % 2], atol=1e-12)
    assert_allclose(res.x_star, [1.0, 0.0], atol=1e-9)
    assert res.residual <= 1e-9


def test_picard_companions_are_next_iterates(seg):
    res = picard_cyclic(map_T(seg), [2.0, 0.0])
    trace = res.trace
    assert_array_equal(trace.companions[:-1], trace.points[1:])
    assert_array_equal(trace.companions[-1], map_T(seg).apply(trace.points[-1]))


def test_picard_alternates_sides(seg):
    res = picard_cyclic(map_T(seg), [2.0, 0.0])
    for k, point in enumerate(res.trace.points):
        assert res.trace.side(k) == ("A" if k % 2 == 0 else "B")
        assert seg.body(res.trace.side(k)).member(point, 1e-9)


def test_picard_gap_decays_at_certified_rate(seg):
    T = map_T(seg)
    res = picard_cyclic(T, [2.0, 0.0])
    gaps = res.trace.gaps
    assert gaps[0] == pytest.approx(math.sqrt(1.25) - 1.0, abs=1e-12)
    for prev, cur in zip(gaps, gaps[1:]):
        assert cur <= res.alpha_hat * prev + 1e-9


def test_picard_prediction_bounds_gap_closure(seg):
    res = picard_cyclic(map_T(seg), [2.0, 0.0])
    pred = res.trace.predicted_iterations
    assert 0 < pred < len(res.trace.points)
    assert res.trace.gaps[pred] <= 1e-9


def test_picard_trivial_start_stops_immediately(seg):
    res = picard_cyclic(map_T(seg), [1.0, 0.0])
    assert res.converged
    assert res.trace.iterations_used <= 2
    assert_allclose(res.x_star, [1.0, 0.0], atol=0)


def test_picard_accepts_precomputed_certificate(seg):
    T = map_T(seg)
    cert = T.contraction
    res = picard_cyclic(T, [2.0, 0.0])
    assert res.converged
    assert res.alpha_hat == cert.alpha_hat
    assert T.contraction is cert


def test_picard_rejects_isometry(seg):
    with pytest.raises(PreconditionError, match="contraction"):
        picard_cyclic(map_swap(seg), [2.0, 0.0])


def test_picard_rejects_wrong_mode(seg):
    with pytest.raises(PreconditionError, match="cyclic"):
        picard_cyclic(map_S(seg), [2.0, 0.0])


def test_picard_rejects_start_outside_A(seg):
    with pytest.raises(PreconditionError, match="start"):
        picard_cyclic(map_T(seg), [5.0, 5.0])


def test_picard_max_iter_cap_flags_nonconvergence(seg):
    res = picard_cyclic(map_T(seg), [2.0, 0.0], max_iter=3)
    assert not res.converged
    # last completed even iterate is x_2 = (1.25, 0)
    assert_allclose(res.x_star, [1.25, 0.0], atol=0)
    assert res.trace.iterations_used == 3


def test_picard_constant_map_on_balls(balls):
    cyc, _ = const_maps(balls)
    res = picard_cyclic(cyc, [-1.0, 0.0])
    assert res.converged
    assert_allclose(res.x_star, [-1.0, 0.0], atol=1e-9)
    assert res.residual <= 1e-9


# ------------------------------------------- noncyclic projection iteration


def test_noncyclic_orbit_matches_hand_recursion(seg):
    # x_n = (1 + 2**-n, 0) with companion directly above it
    res = noncyclic_projection_iteration(map_S(seg), [2.0, 0.0])
    assert res.converged
    trace = res.trace
    for k, (point, companion) in enumerate(zip(trace.points, trace.companions)):
        assert trace.side(k) == "A"
        assert_allclose(point, [1.0 + 2.0 ** -k, 0.0], atol=1e-12)
        assert_allclose(companion, [1.0 + 2.0 ** -k, 1.0], atol=1e-9)
    p, q = res.pair
    assert_allclose(p, [1.0, 0.0], atol=1e-9)
    assert_allclose(q, [1.0, 1.0], atol=1e-9)
    assert res.residual <= 1e-9


def test_noncyclic_pair_is_fixed_by_map(seg):
    S = map_S(seg)
    res = noncyclic_projection_iteration(S, [2.0, 0.0])
    p, q = res.pair
    assert_allclose(S.apply(p), p, atol=1e-9)
    assert_allclose(S.apply(q), q, atol=1e-9)
    assert abs(seg.space.distance(p, q) - seg.dist) <= 1e-9


def test_noncyclic_gaps_stay_closed(seg):
    res = noncyclic_projection_iteration(map_S(seg), [2.0, 0.0])
    assert np.max(np.abs(res.trace.gaps)) <= 1e-9


def test_noncyclic_trivial_start_stops_immediately(seg):
    res = noncyclic_projection_iteration(map_S(seg), [1.0, 0.0])
    assert res.converged
    assert res.trace.iterations_used <= 2


def test_noncyclic_rejects_wrong_mode(seg):
    with pytest.raises(PreconditionError, match="noncyclic"):
        noncyclic_projection_iteration(map_T(seg), [2.0, 0.0])


def test_noncyclic_rejects_nonproximal_start(balls):
    # the center of A is a body point but does not realize dist(A, B)
    _, non = const_maps(balls)
    with pytest.raises(PreconditionError, match="realize"):
        noncyclic_projection_iteration(non, [-2.0, 0.0])


def test_noncyclic_rejects_start_off_body(seg):
    with pytest.raises(PreconditionError):
        noncyclic_projection_iteration(map_S(seg), [2.0, 0.5])


def test_noncyclic_companions_cost_the_same_whatever_the_run_length(seg, monkeypatch):
    S = map_S(seg)
    S.mode_check, S.contraction  # certify first; certification projects too
    calls = []
    real = Polytope.project_many
    monkeypatch.setattr(Polytope, "project_many",
                        lambda body, *a, **k: calls.append(1) or real(body, *a, **k))
    counts = {}
    for max_iter in (1, 5, DEFAULT_MAX_ITER):
        calls.clear()
        res = noncyclic_projection_iteration(S, [2.0, 0.0], max_iter=max_iter)
        counts[res.trace.iterations_used] = len(calls)
    # the start test, the loop and the companions, however many, make no
    # body projection
    assert counts == {1: 0, 5: 0, 30: 0}


def test_noncyclic_iterate_off_the_proximal_set_raises(seg):
    # S would keep (2, 0.5) on the line y = 0.5, outside A
    calls = []
    holed = with_hole(seg, "noncyclic", [[0.5, 0.0], [0.0, 1.0]], [0.5, 0.0],
                      hole=[1.5, 0.0], image=[2.0, 0.5], name="S-holed", calls=calls)
    holed.mode_check, holed.contraction  # certify first; certification applies it too
    calls.clear()
    with pytest.raises(DomainError, match=re.escape("point [2.0, 0.5] (row 2) is not in "
                                                    "side A")):
        noncyclic_projection_iteration(holed, [2.0, 0.0])
    # the run ends with the block that left A, not after max_iter steps
    assert len(calls) < 2 * BLOCK


def test_noncyclic_constant_map_on_balls(balls):
    _, non = const_maps(balls)
    res = noncyclic_projection_iteration(non, [-1.0, 0.0])
    assert res.converged
    assert_allclose(res.pair[0], [-1.0, 0.0], atol=1e-9)
    assert_allclose(res.pair[1], [1.0, 0.0], atol=1e-9)


# ------------------------------------------------------------ start test


def test_proximal_start_on_segment_pair(seg):
    S = map_S(seg)
    for x0 in ([1.5, 0.0], [2.0, 0.0]):
        assert noncyclic_projection_iteration(S, x0).converged


def test_proximal_start_on_ball_pair(balls):
    _, non = const_maps(balls)
    assert noncyclic_projection_iteration(non, [-1.0, 0.0]).converged
    # a boundary point of A that does not realize the distance
    with pytest.raises(PreconditionError, match="does not realize dist"):
        noncyclic_projection_iteration(non, [-3.0, 0.0])


def test_proximal_start_off_its_side_is_one_line_naming_it(seg):
    with pytest.raises(PreconditionError) as info:
        noncyclic_projection_iteration(map_S(seg), [1.5, 0.5])
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("start point [1.5, 0.5] (row 0) is not in side A")


@pytest.mark.parametrize("x0", [[1.0, 0.0], [1.5, 0.0], [2.0, 0.0],
                                [2.0 + 5e-10, 0.0], [1.25, -5e-10]])
def test_a_start_that_P_accepts_is_accepted_by_every_solver(seg, x0):
    ProximalProjector(seg).project(x0, "A")
    T, S = map_T(seg), map_S(seg)
    for solve, m in ((picard_cyclic, T), (noncyclic_projection_iteration, S),
                     (solve_cyclic_via_reduction, T), (solve_noncyclic_via_reduction, S)):
        assert_array_equal(solve(m, x0).trace.points[0], x0)


def test_a_start_that_P_refuses_is_refused_by_every_proximal_solver(seg):
    T, S = map_T(seg), map_S(seg)
    with pytest.raises(DomainError):
        ProximalProjector(seg).project([2.0 + 1e-7, 0.0], "A")
    for solve, m in ((noncyclic_projection_iteration, S),
                     (solve_cyclic_via_reduction, T), (solve_noncyclic_via_reduction, S)):
        with pytest.raises(PreconditionError, match="not in side A"):
            solve(m, [2.0 + 1e-7, 0.0])


# ----------------------------------------------------------- reductions


def test_cyclic_reduction_matches_direct_solver(seg):
    T = map_T(seg)
    direct = picard_cyclic(T, [2.0, 0.0])
    reduced = solve_cyclic_via_reduction(T, [2.0, 0.0])
    assert reduced.converged
    assert np.max(np.abs(direct.x_star - reduced.x_star)) <= 1e-6
    assert reduced.residual <= 1e-9
    assert reduced.identity_deviation <= 1e-9


def test_noncyclic_reduction_matches_direct_solver(seg):
    S = map_S(seg)
    direct = noncyclic_projection_iteration(S, [2.0, 0.0])
    reduced = solve_noncyclic_via_reduction(S, [2.0, 0.0])
    assert reduced.converged
    assert np.max(np.abs(np.array(direct.pair) - np.array(reduced.pair))) <= 1e-6
    assert reduced.residual <= 1e-9
    assert reduced.identity_deviation <= 1e-9
    assert reduced.odd_membership_deviation <= 1e-8


def record_orbits(monkeypatch) -> list:
    """The orbits that `solvers._orbit` returns, in the order it makes them."""
    orbits = []
    real = solvers._orbit
    monkeypatch.setattr(solvers, "_orbit",
                        lambda *args: orbits.append(real(*args)) or orbits[-1])
    return orbits


def test_noncyclic_reduction_builds_its_orbit_once(seg, monkeypatch):
    # the inner Picard run's orbit (its 33 points and last companion),
    # extended to 2 * IDENTITY_TERMS + 2 points, is the one composed orbit
    # that the identity and odd-membership measurements read; the other
    # orbit is S's own, from the same start
    S = map_S(seg)
    inner = picard_cyclic(compose_with_projector(S), [2.0, 0.0])
    assert len(inner.trace.points) == 33
    orbits = record_orbits(monkeypatch)
    solve_noncyclic_via_reduction(S, [2.0, 0.0])
    composed_orbit, outer_orbit = orbits
    assert len(composed_orbit) == 2 * IDENTITY_TERMS + 2
    assert_array_equal(composed_orbit[:33], inner.trace.points)
    assert_array_equal(composed_orbit[33], inner.trace.companions[-1])
    assert len(outer_orbit) == 2 * IDENTITY_TERMS + 1
    assert_array_equal(outer_orbit[0], inner.trace.points[0])


@pytest.mark.parametrize("max_iter", [0, 1, 5, 17, DEFAULT_MAX_ITER])
def test_reductions_apply_the_composed_map_only_past_the_inner_orbit(seg, monkeypatch,
                                                                     max_iter):
    # the cyclic reduction reads 2 * IDENTITY_TERMS + 1 composed iterates,
    # the noncyclic one 2 * IDENTITY_TERMS + 2; each starts with the inner
    # run's rows (Picard's points and its last companion), bit for bit, and
    # iterates the composed map only past them
    T, S = map_T(seg), map_S(seg)
    orbits = record_orbits(monkeypatch)
    for reduce, inner_solve, m, needed in (
            (solve_cyclic_via_reduction, noncyclic_projection_iteration, T,
             2 * IDENTITY_TERMS + 1),
            (solve_noncyclic_via_reduction, picard_cyclic, S,
             2 * IDENTITY_TERMS + 2)):
        composed = compose_with_projector(m)
        trace = inner_solve(composed, [2.0, 0.0], max_iter=max_iter).trace
        head = np.vstack([trace.points, trace.companions[-1:]]
                         if inner_solve is picard_cyclic else [trace.points])
        orbits.clear()
        reduce(m, [2.0, 0.0], max_iter=max_iter)
        orbit = orbits[0]
        assert len(orbit) == needed, reduce.__name__
        kept = min(len(head), needed)
        assert_array_equal(orbit[:kept], head[:kept])
        assert_array_equal(orbit[kept:], composed.iterate(head[-1], needed - kept))


def test_reductions_report_the_inherited_modulus(seg):
    T, S = map_T(seg), map_S(seg)
    for solve, m in ((solve_cyclic_via_reduction, T),
                     (solve_noncyclic_via_reduction, S)):
        res = solve(m, [2.0, 0.0])
        assert res.alpha_method == "inherited"
        assert res.alpha_hat == m.contraction.alpha_hat


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_solvers_reject_nonpositive_tol(seg, tol):
    with pytest.raises(PreconditionError, match="tol"):
        picard_cyclic(map_T(seg), [2.0, 0.0], tol=tol)


@pytest.mark.parametrize("max_iter", [-1, -10])
def test_solvers_reject_negative_max_iter(seg, max_iter):
    with pytest.raises(PreconditionError, match="max_iter"):
        noncyclic_projection_iteration(map_S(seg), [2.0, 0.0], max_iter=max_iter)


def test_reductions_raise_on_an_iterate_off_the_proximal_sets(seg):
    # P(2, 0) = (2, 1); the holed maps send it to (1.5, 0.5), which is in
    # neither body, and the domain check of the inner run's first block
    # must refuse it as the run's row 1.  The inner solver of the cyclic
    # reduction checks on side A, that of the noncyclic one infers each side.
    calls = []
    T = with_hole(seg, "cyclic", [[0.5, 0.0], [0.0, -1.0]], [0.5, 1.0],
                  hole=[2.0, 1.0], image=[1.5, 0.5], name="T-holed", calls=calls)
    S = with_hole(seg, "noncyclic", [[0.5, 0.0], [0.0, 1.0]], [0.5, 0.0],
                  hole=[2.0, 1.0], image=[1.5, 0.5], name="S-holed", calls=calls)
    for solve, m, message in (
            (solve_cyclic_via_reduction, T, "is not in side A"),
            (solve_noncyclic_via_reduction, S, "is in neither body")):
        m.mode_check, compose_with_projector(m)  # certify first; that applies m too
        calls.clear()
        with pytest.raises(DomainError,
                           match=re.escape(f"point [1.5, 0.5] (row 1) {message}")):
            solve(m, [2.0, 0.0])
        # the run ends with the block that left, not after max_iter steps
        assert len(calls) < 2 * BLOCK, solve.__name__
    # each inner solver on its own
    for solve, m, message in (
            (noncyclic_projection_iteration, T, "is not in side A"),
            (picard_cyclic, S, "is in neither body")):
        with pytest.raises(DomainError,
                           match=re.escape(f"point [1.5, 0.5] (row 1) {message}")):
            solve(compose_with_projector(m), [2.0, 0.0])


def test_reductions_check_the_domain_once_per_block(seg, monkeypatch):
    T, S = map_T(seg), map_S(seg)
    calls = []
    real = ProximalProjector.project_many
    monkeypatch.setattr(ProximalProjector, "project_many",
                        lambda P, *a, **k: calls.append(1) or real(P, *a, **k))
    # the inner run's start test, one check per block of the inner run, and
    # one check of the identity orbit; the noncyclic reduction also takes
    # its pair's companion P(p).  The projection iteration's first block
    # holds the start and its first BLOCK iterates; Picard's blocks decide
    # BLOCK values of n each, from n = 0.
    for solve, m, fixed, blocks in (
            (solve_cyclic_via_reduction, T, 2, lambda n: max(1, math.ceil(n / BLOCK))),
            (solve_noncyclic_via_reduction, S, 3, lambda n: math.ceil((n + 1) / BLOCK))):
        counts = {}
        for max_iter in (1, 5, DEFAULT_MAX_ITER):
            calls.clear()
            res = solve(m, [2.0, 0.0], max_iter=max_iter)
            counts[res.trace.iterations_used] = len(calls)
        assert len(counts) == 3
        assert counts == {n: fixed + blocks(n) for n in counts}, solve.__name__


def test_reductions_on_constant_ball_maps(balls):
    cyc, non = const_maps(balls)
    r1 = solve_cyclic_via_reduction(cyc, [-1.0, 0.0])
    assert r1.converged
    assert_allclose(r1.x_star, [-1.0, 0.0], atol=1e-9)
    r2 = solve_noncyclic_via_reduction(non, [-1.0, 0.0])
    assert r2.converged
    assert_allclose(r2.pair[0], [-1.0, 0.0], atol=1e-9)
    assert_allclose(r2.pair[1], [1.0, 0.0], atol=1e-9)
    assert r2.odd_membership_deviation <= 1e-8


def test_reduction_requires_proximal_start(balls):
    cyc, _ = const_maps(balls)
    with pytest.raises(PreconditionError, match="realize"):
        solve_cyclic_via_reduction(cyc, [-2.0, 0.0])


def test_uniqueness_across_starts(seg):
    T = map_T(seg)
    S = map_S(seg)
    points = [picard_cyclic(T, [x, 0.0]).x_star for x in (1.0, 1.3, 1.5, 1.8, 2.0)]
    for p in points[1:]:
        assert np.max(np.abs(p - points[0])) <= 1e-6
    pairs = [noncyclic_projection_iteration(S, [x, 0.0]).pair
             for x in (1.0, 1.3, 1.5, 1.8, 2.0)]
    for p, q in pairs[1:]:
        assert np.max(np.abs(p - pairs[0][0])) <= 1e-6
        assert np.max(np.abs(q - pairs[0][1])) <= 1e-6


# ------------------------------------------------------ orbits in blocks


def scalar_orbit(m, x, count):
    """The next `count` iterates of x, one `apply` at a time."""
    rows = []
    for _ in range(count):
        x = m.apply(x)
        rows.append(x)
    return np.array(rows).reshape(count, len(x))


def slow_maps(inst):
    """T and S of the segment pair with the factor 0.8 for 0.5 on x, so
    that runs take about 90 iterations, several blocks."""
    return (MapSpec.affine(inst, "cyclic", [[0.8, 0.0], [0.0, -1.0]], [0.2, 1.0],
                           name="T8"),
            MapSpec.affine(inst, "noncyclic", [[0.8, 0.0], [0.0, 1.0]], [0.2, 0.0],
                           name="S8"))


def shifting(seg):
    # noncyclic as declared, but its side pattern breaks mid-block: A's
    # piece walks (1, 0) along A by 0.1 a step and leaves it after (2, 0),
    # and the other piece halves the point, back into A
    return MapSpec.sidewise(seg, "noncyclic", np.eye(2), [0.1, 0.0],
                            0.5 * np.eye(2), [0.0, 0.0], name="shift")


@pytest.mark.parametrize("case", ["one-piece", "noncyclic two-piece",
                                  "cyclic two-piece from A", "cyclic two-piece from B",
                                  "broken pattern"])
def test_iterate_matches_a_scalar_apply_loop(seg, case):
    m, x0 = {
        "one-piece": (map_T(seg), [2.0, 0.0]),
        # T after P is noncyclic, S after P cyclic; both are two-piece maps
        "noncyclic two-piece": (compose_with_projector(map_T(seg)), [2.0, 0.0]),
        "cyclic two-piece from A": (compose_with_projector(map_S(seg)), [2.0, 0.0]),
        "cyclic two-piece from B": (compose_with_projector(map_S(seg)), [2.0, 1.0]),
        "broken pattern": (shifting(seg), [1.0, 0.0]),
    }[case]
    count = 3 * BLOCK + 5
    rows = m.iterate(x0, count)
    assert rows.shape == (count, 2)
    assert_allclose(rows, scalar_orbit(m, np.array(x0), count), rtol=0, atol=1e-12)
    assert m.iterate(x0, 0).shape == (0, 2)


def concatenated_products(m, on_a):
    """`MapSpec._products` by the concatenating doubling it replaced: the
    reference its in-place doubling must equal bit for bit."""
    block = mappings.BLOCK
    pieces = ((m.matrix, m.offset), (m.matrix_b, m.offset_b))
    alternate = m.matrix_b is not None and m.mode == "cyclic"
    piece = [int(not on_a) ^ (alternate and k % 2) for k in range(block + 1)]
    (M, c), (M2, c2) = pieces[piece[0]], pieces[piece[1]]
    P, S = np.stack([M, (M2[:, :, None] * M).sum(1)]), np.stack([c, M2 @ c + c2])
    while len(P) < block:
        P, S = (np.concatenate([P, (P[..., None] * P[-1]).sum(2)]),
                np.concatenate([S, (P * S[-1]).sum(2) + S]))
    return np.vstack(P[:block]), S[:block], np.array(piece[1:]) == 0


@pytest.mark.parametrize("block", [BLOCK, 20, 3])
@pytest.mark.parametrize("dim", range(1, 7))
def test_products_equal_the_concatenating_doubling(dim, block, monkeypatch):
    monkeypatch.setattr(mappings, "BLOCK", block)
    rng = np.random.default_rng(dim)
    sp = LpSpace(dim, 2.0)
    inst = ProximityInstance(Ball(sp, -2.0 * np.eye(dim)[0], 1.0),
                             Ball(sp, 2.0 * np.eye(dim)[0], 1.0))
    for _ in range(5):
        M, M2 = rng.uniform(-1.0, 1.0, (2, dim, dim))
        c, c2 = rng.uniform(-3.0, 3.0, (2, dim))
        zero = np.zeros((dim, dim))
        for Ma, Mb in ((M, M2), (M, M), (zero, zero), (zero, M2), (M, zero)):
            maps = [MapSpec.affine(inst, "noncyclic", Ma, c)] + [
                MapSpec.sidewise(inst, mode, Ma, c, Mb, c2) for mode in ("noncyclic", "cyclic")]
            for m in maps:
                for on_a in (True,) if m.matrix_b is None else (True, False):
                    got, want = m._products(on_a), concatenated_products(m, on_a)
                    for g, w in zip(got, want):
                        assert g.shape == w.shape
                        assert_array_equal(g, w)


@pytest.mark.parametrize("mode", ["cyclic", "noncyclic"])
@pytest.mark.parametrize("composed", [False, True])
@pytest.mark.parametrize("x0", [[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.5]])
def test_iterate_of_a_constant_pair_equals_the_apply_loop(balls, mode, composed, x0):
    # the constant-pair lowering: zero matrices, A sent to a (b when
    # cyclic) and B to b (a); composed with P the matrices stay zero
    a, b = [-1.0, 0.0], [1.0, 0.0]
    on_a, on_b = (b, a) if mode == "cyclic" else (a, b)
    m = MapSpec.sidewise(balls, mode, np.zeros((2, 2)), on_a, np.zeros((2, 2)), on_b)
    if composed:
        m = compose_with_projector(m)
    count = 3 * BLOCK + 5
    assert_array_equal(m.iterate(x0, count), scalar_orbit(m, np.array(x0), count))


def test_iterate_of_a_broken_pattern_takes_each_piece(seg):
    rows = shifting(seg).iterate([1.0, 0.0], BLOCK)
    in_a = seg.A.member_many(rows, 1e-7)
    assert in_a[:10].all() and not in_a[10:].all() and in_a[11:].any()


def test_a_run_leaving_in_a_later_block_names_its_row_in_the_run(seg):
    # S8, except that once armed its evaluation number `leave` goes to
    # y = 0.5, off both bodies: row `leave` of the run, in its second block
    leave, armed, steps = BLOCK + 8, [], []

    def func(x):
        if armed:
            steps.append(1)
        return (np.array([x[0], 0.5]) if len(steps) == leave
                else np.array([0.8 * x[0] + 0.2, x[1]]))

    S = MapSpec.blackbox(seg, "noncyclic", func, name="S8-leaving")
    S.mode_check, compose_with_projector(S)  # certify unarmed
    armed.append(True)
    for solve, m, message in (
            (noncyclic_projection_iteration, S, "is not in side A"),
            (picard_cyclic, S.composed, "is in neither body")):
        steps.clear()
        with pytest.raises(DomainError, match=re.escape(f"(row {leave}) {message}")):
            solve(m, [2.0, 0.0])
        assert len(steps) == 2 * BLOCK  # two blocks, not max_iter steps


def scalar_picard_stop(m, x, tol, max_iter):
    """Picard's stopping rule on an apply loop: (iterations_used, converged)."""
    space, orbit = m.instance.space, [x]
    for n in range(max_iter + 1):
        orbit.append(m.apply(orbit[n]))
        if (n % 2 == 0 and n >= 2 and space.distance(orbit[n], orbit[n - 2]) < tol
                and abs(space.distance(orbit[n], orbit[n + 1]) - m.instance.dist) < tol):
            return n, True
    return max_iter, False


def scalar_projection_stop(m, x, tol, max_iter):
    """The projection iteration's stopping rule on an apply loop."""
    space, orbit, converged = m.instance.space, [x], False
    while not converged and len(orbit) <= max_iter:
        orbit.append(m.apply(orbit[-1]))
        converged = space.distance(orbit[-1], orbit[-2]) < tol
    return len(orbit) - 1, converged


@pytest.mark.parametrize("max_iter", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                      2 * BLOCK, DEFAULT_MAX_ITER])
@pytest.mark.parametrize("composed", [False, True])
def test_direct_solvers_stop_where_a_scalar_loop_stops(seg, max_iter, composed):
    T8, S8 = slow_maps(seg)
    if composed:  # two-piece maps of domain "proximal"; the modes swap
        S8, T8 = compose_with_projector(T8), compose_with_projector(S8)
    x0 = np.array([2.0, 0.0])
    for solve, rule, m in ((picard_cyclic, scalar_picard_stop, T8),
                           (noncyclic_projection_iteration, scalar_projection_stop, S8)):
        res = solve(m, x0, max_iter=max_iter)
        expected = rule(m, x0, DEFAULT_TOL, max_iter)
        assert (res.trace.iterations_used, res.converged) == expected, solve.__name__
        points = res.trace.points
        assert_allclose(points[1:], scalar_orbit(m, x0, len(points) - 1), rtol=0, atol=1e-12)


def test_stopping_distances_are_the_stack_norms_of_the_orbit():
    # at p = 1.5 the norm of one vector may differ in the last bit from its
    # norm as a row of a stack; the solvers decide on the stack's
    sp = LpSpace(2, 1.5)
    seg = ProximityInstance(Polytope(sp, [[1.0, 0.0], [2.0, 0.0]]),
                            Polytope(sp, [[1.0, 1.0], [2.0, 1.0]]))
    T8, S8 = slow_maps(seg)
    res = picard_cyclic(T8, [2.0, 0.0])
    trace, n = res.trace, res.trace.iterations_used
    assert res.converged and n > 2 * BLOCK
    gaps = sp.norms(trace.companions - trace.points) - seg.dist
    assert_array_equal(trace.gaps, gaps)
    repeats = sp.norms(trace.points[2:] - trace.points[:-2])
    stops = [k for k in range(2, n + 1, 2)
             if repeats[k - 2] < DEFAULT_TOL and abs(gaps[k]) < DEFAULT_TOL]
    assert stops == [n]

    res = noncyclic_projection_iteration(S8, [2.0, 0.0])
    steps = sp.norms(np.diff(res.trace.points, axis=0))
    assert res.converged and len(steps) == res.trace.iterations_used > 2 * BLOCK
    assert steps[-1] < DEFAULT_TOL and np.all(steps[:-1] >= DEFAULT_TOL)


# ------------------------------------------------------- trace and summary


def test_trace_csv_header_and_determinism(seg):
    res = picard_cyclic(map_T(seg), [2.0, 0.0])
    first, second = io.StringIO(), io.StringIO()
    res.trace.write_csv(first)
    res.trace.write_csv(second)
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().splitlines()
    assert lines[0] == "index,side,x0,x1,y0,y1,gap"
    assert len(lines) == len(res.trace.points) + 1
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "A"
    assert [float(c) for c in cells[2:6]] == [2.0, 0.0, 1.5, 1.0]


def test_trace_csv_roundtrips_exactly(seg):
    res = picard_cyclic(map_T(seg), [2.0, 0.0])
    buf = io.StringIO()
    res.trace.write_csv(buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    trace = res.trace
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        assert row[1] == trace.side(k)
        assert [float(v) for v in row[2:4]] == list(trace.points[k])
        assert [float(v) for v in row[4:6]] == list(trace.companions[k])
        assert float(row[6]) == trace.gaps[k]
    assert len(rows) == len(trace.points)


def test_summary_is_json_ready(seg):
    point = picard_cyclic(map_T(seg), [2.0, 0.0]).summary()
    pair = solve_noncyclic_via_reduction(map_S(seg), [2.0, 0.0]).summary()
    for summary in (point, pair):
        parsed = json.loads(json.dumps(summary))
        assert parsed == summary
        assert parsed["converged"] is True
        assert 0.0 <= parsed["alpha_hat"] < 1.0
    assert point["kind"] == "best_proximity_point"
    assert_allclose(point["x_star"], [1.0, 0.0], atol=1e-9)
    assert pair["kind"] == "best_proximity_pair"
    assert "odd_membership_deviation" in pair
