"""Acceptance suite: ten numbered criteria, one test and one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
the test names themselves give one pass/fail line per criterion under -v.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxipair.geometry import LpSpace, Polytope, ProximityInstance, distance_between
from proxipair.instances import (
    build,
    builtin_instance,
    generate_random_instance,
    parse_instance,
)
from proxipair.mappings import MapSpec, certify_contraction
from proxipair.operators import (
    check_commutation,
    verify_projector_properties,
)
from proxipair.solvers import (
    noncyclic_projection_iteration,
    picard_cyclic,
    solve_cyclic_via_reduction,
    solve_noncyclic_via_reduction,
)

FAMILIES = ("separated-boxes", "separated-balls", "parallel-polytopes")
EXPONENTS = (1.5, 2.0, 3.0)


def _report(criterion: int, detail: str):
    print(f"criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def segpair():
    built = build(builtin_instance("segpair"))
    certs = {name: m.contraction for name, m in built.maps.items()}
    # warm-up so the timed criteria measure the solver, not import-time setup
    picard_cyclic(built.maps["T"], [2.0, 0.0])
    noncyclic_projection_iteration(built.maps["S"], [2.0, 0.0])
    return built, certs


@pytest.fixture(scope="module")
def ballpair():
    built = build(builtin_instance("ballpair"))
    certs = {name: m.contraction for name, m in built.maps.items()}
    return built, certs


@pytest.fixture(scope="module")
def generated():
    """One built instance per generator family, exponents cycled."""
    out = []
    for i, family in enumerate(FAMILIES):
        doc = generate_random_instance(17 + i, dim=2 + i % 2, p=EXPONENTS[i],
                                       family=family)
        built = build(doc)
        certs = {name: m.contraction for name, m in built.maps.items()}
        out.append((built, certs))
    return out


def _bodies(doc):
    """The document's instance, built without its maps."""
    return build(parse_instance({**doc.to_dict(), "maps": [], "runs": []})).instance


def _timed_best(callable_, repeats=3):
    best, result = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_criterion_01_picard_cyclic_closed_form(segpair):
    built, certs = segpair
    T = built.maps["T"]
    elapsed, res = _timed_best(
        lambda: picard_cyclic(T, [2.0, 0.0]))
    assert res.converged
    for n, point in enumerate(res.trace.points[0:31:2]):
        assert_allclose(point, [1.0 + 4.0 ** -n, 0.0], atol=1e-9)
    assert res.residual <= 1e-9
    assert elapsed < 0.010, f"{elapsed * 1000:.2f} ms"
    _report(1, f"even iterates match (1+4^-n, 0); residual {res.residual:.1e}; "
               f"{elapsed * 1000:.2f} ms")


def test_criterion_02_noncyclic_pair_closed_form(segpair):
    built, certs = segpair
    S = built.maps["S"]
    elapsed, res = _timed_best(
        lambda: noncyclic_projection_iteration(S, [2.0, 0.0]))
    assert res.converged
    for n, (point, companion) in enumerate(zip(res.trace.points, res.trace.companions)):
        assert_allclose(point, [1.0 + 2.0 ** -n, 0.0], atol=1e-9)
        assert_allclose(companion, [1.0 + 2.0 ** -n, 1.0], atol=1e-9)
    assert res.residual <= 1e-9
    assert elapsed < 0.010, f"{elapsed * 1000:.2f} ms"
    _report(2, f"orbit matches ((1+2^-n,0),(1+2^-n,1)); residual "
               f"{res.residual:.1e}; {elapsed * 1000:.2f} ms")


def test_criterion_03_projector_properties(segpair):
    built, _ = segpair
    t0 = time.perf_counter()
    worst = 0.0
    instances = [built.instance]
    for seed in range(100):
        doc = generate_random_instance(seed, dim=2 + seed % 3,
                                       p=EXPONENTS[seed % 3],
                                       family="separated-boxes")
        instances.append(_bodies(doc))
    for inst in instances:
        checks = verify_projector_properties(inst, samples=1000)
        assert all(c.passed for c in checks)
        worst = max(worst, max(c.worst_deviation for c in checks))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0, f"{elapsed:.2f} s"
    _report(3, f"5 properties on {len(instances)} instances; worst deviation "
               f"{worst:.2e}; {elapsed:.2f} s")


def test_criterion_04_commutation(segpair, ballpair, generated):
    fixtures = [segpair, ballpair] + list(generated)
    checked = 0
    worst = 0.0
    for built, certs in fixtures:
        for name, m in built.maps.items():
            if m.mode != "noncyclic" or not certs[name].alpha_hat < 1.0:
                continue
            check = check_commutation(m, samples=1000)
            assert check.passed and check.worst_deviation <= 1e-8, (built.doc.name, name)
            worst = max(worst, check.worst_deviation)
            checked += 1
    assert checked >= 5
    _report(4, f"{checked} noncyclic contractions commute with the projector; "
               f"worst {worst:.2e}")


def test_criterion_05_reduction_identities(segpair):
    built, certs = segpair
    cyc = solve_cyclic_via_reduction(built.maps["T"], [2.0, 0.0])
    non = solve_noncyclic_via_reduction(built.maps["S"], [2.0, 0.0])
    assert cyc.identity_deviation <= 1e-9
    assert non.identity_deviation <= 1e-9
    assert non.odd_membership_deviation <= 1e-8
    _report(5, f"even-orbit identities <= {max(cyc.identity_deviation, non.identity_deviation):.2e} "
               f"for n <= 20; odd iterates proximal to {non.odd_membership_deviation:.2e}")


def test_criterion_06_solver_equivalence(segpair, ballpair, generated):
    fixtures = [segpair, ballpair] + list(generated)
    worst = 0.0
    for built, certs in fixtures:
        cyclic = [n for n, m in built.maps.items()
                  if m.mode == "cyclic" and certs[n].alpha_hat < 1.0]
        noncyc = [n for n, m in built.maps.items()
                  if m.mode == "noncyclic" and certs[n].alpha_hat < 1.0]
        x0 = next(spec["x0"] for spec in built.runs.values()
                  if spec["solver"].startswith("reduce"))
        for name in cyclic:
            direct = picard_cyclic(built.maps[name], x0)
            reduced = solve_cyclic_via_reduction(built.maps[name], x0)
            dev = float(np.max(np.abs(direct.x_star - reduced.x_star)))
            assert dev <= 1e-6, (built.doc.name, name)
            worst = max(worst, dev)
        for name in noncyc:
            direct = noncyclic_projection_iteration(built.maps[name], x0)
            reduced = solve_noncyclic_via_reduction(built.maps[name], x0)
            dev = float(np.max(np.abs(np.array(direct.pair) - np.array(reduced.pair))))
            assert dev <= 1e-6, (built.doc.name, name)
            worst = max(worst, dev)
    _report(6, f"direct and reduction solvers agree on {len(fixtures)} fixtures; "
               f"worst {worst:.2e}")


def test_criterion_07_uniqueness(segpair):
    built, certs = segpair
    starts = ([1.0, 0.0], [1.3, 0.0], [1.5, 0.0], [1.8, 0.0], [2.0, 0.0])
    points = [picard_cyclic(built.maps["T"], x0).x_star
              for x0 in starts]
    spread_pt = max(float(np.max(np.abs(p - points[0]))) for p in points)
    pairs = [noncyclic_projection_iteration(built.maps["S"], x0).pair
             for x0 in starts]
    spread_pair = max(float(np.max(np.abs(np.array(q) - np.array(pairs[0]))))
                      for q in pairs)
    assert spread_pt <= 1e-6
    assert spread_pair <= 1e-6
    _report(7, f"5 starts agree; point spread {spread_pt:.2e}, "
               f"pair spread {spread_pair:.2e}")


def test_criterion_08_contraction_modulus_oracle(segpair):
    built, certs = segpair
    n = 400_001
    u = np.linspace(1.0 / n, 1.0, n)
    ratio = (np.sqrt(u * u / 4.0 + 1.0) - 1.0) / (np.sqrt(u * u + 1.0) - 1.0)
    oracle = float(np.max(ratio))
    assert oracle == pytest.approx(0.2850, abs=1e-3)
    # T and S split along the gap axis: alpha_hat is the proven bound, the
    # norm 0.5 of the block of M along the segments
    for name in ("T", "S"):
        assert (certs[name].method, certs[name].alpha_hat) == ("bound", 0.5)
        assert oracle <= certs[name].alpha_hat
    # with B moved 2 along the segments the gap is diagonal, T does not
    # split, and its grid estimate meets that geometry's oracle
    sp = LpSpace(2, 2.0)
    moved = ProximityInstance(Polytope(sp, [[1.0, 0.0], [2.0, 0.0]]),
                              Polytope(sp, [[3.0, 1.0], [4.0, 1.0]]))
    T = built.maps["T"]
    cert = certify_contraction(MapSpec.affine(moved, "cyclic", T.matrix, T.offset))
    u = np.linspace(1.0, 3.0, n)[1:]
    d = np.sqrt(2.0)
    ratio = (np.sqrt(u * u / 4.0 + 1.0) - d) / (np.sqrt(u * u + 1.0) - d)
    moved_oracle = float(np.max(ratio))
    assert cert.method == "grid"
    assert cert.alpha_hat == pytest.approx(moved_oracle, abs=1e-9)
    _report(8, f"oracle {oracle:.10f} <= bound 0.5; moved B: grid alpha_hat "
               f"{cert.alpha_hat:.10f} vs oracle {moved_oracle:.10f}")


def test_criterion_09_gap_decay(segpair, ballpair, generated):
    fixtures = [segpair, ballpair] + list(generated)
    runs = 0
    for built, certs in fixtures:
        for run_name, spec in built.runs.items():
            cert = certs[spec["map"]]
            if not cert.alpha_hat < 1.0:
                continue
            result = built.run(run_name)
            gaps = result.trace.gaps
            excess = gaps[1:] - (cert.alpha_hat * gaps[:-1] + 1e-9)
            assert np.all(excess <= 0.0), (built.doc.name, run_name)
            runs += 1
    assert runs >= 16
    _report(9, f"geometric gap decay holds on every step of {runs} runs")


def test_criterion_10_distance_oracle(ballpair):
    worst = 0.0
    for seed in range(100):
        family = FAMILIES[seed % 3]
        doc = generate_random_instance(seed, dim=2 + seed % 2,
                                       p=EXPONENTS[seed % 3], family=family)
        worst = max(worst, abs(_bodies(doc).dist - doc.metadata["expected_dist"]))
    assert worst <= 1e-7
    built, _ = ballpair
    res = distance_between(built.instance.A, built.instance.B)
    assert res.dist == pytest.approx(2.0, abs=1e-8)
    assert_allclose(res.a, [-1.0, 0.0], atol=1e-8)
    assert_allclose(res.b, [1.0, 0.0], atol=1e-8)
    _report(10, f"100 generated distances within {worst:.2e} of the constructed "
                f"gap; ballpair pair exact to 1e-8")
