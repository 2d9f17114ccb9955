import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from proxipair import instances, mappings
from proxipair.errors import DimensionMismatchError, PreconditionError
from proxipair.geometry import Ball, Box, LpSpace, Polytope, ProximityInstance
from proxipair.instances import (
    build,
    builtin_instance,
    generate_random_instance,
    parse_instance,
)
from proxipair.mappings import (
    DEFAULT_CONTRACTION_SAMPLES,
    DEFAULT_MODE_SAMPLES,
    MEMBER_TOL,
    CheckResult,
    MapSpec,
    certify_contraction,
    certify_mode,
)
from proxipair.operators import compose_with_projector


@pytest.fixture(scope="module")
def seg():
    sp = LpSpace(2, 2.0)
    return ProximityInstance(Polytope(sp, [[1.0, 0.0], [2.0, 0.0]]),
                             Polytope(sp, [[1.0, 1.0], [2.0, 1.0]]))


@pytest.fixture(scope="module")
def moved():
    # seg with B moved 2 along the segments: the gap (2, 1) is diagonal, so
    # no map splits along a gap axis and affine maps keep the grid
    sp = LpSpace(2, 2.0)
    return ProximityInstance(Polytope(sp, [[1.0, 0.0], [2.0, 0.0]]),
                             Polytope(sp, [[3.0, 1.0], [4.0, 1.0]]))


@pytest.fixture(scope="module")
def balls():
    sp = LpSpace(2, 2.0)
    return ProximityInstance(Ball(sp, [-2.0, 0.0], 1.0), Ball(sp, [2.0, 0.0], 1.0))


def map_T(seg):
    # halves the horizontal offset from 1, flips between the segments
    return MapSpec.affine(seg, "cyclic", [[0.5, 0.0], [0.0, -1.0]], [0.5, 1.0], name="T")


def map_S(seg):
    # same horizontal contraction, keeps each segment invariant
    return MapSpec.affine(seg, "noncyclic", [[0.5, 0.0], [0.0, 1.0]], [0.5, 0.0], name="S")


def const_maps(balls):
    a_star, b_star = np.array([-1.0, 0.0]), np.array([1.0, 0.0])

    def cyc(x):
        return b_star if balls.A.member(x, 1e-7) else a_star

    def non(x):
        return a_star if balls.A.member(x, 1e-7) else b_star

    return (MapSpec.blackbox(balls, "cyclic", cyc, name="const-cyclic"),
            MapSpec.blackbox(balls, "noncyclic", non, name="const-noncyclic"))


# ------------------------------------------------------------------ apply


def test_affine_apply(seg):
    T = map_T(seg)
    assert_allclose(T.apply([2.0, 0.0]), [1.5, 1.0], atol=0)
    assert_allclose(T.apply([1.5, 1.0]), [1.25, 0.0], atol=0)


def test_apply_many_matches_apply(seg, rng):
    T = map_T(seg)
    X = rng.uniform(0, 3, (40, 2))
    assert_allclose(T.apply_many(X), np.array([T.apply(x) for x in X]), atol=0)


def test_apply_dimension_mismatch(seg):
    T = map_T(seg)
    with pytest.raises(DimensionMismatchError):
        T.apply([1.0, 2.0, 3.0])


def test_apply_many_takes_only_stacks_of_the_space(seg):
    one_piece = map_T(seg)
    two_piece = MapSpec.sidewise(seg, "cyclic", [[0.5, 0.0], [0.0, -1.0]], [0.5, 1.0],
                                 np.eye(2), [0.0, -1.0])
    blackbox = MapSpec.blackbox(seg, "cyclic", lambda x: x[::-1])
    for m in (one_piece, two_piece, blackbox):
        # one point is a one-row stack, whatever the kind of map
        assert m.apply_many([2.0, 0.0]).shape == (1, 2)
        assert m.apply_many(np.zeros((0, 2))).shape == (0, 2)
        for wrong in ([1.0, 2.0, 3.0], np.zeros((4, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(DimensionMismatchError):
                m.apply_many(wrong)


@pytest.fixture(scope="module")
def two_piece_maps():
    from proxipair.operators import compose_with_projector
    return {"const-cyclic": build(builtin_instance("ballpair")).maps["const-cyclic"],
            "T*P": compose_with_projector(build(builtin_instance("segpair")).maps["T"])}


@pytest.mark.parametrize("name", ["const-cyclic", "T*P"])
@pytest.mark.parametrize("rows", ["A", "B", "mixed", "empty"])
def test_two_piece_map_computes_only_the_pieces_its_rows_select(two_piece_maps, name,
                                                               rows, monkeypatch):
    m = two_piece_maps[name]
    xs, ys = m.instance.cross_samples(50, proximal=m.domain == "proximal")
    X = {"A": xs, "B": ys, "empty": xs[:0],
         "mixed": np.vstack([xs, ys])[np.random.default_rng(0).permutation(100)]}[rows]
    in_a = m.instance.A.member_many(X, MEMBER_TOL)
    sides = {"A": [True], "B": [False], "mixed": [False, True], "empty": []}[rows]
    assert np.unique(in_a).tolist() == sides
    want = np.where(in_a[:, None], X @ m.matrix.T + m.offset,
                    X @ m.matrix_b.T + m.offset_b)
    calls = []
    product = mappings._affine_rows
    monkeypatch.setattr(mappings, "_affine_rows",
                        lambda *args: calls.append(1) or product(*args))
    got = m.apply_many(X)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert len(calls) == (2 if rows == "mixed" else 1)


def test_mapspec_validation(seg):
    with pytest.raises(ValueError):
        MapSpec(seg, "sideways", matrix=np.eye(2))
    with pytest.raises(ValueError):
        MapSpec(seg, "cyclic")  # neither affine data nor func
    with pytest.raises(ValueError):
        MapSpec(seg, "cyclic", matrix=np.eye(2), func=lambda x: x)
    with pytest.raises(DimensionMismatchError):
        MapSpec.affine(seg, "cyclic", np.eye(3))
    with pytest.raises(ValueError):
        MapSpec(seg, "cyclic", matrix_b=np.eye(2), offset_b=np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        MapSpec.sidewise(seg, "cyclic", np.eye(2), np.zeros(2), np.eye(3), np.zeros(3))


# Every map kind an instance file can declare, on each body kind.  The
# reference evaluates one row at a time, the way the kinds are defined.
DECLARED_BODIES = {
    "balls": (3.0, {"kind": "ball", "center": [-2.0, 0.0], "radius": 1.0},
              {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0}),
    "boxes": (1.5, {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
              {"kind": "box", "lower": [2.0, 0.0], "upper": [3.0, 1.0]}),
    "segments": (2.0, {"kind": "polytope", "vertices": [[1.0, 0.0], [2.0, 0.0]]},
                 {"kind": "polytope", "vertices": [[1.0, 1.0], [2.0, 1.0]]}),
    "polygons": (2.0, {"kind": "polytope",
                       "vertices": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]},
                 {"kind": "polytope",
                  "vertices": [[3.0, 3.0], [5.0, 3.0], [3.0, 5.0]]}),
}
DECLARED_MAPS = {
    "affine": {"kind": "affine", "mode": "noncyclic",
               "matrix": [[0.5, 0.25], [-0.5, 1.0]], "offset": [0.1, -0.2]},
    "constant-pair-cyclic": {"kind": "constant-pair", "mode": "cyclic",
                             "a": [-1.0, 0.0], "b": [1.0, 0.5]},
    "constant-pair-noncyclic": {"kind": "constant-pair", "mode": "noncyclic",
                                "a": [-1.0, 0.0], "b": [1.0, 0.5]},
    "sidewise-affine": {"kind": "sidewise-affine", "mode": "noncyclic",
                        "matrix_a": [[0.5, 0.0], [0.25, 0.5]], "offset_a": [0.0, 1.0],
                        "matrix_b": [[1.0, -0.5], [0.0, 0.75]], "offset_b": [2.0, 0.0]},
}


def _reference_map(spec: dict, A):
    def f(x):
        in_a = A.member(x, MEMBER_TOL)
        if spec["kind"] == "affine":
            return np.array(spec["matrix"]) @ x + spec["offset"]
        if spec["kind"] == "constant-pair":
            first, second = (("b", "a") if spec["mode"] == "cyclic" else ("a", "b"))
            return np.array(spec[first] if in_a else spec[second])
        side = "a" if in_a else "b"
        return np.array(spec[f"matrix_{side}"]) @ x + spec[f"offset_{side}"]
    return f


@pytest.mark.parametrize("kind", sorted(DECLARED_MAPS))
@pytest.mark.parametrize("bodies", sorted(DECLARED_BODIES))
def test_declared_maps_match_rowwise_reference(bodies, kind, rng):
    p, body_a, body_b = DECLARED_BODIES[bodies]
    spec = dict(DECLARED_MAPS[kind], name="m")
    bodies = {"name": "x", "space": {"dim": 2, "p": p},
              "bodies": {"A": body_a, "B": body_b}}
    # the map is built without its mode check: some kinds do not keep
    # their declared mode on these bodies
    inst = build(parse_instance({**bodies, "maps": []})).instance
    m = instances._build_map(parse_instance({**bodies, "maps": [spec]}).maps[0], inst)
    A = m.instance.A
    assert m.func is None
    assert m.is_affine == (kind == "affine")
    # points just outside A: nearest points of A to far points, pushed
    # outward by half of MEMBER_TOL; they count as A
    angle = rng.uniform(0.0, 2.0 * np.pi, 100)
    far = 20.0 * np.column_stack([np.cos(angle), np.sin(angle)])
    edge = A.project_many(far)
    out = far - edge
    near = edge + 0.5 * MEMBER_TOL * out / np.linalg.norm(out, axis=1, keepdims=True)
    X = np.vstack([A.sample(rng, 100), m.instance.B.sample(rng, 100),
                   rng.uniform(-4.0, 6.0, (100, 2)), near])
    assert all(A.member(x, MEMBER_TOL) and not A.member(x, 0.0) for x in near)
    want = np.array([_reference_map(spec, A)(x) for x in X])
    assert_allclose(m.apply_many(X), want, rtol=1e-14, atol=1e-14)
    assert_allclose(np.array([m.apply(x) for x in X]), want, rtol=1e-14, atol=1e-14)


# ------------------------------------------------------------------- mode


def test_certify_mode_cyclic_exact(seg):
    check = certify_mode(map_T(seg))
    assert check.passed
    assert "exact" in check.flags
    assert check.worst_deviation <= 1e-12


def test_certify_mode_noncyclic_exact(seg):
    assert certify_mode(map_S(seg)).passed


def test_certify_mode_rejects_wrong_declaration(seg):
    # the noncyclic map declared cyclic must fail with a witness
    wrong = MapSpec.affine(seg, "cyclic", [[0.5, 0.0], [0.0, 1.0]], [0.5, 0.0])
    check = certify_mode(wrong)
    assert not check.passed
    x, img = check.witness
    assert seg.A.member(x, 1e-9)
    assert img[1] == pytest.approx(0.0)  # image stayed on A instead of B


def test_certify_mode_blackbox_sampled(balls):
    cyc, non = const_maps(balls)
    ck = certify_mode(cyc)
    assert ck.passed and "exact" not in ck.flags
    assert certify_mode(non).passed


@pytest.mark.parametrize("path", ["vertices", "constant-pair", "point-proximal-sets"])
def test_certify_mode_flags_each_exact_path(seg, balls, path):
    if path == "vertices":
        m = map_T(seg)
    elif path == "constant-pair":
        m = planted_ballpair(0.0).maps["const-cyclic"]
    else:  # a callable, decided on (a*, b*) alone
        m = MapSpec(balls, "noncyclic", func=lambda x: x, domain="proximal")
    check = certify_mode(m)
    assert check.passed and check.flags == ["exact"] and check.witness is None
    assert certify_mode(MapSpec.blackbox(balls, "noncyclic", lambda x: x)).flags == []


def test_worst_of_scores_the_first_maximum():
    rows = np.arange(10.0).reshape(5, 2)
    devs = np.array([0.5, 2.0, 1.0, 2.0, 0.0])
    check = CheckResult.worst_of("c", "t", devs, 1.0, (rows, -rows), flags=["f"],
                                 details="d")
    # a tie goes to the first row, and a failed check keeps that row of each witness
    assert (check.passed, check.worst_deviation, check.threshold) == (False, 2.0, 1.0)
    assert_array_equal(check.witness[0], rows[1])
    assert_array_equal(check.witness[1], -rows[1])
    assert (check.name, check.tag, check.flags, check.details) == ("c", "t", ["f"], "d")
    # at the threshold it passes, and keeps no witness
    passed = CheckResult.worst_of("c", "t", devs, 2.0, (rows,))
    assert passed.passed and passed.worst_deviation == 2.0 and passed.witness is None


def test_worst_of_accepts_a_one_element_list():
    check = CheckResult.worst_of("c", "t", [3e-9], 1e-9)
    assert not check.passed and check.worst_deviation == 3e-9 and check.witness is None
    assert CheckResult.worst_of("c", "t", [1e-9], 1e-9).passed


def _former_mode_witness(m):
    """The worst deviation and witness as the former mode record chose them:
    each side's first argmax, B's only when strictly worse than A's."""
    worst, witness = 0.0, None
    for k, side in enumerate("AB"):
        pts = mappings._exact_points(m, k)
        if pts is None:
            pts = m.instance.cross_samples(DEFAULT_MODE_SAMPLES, m.domain == "proximal")[k]
        imgs = m.apply_many(pts)
        devs = mappings._target_deviations(m, side, imgs)
        i = int(np.argmax(devs))
        if devs[i] > worst:
            worst, witness = float(devs[i]), (pts[i], imgs[i])
    return worst, witness


def test_failed_mode_check_keeps_the_former_witness(seg, balls):
    cyc, _ = const_maps(balls)
    wrong = [
        # a tie across the sides, on vertices: both stay at distance 1
        MapSpec.affine(seg, "cyclic", [[0.5, 0.0], [0.0, 1.0]], [0.5, 0.0]),
        # B's side is worse, on vertices: A moves 0.25 off A, B 0.75 off B
        MapSpec.affine(seg, "noncyclic", [[1.0, 0.0], [0.0, 1.5]], [0.0, 0.25]),
        # sampled: every point ties within its side, and the sides tie
        MapSpec.blackbox(balls, "noncyclic", cyc.apply),
        # sampled, with a spread of deviations on each side
        MapSpec.blackbox(balls, "noncyclic", lambda x: x + np.array([0.5, 0.25])),
    ]
    for m in wrong:
        check = certify_mode(m)
        worst, (x, image) = _former_mode_witness(m)
        assert not check.passed and check.worst_deviation == worst
        assert_array_equal(check.witness[0], x)
        assert_array_equal(check.witness[1], image)


def test_cyclic_square_maps_A_into_A(seg, rng):
    T = map_T(seg)
    xs = seg.A.sample(rng, 200)
    sq = T.apply_many(T.apply_many(xs))
    proj = seg.A.project_many(sq)
    assert float(np.max(seg.space.norms(sq - proj))) <= 1e-9


def test_noncyclic_nonexpansive_preserves_proximal_sets(seg, rng):
    S = map_S(seg)
    xs = seg.sample_proximal("A", 200, rng)
    assert float(np.max(seg.proximal_deviations(S.apply_many(xs), "A"))) <= 1e-9


# -------------------------------------------------------------- contraction


def segpair_alpha_oracle():
    # ratio of gap shrinkage over cross pairs offset by u horizontally:
    # r(u) = (sqrt(u^2/4 + 1) - 1) / (sqrt(u^2 + 1) - 1), maximized on (0, 1]
    u = np.linspace(1e-6, 1.0, 400_001)
    r = (np.sqrt(u * u / 4.0 + 1.0) - 1.0) / (np.sqrt(u * u + 1.0) - 1.0)
    return float(np.max(r))


def test_split_map_gets_the_bound_above_the_oracle(seg):
    # T moves the pairs' gap axis rigidly and halves the other: its modulus
    # is the proven bound 0.5, above the supremum of the ratio, attained at
    # the endpoint pair
    oracle = segpair_alpha_oracle()
    assert_allclose(oracle, (math.sqrt(1.25) - 1.0) / (math.sqrt(2.0) - 1.0), atol=1e-9)
    cert = certify_contraction(map_T(seg))
    assert (cert.method, cert.alpha_hat, cert.samples) == ("bound", 0.5, 0)
    assert cert.worst_pair is None
    assert oracle <= cert.alpha_hat


def test_contraction_modulus_matches_grid_oracle(moved):
    # z = x - y = (-u, -1) for u in [1, 3], so the ratio is
    # (sqrt(u^2/4 + 1) - sqrt 2) / (sqrt(u^2 + 1) - sqrt 2), largest at u = 3
    cert = certify_contraction(map_T(moved))
    assert cert.method == "grid"
    u = np.linspace(1.0, 3.0, 400_001)[1:]
    d = math.sqrt(2.0)
    oracle = np.max((np.sqrt(u * u / 4.0 + 1.0) - d) / (np.sqrt(u * u + 1.0) - d))
    assert_allclose(cert.alpha_hat, oracle, atol=1e-9)
    # closed form of the maximum, attained at the endpoint pair
    assert_allclose(cert.alpha_hat,
                    (math.sqrt(3.25) - d) / (math.sqrt(10.0) - d), atol=1e-12)
    x, y = cert.worst_pair
    assert_allclose(x, [1.0, 0.0], atol=1e-9)
    assert_allclose(y, [4.0, 1.0], atol=1e-9)


def test_contraction_modulus_same_for_both_modes(seg):
    # S and T move the horizontal offsets identically
    a1 = certify_contraction(map_T(seg)).alpha_hat
    a2 = certify_contraction(map_S(seg)).alpha_hat
    assert_allclose(a1, a2, atol=1e-12)


def test_contraction_certificate_stable_under_doubling(moved, monkeypatch):
    monkeypatch.setattr(mappings, "DEFAULT_CONTRACTION_SAMPLES", 5000)
    c1 = certify_contraction(map_T(moved))
    monkeypatch.setattr(mappings, "DEFAULT_CONTRACTION_SAMPLES", 10_000)
    c2 = certify_contraction(map_T(moved))
    assert abs(c1.alpha_hat - c2.alpha_hat) <= 1e-3


def test_isometries_are_not_contractions(seg):
    swap = MapSpec.affine(seg, "cyclic", [[1.0, 0.0], [0.0, -1.0]], [0.0, 1.0])
    ident = MapSpec.affine(seg, "noncyclic", np.eye(2))
    assert certify_contraction(swap).alpha_hat == 1.0
    assert not certify_contraction(swap).alpha_hat < 1.0
    assert certify_contraction(ident).alpha_hat == 1.0


def test_split_maps_whose_bound_is_not_below_1_keep_the_grid(seg):
    # swap and identity split along the gap axis, but with ||M'|| = 1 the
    # bound proves nothing, so they are searched and keep the grid estimate
    swap = MapSpec.affine(seg, "cyclic", [[1.0, 0.0], [0.0, -1.0]], [0.0, 1.0])
    ident = MapSpec.affine(seg, "noncyclic", np.eye(2))
    for m in (swap, ident):
        assert mappings._split_modulus(m) == 1.0
        cert = certify_contraction(m)
        assert (cert.method, cert.alpha_hat) == ("grid", 1.0)
        assert cert.samples == DEFAULT_CONTRACTION_SAMPLES + 4 + 4 * 41


@pytest.mark.parametrize("entry,why", [
    ((1, 0), "row 1, the gap axis, is not 0 on the free axis 0"),
    ((0, 1), "column 1 is not +-e_1"),
    ((1, 1), "M[1, 1] is not +-1"),
])
def test_maps_that_do_not_split_keep_the_grid(seg, entry, why):
    # T with one entry changed: no proven bound, so the map is searched
    M = np.array([[0.5, 0.0], [0.0, -1.0]])
    M[entry] += 0.1
    m = MapSpec.affine(seg, "cyclic", M, [0.5, 1.0])
    assert mappings._split_modulus(m) is None, why
    cert = certify_contraction(m)
    assert cert.method == "grid" and cert.samples > 0
    assert cert.worst_pair is not None


def _split_map(rng, dim: int, p: float, gap: float, block: str):
    """A box pair `gap` apart along one axis i and flat along it, with each
    other axis free in one body or both or flat in both at one coordinate,
    and a map with M e_i = +-e_i, row i 0 on the free axes, and a block M'
    (rows other than i, free columns) that is "dense", one dense "row" or a
    signed "diagonal", scaled to a Riesz-Thorin bound in [0.3, 0.95]."""
    sp = LpSpace(dim, p)
    i = int(rng.integers(dim))
    lo_a, lo_b = rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim)
    ext_a, ext_b = rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)
    for j in range(dim):
        kind = rng.integers(4) if j != i else 4
        if kind == 1:
            ext_a[j] = 0.0  # B extends along j
        elif kind == 2:
            ext_b[j] = 0.0  # A extends along j
        elif kind == 3:
            ext_a[j] = ext_b[j] = 0.0
            lo_b[j] = lo_a[j]
        elif kind == 4:
            ext_a[j] = ext_b[j] = 0.0
            lo_b[j] = lo_a[j] + rng.choice([-1.0, 1.0]) * gap
        if kind in (0, 1, 2):  # the intervals along j overlap
            lo_b[j] = rng.uniform(lo_a[j] - ext_b[j], lo_a[j] + ext_a[j])
    inst = ProximityInstance(Box(sp, lo_a, lo_a + ext_a), Box(sp, lo_b, lo_b + ext_b))
    free = (ext_a > 0) | (ext_b > 0)
    M = rng.normal(size=(dim, dim))
    if block == "diagonal":
        M = np.diag(np.diag(M))
    elif block == "row":
        M[np.arange(dim) != (i + int(rng.integers(1, dim))) % dim] = 0.0
    M[:, i] = 0.0
    M[i, i] = rng.choice([-1.0, 1.0])
    M[i, free] = 0.0
    rows = np.abs(np.delete(M, i, axis=0)[:, free])
    col, row = rows.sum(axis=0).max(initial=0.0), rows.sum(axis=1).max(initial=0.0)
    norm = col ** (1.0 / p) * row ** (1.0 - 1.0 / p)
    if norm > 0.0:
        M[np.arange(dim) != i] *= rng.uniform(0.3, 0.95) / norm
    mode = "cyclic" if M[i, i] < 0 else "noncyclic"
    return MapSpec.affine(inst, mode, M, rng.normal(size=dim))


@pytest.mark.parametrize("block", ["dense", "row", "diagonal"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_bound_is_above_the_grid_and_every_sampled_ratio(dim, p, block, monkeypatch):
    rng = np.random.default_rng([dim, int(2 * p), len(block)])
    # at a gap of 0.01 the ratios come near ||M'||_p, which a bound below
    # it, as min(||M'||_1, ||M'||_inf) for a row, would not reach
    for gap in (0.01, rng.uniform(0.3, 2.0)):
        m = _split_map(rng, dim, p, gap, block)
        bound = certify_contraction(m)
        assert bound.method == "bound" and bound.samples == 0
        assert bound.alpha_hat < 1.0
        xs, ys = m.instance.cross_samples(DEFAULT_CONTRACTION_SAMPLES)
        sampled, _ = mappings.worst_ratio(m, xs, ys)
        assert sampled <= bound.alpha_hat + 1e-12
        with monkeypatch.context() as patched:
            patched.setattr(mappings, "_split_modulus", lambda m: None)
            grid = certify_contraction(m)
        assert grid.method == "grid"
        assert sampled <= grid.alpha_hat + 1e-12
        assert grid.alpha_hat <= bound.alpha_hat + 1e-12
        if block == "diagonal" and gap == 0.01:
            # the bound is exact for a signed diagonal: the grid comes close
            assert grid.alpha_hat >= 0.95 * bound.alpha_hat


def test_constant_map_contracts_to_zero(balls):
    cyc, _ = const_maps(balls)
    cert = certify_contraction(cyc)
    assert cert.alpha_hat == 0.0
    assert cert.method == "sampled"
    assert cert.worst_pair is not None
    assert cert.alpha_hat < 1.0


def test_degenerate_instance_flagged():
    # two singletons: every cross pair realizes the distance
    sp = LpSpace(2, 2.0)
    inst = ProximityInstance(Polytope(sp, [[0.0, 0.0]]), Polytope(sp, [[0.0, 1.0]]))
    m = MapSpec.affine(inst, "noncyclic", np.eye(2))
    cert = certify_contraction(m)
    assert cert.worst_pair is None


def planted_ballpair(miss: float):
    """ballpair with constant-pair maps that send B to b* + miss * u, u the
    unit vector from a* to b*."""
    doc = builtin_instance("ballpair")
    maps = [dict(spec, b=[1.0 + miss, 0.0]) for spec in doc.maps]
    return build(parse_instance({"name": "planted", "space": doc.space, "tol": doc.tol,
                                 "bodies": doc.bodies, "maps": maps, "runs": []}))


def test_constant_pair_modulus_is_exact():
    # every cross pair has Tx - Ty = c_A - c_B, so the modulus is
    # (||c_A - c_B|| - dist) / tol: a miss of 1e-3 is far from a contraction
    built = planted_ballpair(1e-3)
    inst = built.instance
    for m in built.maps.values():
        check, cert = m.mode_check, m.contraction
        assert check.passed and "exact" in check.flags
        assert cert.method == "exact" and cert.samples == 1
        assert cert.alpha_hat == pytest.approx(1e-3 / inst.tol, rel=1e-9)
        # (a*, b*) breaks d(Tx, Ty) <= alpha d(x, y) + (1 - alpha) dist for every alpha
        assert_allclose(np.array(cert.worst_pair), np.array(inst.realizing_pair))
        # the exact supremum bounds every sampled ratio
        xs, ys = inst.cross_samples(1000)
        before = inst.space.norms(xs - ys) - inst.dist
        after = inst.space.norms(m.apply_many(xs) - m.apply_many(ys)) - inst.dist
        assert np.all(after[before > inst.tol] / before[before > inst.tol] <= cert.alpha_hat)
    with pytest.raises(PreconditionError, match="not relatively nonexpansive"):
        compose_with_projector(built.maps["const-cyclic"])
    # hitting the realizing pair gives 0, as the sampled estimate did
    for m in planted_ballpair(0.0).maps.values():
        assert (m.contraction.method, m.contraction.alpha_hat) == ("exact", 0.0)
        assert m.contraction.worst_pair is None


def test_zero_matrix_affine_map_is_exact(seg):
    # one piece, M = 0: every point goes to c, so Tx - Ty = 0 on every pair
    m = MapSpec.affine(seg, "noncyclic", np.zeros((2, 2)), [1.5, 0.0])
    cert = certify_contraction(m)
    assert (cert.method, cert.alpha_hat, cert.samples) == ("exact", 0.0, 1)
    # B's side is decided on b* alone, whose image c is off B
    check = certify_mode(m)
    assert "exact" in check.flags and not check.passed
    assert_allclose(check.witness[0], seg.realizing_pair[1])
    assert check.worst_deviation == pytest.approx(1.0)


def test_constant_pair_on_touching_balls_stays_sampled():
    # radius-2 balls at p = 3 touching at (4, 2): B's points near (4, 2)
    # take A's piece, so the map is not one point per side
    doc = {"name": "touching", "space": {"dim": 2, "p": 3.0},
           "bodies": {"A": {"kind": "ball", "center": [2.0, 2.0], "radius": 2.0},
                      "B": {"kind": "ball", "center": [6.0, 2.0], "radius": 2.0}},
           "maps": [{"name": "c", "mode": "noncyclic", "kind": "constant-pair",
                     "a": [4.0, 2.0], "b": [4.0, 2.0]}],
           "runs": []}
    m = build(parse_instance(doc)).maps["c"]
    assert m.instance.dist <= MEMBER_TOL
    assert certify_contraction(m).method == "sampled"
    assert "exact" not in certify_mode(m).flags


def test_constant_pair_on_two_points_stays_degenerate():
    # every cross pair of two singletons realizes dist: no ratio is defined
    sp = LpSpace(2, 2.0)
    inst = ProximityInstance(Polytope(sp, [[0.0, 0.0]]), Polytope(sp, [[0.0, 1.0]]))
    m = MapSpec.sidewise(inst, "noncyclic", np.zeros((2, 2)), [0.0, 0.0],
                         np.zeros((2, 2)), [0.0, 1.0])
    assert "exact" in certify_mode(m).flags
    cert = certify_contraction(m)
    assert cert.method == "sampled" and cert.worst_pair is None


# ------------------------------------------------------------ nonexpansive
# Composition with P reads relative nonexpansiveness off the contraction
# certificate: alpha_hat <= 1 is d(Tx, Ty) <= d(x, y) on its pairs.


def test_contraction_implies_nonexpansive(seg):
    for m in (map_T(seg), map_S(seg)):
        assert compose_with_projector(m).mode != m.mode
        assert m.contraction.alpha_hat < 1.0


def test_swap_isometry_is_relatively_nonexpansive(seg):
    swap = MapSpec.affine(seg, "cyclic", [[1.0, 0.0], [0.0, -1.0]], [0.0, 1.0])
    ident = MapSpec.affine(seg, "noncyclic", np.eye(2))
    for m in (swap, ident):
        assert compose_with_projector(m).mode != m.mode
        assert m.contraction.alpha_hat == 1.0


def test_doubling_map_fails_nonexpansive(seg):
    # diag(2, 1) stretches along the segments, diag(1, 2) only the gap axis
    for matrix in ([[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]):
        doubling = MapSpec.affine(seg, "noncyclic", matrix)
        with pytest.raises(PreconditionError, match="not relatively nonexpansive") as err:
            compose_with_projector(doubling)
        alpha = doubling.contraction.alpha_hat
        assert alpha > 1.0 and f"alpha_hat {alpha:.6g}" in str(err.value)
        x, y = doubling.contraction.worst_pair
        assert f"{x.tolist()}, {y.tolist()}" in str(err.value)
        d_before = seg.space.distance(x, y)
        d_after = seg.space.distance(doubling.apply(x), doubling.apply(y))
        assert d_after > d_before


def test_box_pair_affine_contraction_certifies(rng):
    # flat boxes along the gap axis, diagonal contraction toward an anchor:
    # the map splits, and its modulus is the bound 0.5
    sp = LpSpace(3, 2.0)
    A = Box(sp, [0.0, 0.0, 0.0], [1.0, 2.0, 0.0])
    B = Box(sp, [0.0, 0.0, 1.5], [1.0, 2.0, 1.5])
    inst = ProximityInstance(A, B)
    anchor = np.array([0.5, 1.0, 0.0])
    M = np.diag([0.5, 0.5, 1.0])
    S = MapSpec.affine(inst, "noncyclic", M, (np.eye(3) - M) @ anchor)
    assert "exact" in certify_mode(S).flags
    cert = certify_contraction(S)
    assert (cert.method, cert.alpha_hat, cert.samples) == ("bound", 0.5, 0)
    # with B also past A along axis 1 the pair is apart along two axes, so
    # the same map does not split and is searched on the grid
    apart = ProximityInstance(A, Box(sp, [0.0, 3.0, 1.5], [1.0, 5.0, 1.5]))
    cert = certify_contraction(MapSpec.affine(apart, "noncyclic", M,
                                              (np.eye(3) - M) @ anchor))
    assert cert.method == "grid"
    assert 0.0 < cert.alpha_hat < 1.0


def _shrink_maps(inst: ProximityInstance, betas, shift: float) -> list:
    """diag(betas) with betas[0] = 1, and the same after the reflection
    x_0 -> shift - x_0, as the generator's box maps are built."""
    M = np.diag(betas)
    R = np.diag([-1.0] + [1.0] * (len(betas) - 1))
    return [MapSpec.affine(inst, "noncyclic", M),
            MapSpec.affine(inst, "cyclic", M @ R, M @ (shift * np.eye(len(betas))[0]))]


def _product_grid_alpha(m, bounds_a, bounds_b, k: int = 6) -> float:
    """Brute force: the largest ratio over every pair of a k-point grid per
    free axis of A and one of B, each map value taken as T x - T y."""

    def grid(lo, hi):
        axes = [np.linspace(l, h, k) if h > l else [l] for l, h in zip(lo, hi)]
        return np.array(list(itertools.product(*axes)))

    inst = m.instance
    X, Y = grid(*bounds_a), grid(*bounds_b)
    x, y = np.repeat(X, len(Y), axis=0), np.tile(Y, (len(X), 1))
    before = inst.space.norms(x - y) - inst.dist
    after = inst.space.norms(m.apply_many(x) - m.apply_many(y)) - inst.dist
    valid = before > inst.tol
    return float(np.max(after[valid] / before[valid]))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["box", "segment"])
def test_difference_grid_is_not_beaten_by_a_product_grid(kind, p):
    rng = np.random.default_rng([7, int(p * 2), kind == "box"])
    dim = 3 if kind == "box" else 4
    sp = LpSpace(dim, p)
    for _ in range(3):
        # B lies past A along axis 0 and meets A's shadow on the other axes,
        # so dist(A, B) is the gap along axis 0 and every ratio is >= 0
        if kind == "box":
            ext_a, ext_b = rng.uniform(0.0, 2.0, dim), rng.uniform(0.0, 2.0, dim)
        else:  # A along axis 1, B along axis 1, 2 or 3
            along = int(rng.integers(1, dim))
            ext_a = rng.uniform(0.5, 2.0) * np.eye(dim)[1]
            ext_b = rng.uniform(0.5, 2.0) * np.eye(dim)[along]
        lo_a = rng.uniform(-1.0, 1.0, dim)
        hi_a = lo_a + ext_a
        lo_b = rng.uniform(lo_a, hi_a) - rng.uniform(0.0, 1.0) * ext_b
        lo_b[0] = hi_a[0] + rng.uniform(0.3, 2.0)
        if kind == "segment":
            # ... but segments flat along axis 0 would split there, so B also
            # lies past A along an axis `past` where both are flat: the gap is
            # diagonal, and the maps, rigid along it, keep the grid
            past = 3 if along == 2 else 2
            lo_b[past] = hi_a[past] + rng.uniform(0.3, 2.0)
        hi_b = lo_b + ext_b
        if kind == "box":
            A, B = Box(sp, lo_a, hi_a), Box(sp, lo_b, hi_b)
        else:
            A, B = Polytope(sp, [lo_a, hi_a]), Polytope(sp, [lo_b, hi_b])
        inst = ProximityInstance(A, B)
        betas = np.concatenate([[1.0], rng.uniform(0.2, 0.8, dim - 1)])
        if kind == "segment":
            betas[past] = 1.0
        for m in _shrink_maps(inst, betas, float(hi_a[0] + lo_b[0])):
            cert = certify_contraction(m)
            assert cert.method == "grid"
            brute = _product_grid_alpha(m, (lo_a, hi_a), (lo_b, hi_b))
            assert brute <= cert.alpha_hat + 1e-12
            x, y = cert.worst_pair
            assert A.member(x, 1e-12) and B.member(y, 1e-12)
            ratio = ((sp.distance(m.apply(x), m.apply(y)) - inst.dist)
                     / (sp.distance(x, y) - inst.dist))
            assert_allclose(ratio, cert.alpha_hat, rtol=1e-12, atol=1e-12)


def test_difference_grid_is_small_at_dim_6():
    # the generated boxes are flat along the gap axis and meet each other's
    # shadow, so both maps split: their bound is the largest beta off the
    # gap axis, and nothing is sampled
    built = build(generate_random_instance(0, dim=6, p=1.5))
    inst = built.instance
    assert len(inst.A.corners()) == len(inst.B.corners()) == 32
    gap = int(np.flatnonzero(inst.v)[0])
    for m in built.maps.values():
        cert = m.contraction
        betas = np.abs(np.diag(m.matrix))
        assert (cert.method, cert.samples) == ("bound", 0)
        assert cert.alpha_hat == np.delete(betas, gap).max()
    # with B moved past A along another axis too, the maps do not split:
    # 10,000 samples, 32 x 32 vertex pairs and 4 rounds of 1024
    # differences, where a product grid of A x B evaluates about 4.2 million
    # pairs
    (lo_a, hi_a), (lo_b, hi_b) = inst.A.box, inst.B.box
    j = (gap + 1) % 6
    shift = (hi_a[j] - lo_b[j] + 1.0) * np.eye(6)[j]
    apart = ProximityInstance(inst.A, Box(inst.space, lo_b + shift, hi_b + shift))
    for m in built.maps.values():
        cert = certify_contraction(MapSpec.affine(apart, m.mode, m.matrix, m.offset))
        assert cert.method == "grid"
        assert cert.samples == 10_000 + 32 * 32 + 4 * 1024
        assert 0.0 < cert.alpha_hat < 1.0


def test_no_grid_past_sixteen_free_axes(monkeypatch):
    # 2 points on each of 20 free axes would be about a million differences
    sp = LpSpace(20, 2.0)
    lo = np.zeros(20)
    A = Box(sp, lo, np.ones(20))
    B = Box(sp, lo + 3.0 * np.eye(20)[0], np.ones(20) + 3.0 * np.eye(20)[0])
    m = MapSpec.affine(ProximityInstance(A, B), "noncyclic", 0.5 * np.eye(20))
    monkeypatch.setattr(mappings, "DEFAULT_CONTRACTION_SAMPLES", 1000)
    cert = certify_contraction(m)
    assert cert.method == "sampled"
    assert cert.samples == 1000
    assert 0.0 < cert.alpha_hat < 1.0


# ------------------------------------------------------------ shared samples


def _certificates_in_order(order: list) -> dict:
    """Certify the mode and contraction of two sampled maps on a fresh
    segment pair, in the given order; returns each map's certificate as
    plain values."""
    sp = LpSpace(2, 2.0)
    inst = ProximityInstance(Polytope(sp, [[1.0, 0.0], [2.0, 0.0]]),
                             Polytope(sp, [[1.0, 1.0], [2.0, 1.0]]), seed=5)
    T, S = map_T(inst), map_S(inst)
    maps = {"T": MapSpec.blackbox(inst, "cyclic", T.apply, name="T"),
            "S": MapSpec.blackbox(inst, "noncyclic", S.apply, name="S")}
    for name in order:
        maps[name].mode_check
        maps[name].contraction
    out = {}
    for name, m in maps.items():
        mode, con = m.mode_check, m.contraction
        out[name] = (mode.passed, "exact" in mode.flags, mode.worst_deviation, con.alpha_hat,
                     con.samples, con.method, np.asarray(con.worst_pair).tolist())
    return out


def test_certification_order_does_not_change_certificates():
    # both maps draw their samples from the instance's one store; whichever
    # is certified first draws them, and the certificates do not depend on it
    first = _certificates_in_order(["T", "S"])
    assert first == _certificates_in_order(["S", "T"])
    for cert in first.values():
        assert cert[5] == "sampled" and 0.0 < cert[3] < 1.0
        assert cert[4] == DEFAULT_CONTRACTION_SAMPLES  # not the mode checks' 1000
