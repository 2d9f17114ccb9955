import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxipair.cli import main
from proxipair.errors import InstanceFormatError
from proxipair.instances import (
    GENERATOR_FAMILIES,
    build,
    builtin_instance,
    generate_random_instance,
    load_instance,
    parse_instance,
    serialize_instance,
)


# ------------------------------------------------------------- builtins


def test_segpair_builtin_builds():
    built = build(builtin_instance("segpair"))
    assert built.instance.dist == pytest.approx(1.0, abs=1e-12)
    assert sorted(built.maps) == ["S", "T", "identity", "swap"]
    assert sorted(built.runs) == ["picard-T", "project-S", "reduce-S", "reduce-T"]


def test_ballpair_builtin_builds():
    built = build(builtin_instance("ballpair"))
    assert built.instance.dist == pytest.approx(2.0, abs=1e-9)
    a, b = built.instance.realizing_pair
    assert_allclose(a, [-1.0, 0.0], atol=1e-9)
    assert_allclose(b, [1.0, 0.0], atol=1e-9)


def test_unknown_builtin_rejected():
    with pytest.raises(InstanceFormatError, match="available"):
        builtin_instance("nope")


def test_builtin_runs_converge():
    built = build(builtin_instance("segpair"))
    for name in built.runs:
        result = built.run(name)
        assert result.converged
        assert result.residual <= 1e-8


def test_unknown_run_rejected():
    built = build(builtin_instance("segpair"))
    with pytest.raises(InstanceFormatError, match="picard-T"):
        built.run("nope")


def test_constant_pair_map_swaps_sides():
    built = build(builtin_instance("ballpair"))
    cyc = built.maps["const-cyclic"]
    assert_allclose(cyc.apply([-2.0, 0.0]), [1.0, 0.0], atol=0)
    assert_allclose(cyc.apply([2.0, 0.0]), [-1.0, 0.0], atol=0)
    non = built.maps["const-noncyclic"]
    assert_allclose(non.apply([-2.0, 0.0]), [-1.0, 0.0], atol=0)


# -------------------------------------------------------- serialization


def test_serialize_parse_round_trip_is_byte_stable():
    for name in ("segpair", "ballpair"):
        doc = builtin_instance(name)
        text = serialize_instance(doc)
        again = serialize_instance(parse_instance(json.loads(text)))
        assert again == text


def test_load_instance_from_file(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text(serialize_instance(builtin_instance("segpair")))
    doc = load_instance(path)
    assert doc.name == "segpair"
    assert build(doc).instance.dist == pytest.approx(1.0)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="JSON"):
        load_instance(path)


# ----------------------------------------------------- parse diagnostics


def _segpair_dict():
    return json.loads(serialize_instance(builtin_instance("segpair")))


def test_parse_reports_missing_body():
    raw = _segpair_dict()
    del raw["bodies"]["B"]
    with pytest.raises(InstanceFormatError, match="bodies"):
        parse_instance(raw)


def test_parse_reports_bad_exponent():
    raw = _segpair_dict()
    raw["space"]["p"] = 1.0
    with pytest.raises(InstanceFormatError, match="space.p"):
        parse_instance(raw)


def test_parse_reports_vertex_dimension():
    raw = _segpair_dict()
    raw["bodies"]["A"]["vertices"][1] = [1.0, 2.0, 3.0]
    with pytest.raises(InstanceFormatError, match=r"bodies.A.vertices\[1\]"):
        parse_instance(raw)


def test_parse_reports_unknown_solver():
    raw = _segpair_dict()
    raw["runs"][0]["solver"] = "magic"
    with pytest.raises(InstanceFormatError, match=r"runs\[0\].solver"):
        parse_instance(raw)


def test_parse_reports_unknown_map_reference():
    raw = _segpair_dict()
    raw["runs"][0]["map"] = "ghost"
    with pytest.raises(InstanceFormatError, match="ghost"):
        parse_instance(raw)


def test_parse_reports_duplicate_map_name():
    raw = _segpair_dict()
    raw["maps"].append(dict(raw["maps"][0]))
    with pytest.raises(InstanceFormatError, match="duplicate"):
        parse_instance(raw)


def test_parse_reports_bad_radius():
    raw = json.loads(serialize_instance(builtin_instance("ballpair")))
    raw["bodies"]["A"]["radius"] = -1.0
    with pytest.raises(InstanceFormatError, match="bodies.A.radius"):
        parse_instance(raw)


def test_parse_reports_inverted_box():
    raw = _segpair_dict()
    raw["bodies"]["A"] = {"kind": "box", "lower": [0.0, 1.0], "upper": [1.0, 0.0]}
    with pytest.raises(InstanceFormatError, match=r"bodies.A.lower\[1\]"):
        parse_instance(raw)


def test_parse_reports_bad_matrix_shape():
    raw = _segpair_dict()
    raw["maps"][0]["matrix"] = [[1.0, 0.0]]
    with pytest.raises(InstanceFormatError, match=r"maps\[0\].matrix"):
        parse_instance(raw)


def test_parse_reports_nonfinite_number():
    raw = _segpair_dict()
    raw["tol"] = float("nan")
    with pytest.raises(InstanceFormatError, match="tol"):
        parse_instance(raw)


def test_verify_rejects_a_field_the_body_kind_does_not_define(tmp_path, capsys):
    # the 3-D unit simplex with the unit cube's faces: read as either body,
    # it would pass verify, so a field a polytope lacks must not be dropped
    simplex = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    cube = [{"normal": list(s * e), "offset": float(s > 0)}
            for s in (-1.0, 1.0) for e in np.eye(3)]
    doc = {"name": "simplex-cube", "space": {"dim": 3, "p": 2.0},
           "bodies": {"A": {"kind": "polytope", "vertices": simplex, "halfspaces": cube},
                      "B": {"kind": "box", "lower": [3.0, 3.0, 3.0],
                            "upper": [4.0, 4.0, 4.0]}}}
    with pytest.raises(InstanceFormatError, match=r"^bodies\.A\.halfspaces: unknown field"):
        parse_instance(doc)
    path = tmp_path / "simplex-cube.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "bodies.A.halfspaces" in err[0]
    for kind, extra in (("ball", "lower"), ("box", "center")):
        raw = _segpair_dict()
        raw["bodies"]["B"] = {"kind": kind, "center": [0.0, 0.0], "radius": 1.0,
                              "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
        with pytest.raises(InstanceFormatError, match=rf"^bodies\.B\.{extra}: unknown"):
            parse_instance(raw)


# ------------------------------------------------- mode re-certification


def test_build_rejects_mislabeled_mode():
    doc = builtin_instance("segpair")
    doc.maps[0]["mode"] = "noncyclic"  # the map actually swaps the bodies
    with pytest.raises(InstanceFormatError, match="declared noncyclic"):
        build(doc)


def test_build_keeps_the_mode_certificate():
    built = build(builtin_instance("segpair"), seed=3)
    T = built.maps["T"]
    inst = built.instance
    assert inst.seed == 3 and "mode_check" in vars(T) and T.mode_check.passed
    stream = np.random.default_rng(3)  # the seed reaches every certifier's samples
    xs, ys = inst.cross_samples(20)
    assert np.array_equal(xs, inst.A.sample(stream, 20))
    assert np.array_equal(ys, inst.B.sample(stream, 20))
    assert "contraction" not in vars(T)  # estimated when a solver first needs it
    built.run("picard-T")
    assert vars(T)["contraction"].method == "bound"


# -------------------------------------------------------------- generator


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_generated_distance_matches_metadata(family, p):
    doc = generate_random_instance(11, dim=3, p=p, family=family)
    built = build(doc)
    assert built.instance.dist == pytest.approx(doc.metadata["expected_dist"],
                                                abs=1e-7)


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_generated_runs_converge(family):
    built = build(generate_random_instance(4, dim=2, p=2.0, family=family))
    for name in built.runs:
        result = built.run(name)
        assert result.converged, name
        assert result.residual <= 1e-8


def test_generator_is_deterministic():
    kwargs = dict(dim=3, p=1.5, family="separated-balls")
    first = serialize_instance(generate_random_instance(99, **kwargs))
    second = serialize_instance(generate_random_instance(99, **kwargs))
    assert first == second


def test_generator_seeds_differ():
    a = serialize_instance(generate_random_instance(1))
    b = serialize_instance(generate_random_instance(2))
    assert a != b


def test_generator_gap_override():
    doc = generate_random_instance(5, gap=0.75, family="separated-boxes")
    assert doc.metadata["expected_dist"] == 0.75
    assert build(doc).instance.dist == pytest.approx(0.75, abs=1e-9)


def test_generator_rejects_bad_input():
    with pytest.raises(InstanceFormatError, match="family"):
        generate_random_instance(0, family="mystery")
    with pytest.raises(InstanceFormatError, match="dim"):
        generate_random_instance(0, dim=9, family="parallel-polytopes")
    with pytest.raises(InstanceFormatError, match="dim"):
        generate_random_instance(0, dim=1, family="parallel-polytopes")
    with pytest.raises(InstanceFormatError, match="gap"):
        generate_random_instance(0, gap=-1.0)


def test_generated_bodies_are_translates():
    doc = generate_random_instance(21, dim=4, p=2.0, family="separated-boxes")
    lo_a = np.array(doc.bodies["A"]["lower"])
    lo_b = np.array(doc.bodies["B"]["lower"])
    shift = lo_b - lo_a
    assert np.count_nonzero(shift) == 1
    assert shift.max() == pytest.approx(doc.metadata["expected_dist"])
