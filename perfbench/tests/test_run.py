"""A run is correct only when every call exits 0 and writes right outputs.
Run with `python3 -m pytest perfbench/tests`."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from inputs import make_documents  # noqa: E402


class FakeCli:
    """Stands in for `proxipair.cli`: writes a fixed verify report and
    returns a fixed exit code."""
    EXIT_OK, EXIT_NOT_CONVERGED = 0, 2

    def __init__(self, code, report):
        self.code, self.report = code, report

    def main(self, argv):
        if self.report is not None:
            out = Path(argv[argv.index("--out") + 1])
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{Path(argv[1]).stem}.verify.json").write_text(json.dumps(self.report))
        return self.code


def _report(passed):
    names = ["projector-cyclic-distance", "projector-isometry", "projector-affine",
             "projector-involution", "projector-continuity"]
    return {"passed": passed, "checks": [
        {"name": n, "passed": passed or i != 2, "flags": ["degenerate"]}
        for i, n in enumerate(names)]}


def _tally(tmp_path, *clis):
    doc = make_documents("verify-polygons", seed=3)[0]
    inst = run.Instance(doc, str(tmp_path / f"{doc['name']}.json"), "verify", tmp_path)
    tally = run.Tally()
    for cli in clis:
        tally.run(inst, cli)
    return tally


def test_right_calls_are_correct(tmp_path):
    tally = _tally(tmp_path, FakeCli(0, _report(True)), FakeCli(0, _report(True)))
    assert tally.correct and not tally.failures and len(tally.times) == 2


def test_one_failed_call_makes_the_run_incorrect(tmp_path):
    tally = _tally(tmp_path, FakeCli(0, _report(True)), FakeCli(2, _report(False)))
    assert not tally.correct
    assert len(tally.failures) == 1
    assert any("projector-affine failed" in p for p in tally.problems)


def test_a_call_that_writes_nothing_makes_the_run_incorrect(tmp_path):
    tally = _tally(tmp_path, FakeCli(0, _report(True)), FakeCli(1, None))
    assert not tally.correct and len(tally.failures) == 1 and not tally.problems


def test_call_times_are_divided_by_the_nearest_reference_samples():
    refs = [(float(t), 0.01) for t in range(10)] + [(100.0 + t, 0.02) for t in range(10)]
    assert run.in_reference_units([(3.0, 0.5), (104.0, 0.5)], refs) == [50.0, 25.0]
