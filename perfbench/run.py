"""Benchmark of `proxipair solve` and `proxipair verify`, one instance at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One caller drives `proxipair.cli.main` in a closed loop over whole
rounds of the workload's instances (see `inputs.py`) until S seconds have
passed, checks every output against `checks.py`, and prints one JSON object
as the last line of standard output.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced calls
of each instance and reports the per-layer split from `tracing.py`, plus the
tracing overhead.  Exits 0 only when every call exits 0 and every output is
correct.

Call times are reported in units of a fixed reference loop timed between
calls (`time_reference`): the shared machine the benchmark was tuned on
drifts in speed by up to a third for minutes at a time, and a call's time
divided by the reference time measured next to it cancels that drift.
"""

import os
import sys

# One thread per BLAS pool: the benchmark measures one single-threaded
# caller, and the machine it was tuned on has two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PROXIPAIR_OUT", None)  # it would override --out

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from inputs import WORKLOADS, document_path, make_documents  # noqa: E402
from tracing import COUNT_METRICS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
REF_EVERY_S = 0.5    # at most one reference sample per this much wall time
REF_NEAREST = 5      # reference samples a call's time is divided by
_REF_X = np.linspace(0.0, 1.0, 64)
_REF_Y = _REF_X[::-1].copy()


def time_reference() -> tuple:
    """Run the reference loop once; returns (midpoint, seconds).  Like the
    program, it mixes interpreter work with numpy calls on short vectors.
    Its code never changes, so its time tracks only the machine's speed."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1600):
        total += float((np.abs(_REF_X - _REF_Y * (i % 7)) ** 1.5).sum())
        total += sum(j * j for j in range(20))
    end = time.perf_counter()
    return (start + end) / 2, end - start


def in_reference_units(calls: list, refs: list) -> list:
    """Each (midpoint, seconds) call divided by the median of the
    REF_NEAREST reference samples nearest to it in time."""
    out = []
    for mid, seconds in calls:
        near = sorted(refs, key=lambda ref: abs(ref[0] - mid))[:REF_NEAREST]
        out.append(seconds / statistics.median(s for _, s in near))
    return out


def _time_setup(workload: str, seed: int, directory: Path) -> float:
    """Median wall time of fresh interpreters running prepare.py.  The caller
    has imported the program already, so bytecode caches are written."""
    argv = [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
            "--seed", str(seed), "--dir", str(directory)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return statistics.median(times)


class Instance:
    """One instance of the round: its document, CLI reference and outputs."""

    def __init__(self, doc: dict, ref: str, command: str, out: Path):
        self.doc, self.ref, self.command, self.out = doc, ref, command, out
        name = doc["name"]
        if command == "solve":
            self.outputs = [out / f"{name}-{r['name']}.summary.json" for r in doc["runs"]]
        else:
            self.outputs = [out / f"{name}.verify.json"]

    def call(self, cli):
        """Run the CLI once; returns (exit code or None if it raised, start,
        seconds, captured output)."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        argv = [self.command, self.ref, "--out", str(self.out)]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation
                code = None
                sink.write(f"{type(exc).__name__}: {exc}\n")
            elapsed = time.perf_counter() - start
        return code, start, elapsed, sink.getvalue()

    def check(self) -> list:
        problems = []
        for path in self.outputs:
            if not path.is_file():
                problems.append(f"{self.doc['name']}: {path.name} was not written")
                continue
            data = json.loads(path.read_text(encoding="utf-8"))
            if self.command == "solve":
                problems += checks.check_solve_summary(self.doc, data)
            else:
                problems += checks.check_verify_report(self.doc, data)
        return problems


class Tally:
    """Attempted and failed calls, call times, and the wrong outputs found
    among the calls that wrote outputs."""

    def __init__(self):
        self.failures = []
        self.problems = []
        self.calls = []  # (instance name, exit code, start, seconds), in call order

    @property
    def times(self) -> list:
        """(midpoint, seconds) of the calls that did not fail."""
        return [(start + t / 2, t) for _, code, start, t in self.calls if code == 0]

    @property
    def correct(self) -> bool:
        """Every call exited 0 and every output it wrote is right."""
        return not self.failures and not self.problems

    def run(self, inst: Instance, cli) -> float:
        code, start, elapsed, text = inst.call(cli)
        self.calls.append((inst.doc["name"], code, start, elapsed))
        if code != cli.EXIT_OK:
            last = (text.strip().splitlines() or [""])[-1]
            self.failures.append(f"{inst.doc['name']}: exit {code}: {last}")
        # An unconverged run or a failed verify check still writes its
        # outputs, and exits EXIT_NOT_CONVERGED; the checks say what is wrong.
        if code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED):
            self.problems += inst.check()
        return elapsed


def _distance_problems(instances: list) -> list:
    """Program's dist(A, B) for the polytope workloads, rebuilt once per
    instance after the timed loop: `verify` does not report it."""
    from proxipair.instances import build, parse_instance
    problems = []
    for inst in instances:
        dist = build(parse_instance(inst.doc)).instance.dist
        problems += checks.check_distance(inst.doc, dist)
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "proxipair" / "__init__.py").is_file():
        print(f"error: no proxipair sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import proxipair.cli as cli
    from prepare import touch_first_use
    from proxipair.instances import builtin_instance

    docs = make_documents(args.workload, args.seed)
    touch_first_use(docs)  # in this process too, before anything is timed
    run_dir = HERE / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_s = _time_setup(args.workload, args.seed, run_dir / "instances")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    command, _ = WORKLOADS[args.workload]
    instances = []
    for doc in docs:
        if isinstance(doc, str):
            ref, doc = doc, builtin_instance(doc).to_dict()
        else:
            ref = str(document_path(run_dir / "instances", doc))
        instances.append(Instance(doc, ref, command, run_dir / "outputs"))

    tally = Tally()
    tracer = None
    untraced = []
    traced = []
    refs = [time_reference()]
    if args.trace:
        tracer = Tracer()
    # Whole rounds, at least one, ending at the round boundary nearest to
    # the deadline.
    deadline = time.perf_counter() + args.seconds
    while True:
        round_start = time.perf_counter()
        for inst in instances:
            if tracer is None:
                tally.run(inst, cli)
            else:
                untraced.append(tally.run(inst, cli))
                with tracer.installed():
                    traced.append(tally.run(inst, cli))
            if time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                refs.append(time_reference())
        now = time.perf_counter()
        if deadline - now <= (now - round_start) / 2:
            break
    if command == "verify":
        tally.problems += _distance_problems(instances)
    peak_rss_mb = _peak_rss_mb()
    with open(run_dir / "calls.csv", "w", encoding="utf-8") as handle:
        handle.write("instance,exit_code,start_s,seconds\n")
        handle.writelines(f"{n},{c},{s!r},{t!r}\n" for n, c, s, t in tally.calls)
    with open(run_dir / "refs.csv", "w", encoding="utf-8") as handle:
        handle.write("midpoint_s,seconds\n")
        handle.writelines(f"{m!r},{t!r}\n" for m, t in refs)

    print(f"{args.workload} seed {args.seed}: attempted {len(tally.calls)}, "
          f"failed {len(tally.failures)}, {len(tally.problems)} problems")
    for problem in (tally.failures + tally.problems)[:20]:
        print(f"  {problem}")

    if not tally.times:
        print("error: every call failed; no timings to report", file=sys.stderr)
        return 1
    seconds = [t for _, t in tally.times]
    print(f"  wall time per call: median {statistics.median(seconds):.6g} s, "
          f"mean {statistics.mean(seconds):.6g} s; reference loop: median "
          f"{statistics.median(t for _, t in refs):.6g} s over {len(refs)} samples")
    if tracer is None:
        relative = in_reference_units(tally.times, refs)
        metrics = {
            "setup_s": (setup_s, "s"),
            "instance_ref.p50": (statistics.median(relative), "ref"),
            "instance_ref.mean": (statistics.mean(relative), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.write(run_dir / "trace")
        layers = tracer.per_instance(len(traced))
        metrics = {name: (value, "count" if name in COUNT_METRICS else "s")
                   for name, value in layers.items()}
        metrics["trace.overhead_s"] = ((sum(traced) - sum(untraced)) / len(traced), "s")
        metrics["trace.untraced_instance_s"] = (sum(untraced) / len(untraced), "s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:14.6g} {unit}")

    result = {
        "correct": tally.correct,
        "attempted": len(tally.calls),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
