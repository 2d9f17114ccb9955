"""Command line front end: solve, verify, gen, and bench over instance files.

Exit codes: 0 on success, 1 on input errors (bad files, unknown names,
failed preconditions, inputs too large for memory), 2 when a solver fails to
converge or a verification check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .errors import PreconditionError, ProjectionConvergenceError, ProxipairError
from .instances import (
    BUILTIN_INSTANCES,
    GENERATOR_FAMILIES,
    build,
    builtin_instance,
    generate_random_instance,
    load_instance,
    serialize_instance,
)
from .solvers import DEFAULT_MAX_ITER
from .verification import run_verification

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(ref: str):
    """Instance from a builtin name or a JSON file path."""
    if ref in BUILTIN_INSTANCES:
        return builtin_instance(ref)
    return load_instance(ref)


def _cmd_solve(args) -> int:
    doc = _load(args.instance)
    built = build(doc, seed=args.seed)
    run_names = args.run or sorted(built.runs)
    if not run_names:
        print(f"instance {doc.name!r} declares no runs", file=sys.stderr)
        return EXIT_INPUT
    out = _out_dir(args)
    worst = EXIT_OK
    for name in run_names:
        result = built.run(name, tol=args.tol, max_iter=args.max_iter)
        stem = f"{doc.name}-{name}"
        trace_path = out / f"{stem}.trace.csv"
        with open(trace_path, "w", encoding="utf-8") as handle:
            result.trace.write_csv(handle)
        summary = result.summary()
        summary["instance"] = doc.name
        summary["run"] = name
        summary["trace"] = trace_path.name
        with open(out / f"{stem}.summary.json", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        status = "converged" if result.converged else "did not converge"
        print(f"{doc.name}/{name}: {status} in {result.trace.iterations_used} "
              f"iterations, residual {result.residual:.3e} "
              f"-> {out / (stem + '.summary.json')}")
        if not result.converged:
            worst = EXIT_NOT_CONVERGED
    return worst


def _cmd_verify(args) -> int:
    doc = _load(args.instance)
    built = build(doc, seed=args.seed)
    report = run_verification(built, samples=args.samples)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        flags = f" [{','.join(check.flags)}]" if check.flags else ""
        print(f"[{status}] {doc.name} {check.name}{flags} "
              f"worst={check.worst_deviation:.3e} threshold={check.threshold:.1e}")
    out = _out_dir(args)
    path = out / f"{doc.name}.verify.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    total = len(report.checks)
    passed = sum(c.passed for c in report.checks)
    print(f"{doc.name}: {passed}/{total} checks passed -> {path}")
    return EXIT_OK if report.passed else EXIT_NOT_CONVERGED


def _cmd_gen(args) -> int:
    doc = generate_random_instance(args.seed, dim=args.dim, p=args.p,
                                   family=args.family, gap=args.gap)
    text = serialize_instance(doc)
    if args.stdout:
        sys.stdout.write(text)
        return EXIT_OK
    out = _out_dir(args)
    path = out / f"{doc.name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {path}")
    return EXIT_OK


def _error_code(exc: ProxipairError) -> int:
    if isinstance(exc, ProjectionConvergenceError):
        return EXIT_NOT_CONVERGED
    return EXIT_INPUT


def _cmd_bench(args) -> int:
    """Solve every run of a generated batch.  An instance that raises is
    recorded with its error and the rest still run; the exit code is the
    largest one `main` would give for a single instance."""
    if args.count < 1:
        raise PreconditionError(f"count must be at least 1, got {args.count}")
    docs = [generate_random_instance(seed, dim=args.dim, p=args.p,
                                     family=args.family)
            for seed in range(args.seed, args.seed + args.count)]
    rows = []
    code = EXIT_OK
    started = time.perf_counter()
    for doc in docs:
        doc_started = time.perf_counter()
        try:
            built = build(doc)
            results = {name: built.run(name) for name in built.runs}
        except ProxipairError as exc:
            elapsed = time.perf_counter() - doc_started
            ok, worst, error = False, None, str(exc)
            code = max(code, _error_code(exc))
            print(f"{doc.name}: error: {exc}")
        else:
            elapsed = time.perf_counter() - doc_started
            ok = all(r.converged for r in results.values())
            worst = max((r.residual for r in results.values()), default=0.0)
            error = None
            code = max(code, EXIT_OK if ok else EXIT_NOT_CONVERGED)
            print(f"{doc.name}: {'ok' if ok else 'FAILED'} "
                  f"{elapsed * 1000:.1f} ms worst_residual={worst:.2e}")
        rows.append({"instance": doc.name, "seconds": elapsed, "converged": ok,
                     "worst_residual": worst, "error": error})
    wall = time.perf_counter() - started
    out = _out_dir(args)
    path = out / f"bench-{args.family}.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"{len(rows)} instances in {wall:.2f} s (wall) -> {path}")
    return code


@functools.cache  # built once per process; parsing leaves no state in it
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxipair",
        description="Best proximity points and pairs for cyclic and noncyclic "
                    "contractions between convex bodies in lp spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=0,
                        help="random seed: of the generator for gen and bench; "
                             "for solve and verify, the instance's, from which "
                             "map certification and every check draw")

    solve = sub.add_parser("solve", parents=[common],
                           help="run declared solver runs, write traces and summaries")
    solve.add_argument("instance",
                       help=f"instance JSON path or builtin {sorted(BUILTIN_INSTANCES)}")
    solve.add_argument("--run", action="append",
                       help="run name (repeatable; default: all declared runs)")
    solve.add_argument("--tol", type=float, default=None,
                       help="override the instance tolerance")
    solve.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", parents=[common],
                            help="run the numerical check battery on an instance")
    verify.add_argument("instance",
                        help=f"instance JSON path or builtin {sorted(BUILTIN_INSTANCES)}")
    verify.add_argument("--samples", type=int, default=1000,
                        help="sample count per property check")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", parents=[common],
                         help="generate a random instance with a known distance")
    gen.add_argument("--family", default="separated-boxes",
                     choices=sorted(GENERATOR_FAMILIES))
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--p", type=float, default=2.0)
    gen.add_argument("--gap", type=float, default=None,
                     help="body distance (default: drawn from the seed)")
    gen.add_argument("--stdout", action="store_true",
                     help="print the instance instead of writing a file")
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", parents=[common],
                           help="generate, build, and solve a batch of instances")
    bench.add_argument("--family", default="separated-boxes",
                       choices=sorted(GENERATOR_FAMILIES))
    bench.add_argument("--dim", type=int, default=2)
    bench.add_argument("--p", type=float, default=2.0)
    bench.add_argument("--count", type=int, default=8)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise PreconditionError(f"seed must be at least 0, got {args.seed}")
        return args.func(args)
    except ProxipairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _error_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # e.g. `gen --dim 100000`, whose dense dim x dim map matrices do not fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
