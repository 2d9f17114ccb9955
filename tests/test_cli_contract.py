"""Contract of the command line: whatever its numeric arguments, a call ends
in exit 0, 1 or 2, writes at most one line to stderr and no warning, and
returns in bounded time.

Arguments are drawn with hypothesis, zero, negative and non-finite values
included.  The ranges are bounded so that each call stays small: `gen`
writes dense dim x dim map matrices, so --dim stays at 12 or less (6 for
`bench`, which also solves).  A finite --p for `gen` goes up to 1000, where
|x|^p overflows for |x| above 2.
"""

import contextlib
import io
import math
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from proxipair.cli import main
from proxipair.instances import GENERATOR_FAMILIES

CALL_SECONDS = 10.0
EDGE_FLOATS = [0.0, -0.0, -1.0, 1.0, math.inf, -math.inf, math.nan]

CONTRACT = settings(max_examples=20, deadline=None, database=None, derandomize=True)


def floats(lo: float, hi: float):
    """Finite floats in [lo, hi], plus zero, negative and non-finite values."""
    return st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(lo, hi))


seeds = st.integers(-2, 3)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("contract"))


def call(argv: list) -> int:
    """Run the CLI once and check the contract; returns the exit code."""
    err = io.StringIO()
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    elapsed = time.perf_counter() - started
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    assert len(lines) <= 1, (argv, lines)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert elapsed < CALL_SECONDS, (argv, elapsed)
    return code


@CONTRACT
@given(instance=st.sampled_from(["segpair", "ballpair"]), tol=floats(1e-12, 1e3),
       max_iter=st.integers(-3, 200), seed=seeds)
def test_solve_contract(out_dir, instance, tol, max_iter, seed):
    code = call(["solve", instance, f"--tol={tol!r}", f"--max-iter={max_iter}",
                 f"--seed={seed}", "--out", out_dir])
    if not math.isfinite(tol) or not tol > 0 or max_iter < 0 or seed < 0:
        assert code == 1


@CONTRACT
@given(instance=st.sampled_from(["segpair", "ballpair"]),
       samples=st.integers(-3, 30), seed=seeds)
def test_verify_contract(out_dir, instance, samples, seed):
    code = call(["verify", instance, f"--samples={samples}", f"--seed={seed}",
                 "--out", out_dir])
    if samples < 1 or seed < 0:
        assert code == 1


@CONTRACT
@given(family=st.sampled_from(GENERATOR_FAMILIES), dim=st.integers(-3, 12),
       p=floats(1.0, 1000.0), gap=floats(1e-6, 1e6), seed=seeds)
def test_gen_contract(family, dim, p, gap, seed):
    code = call(["gen", "--family", family, f"--dim={dim}", f"--p={p!r}",
                 f"--gap={gap!r}", f"--seed={seed}", "--stdout"])
    if dim < 1 or not 1.0 < p < math.inf or not 0.0 < gap < math.inf or seed < 0:
        assert code == 1


@CONTRACT
@given(count=st.integers(-2, 2), dim=st.integers(-1, 6), p=floats(1.0, 8.0),
       seed=seeds)
def test_bench_contract(out_dir, count, dim, p, seed):
    code = call(["bench", f"--count={count}", f"--dim={dim}", f"--p={p!r}",
                 f"--seed={seed}", "--out", out_dir])
    if count < 1 or dim < 1 or not 1.0 < p < math.inf or seed < 0:
        assert code == 1
