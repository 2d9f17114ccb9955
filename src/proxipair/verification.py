"""Instance-level verification: every structural claim checked numerically.

Given a built instance this runs the projector property suite, commutation,
mode-flip and inherited-modulus checks for the declared maps, executes the
declared solver runs, and validates the orbit identities the reductions rely
on.  Each check is a `CheckResult`, defined in `mappings`: its worst
observed deviation against an explicit threshold.  The report is JSON-ready
for the command line.  The map checks read the certificates kept on each map
and on its composition with P (`MapSpec.mode_check`, `contraction` and
`composed`): the mode-flip check is the composed map's mode check, renamed,
and only the inherited-modulus check samples a composed map again.  The
checks take their points from the instance's samples, on which the maps were
certified; only the uniqueness starts and the projector checks' further
draws have generators of their own, seeded with the instance's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import PreconditionError, ProxipairError
from .instances import BuiltInstance
from .mappings import CheckResult, certify_contraction
from .operators import check_commutation, compose_with_projector, verify_projector_properties

IDENTITY_THRESHOLD = 1e-9
ODD_MEMBERSHIP_THRESHOLD = 1e-8
UNIQUENESS_THRESHOLD = 1e-6
UNIQUENESS_STARTS = 5
GAP_DECAY_SLACK = 1e-9
INHERITED_MODULUS_SLACK = 1e-6


@dataclass
class VerificationReport:
    instance_name: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance_name,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _map_checks(built: BuiltInstance, samples: int, flags: list) -> list:
    """Commutation for noncyclic maps; mode flip and inherited modulus for
    certified contractions.

    The inherited-modulus check re-samples the composed map and compares its
    modulus with the one it inherited from the outer map, which keeps the
    inheritance claim itself under test.  The mode flip passes once the
    composition exists: `compose_with_projector` raises unless the composed
    map, of the flipped mode, passes its mode check.  Every check here
    samples the proximal sets, so each carries `flags`.
    """
    checks = []
    for name, m in built.maps.items():
        if m.mode == "noncyclic":
            checks.append(replace(check_commutation(m, samples=samples), flags=list(flags)))
        if not m.contraction.alpha_hat < 1.0:
            continue
        flip = f"map-{name}-mode-flip", "composition-flips-mode"
        modulus = f"map-{name}-inherited-modulus", "composition-keeps-modulus"
        try:
            composed = compose_with_projector(m)
            inherited = composed.contraction.alpha_hat
            resampled = certify_contraction(composed).alpha_hat
        except ProxipairError as exc:
            checks += [
                CheckResult.failed(*flip, built.instance.tol * 10.0, str(exc),
                                   flags=list(flags)),
                CheckResult.failed(*modulus, INHERITED_MODULUS_SLACK, str(exc),
                                   flags=list(flags))]
            continue
        checks += [
            replace(composed.mode_check, name=flip[0], tag=flip[1], flags=list(flags),
                    details=f"composed map certifies as {composed.mode}"),
            CheckResult(*modulus,
                        passed=resampled <= inherited + INHERITED_MODULUS_SLACK,
                        worst_deviation=max(resampled - inherited, 0.0),
                        threshold=INHERITED_MODULUS_SLACK, flags=list(flags),
                        details=f"re-sampled alpha {resampled:.6g}, "
                                f"inherited alpha {inherited:.6g}")]
    return checks


def _outcome(built: BuiltInstance, run_name: str, x0=None):
    """The run's SolveResult, or the error it raised."""
    try:
        return built.run(run_name, x0=x0)
    except ProxipairError as exc:
        return exc


def _run_checks(built: BuiltInstance, outcomes: dict) -> list:
    """The checks of each declared run, from its outcome."""
    checks = []
    residual_threshold = built.doc.tol * 10.0
    for run_name, result in outcomes.items():
        if isinstance(result, ProxipairError):
            checks.append(CheckResult.failed(f"run-{run_name}-converges",
                                             "solver-run-converges", residual_threshold,
                                             str(result)))
            continue
        checks.append(CheckResult(
            name=f"run-{run_name}-converges",
            tag="solver-run-converges",
            passed=result.converged and result.residual <= residual_threshold,
            worst_deviation=result.residual,
            threshold=residual_threshold,
            details=f"{result.trace.iterations_used} iterations, "
                    f"alpha_hat={result.alpha_hat:.4f}"))

        alpha = result.alpha_hat
        gaps = result.trace.gaps
        # the excess of each gap over alpha times the one before, and 0
        excess = np.append(gaps[1:] - alpha * gaps[:-1], 0.0)
        # a trace whose gaps all stay within the slack of 0 cannot fail
        closed = bool(np.all(np.abs(gaps) <= GAP_DECAY_SLACK))
        checks.append(CheckResult.worst_of(
            f"run-{run_name}-gap-decay", "gap-decays-geometrically", excess,
            GAP_DECAY_SLACK, flags=["vacuous"] if closed else [],
            details=f"per-step decay factor bound {alpha:.4f}"
                    + ("; every gap is within the slack of 0" if closed else "")))

        if result.identity_deviation is not None:
            checks.append(CheckResult.worst_of(
                f"run-{run_name}-orbit-identity", "even-subsequence-identity",
                [result.identity_deviation], IDENTITY_THRESHOLD,
                details="composition orbit matches direct orbit at even steps"))
        if result.odd_membership_deviation is not None:
            checks.append(CheckResult.worst_of(
                f"run-{run_name}-odd-membership", "odd-iterates-remain-proximal",
                [result.odd_membership_deviation], ODD_MEMBERSHIP_THRESHOLD,
                details="odd composition iterates stay in the proximal part of B"))
    return checks


def _uniqueness_checks(built: BuiltInstance, flags: list, outcomes: dict) -> list:
    """Each direct run from UNIQUENESS_STARTS - 1 sampled proximal starts and
    its declared start, whose outcome `outcomes` already holds."""
    checks = []
    inst = built.instance
    rng = np.random.default_rng(inst.seed)
    direct = [name for name, spec in built.runs.items()
              if spec["solver"] in ("picard", "project")]
    for run_name in direct:
        starts = inst.sample_proximal("A", UNIQUENESS_STARTS - 1, rng)
        name, tag = f"run-{run_name}-uniqueness", "limit-independent-of-start"
        solutions = []
        for x0 in [*starts, None]:
            result = outcomes[run_name] if x0 is None else _outcome(built, run_name, x0)
            if isinstance(result, ProxipairError):
                checks.append(CheckResult.failed(name, tag, UNIQUENESS_THRESHOLD,
                                                 str(result), flags=list(flags)))
                break
            solutions.append(result.x_star if result.x_star is not None
                             else result.pair[0])
        else:
            pts = np.array(solutions)
            checks.append(CheckResult.worst_of(
                name, tag, inst.space.norms(pts - pts[0]), UNIQUENESS_THRESHOLD,
                flags=list(flags),
                details=f"{UNIQUENESS_STARTS} starts sampled from the proximal part of A"))
    return checks


def run_verification(built: BuiltInstance, samples: int = 1000) -> VerificationReport:
    """Full check battery; failing maps produce failing checks, not errors.

    The checks draw from the instance's seed, as the maps' certificates did
    when the instance was built.
    """
    if samples < 1:
        raise PreconditionError(f"samples must be at least 1, got {samples}")
    # Singleton proximal sets make every check that samples them vacuous,
    # and every such check carries this flag, the projector checks too
    flags = ["degenerate"] if built.instance.proximal_sets_are_points else []
    checks = verify_projector_properties(built.instance, samples=samples)
    checks.extend(_map_checks(built, samples, flags))
    # each declared run is made once; the uniqueness checks reuse its outcome
    outcomes = {name: _outcome(built, name) for name in built.runs}
    checks.extend(_run_checks(built, outcomes))
    checks.extend(_uniqueness_checks(built, flags, outcomes))
    return VerificationReport(instance_name=built.doc.name, checks=checks)
