"""Instance-level verification: every structural claim checked numerically.

Given a built instance this runs the projector property suite, commutation,
mode-flip, inherited-modulus and lowering checks for the declared maps,
executes the declared solver runs, and validates the orbit identities the
reductions rely on.  Each check is a `CheckResult`, defined in `mappings`:
its worst observed deviation against an explicit threshold.  The report is
JSON-ready for the command line.  The map checks read the certificates kept
on each map and on its composition with P (`MapSpec.mode_check`,
`contraction` and `composed`): the mode-flip check is the composed map's
mode check, renamed.  The inherited-modulus check evaluates the composed
map's worst ratio: on the proximal samples of the other checks when the
outer map's modulus is a proven bound, on a fresh 10,000-pair proximal
draw when it is a lower estimate.  The lowering check holds the composed
map to the outer map at the translates x + v and x - v.  Each declared run
is made once: a direct run ("picard" or "project") as one stacked run from
its declared start and its UNIQUENESS_STARTS - 1 sampled uniqueness
starts, which gives both its own checks and its uniqueness check.  The
checks take their points from the instance's samples, on which the maps
were certified; only the uniqueness starts and the projector checks'
further draws have generators of their own, seeded with the instance's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import PreconditionError, ProxipairError
from .instances import BuiltInstance
from .mappings import CheckResult, certify_contraction, worst_ratio
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
    """Commutation for noncyclic maps; mode flip, inherited modulus and
    lowering for certified contractions.

    The inherited-modulus check compares the composed map's worst ratio on
    proximal pairs with the modulus it inherited from the outer map, which
    keeps the inheritance claim itself under test.  Those pairs are the
    proximal `cross_samples(samples)` when the outer modulus is a proven
    bound, and the composed map's own 10,000 sampled pairs when it is a lower
    estimate, which fewer pairs would not reach.  The mode flip passes once
    the composition exists: `compose_with_projector` raises unless the
    composed map, of the flipped mode, passes its mode check.  The lowering
    check holds the composed map at x in A0 (B0) to the outer map at x + v
    (x - v), on the same proximal samples, so that a wrong lowering of P
    fails.  Every check here samples the proximal sets, so each carries
    `flags`.
    """
    checks = []
    inst = built.instance
    xs, ys = inst.cross_samples(samples, proximal=True)
    for name, m in built.maps.items():
        if m.mode == "noncyclic":
            checks.append(replace(check_commutation(m, samples=samples), flags=list(flags)))
        if not m.contraction.alpha_hat < 1.0:
            continue
        flip = f"map-{name}-mode-flip", "composition-flips-mode"
        modulus = f"map-{name}-inherited-modulus", "composition-keeps-modulus"
        lowering = f"map-{name}-lowering", "composition-lowers-projector"
        try:
            composed = compose_with_projector(m)
            inherited = composed.contraction.alpha_hat
            if m.contraction.method == "bound":
                observed = worst_ratio(composed, xs, ys)[0]
                how = f"alpha {observed:.6g} on {samples} proximal pairs"
            else:
                observed = certify_contraction(composed).alpha_hat
                how = f"re-sampled alpha {observed:.6g}"
        except ProxipairError as exc:
            checks += [
                CheckResult.failed(*flip, inst.tol * 10.0, str(exc), flags=list(flags)),
                CheckResult.failed(*modulus, INHERITED_MODULUS_SLACK, str(exc),
                                   flags=list(flags)),
                CheckResult.failed(*lowering, IDENTITY_THRESHOLD, str(exc),
                                   flags=list(flags))]
            continue
        points = np.vstack([xs, ys])
        outer = m.apply_many(np.vstack([xs + inst.v, ys - inst.v]))
        checks += [
            replace(composed.mode_check, name=flip[0], tag=flip[1], flags=list(flags),
                    details=f"composed map certifies as {composed.mode}"),
            CheckResult(*modulus,
                        passed=observed <= inherited + INHERITED_MODULUS_SLACK,
                        worst_deviation=max(observed - inherited, 0.0),
                        threshold=INHERITED_MODULUS_SLACK, flags=list(flags),
                        details=f"{how}, inherited alpha {inherited:.6g}"),
            CheckResult.worst_of(
                *lowering, inst.space.norms(composed.apply_many(points) - outer),
                IDENTITY_THRESHOLD, (points, outer), flags=list(flags),
                details=f"{composed.name} against {name} at x + v on A0 and x - v "
                        f"on B0, over {samples} proximal points per side")]
    return checks


def _outcome(built: BuiltInstance, run_name: str):
    """The run's SolveResult, or the error it raised."""
    try:
        return built.run(run_name)
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


def _uniqueness_checks(built: BuiltInstance, flags: list, starts: dict) -> list:
    """The uniqueness check of each direct run, from the outcomes in
    `starts` of its UNIQUENESS_STARTS - 1 sampled proximal starts and of its
    declared start, in that order: it fails with the first error among them."""
    checks = []
    for run_name, outcomes in starts.items():
        name, tag = f"run-{run_name}-uniqueness", "limit-independent-of-start"
        error = next((r for r in outcomes if isinstance(r, ProxipairError)), None)
        if error is not None:
            checks.append(CheckResult.failed(name, tag, UNIQUENESS_THRESHOLD, str(error),
                                             flags=list(flags)))
            continue
        pts = np.array([r.x_star if r.x_star is not None else r.pair[0] for r in outcomes])
        checks.append(CheckResult.worst_of(
            name, tag, built.instance.space.norms(pts - pts[0]), UNIQUENESS_THRESHOLD,
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
    inst = built.instance
    # Singleton proximal sets make every check that samples them vacuous,
    # and every such check carries this flag, the projector checks too
    flags = ["degenerate"] if inst.proximal_sets_are_points else []
    checks = verify_projector_properties(inst, samples=samples)
    checks.extend(_map_checks(built, samples, flags))
    rng = np.random.default_rng(inst.seed)
    outcomes, starts = {}, {}
    for name, spec in built.runs.items():
        if spec["solver"] not in ("picard", "project"):
            outcomes[name] = _outcome(built, name)
            continue
        # the declared start and the sampled ones, in one stacked run
        sampled = inst.sample_proximal("A", UNIQUENESS_STARTS - 1, rng)
        try:
            declared, *others = built.run_many(name, np.vstack([spec["x0"], sampled]))
        except ProxipairError as exc:
            declared, *others = [exc] * UNIQUENESS_STARTS
        outcomes[name], starts[name] = declared, [*others, declared]
    checks.extend(_run_checks(built, outcomes))
    checks.extend(_uniqueness_checks(built, flags, starts))
    return VerificationReport(instance_name=built.doc.name, checks=checks)
