"""Three-way classification of qubit channels by their limit under repetition.

Repeated application of a non-unitary channel converges (up to unitary
equivalence) either to a single point of the Bloch ball or to a diameter,
and the limit fixes how the channel acts on entropy.  In the Bloch-ellipsoid
canonical form w -> Lam w + t of King and Ruskai ("Minimal entropy of states
emerging from noisy quantum channels", 2001), a qubit state's entropy falls
as its Bloch vector lengthens, so:

* all axes contract and the channel is unital -> the center (depolarizing
  class): every |lam_i| < 1 shortens every nonzero Bloch vector, so entropy
  strictly increases for every non-maximal state;
* one axis is uncontracted -> a diameter (dephasing class): a unital channel
  never lengthens a Bloch vector, and the states on that axis keep their
  length, so entropy is non-decreasing;
* the shift is nonzero -> an off-center fixed point (non-unital class): I/2
  maps to t, so entropy can decrease.

Axes with lam = -1 count as uncontracted: such a channel is a contraction
composed with a half-turn, and the classification is taken up to that
unitary dressing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CLASS_TOL,
    BlochVector,
    ChannelError,
    SuperOp,
    canonical_form,
    diamond_upper,
    fixed_point,
    is_unital,
    power,
    replacement_channel,
)

MAX_RELAXATION_STEPS = 1 << 22  # relaxation_time's search limit

DEPOLARIZING_CLASS = "depolarizing"
DEPHASING_CLASS = "dephasing"
NON_UNITAL_CLASS = "non_unital"

STRICTLY_INCREASING = "strictly_increasing"
NON_DECREASING = "non_decreasing"
CAN_DECREASE = "can_decrease"


class ClassificationError(ChannelError):
    """Channel outside the scope of the classification (e.g. unitary)."""


class UnitaryChannelError(ClassificationError):
    """A unitary channel: no noise to classify."""


@dataclass(frozen=True)
class ChannelClass:
    """Verdict of :func:`classify`: the dephasing class carries its unit
    diameter axis, the non-unital class its fixed point."""

    kind: str  # one of the *_CLASS constants
    axis: np.ndarray | None = None
    fixed_point: BlochVector | None = None


@dataclass(frozen=True)
class RelaxationReport:
    """Step count that certifiably brings C^T within `target` of the
    replacement channel at the fixed point: ``achieved_distance`` is the
    certified upper bound ``diamond_upper(C^T, C_P)`` on the diamond distance
    at ``steps``."""

    steps: int
    achieved_distance: float
    target: float

    def __post_init__(self):
        if not self.achieved_distance < self.target:
            raise ChannelError("relaxation report does not meet its target")


def classify(c: SuperOp) -> ChannelClass:
    """Class of a non-unitary channel from the limit of repeated application,
    read off its canonical form: center / diameter / off-center point."""
    f = canonical_form(c)
    lam = np.abs(f.lam)
    uncontracted = [i for i in range(3) if lam[i] >= 1 - CLASS_TOL]
    unital = bool(np.linalg.norm(f.t) <= CLASS_TOL)
    # a CP unital channel has |lam_k| >= |lam_i| + |lam_j| - 1, so two
    # uncontracted axes hold the third within 2 CLASS_TOL of 1: a unitary
    if unital and len(uncontracted) >= 2 and lam.min() >= 1 - 2 * CLASS_TOL:
        raise UnitaryChannelError("unitary channel: no noise to classify")
    if not unital:
        return ChannelClass(kind=NON_UNITAL_CLASS, fixed_point=fixed_point(f))
    if not uncontracted:
        return ChannelClass(kind=DEPOLARIZING_CLASS)
    if len(uncontracted) == 1:
        axis = f.post_rot @ np.eye(3)[uncontracted[0]]
        return ChannelClass(kind=DEPHASING_CLASS, axis=axis / np.linalg.norm(axis))
    raise ClassificationError(
        "ambiguous: two uncontracted axes in a non-unitary channel (CP violation?)"
    )


def relaxation_time(c: SuperOp, target: float) -> RelaxationReport:
    """Minimal T with ``diamond_upper(C^T, C_P)`` below `target`, by doubling
    then bisection.

    ``diamond_upper`` is a certified upper bound on the diamond distance, so
    T is a sufficient dwell time: C^T is within `target` of C_P.  T can
    exceed the true minimum only where the bound's gap straddles the target
    (measured: at most 0.6% gap at T - 1 for amplitude damping and thermal
    channels at targets 1e-2 .. 1e-6).  Strictly contractive channels
    approach the replacement channel geometrically, so the predicate is
    monotone in T for the search's purposes.
    """
    if target <= 0:
        raise ChannelError("relaxation target must be positive")
    f = canonical_form(c)
    if np.max(np.abs(f.lam)) >= 1 - CLASS_TOL:
        raise ClassificationError("not contractive: channel has an uncontracted axis")
    cp = replacement_channel(fixed_point(f))

    def dist(t: int) -> float:
        return diamond_upper(power(c, t), cp)

    hi = 1
    d_hi = dist(hi)
    while d_hi >= target:
        hi *= 2
        if hi > MAX_RELAXATION_STEPS:
            raise ChannelError(f"relaxation target {target} not reached in {MAX_RELAXATION_STEPS} steps")
        d_hi = dist(hi)
    lo = hi // 2  # dist(lo) >= target (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        d_mid = dist(mid)
        if d_mid < target:
            hi, d_hi = mid, d_mid
        else:
            lo = mid
    return RelaxationReport(steps=hi, achieved_distance=d_hi, target=target)


def entropy_behavior(c: SuperOp) -> str:
    """How the channel acts on entropy, read off its class (King-Ruskai):
    depolarizing -> strictly increasing, dephasing -> non-decreasing,
    non-unital -> can decrease.  A unitary channel preserves every entropy,
    so it is non-decreasing; any other input `classify` rejects raises
    ClassificationError."""
    try:
        kind = classify(c).kind
    except UnitaryChannelError:
        return NON_DECREASING
    return {
        DEPOLARIZING_CLASS: STRICTLY_INCREASING,
        DEPHASING_CLASS: NON_DECREASING,
        NON_UNITAL_CLASS: CAN_DECREASE,
    }[kind]


def classification_report(c: SuperOp) -> dict:
    """JSON-ready report used by the command line front end."""
    from .channels import choi_positive, cp_check, pauli_probs

    f = canonical_form(c)
    cp = bool(cp_check(f) and choi_positive(c))
    try:
        verdict = classify(c)
    except ClassificationError:
        if cp:
            raise
        # non-CP input can fall outside the taxonomy; report the verdict anyway
        verdict = ChannelClass(kind=None)
    report = {
        "class": verdict.kind,
        "lambda": [float(x) for x in f.lam],
        "t": [float(x) for x in f.t],
        "unital": is_unital(c),
        "cp": cp,
    }
    if verdict.axis is not None:
        report["axis"] = [float(x) for x in verdict.axis]
    if verdict.fixed_point is not None:
        report["fixed_point"] = [float(x) for x in verdict.fixed_point.w]
    if report["unital"] and cp:
        probs = pauli_probs(f)
        report["pauli_probs"] = [probs.p_x, probs.p_y, probs.p_z]
    return report
