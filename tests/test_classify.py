"""Channel taxonomy: limit sets, class labels, relaxation times, entropy behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge.channels import (
    BlochVector,
    SuperOp,
    amplitude_damping_kraus,
    canonical_form,
    dephasing_kraus,
    depolarizing_kraus,
    kraus_to_superop,
    power,
    thermal_kraus,
)
from qfridge.classify import (
    CAN_DECREASE,
    DEPHASING_CLASS,
    DEPOLARIZING_CLASS,
    NON_DECREASING,
    NON_UNITAL_CLASS,
    STRICTLY_INCREASING,
    ClassificationError,
    UnitaryChannelError,
    classification_report,
    classify,
    entropy_behavior,
    relaxation_time,
)
from qfridge.protocol import ProtocolConfig

from oracles import apply_bloch, compose, entropy_behavior_sampled, pauli_channel_kraus, random_unitary, unitary_kraus
from test_channels import random_cp_channel


def test_named_channel_classes():
    assert classify(kraus_to_superop(depolarizing_kraus(0.1))).kind == DEPOLARIZING_CLASS
    assert classify(kraus_to_superop(dephasing_kraus(0.1))).kind == DEPHASING_CLASS
    assert classify(kraus_to_superop(amplitude_damping_kraus(0.1))).kind == NON_UNITAL_CLASS


def test_dephasing_axis_is_z():
    verdict = classify(kraus_to_superop(dephasing_kraus(0.2)))
    assert np.allclose(np.abs(verdict.axis), [0, 0, 1], atol=1e-10)


def test_unitary_channel_rejected():
    u = unitary_kraus(np.array([[1, 0], [0, 1j]]))
    with pytest.raises(ClassificationError):
        classify(kraus_to_superop(u))


def test_limit_set_kinds():
    # the center, a unit-norm diameter, and an off-center point
    center = classify(kraus_to_superop(depolarizing_kraus(0.1)))
    assert center.kind == DEPOLARIZING_CLASS
    assert center.axis is None and center.fixed_point is None
    diameter = classify(kraus_to_superop(dephasing_kraus(0.1)))
    assert diameter.kind == DEPHASING_CLASS
    assert abs(np.linalg.norm(diameter.axis) - 1) <= 1e-12
    point = classify(kraus_to_superop(amplitude_damping_kraus(0.1)))
    assert point.kind == NON_UNITAL_CLASS and point.axis is None
    assert np.allclose(point.fixed_point.w, [0, 0, 1], atol=1e-12)


def test_classify_invariant_under_unitary_dressing():
    """Class labels and entropy verdicts survive pre/post rotation; the
    reported geometry rotates."""
    rng = np.random.default_rng(21)
    base = {
        (DEPOLARIZING_CLASS, STRICTLY_INCREASING): kraus_to_superop(depolarizing_kraus(0.1)),
        (DEPHASING_CLASS, NON_DECREASING): kraus_to_superop(dephasing_kraus(0.1)),
        (NON_UNITAL_CLASS, CAN_DECREASE): kraus_to_superop(amplitude_damping_kraus(0.1)),
    }
    for _ in range(30):
        u = kraus_to_superop(unitary_kraus(random_unitary(rng)))
        v = kraus_to_superop(unitary_kraus(random_unitary(rng)))
        for (kind, verdict), c in base.items():
            dressed = compose(compose(u, c), v)
            assert classify(dressed).kind == kind
            assert entropy_behavior(dressed) == verdict


def test_non_unital_iteration_converges_to_fixed_point():
    rng = np.random.default_rng(22)
    c = kraus_to_superop(thermal_kraus(0.25, 0.08))
    verdict = classify(c)
    target = verdict.fixed_point.w
    for _ in range(20):
        w = rng.normal(size=3)
        w *= rng.random() ** (1 / 3) / np.linalg.norm(w)
        for _ in range(200):
            w = apply_bloch(c, w)
        assert np.linalg.norm(w - target) < 1e-6


def test_dephasing_diameter_points_are_fixed():
    c = kraus_to_superop(dephasing_kraus(0.15))
    axis = classify(c).axis
    for s in np.linspace(-1, 1, 9):
        assert np.linalg.norm(apply_bloch(c, s * axis) - s * axis) < 1e-10


def test_relaxation_time_minimality():
    from qfridge.channels import diamond_upper, fixed_point, replacement_channel
    from test_channels import _channel_distance_loop

    c = kraus_to_superop(amplitude_damping_kraus(0.3))
    rep = relaxation_time(c, 1e-3)
    cp = replacement_channel(fixed_point(canonical_form(c)))
    assert rep.achieved_distance < 1e-3
    assert rep.achieved_distance == diamond_upper(power(c, rep.steps), cp)
    assert diamond_upper(power(c, rep.steps - 1), cp) >= 1e-3
    # an attained value: at T - 1 the true distance is at least the target,
    # so no certified bound could stop the search earlier
    below = _channel_distance_loop(power(c, rep.steps - 1), cp)
    assert below is not None and below >= 1e-3


@pytest.mark.parametrize(
    "kraus, target, steps",
    [
        # criterion 10's dwell target: D' = 50, R = 1
        (amplitude_damping_kraus(0.01), ProtocolConfig(d_prime=50).dwell_target(1), 1558),
        (thermal_kraus(0.05, 0.1), 1e-2, 180),
        (thermal_kraus(0.05, 0.1), 1e-4, 360),
    ],
)
def test_relaxation_time_runs_no_ascent(kraus, target, steps):
    assert relaxation_time(kraus_to_superop(kraus), target).steps == steps


def test_relaxation_time_rejects_uncontractive():
    with pytest.raises(ClassificationError):
        relaxation_time(kraus_to_superop(dephasing_kraus(0.1)), 1e-3)


def test_entropy_behavior_taxonomy():
    assert entropy_behavior(kraus_to_superop(depolarizing_kraus(0.1))) == STRICTLY_INCREASING
    assert entropy_behavior(kraus_to_superop(dephasing_kraus(0.1))) == NON_DECREASING
    assert entropy_behavior(kraus_to_superop(amplitude_damping_kraus(0.1))) == CAN_DECREASE


@pytest.mark.parametrize("excited", [0.499, 0.4995, 0.4999])
def test_entropy_behavior_of_nearly_unital_thermal_channel(excited):
    # |t| = 2e-5 .. 2e-6: I/2 maps off centre, though its entropy drops by
    # only ~|t|^2 / (2 ln 2), below a sampled probe's tolerance
    c = kraus_to_superop(thermal_kraus(0.01, excited))
    assert classify(c).kind == NON_UNITAL_CLASS
    assert entropy_behavior(c) == CAN_DECREASE


def test_entropy_behavior_of_unitary_channel():
    u = kraus_to_superop(unitary_kraus(random_unitary(np.random.default_rng(23))))
    assert entropy_behavior(u) == NON_DECREASING


def test_entropy_behavior_rejects_two_uncontracted_axes():
    with pytest.raises(ClassificationError):
        entropy_behavior(SuperOp(np.diag([1.0, 1.0, 1.0, 0.9])))


def test_contraction_straddling_the_tolerance_is_unitary():
    # lam = (1 - 8e-9, 1 - 1.6e-8, 1 - 8e-9): two axes within CLASS_TOL of 1,
    # the third within 2 CLASS_TOL, as complete positivity demands
    c = kraus_to_superop(pauli_channel_kraus(4e-9, 0, 4e-9))
    with pytest.raises(UnitaryChannelError):
        classify(c)
    assert entropy_behavior(c) == NON_DECREASING
    # two uncontracted axes and a third far from 1 is no CP channel
    with pytest.raises(ClassificationError) as err:
        classify(SuperOp(np.diag([1.0, 1.0, 1.0, 0.5])))
    assert not isinstance(err.value, UnitaryChannelError)


def _dressed_pauli(weights, seed):
    rng = np.random.default_rng(seed)
    p = np.array(weights) / sum(weights)
    c = kraus_to_superop(pauli_channel_kraus(*p[1:]))
    u, v = (kraus_to_superop(unitary_kraus(random_unitary(rng))) for _ in range(2))
    return compose(compose(u, c), v)


_seeds = st.integers(0, 2**32 - 1)
_channels = st.one_of(
    st.builds(lambda seed, n: kraus_to_superop(random_cp_channel(np.random.default_rng(seed), n)),
              _seeds, st.integers(1, 4)),
    st.builds(_dressed_pauli, st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(lambda w: sum(w) > 0), _seeds),
    st.builds(lambda gamma, excited: kraus_to_superop(thermal_kraus(gamma, excited)),
              st.floats(1e-3, 1), st.floats(0.49, 0.5)),
)


@settings(max_examples=300)
@given(c=_channels)
def test_sampled_entropy_drops_agree_with_the_class(c):
    verdict = entropy_behavior(c)
    _, max_drop = entropy_behavior_sampled(c)
    if max_drop > 1e-9:
        assert verdict == CAN_DECREASE
    if verdict != CAN_DECREASE:
        assert max_drop <= 1e-12


def test_classification_report_contents():
    rep = classification_report(kraus_to_superop(amplitude_damping_kraus(0.1)))
    assert rep["class"] == NON_UNITAL_CLASS
    assert rep["cp"] and not rep["unital"]
    assert np.allclose(rep["fixed_point"], [0, 0, 1], atol=1e-10)
    rep = classification_report(kraus_to_superop(pauli_channel_kraus(0.05, 0.0, 0.1)))
    assert rep["unital"]
    assert np.allclose(sorted(rep["pauli_probs"]), [0.0, 0.05, 0.1], atol=1e-10)


def test_report_on_non_cp_channel():
    from qfridge.channels import SuperOp

    ptm = np.diag([1.0, 1.0, 0.9, 1.0])  # transpose-like, not CP
    rep = classification_report(SuperOp(ptm))
    assert rep["cp"] is False
