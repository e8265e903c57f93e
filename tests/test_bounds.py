"""Entropy-inequality machinery: Pinsker margin, concavity constants, the
storage-time bound, and the per-qubit chain rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge.bounds import (
    MODE_PAPER,
    MODE_SAFE,
    concavity_margin,
    dephasing_bound,
    entropy_ledger_step,
    pinsker_margin,
)
from qfridge.channels import dephasing_kraus, kraus_to_superop
from qfridge.densim import (
    DATA,
    REFERENCE,
    QRegister,
    SimulationError,
    apply_single_qubit_superop,
    entropy_bits,
    evolve,
    relative_entropy,
    von_neumann_entropy,
)

from oracles import (
    epr_register,
    pair_concavity_margin,
    pair_entropy_bits,
    pair_pinsker_margin,
    pair_relative_entropy,
    random_unitary,
)

LN2 = math.log(2)
ZERO = np.diag([1.0, 0.0]).astype(complex)
ONE = np.diag([0.0, 1.0]).astype(complex)


def random_density(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_pinsker_margin_nonnegative():
    rng = np.random.default_rng(51)
    for dim in (2, 4):
        for _ in range(300):
            a, b = random_density(rng, dim), random_density(rng, dim)
            assert pinsker_margin(a, b) >= -1e-9


def test_pinsker_margin_infinite_on_support_escape():
    assert pinsker_margin(ZERO, ONE) == float("inf")


def test_safe_concavity_nonnegative():
    rng = np.random.default_rng(52)
    for _ in range(500):
        a, b = random_density(rng), random_density(rng)
        p = rng.random()
        assert concavity_margin(a, b, p, mode=MODE_SAFE) >= -1e-9


def test_paper_concavity_counterexample_pinned():
    """The published constant 2/ln2 fails on orthogonal pure states at p=1/2."""
    margin = concavity_margin(ZERO, ONE, 0.5, mode=MODE_PAPER)
    assert margin <= -0.4
    assert abs(margin - (1 - 1 / LN2)) < 1e-12


def test_concavity_rejects_bad_weight():
    with pytest.raises(ValueError):
        concavity_margin(ZERO, ONE, 1.5)
    # every weight of a stack is checked, NaN included
    pair = np.stack([ZERO, ONE])
    for weights in ([0.5, 1.5], [-0.1, 0.5], [0.5, float("nan")]):
        with pytest.raises(ValueError):
            concavity_margin(pair, pair[::-1], weights)


KINDS = ("generic", "pure", "deficient", "escape", "pure_pair")


def _pair(rng, dim, kind):
    """(a, b) of one kind: full-rank states; a pure; b rank-deficient with a
    inside its support; b rank-deficient with full-rank a (a's support
    escapes b's); two pure states.  At dim 1 every kind is ([[1]], [[1]]),
    up to rounding."""
    u = random_unitary(rng, dim)

    def state(rank):
        g = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
        x = g @ g.conj().T
        basis = u[:, :rank]
        rho = basis @ (x / np.trace(x).real) @ basis.conj().T
        return (rho + rho.conj().T) / 2

    r = int(rng.integers(1, dim)) if dim > 1 else 1
    if kind == "pure":
        return state(1), random_density(rng, dim)
    if kind == "deficient":
        return state(int(rng.integers(1, r + 1))), state(r)
    if kind == "escape":
        return random_density(rng, dim), state(r)
    if kind == "pure_pair":
        return state(1), (state(1) if rng.random() < 0.5 else random_density(rng, dim))
    return random_density(rng, dim), random_density(rng, dim)


def _close(got, want):
    return got == want if np.isinf(want) else abs(got - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
)
def test_stacked_margins_match_the_pair_loop(seed, dim, kinds):
    """One stacked call gives each pair's margins, as one call per pair of
    the pair-at-a-time oracle does, within 1e-12; support-escape rows are
    +inf next to finite rows."""
    rng = np.random.default_rng(seed)
    pairs = [_pair(rng, dim, kind) for kind in kinds]
    weights = [float(rng.choice([0.0, 1.0, rng.random()])) for _ in kinds]
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    rel = relative_entropy(a, b)
    pinsker = pinsker_margin(a, b)
    entropies = entropy_bits(a)
    margins = {mode: concavity_margin(a, b, weights, mode=mode) for mode in (MODE_SAFE, MODE_PAPER)}
    for i, ((x, y), p) in enumerate(zip(pairs, weights)):
        assert _close(rel[i], pair_relative_entropy(x, y))
        assert _close(pinsker[i], pair_pinsker_margin(x, y))
        assert _close(entropies[i], pair_entropy_bits(x))
        for mode, margin in margins.items():
            assert _close(margin[i], pair_concavity_margin(x, y, p, mode))
        # one 2-D pair is one float from the same code
        assert type(pinsker_margin(x, y)) is float
        assert pinsker_margin(x, y) == pinsker[i]
        assert type(concavity_margin(x, y, p)) is float
        assert concavity_margin(x, y, p) == margins[MODE_SAFE][i]
    if dim > 1 and "escape" in kinds:
        assert np.isinf(rel[kinds.index("escape")])


def test_dephasing_bound_paper_formula():
    for p in (0.1, 0.3, 0.5):
        for eps in (0.5, 1.0):
            for n in (1, 4, 16):
                params = dephasing_bound(p, eps, n, mode=MODE_PAPER)
                want = LN2 * n**3 / (8 * p * (1 - p) * eps**2)
                assert abs(params.t_bound - want) / want < 1e-12


def test_dephasing_bound_cubic_scaling():
    a = dephasing_bound(0.3, 0.5, 4, mode=MODE_PAPER)
    b = dephasing_bound(0.3, 0.5, 8, mode=MODE_PAPER)
    assert abs(b.t_bound / a.t_bound - 8.0) < 1e-9


def test_safe_mode_rescales_by_four():
    paper = dephasing_bound(0.2, 0.7, 5, mode=MODE_PAPER)
    safe = dephasing_bound(0.2, 0.7, 5, mode=MODE_SAFE)
    assert abs(safe.delta - paper.delta / 4) < 1e-15
    assert abs(safe.t_bound - paper.t_bound * 4) < 1e-9


def test_dephasing_bound_input_validation():
    with pytest.raises(ValueError):
        dephasing_bound(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        dephasing_bound(0.3, -1.0, 3)
    with pytest.raises(ValueError):
        dephasing_bound(0.3, 1.0, 3, mode="loose")


def _noised(reg, channel):
    nat = channel.natural()
    rho = reg.rho
    for q in range(reg.n_qubits):
        rho = apply_single_qubit_superop(rho, nat, q, reg.n_qubits)
    return QRegister(rho, reg.roles)


def test_entropy_ledger_chain_rule_random_states():
    rng = np.random.default_rng(53)
    channel = kraus_to_superop(dephasing_kraus(0.15))
    for _ in range(50):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        before = QRegister(np.outer(v, v.conj()), [DATA] * 4)
        after = _noised(before, channel)
        ledger = entropy_ledger_step(before, after, channel)
        assert len(ledger.gaps) == 4
        assert ledger.global_increase >= ledger.max_gap - 1e-9


def test_entropy_ledger_shape_mismatch():
    channel = kraus_to_superop(dephasing_kraus(0.1))
    a = QRegister(np.eye(2) / 2, [DATA])
    b = QRegister(np.eye(4) / 4, [DATA, DATA])
    with pytest.raises(SimulationError):
        entropy_ledger_step(a, b, channel)


def test_entropy_ledger_violation_detected():
    """Passing an `after` state with less entropy than a gap demands raises."""
    channel = kraus_to_superop(dephasing_kraus(0.4))
    plus = np.full((2, 2), 0.5, dtype=complex)
    before = QRegister(plus, [DATA])
    with pytest.raises(SimulationError):
        entropy_ledger_step(before, before, channel)  # claims zero increase


def test_entropy_ledger_gaps_match_one_entropy_call_per_qubit():
    rng = np.random.default_rng(54)
    channel = kraus_to_superop(dephasing_kraus(0.2))
    nat = channel.natural()
    registers = [epr_register(extra_system=1), QRegister(random_density(rng, 8), [REFERENCE, DATA, DATA]),
                 QRegister(random_density(rng, 8), [DATA] * 3)]
    for before in registers:
        after = QRegister(evolve(before.rho, [], 3, nat, before.system_qubits), before.roles)
        ledger = entropy_ledger_step(before, after, channel)
        s_before = von_neumann_entropy(before)
        want = [entropy_bits(evolve(before.rho, [], 3, nat, [q])) - s_before for q in before.system_qubits]
        assert ledger.gaps.tolist() == want
