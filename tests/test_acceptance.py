"""Acceptance gate: one test per numbered criterion, tolerances pinned.

Each test prints a one-line summary so a full run doubles as a report:
``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np

from qfridge.bounds import (
    MODE_PAPER,
    MODE_SAFE,
    concavity_margin,
    dephasing_bound,
    entropy_ledger_step,
    pinsker_margin,
)
from qfridge.channels import (
    CanonicalForm,
    KrausSet,
    amplitude_damping_kraus,
    canonical_form,
    choi_positive,
    cp_check,
    dephasing_kraus,
    depolarizing_kraus,
    fixed_point,
    is_unital,
    kraus_to_superop,
)
from qfridge.classify import (
    CAN_DECREASE,
    DEPHASING_CLASS,
    DEPOLARIZING_CLASS,
    NON_DECREASING,
    NON_UNITAL_CLASS,
    STRICTLY_INCREASING,
    classify,
    entropy_behavior,
    relaxation_time,
)
from qfridge.densim import (
    DATA,
    QRegister,
    apply_single_qubit_superop,
    apply_unitary,
    dephase_all,
    epr_fidelity,
    von_neumann_entropy,
)
from qfridge.experiments import (
    CODE_NONE,
    CODE_PHASE_FLIP,
    run_epr_storage,
)
from qfridge.fridge import (
    _block_probabilities,
    bottom_mass,
    build_cooling_circuit,
    choose_R,
    run_fridge_ideal,
    run_fridge_noisy,
)
from qfridge import protocol
from qfridge.protocol import ProtocolConfig, run_refrigerator_protocol

from oracles import apply_bloch, apply_superop, epr_register, stage_unitary
from test_protocol import cycle_joint

PS = (0.01, 0.05, 0.1, 0.2, 0.3)


def h2(x):
    if x <= 0 or x >= 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def random_cp_kraus(rng, n_kraus=3):
    g = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    q, _ = np.linalg.qr(g)
    return KrausSet([q[2 * i : 2 * i + 2, :] for i in range(n_kraus)])


def random_density(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_criterion_1_classification():
    """Named channels land in their classes, 15/15, under a second."""
    started = time.monotonic()
    hits = 0
    for p in PS:
        if classify(kraus_to_superop(depolarizing_kraus(p))).kind == DEPOLARIZING_CLASS:
            hits += 1
        if classify(kraus_to_superop(dephasing_kraus(p))).kind == DEPHASING_CLASS:
            hits += 1
        if classify(kraus_to_superop(amplitude_damping_kraus(p))).kind == NON_UNITAL_CLASS:
            hits += 1
    elapsed = time.monotonic() - started
    assert hits == 15
    assert elapsed < 1.0
    print(f"criterion 1: PASS - 15/15 classifications in {elapsed:.3f}s")


def test_criterion_2_fixed_point():
    """Closed-form fixed point vs power iteration, 1000 non-unital channels."""
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 1000:
        c = kraus_to_superop(random_cp_kraus(rng))
        f = canonical_form(c)
        if np.max(np.abs(f.lam)) >= 0.98 or is_unital(c):
            continue
        w_closed = fixed_point(f).w
        w = np.zeros(3)
        for _ in range(10000):
            w_next = apply_bloch(c, w)
            if np.linalg.norm(w_next - w) < 1e-14:
                break
            w = w_next
        err = np.linalg.norm(w_closed - w)
        worst = max(worst, err)
        assert err <= 1e-10
        checked += 1
    ad = fixed_point(canonical_form(kraus_to_superop(amplitude_damping_kraus(0.1))))
    ad_err = np.linalg.norm(ad.w - np.array([0, 0, 1.0]))
    assert ad_err <= 1e-12
    print(f"criterion 2: PASS - worst random error {worst:.2e}, AD error {ad_err:.2e}")


def test_criterion_3_cp_conditions():
    """cp_check vs the Choi-positivity oracle on 10^4 unital canonical forms."""
    rng = np.random.default_rng(33)
    agree = 0
    for _ in range(10_000):
        lam = rng.uniform(-1.05, 1.05, size=3)
        f = CanonicalForm(t=np.zeros(3), lam=lam, pre_rot=np.eye(3), post_rot=np.eye(3))
        if cp_check(f) == choi_positive(f.to_superop()):
            agree += 1
    assert agree == 10_000
    print(f"criterion 3: PASS - {agree}/10000 agreement")


def test_criterion_4_entropy_taxonomy():
    assert entropy_behavior(kraus_to_superop(depolarizing_kraus(0.1))) == STRICTLY_INCREASING
    assert entropy_behavior(kraus_to_superop(dephasing_kraus(0.1))) == NON_DECREASING
    assert entropy_behavior(kraus_to_superop(amplitude_damping_kraus(0.1))) == CAN_DECREASE
    out = apply_superop(kraus_to_superop(amplitude_damping_kraus(0.1)), np.eye(2) / 2)
    witness = von_neumann_entropy(QRegister(out, [DATA]))
    assert abs(witness - h2(0.55)) <= 1e-9
    assert witness < 1
    print(f"criterion 4: PASS - witness S(AD(I/2)) = {witness:.10f} = h(0.55)")


def test_criterion_5_bound_machinery():
    rng = np.random.default_rng(55)
    worst_p = math.inf
    for _ in range(10_000):
        dim = 2 if rng.random() < 0.8 else 4
        m = pinsker_margin(random_density(rng, dim), random_density(rng, dim))
        if m < worst_p:
            worst_p = m
        assert m >= -1e-9
    worst_c = math.inf
    for _ in range(10_000):
        m = concavity_margin(random_density(rng), random_density(rng), rng.random(), mode=MODE_SAFE)
        worst_c = min(worst_c, m)
        assert m >= -1e-9
    counter = concavity_margin(
        np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5, mode=MODE_PAPER
    )
    assert counter <= -0.4
    ln2 = math.log(2)
    for p in (0.1, 0.25, 0.5):
        for eps in (0.5, 1.0, 2.0):
            for n in (1, 2, 5, 11):
                got = dephasing_bound(p, eps, n, mode=MODE_PAPER).t_bound
                want = ln2 * n**3 / (8 * p * (1 - p) * eps**2)
                assert abs(got - want) / want <= 1e-12
    t4 = dephasing_bound(0.3, 1.0, 4, mode=MODE_PAPER).t_bound
    t8 = dephasing_bound(0.3, 1.0, 8, mode=MODE_PAPER).t_bound
    assert abs(t8 / t4 - 8.0) <= 1e-9
    print(
        f"criterion 5: PASS - pinsker min {worst_p:.2e}, safe concavity min "
        f"{worst_c:.2e}, counterexample {counter:.4f}, T formula + n^3 scaling exact"
    )


def test_criterion_6_chain_rule():
    """Global entropy increase dominates every per-qubit conditional gap.

    Each gap conditions on all other qubits, so the bound is the same for
    every qubit ordering; all four gap positions are checked per state.
    """
    rng = np.random.default_rng(66)
    channel = kraus_to_superop(dephasing_kraus(0.12))
    nat = channel.natural()
    worst = math.inf
    for _ in range(1000):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        before = QRegister(np.outer(v, v.conj()), [DATA] * 4)
        rho = before.rho
        for q in range(4):
            rho = apply_single_qubit_superop(rho, nat, q, 4)
        after = QRegister(rho, [DATA] * 4)
        ledger = entropy_ledger_step(before, after, channel)
        slack = ledger.global_increase - ledger.max_gap
        worst = min(worst, slack)
        assert slack >= -1e-9
    print(f"criterion 6: PASS - min (increase - max gap) = {worst:.2e} over 1000 states")


def test_criterion_7_epr_storage():
    p = 0.1
    result = run_epr_storage(CODE_NONE, p, 50)
    worst = max(
        abs(rec.epr_fidelity - (1 + (1 - 2 * p) ** t) / 2)
        for t, rec in enumerate(result.records)
    )
    assert worst <= 1e-9
    # a fully dephased pair is separable: no decoder beats fidelity 1/2
    rng = np.random.default_rng(77)
    dead = dephase_all(epr_register())
    ceiling = 0.0
    for _ in range(100):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, r = np.linalg.qr(g)
        u = u * (np.diag(r) / np.abs(np.diag(r)))
        rho = apply_unitary(dead.rho, u, [1], 2)
        fid = epr_fidelity(QRegister(rho, dead.roles), [], 1, 0)
        ceiling = max(ceiling, fid)
        assert fid <= 0.5 + 1e-9
    coded = run_epr_storage(CODE_PHASE_FLIP, 0.02, 10)
    uncoded = run_epr_storage(CODE_NONE, 0.02, 10)
    margin = coded.records[10].epr_fidelity - uncoded.records[10].epr_fidelity
    assert margin > 0
    print(
        f"criterion 7: PASS - closed form err {worst:.2e}, decoder ceiling "
        f"{ceiling:.6f}, coding margin at step 10 = {margin:.6f}"
    )


def test_criterion_8_fridge_exactness():
    pop = run_fridge_ideal(build_cooling_circuit(0.1, 3)).reset_state[0, 0].real
    brute = sum(sorted(_block_probabilities(0.1, 3), reverse=True)[:4])
    assert abs(pop - 0.972) <= 1e-12
    assert abs(pop - brute) <= 1e-12
    for q in np.arange(0.05, 0.46, 0.05):
        for eps2 in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
            r = choose_R(q, eps2)
            # the residual summed directly: 2(1 - top_mass) rounds q = 0.1's
            # residual 2q, which equals eps2 = 0.2, to just below it
            assert 2 * bottom_mass(q, r) < eps2
            if r > 1:
                assert 2 * bottom_mass(q, r - 1) >= eps2
    for q in np.arange(0.05, 0.46, 0.05):
        rs = [choose_R(q, e) for e in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)]
        assert rs == sorted(rs, reverse=True)
    for e in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
        rs = [choose_R(q, e) for q in np.arange(0.05, 0.46, 0.05)]
        assert rs == sorted(rs)
    # reversibility: total output entropy is exactly R h(q)
    worst_s = 0.0
    for q, r in ((0.1, 3), (0.2, 3), (0.3, 4)):
        spec = build_cooling_circuit(q, r)
        rho = np.diag(_block_probabilities(q, r)).astype(complex)
        for i in range(len(spec.stages)):
            stage = stage_unitary(spec, i)
            rho = stage @ rho @ stage.conj().T
        eigs = np.linalg.eigvalsh(rho).real
        s_out = -sum(x * math.log2(x) for x in eigs if x > 1e-15)
        worst_s = max(worst_s, abs(s_out - r * h2(q)))
        assert abs(s_out - r * h2(q)) <= 1e-10
    # noisy runs stay inside the ideal + F*d location bound (checked in-run)
    spec = build_cooling_circuit(0.1, 3)
    for p in (0.005, 0.01, 0.02):
        run_fridge_noisy(spec, kraus_to_superop(amplitude_damping_kraus(p)))
    print(
        f"criterion 8: PASS - population {pop:.15f}, grids ok, entropy "
        f"conservation err {worst_s:.2e}, noisy bound held for p <= 0.02"
    )


def test_criterion_9_relaxation():
    worst_rel = 0.0
    for p in (0.19, 0.36, 0.5):
        c = kraus_to_superop(amplitude_damping_kraus(p))
        targets = (1e-2, 1e-4, 1e-6)
        steps = [relaxation_time(c, t).steps for t in targets]
        slope = (steps[2] - steps[0]) / (math.log10(targets[0]) - math.log10(targets[2]))
        want = -1 / math.log10(math.sqrt(1 - p))
        rel = abs(slope - want) / want
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.05
    # storage discipline: the searched storage_T meets the dwell target
    # (certified by relaxation_time), throughput within n' R D'
    channel = kraus_to_superop(amplitude_damping_kraus(0.05))
    cfg = ProtocolConfig(d_prime=10)
    result = run_refrigerator_protocol(cfg, channel)
    assert result.throughput <= result.throughput_bound
    print(
        f"criterion 9: PASS - worst slope error {100 * worst_rel:.2f}%, "
        f"throughput {result.throughput}/{result.throughput_bound}"
    )


def test_criterion_10_protocol_demonstration(monkeypatch):
    channel = kraus_to_superop(amplitude_damping_kraus(0.01))
    result = run_refrigerator_protocol(ProtocolConfig(d_prime=50), channel, seed=0)
    assert result.refrigerated[-1].logical_fidelity >= result.stale[-1].logical_fidelity
    fact = run_refrigerator_protocol(ProtocolConfig(d_prime=20), channel, seed=0)
    # the joint-register oracle: data and every drawn qubit in one register
    monkeypatch.setattr(protocol, "_cycle_factorized", cycle_joint)
    exact = run_refrigerator_protocol(ProtocolConfig(d_prime=20), channel, seed=0)
    worst = max(
        abs(a.logical_fidelity - b.logical_fidelity)
        for a, b in zip(exact.refrigerated, fact.refrigerated)
    )
    assert worst <= 1e-12
    print(
        f"criterion 10: PASS - margin {result.margin:.6f} "
        f"(refrigerated {result.refrigerated[-1].logical_fidelity:.6f} vs stale "
        f"{result.stale[-1].logical_fidelity:.6f}), joint-register oracle gap {worst:.2e}"
    )
