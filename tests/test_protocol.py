"""Refrigerated-memory protocol: cycles, storage discipline, baselines, and
the marginal simulation against a joint-register oracle."""

from contextlib import suppress
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfridge import protocol
from qfridge.channels import (
    KrausSet,
    amplitude_damping_kraus,
    dephasing_kraus,
    diamond_upper,
    kraus_to_superop,
    power,
    replacement_channel,
    thermal_kraus,
)
from qfridge.classify import classify
from qfridge.densim import (
    NAMED_GATES,
    GateLayer,
    SimulationError,
    apply_unitary,
    evolve,
    partial_trace,
    repetition_code,
)
from qfridge.fridge import MarginalKernel, build_cooling_circuit
from qfridge.protocol import (
    N_PRIME,
    ProtocolConfig,
    run_refrigerator_protocol,
)

from oracles import (
    AgedEveryCycle,
    apply_permutation,
    cycle_stale_dense,
    permutation_unitary,
    protocol_joint_fidelities,
    random_unitary,
    record_dense,
)


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_rejects_unital_channel():
    cfg = ProtocolConfig(d_prime=2)
    with pytest.raises(SimulationError):
        run_refrigerator_protocol(cfg, kraus_to_superop(dephasing_kraus(0.1)))


def test_rejects_unknown_mode():
    cfg = ProtocolConfig(d_prime=2, mode="approximate")
    with pytest.raises(SimulationError):
        run_refrigerator_protocol(cfg, kraus_to_superop(amplitude_damping_kraus(0.1)))


def test_near_noiseless_run_keeps_fidelity():
    channel = kraus_to_superop(amplitude_damping_kraus(1e-6))
    cfg = ProtocolConfig(d_prime=10, storage_T=50)
    result = run_refrigerator_protocol(cfg, channel)
    assert result.refrigerated[-1].logical_fidelity > 0.999


def test_refrigerated_beats_stale_amplitude_damping():
    channel = kraus_to_superop(amplitude_damping_kraus(0.05))
    cfg = ProtocolConfig(d_prime=25, storage_T=200)
    result = run_refrigerator_protocol(cfg, channel)
    assert result.margin > 0.01
    assert result.refrigerated[-1].logical_fidelity > result.stale[-1].logical_fidelity


def test_code_frame_tracks_error_axis():
    # amplitude-type noise dominates X/Y errors: bit-flip frame
    ad = kraus_to_superop(amplitude_damping_kraus(0.02))
    res = run_refrigerator_protocol(ProtocolConfig(d_prime=2, storage_T=10), ad)
    assert res.code_frame == "z"


def test_throughput_accounting():
    channel = kraus_to_superop(amplitude_damping_kraus(0.02))
    cfg = ProtocolConfig(d_prime=8, storage_T=30)
    result = run_refrigerator_protocol(cfg, channel)
    r = result.fridge.r_block
    assert result.throughput == 2 * r * cfg.d_prime
    assert result.throughput <= result.throughput_bound == N_PRIME * r * cfg.d_prime


def test_exact_and_factorized_agree_on_minimal_instance(monkeypatch):
    channel = kraus_to_superop(amplitude_damping_kraus(0.01))
    cfg = ProtocolConfig(d_prime=15, storage_T=100)
    fact = run_refrigerator_protocol(cfg, channel)
    monkeypatch.setattr(protocol, "_cycle_factorized", cycle_joint)
    exact = run_refrigerator_protocol(cfg, channel)
    for a, b in zip(exact.refrigerated, fact.refrigerated):
        assert abs(a.logical_fidelity - b.logical_fidelity) <= 1e-12


class _PolicyRan(Exception):
    pass


def test_uncertified_storage_time_raises_before_any_cycle(monkeypatch):
    # AD(0.3) at R = 1, D' = 60 needs 45 layers (the searched storage_T) for
    # diamond_upper(N^T, C_P) to meet the dwell target
    channel = kraus_to_superop(amplitude_damping_kraus(0.3))

    def policy(*args):
        raise _PolicyRan

    monkeypatch.setattr(protocol, "_run_policy", policy)
    with pytest.raises(SimulationError, match="storage time 44 leaves stored qubits"):
        run_refrigerator_protocol(ProtocolConfig(d_prime=60, r_block=1, storage_T=44), channel)
    with pytest.raises(_PolicyRan):
        run_refrigerator_protocol(ProtocolConfig(d_prime=60, r_block=1, storage_T=45), channel)
    # D' - 1 recycles in the last cycle; D' or more recycles no draw, so it
    # needs no certificate
    with pytest.raises(SimulationError, match="storage time 4 leaves stored qubits"):
        run_refrigerator_protocol(ProtocolConfig(d_prime=5, r_block=1, storage_T=4), channel)
    with pytest.raises(_PolicyRan):
        run_refrigerator_protocol(ProtocolConfig(d_prime=5, r_block=1, storage_T=5), channel)


def test_thermal_channel_full_pipeline():
    """Nonzero fixed-point temperature: fridge actually has to sort."""
    channel = kraus_to_superop(thermal_kraus(0.05, 0.1))
    cfg = ProtocolConfig(d_prime=6, storage_T=40)
    result = run_refrigerator_protocol(cfg, channel)
    assert result.fridge.r_block == 3
    assert not np.array_equal(result.fridge.permutation, np.arange(8))
    assert result.margin >= -1e-12


def _refrigerated_traffic(channel, cfg, ket=None):
    """Run the protocol, its verdict left out as in `_policy_records`, and
    return the arguments of its refrigerated `_run_policy` call, that run's
    (records, throughput), each of its cycles' (drawn, returned) states and
    the (bytes, what) of each memory check."""
    runs, traffic, checks = [], [], []
    run_policy, cycle_factorized, check_memory = protocol._run_policy, protocol._cycle_factorized, protocol.check_memory

    def recording_policy(*args):
        runs.append((args, run_policy(*args)))
        return runs[-1][1]

    def recording_cycle(rho3, drawn, kernel, cycle):
        rho, returned = cycle_factorized(rho3, drawn, kernel, cycle)
        traffic.append((np.array(drawn), np.array(returned)))
        return rho, returned

    def recording_check(nbytes, what):
        checks.append((nbytes, what))
        check_memory(nbytes, what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_run_policy", recording_policy)
        mp.setattr(protocol, "_cycle_factorized", recording_cycle)
        mp.setattr(protocol, "check_memory", recording_check)
        with suppress(SimulationError):
            run_refrigerator_protocol(cfg, channel, logical_ket=ket)
    args, run = runs[0]
    return args, run, traffic, checks


def _fidelities_and_entropies(records):
    return np.array([(rec.logical_fidelity, rec.entropy_bits) for rec in records])


_AD03 = kraus_to_superop(amplitude_damping_kraus(0.3))
_STORAGE_RUNS = {
    # storage_T (searched: 45) is below D' = 60: the last 15 cycles recycle
    "searched": (_AD03, ProtocolConfig(d_prime=60, r_block=1), 45),
    # from cycle 17 on every block is cooled from recycled draws that carry
    # coherences in the fridge's basis
    "hadamard_r13": (
        kraus_to_superop(KrausSet([_H @ k @ _H for k in amplitude_damping_kraus(0.7).ops])),
        ProtocolConfig(d_prime=20, r_block=13, storage_T=16),
        16,
    ),
    # storage_T 0 still dwells one layer: cycle i draws cycle i - 1's returns
    "dwell_one": (
        kraus_to_superop(amplitude_damping_kraus(0.9)),
        ProtocolConfig(d_prime=12, r_block=1, eps1=200, storage_T=0),
        0,
    ),
    # storage_T = D' recycles nothing, so storage holds nothing
    "no_recycling": (_AD03, ProtocolConfig(d_prime=20, r_block=2, storage_T=20), 20),
}


@pytest.mark.parametrize("channel, cfg, storage_t", _STORAGE_RUNS.values(), ids=_STORAGE_RUNS.keys())
def test_draws_match_a_fifo_aged_every_layer(channel, cfg, storage_t):
    args, (records, throughput), traffic, checks = _refrigerated_traffic(channel, cfg)
    _, kernel, pre_rot, cycle, _, rho_p, run_storage_t, _ = args
    r = kernel.spec.r_block
    dwell = max(storage_t, 1)
    assert run_storage_t == storage_t
    assert throughput == 2 * r * cfg.d_prime
    # storage is checked for the returns of min(dwell, D' - dwell) cycles
    stored = max(0, min(dwell, cfg.d_prime - dwell)) * 2 * r
    assert (stored * 64, f"a storage house of {stored} qubits") in checks
    # the oracle is fed the run's returns and drawn from as the run draws
    fifo = AgedEveryCycle(rho_p, cycle.nat, storage_t)
    prefilled = pre_rot @ rho_p @ pre_rot.conj().T
    recycled = 0
    for drawn, returned in traffic:
        for got in drawn:
            want = fifo.dequeue()
            if want is fifo.p_state:
                assert np.array_equal(got, prefilled)
            else:
                recycled += 1
                # aged once by N^dwell against dwell single layers
                assert np.max(np.abs(got - pre_rot @ want @ pre_rot.conj().T)) <= (0 if dwell == 1 else 1e-15)
                assert not np.array_equal(got, prefilled)
        for state in returned:
            fifo.enqueue(state)
        fifo.tick()
    assert recycled == 2 * r * max(0, cfg.d_prime - dwell)
    assert fifo.drawn == throughput

    # a run whose storage is the oracle gives the same records
    cycle_factorized = protocol._cycle_factorized

    def fifo_cycle(rho3, drawn, kernel, cycle):
        states = np.array([fifo.dequeue() for _ in drawn])
        rho, returned = cycle_factorized(rho3, pre_rot @ states @ pre_rot.conj().T, kernel, cycle)
        for state in returned:
            fifo.enqueue(state)
        fifo.tick()
        return rho, returned

    fifo = AgedEveryCycle(rho_p, cycle.nat, storage_t)
    want = _policy_records(channel, cfg, None, fifo_cycle)[0]
    assert np.max(np.abs(_fidelities_and_entropies(records) - want)) <= 1e-12


@pytest.mark.parametrize("kraus, eps1", [
    (amplitude_damping_kraus(0.9), 7.0),
    (amplitude_damping_kraus(0.8), 15.0),
    (thermal_kraus(0.8, 0.2), 15.0),
], ids=["ad_0.9", "ad_0.8", "thermal"])
@pytest.mark.parametrize("ket", [np.array([0, 1]), np.array([0.6, 0.8j])], ids=["one", "complex"])
def test_recycling_stays_within_the_telescoping_bound(kraus, eps1, ket):
    # at R = 1 and storage_T 2 the joint register holds at most 7 qubits;
    # eps1 is raised until diamond_upper(N^2, C_P) meets the dwell target
    channel = kraus_to_superop(kraus)
    cfg = ProtocolConfig(d_prime=12, r_block=1, eps1=eps1, storage_T=2)
    delta = diamond_upper(power(channel, 2), replacement_channel(classify(channel).fixed_point))
    assert delta < cfg.dwell_target(1)
    args, (records, _), _, _ = _refrigerated_traffic(channel, cfg, ket)
    _, kernel, pre_rot, cycle, rho0, rho_p, storage_t, _ = args
    model = _fidelities_and_entropies(records)[:, 0]
    joint = protocol_joint_fidelities(rho0, ket, pre_rot, rho_p, kernel.spec, cycle.nat, storage_t, cfg.d_prime)
    # cycle i (from 0) has made 2 (i - 1) recycled draws by its end
    k = 2 * np.maximum(0, np.arange(cfg.d_prime) - 1)
    assert np.all(np.abs(model - joint)[k == 0] <= 1e-12)
    # the joint register sees the correlation the model drops
    assert np.abs(model - joint).max() > 1e-12
    assert np.all(np.abs(model - joint) <= k * delta + 1e-12)


@pytest.mark.parametrize("ket", [
    np.zeros(2),
    np.array([np.nan, 1]),
    np.array([np.inf, 0]),
    np.array([1, 0, 0]),
    np.eye(2),
    1.0,
], ids=["zero", "nan", "inf", "three", "matrix", "scalar"])
def test_bad_logical_ket_raises_before_any_cycle(monkeypatch, ket):
    def policy(*args):
        raise _PolicyRan

    monkeypatch.setattr(protocol, "_run_policy", policy)
    with pytest.raises(ValueError, match="must be a 2-vector of finite, nonzero norm"):
        run_refrigerator_protocol(ProtocolConfig(d_prime=5, r_block=1, storage_T=5), _AD03, logical_ket=ket)


def test_unnormalised_ket_is_normalised():
    cfg = ProtocolConfig(d_prime=5, r_block=1, storage_T=5)
    got = _policy_records(_AD03, cfg, np.array([0, 3j]))
    want = _policy_records(_AD03, cfg, np.array([0, 1]))
    assert np.max(np.abs(got - want)) <= 1e-15


class _FirstBlock(Exception):
    pass


@pytest.mark.parametrize("frame", ["hadamard", "bit_flip"])
def test_draws_enter_fridge_in_its_basis(monkeypatch, frame):
    # thermal damping conjugated by H or X puts the fixed point on +x or -z;
    # the protocol rotates each draw so the fridge sees diag(1 - q, q) per qubit
    u = {
        "hadamard": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
        "bit_flip": np.array([[0, 1], [1, 0]], dtype=complex),
    }[frame]
    channel = kraus_to_superop(KrausSet([u @ k @ u.conj().T for k in thermal_kraus(0.05, 0.1).ops]))
    blocks = []

    def capture(rho3, drawn, kernel, cycle):
        r = kernel.spec.r_block
        blocks.extend([drawn[:r], drawn[r:]])
        raise _FirstBlock

    # the drawn states the first cycle's two blocks are cooled from
    monkeypatch.setattr(protocol, "_cycle_factorized", capture)
    with pytest.raises(_FirstBlock):
        run_refrigerator_protocol(ProtocolConfig(d_prime=5, r_block=2, storage_T=40), channel)
    single = np.diag([0.9, 0.1])
    for block in blocks:
        assert np.max(np.abs(np.kron(*block) - np.kron(single, single))) <= 1e-12


def _random_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _input_state(rng, kind):
    """One qubit of a block: a random mixed state, or diag(1 - p, p) turned
    by a random unitary as a prefilled draw is turned by the frame rotation,
    or diag(1 - p, p) itself."""
    if kind == "mixed":
        return _random_state(rng, 2)
    p = rng.uniform(0, 1)
    u = random_unitary(rng) if kind == "rotated" else np.eye(2)
    return u @ np.diag([1 - p, p]).astype(complex) @ u.conj().T


@settings(max_examples=60)
@given(
    q=st.floats(0, 0.45),
    kinds=st.lists(st.sampled_from(["mixed", "rotated", "diagonal"]), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_marginals_match_the_dense_oracle(q, kinds, seed):
    r = len(kinds)
    spec = build_cooling_circuit(q, r)
    rng = np.random.default_rng(seed)
    states = np.array([_input_state(rng, kind) for kind in kinds])
    got = MarginalKernel(spec)(states)
    # the oracle: the dense product state, permuted, and each qubit's partial trace
    block = apply_permutation(reduce(np.kron, states), spec)
    want = np.array([partial_trace(block, [i], r) for i in range(r)])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_coherent_draw_matches_the_joint_register():
    # one draw of block 0 carries a coherence
    channel = kraus_to_superop(thermal_kraus(0.05, 0.1))
    nat = channel.natural()
    r = 3
    kernel = MarginalKernel(build_cooling_circuit(0.1, r))
    _, cycle = protocol._compile_data_cycle(nat, np.array([0, 1], dtype=complex))
    rho3 = evolve(np.diag(np.eye(8)[7]).astype(complex), [], 3, nat)
    single = np.diag([0.9, 0.1]).astype(complex)
    drawn = [single] * (2 * r)
    drawn[1] = np.array([[0.9, 1e-3], [1e-3, 0.1]], dtype=complex)
    got_rho, got_marginals = protocol._cycle_factorized(rho3, drawn, kernel, cycle)
    want_rho, want_marginals = cycle_joint(rho3, drawn, kernel, cycle)
    assert np.max(np.abs(got_rho - want_rho)) <= 1e-12
    assert np.max(np.abs(np.array(got_marginals) - np.array(want_marginals))) <= 1e-12


@pytest.mark.parametrize(
    "frame, ket, recycled_coherent",
    [
        # the bit-flip code leaves z-diagonal noise's syndrome marginals
        # exactly diagonal, so garbage from a superposition is diagonal too
        (np.eye(2), np.array([1, 1]) / np.sqrt(2), False),
        # a fixed point on +x: relaxed garbage carries coherences in the
        # fridge's basis, so every recycled draw does
        (_H, np.array([0, 1]), True),
    ],
    ids=["z_frame_superposition", "x_frame"],
)
def test_recycled_draws_match_the_joint_register(frame, ket, recycled_coherent):
    channel = kraus_to_superop(KrausSet([frame @ k @ frame.conj().T for k in amplitude_damping_kraus(0.3).ops]))
    cfg = ProtocolConfig(d_prime=60, r_block=1)
    coherences = []
    cycle_factorized = protocol._cycle_factorized

    def recording(rho3, drawn, kernel, cycle):
        coherences.extend(abs(state[0, 1]) for state in drawn)
        return cycle_factorized(rho3, drawn, kernel, cycle)

    got = _policy_records(channel, cfg, ket, recording)
    # storage_T (searched: 45) is below D' = 60: the last 15 cycles draw
    # 2 recycled qubits each
    recycled = 2 * (cfg.d_prime - 45)
    assert len(coherences) == 2 * cfg.d_prime
    assert sum(c > 1e-12 for c in coherences) == (recycled if recycled_coherent else 0)
    want = _policy_records(channel, cfg, ket, cycle_joint)
    assert np.max(np.abs(got - want)) <= 1e-12


def cycle_joint(rho3, drawn, kernel, cycle):
    """Oracle for ``protocol._cycle_factorized``: the data and all 2R drawn
    qubits evolve in one 3 + 2R-qubit register, block b on qubits
    3 + bR .. 3 + (b + 1)R - 1, with the kernel's permutation as a dense
    unitary, the correction rebuilt on that register and the noise pass on
    every qubit (of the compiled cycle only the channel's natural rep is
    used).  Returns the data state and the storage marginals in the
    protocol's order: both syndrome qubits, then block 0's wastes, then
    block 1's."""
    spec = kernel.spec
    r = spec.r_block
    nat = cycle.nat
    n = 3 + 2 * r
    rho = rho3
    for state in drawn:
        rho = np.kron(rho, state)
    p = permutation_unitary(spec)
    for first in (3, 3 + r):
        rho = apply_unitary(rho, p, list(range(first, first + r)), n)
    encode, decode = repetition_code((0, 1, 2))
    swap = NAMED_GATES["SWAP"]
    rho = evolve(rho, decode + [GateLayer([(swap, (1, 3)), (swap, (2, 3 + r))])] + encode, n, nat)
    order = [3, 3 + r, *range(4, 3 + r), *range(4 + r, n)]
    return partial_trace(rho, [0, 1, 2], n), [partial_trace(rho, [q], n) for q in order]


def _policy_records(channel, cfg, ket, cycle=None):
    """Per-cycle (fidelity, entropy) of the refrigerated and the stale run,
    with `cycle` in place of the refrigerated cycle when given.  The run's
    verdict is left out: strong noise on an arbitrary input can make the
    refrigerated run lose, and then the protocol raises after both runs."""
    runs = []
    run_policy = protocol._run_policy

    def recording(*args):
        runs.append(run_policy(*args))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_run_policy", recording)
        if cycle is not None:
            mp.setattr(protocol, "_cycle_factorized", cycle)
        with suppress(SimulationError):
            run_refrigerator_protocol(cfg, channel, logical_ket=ket)
    assert len(runs) == 2
    return np.array([[(rec.logical_fidelity, rec.entropy_bits) for rec in records] for records, _ in runs])


@settings(max_examples=8)
@given(
    thermal=st.booleans(),
    gamma=st.floats(0.3, 0.5),
    excited=st.floats(0.02, 0.15),
    r=st.integers(1, 3),
    cycles=st.integers(20, 60),
    theta=st.floats(0, np.pi),
    phi=st.floats(0, 2 * np.pi),
)
# the searched storage_T (49) is below D' = 60, so the last cycles draw
# recycled qubits, and the order in which a cycle returns qubits to storage
# decides which later draw gets which
@example(thermal=False, gamma=0.3, excited=0.0, r=2, cycles=60, theta=np.pi, phi=0.0)
def test_marginal_simulation_matches_joint_register(thermal, gamma, excited, r, cycles, theta, phi):
    kraus = thermal_kraus(gamma, excited) if thermal else amplitude_damping_kraus(gamma)
    channel = kraus_to_superop(kraus)
    # the oracle's 9-qubit register costs ~0.1 s a cycle at R = 3
    cfg = ProtocolConfig(d_prime=cycles if r < 3 else min(cycles, 4), r_block=r)
    ket = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    got = _policy_records(channel, cfg, ket)
    want = _policy_records(channel, cfg, ket, cycle_joint)
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=8)
@given(
    kind=st.sampled_from(["thermal", "amplitude_damping", "hadamard_amplitude_damping"]),
    gamma=st.floats(0.3, 0.5),
    excited=st.floats(0.02, 0.15),
    r=st.integers(1, 3),
    cycles=st.integers(20, 60),
    theta=st.floats(0, np.pi),
    phi=st.floats(0, 2 * np.pi),
)
def test_prefilled_run_is_powers_of_the_logical_channel(kind, gamma, excited, r, cycles, theta, phi):
    # with storage_T above D' every draw is prefilled, so both ancillas are
    # the kernel's reset marginal a of a prefilled block, and a cycle is the
    # qubit channel L = (the read map's sigma rows) W (I (x) vec a (x) vec a)
    # on the logical qubit: cycle t's fidelity is <psi|L^t(|psi><psi|)|psi>
    kraus = thermal_kraus(gamma, excited) if kind == "thermal" else amplitude_damping_kraus(gamma)
    u = _H if kind.startswith("hadamard") else np.eye(2)
    channel = kraus_to_superop(KrausSet([u @ k @ u for k in kraus.ops]))
    d_prime = cycles if r < 3 else min(cycles, 4)
    cfg = ProtocolConfig(d_prime=d_prime, r_block=r, storage_T=d_prime + 1)
    ket = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    calls = []

    def recording(rho3, drawn, kernel, cycle):
        calls.append((drawn, kernel, cycle))
        return cycle_joint(rho3, drawn, kernel, cycle)

    want = _policy_records(channel, cfg, ket, recording)[0, :, 0]
    got = _policy_records(channel, cfg, ket)[0, :, 0]
    drawn, kernel, cycle = calls[0]
    assert all(np.array_equal(later, drawn) for later, _, _ in calls)
    reset = kernel(np.array(drawn[:r]))[0].reshape(4, 1)
    logical = cycle.read[:4] @ cycle.write @ np.kron(np.eye(4), np.kron(reset, reset))
    sigma = np.outer(ket, ket.conj()).reshape(4)
    predicted = []
    for _ in range(d_prime):
        sigma = logical @ sigma
        predicted.append((np.kron(ket.conj(), ket) @ sigma).real)
    assert np.max(np.abs(np.array(predicted) - want)) <= 1e-12
    assert np.max(np.abs(np.array(predicted) - got)) <= 1e-12


@settings(max_examples=60)
@given(
    kind=st.sampled_from(["thermal", "amplitude_damping", "hadamard_amplitude_damping", "haar_thermal"]),
    gamma=st.floats(0.01, 0.9),
    excited=st.floats(0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_cycle_matches_the_dense_oracle(kind, gamma, excited, seed):
    # the Hadamard frame and the Haar dressing U K V give noise whose natural
    # rep mixes populations and coherences
    rng = np.random.default_rng(seed)
    kraus = amplitude_damping_kraus(gamma) if kind.endswith("amplitude_damping") else thermal_kraus(gamma, excited)
    u, v = {
        "hadamard_amplitude_damping": (_H, _H),
        "haar_thermal": (random_unitary(rng), random_unitary(rng)),
    }.get(kind, (np.eye(2), np.eye(2)))
    nat = kraus_to_superop(KrausSet([u @ k @ v for k in kraus.ops])).natural()
    rho3 = _random_state(rng, 8)
    ancillas = [_random_state(rng, 2), _random_state(rng, 2)]
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    ket /= np.linalg.norm(ket)
    _, cycle = protocol._compile_data_cycle(nat, ket)
    got_rho, got_garbage = protocol._cycle_stale(rho3, ancillas, cycle)
    want_rho, want_garbage = cycle_stale_dense(rho3, ancillas, nat)
    assert np.max(np.abs(got_rho - want_rho)) <= 1e-12
    assert np.max(np.abs(np.array(got_garbage) - np.array(want_garbage))) <= 1e-12
    [got] = protocol._records(got_rho[None], cycle.fidelity)
    want = record_dense(1, got_rho, ket)
    assert abs(got.logical_fidelity - want.logical_fidelity) <= 1e-12
    assert abs(got.entropy_bits - want.entropy_bits) <= 1e-12


def test_stale_run_keeps_a_real_trace(monkeypatch):
    # a mixed Kraus form leaves rounding-sized imaginary parts on the
    # populations; the stale run's trace follows T_{k+1} = T_k^3, so an
    # imaginary part of T that is not divided out triples every cycle
    rng = np.random.default_rng(3)
    v = random_unitary(rng)
    kraus = amplitude_damping_kraus(0.01).ops
    channel = kraus_to_superop(KrausSet([v[i, 0] * kraus[0] + v[i, 1] * kraus[1] for i in range(2)]))
    ket = np.array([np.sin(0.2) * np.exp(2j), np.cos(0.2)])
    traces = []
    renorm = protocol._renorm

    def recording(rho):
        traces.append(np.trace(rho, axis1=-2, axis2=-1))
        return renorm(rho)

    monkeypatch.setattr(protocol, "_renorm", recording)
    run_refrigerator_protocol(ProtocolConfig(d_prime=50, r_block=1, storage_T=1558), channel, logical_ket=ket)
    assert max(np.abs(t.imag).max() for t in traces) <= 1e-12
