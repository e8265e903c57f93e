"""Algorithmic cooling: block sizing, permutation compilation, ideal/noisy runs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfridge import densim, fridge
from qfridge.channels import (
    ChannelError,
    KrausSet,
    amplitude_damping_kraus,
    dephasing_kraus,
    depolarizing_kraus,
    kraus_to_superop,
    thermal_kraus,
)
from qfridge.densim import apply_channel, apply_single_qubit_superop, apply_unitary, partial_trace
from qfridge.fridge import (
    CoolingError,
    FridgeSpec,
    MarginalKernel,
    _block_probabilities,
    build_cooling_circuit,
    bottom_mass,
    choose_R,
    cool_populations,
    run_fridge_ideal,
    run_fridge_noisy,
    top_mass,
)

from oracles import (apply_permutation, choose_R_bisect, choose_R_linear, ideal_run_stage_walk, permutation_unitary,
                     random_unitary, stage_unitary)


def h2(x):
    if x <= 0 or x >= 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def brute_top_mass(q, r):
    """Enumeration oracle: sort all 2^R basis probabilities, sum the top half."""
    probs = sorted(_block_probabilities(q, r), reverse=True)
    return sum(probs[: 2 ** (r - 1)])


def test_top_mass_matches_enumeration():
    for q in (0.05, 0.1, 0.25, 0.4, 0.45):
        for r in range(1, 11):
            assert abs(top_mass(q, r) - brute_top_mass(q, r)) < 1e-12


def test_top_mass_large_r_no_enumeration():
    # closed form handles block sizes far past any 2^R table
    assert 0.99 < top_mass(0.3, 500) <= 1.0


def exact_top_mass(q, r, bottom=False):
    """top_mass in exact integer arithmetic on the float q's exact value
    num/den: the sum of take * (den - num)^(r - w) num^w over den^r, rounded
    once by the integer true division.  With ``bottom``, bottom_mass: den^r
    less that sum, over den^r."""
    num, den = q.as_integer_ratio()
    target, taken, total = 2 ** (r - 1), 0, 0
    term = (den - num) ** r  # (den - num)^(r - w) num^w at weight w
    for weight in range(r + 1):
        take = min(math.comb(r, weight), target - taken)
        total += take * term
        taken += take
        if taken == target:
            return (den**r - total if bottom else total) / den**r
        term = term // (den - num) * num


def test_top_mass_past_float_class_sizes():
    # from R ~ 1030 a binomial class holds more than 1.8e308 states, so its
    # size times its probability no longer fits a float product
    assert math.comb(1100, 550) > 2**1024
    got = top_mass(0.49, 1100)
    want = exact_top_mass(0.49, 1100)
    assert abs(got - want) <= 1e-12
    assert 0.5 < got < 1


def test_bottom_mass_keeps_its_precision_past_the_top_mass_rounding():
    # 2(1 - top_mass(0.375, r)) is rounding from R ~ 1000 on and reads
    # 1.6e-13 at R = 4096, so a search on it called eps2 = 1e-14 infeasible
    for r in (1, 2, 7, 928, 929, 2048, 4096):
        want = exact_top_mass(0.375, r, bottom=True)
        assert abs(bottom_mass(0.375, r) - want) <= 1e-12 * want
    assert 2 * exact_top_mass(0.375, 928, bottom=True) >= 1e-14 > 2 * exact_top_mass(0.375, 929, bottom=True)
    assert choose_R(0.375, 1e-14) == 929


def test_choose_r_examples():
    assert choose_R(0.1, 0.06) == 3
    assert choose_R(0.0, 0.1) == 1


def test_choose_r_minimality():
    for q in (0.05, 0.15, 0.3, 0.45):
        for eps2 in (0.01, 0.05, 0.2, 0.5):
            r = choose_R(q, eps2)
            assert 2 * (1 - top_mass(q, r)) < eps2
            if r > 1:
                assert 2 * (1 - top_mass(q, r - 1)) >= eps2


def test_choose_r_monotonicity():
    qs = np.arange(0.05, 0.46, 0.05)
    epss = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
    for q in qs:
        rs = [choose_R(q, e) for e in epss]
        assert rs == sorted(rs, reverse=True)  # non-increasing in eps2
    for e in epss:
        rs = [choose_R(q, e) for q in qs]
        assert rs == sorted(rs)  # non-decreasing in q


def test_choose_r_bisection_matches_the_linear_scan():
    for q in np.arange(0.01, 0.46, 0.04):
        for eps2 in (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0):
            assert choose_R(float(q), eps2) == choose_R_linear(float(q), eps2)


def _search_outcome(search, q, eps2):
    try:
        return search(q, eps2)
    except CoolingError as err:
        return str(err)


@settings(max_examples=80, deadline=None)
@given(q=st.floats(0, 0.5), log_eps2=st.floats(-16, 0.5))
@example(q=1e-16, log_eps2=math.log10(0.2))
@example(q=0.1, log_eps2=math.log10(0.2))
@example(q=0.45, log_eps2=-3)
@example(q=0.3, log_eps2=-6)
@example(q=0.01, log_eps2=-9)
@example(q=0.49, log_eps2=-3)  # no R up to MAX_R_SEARCH
def test_choose_r_gallop_matches_the_bisection(q, log_eps2):
    eps2 = 10.0**log_eps2
    assert _search_outcome(choose_R, q, eps2) == _search_outcome(choose_R_bisect, q, eps2)


def test_choose_r_center_infeasible():
    with pytest.raises(CoolingError):
        choose_R(0.5, 0.1)


def test_spec_validation():
    with pytest.raises(CoolingError):
        FridgeSpec(q=0.6, r_block=2, permutation=(0, 1, 2, 3))
    with pytest.raises(CoolingError):
        FridgeSpec(q=0.1, r_block=2, permutation=(0, 0, 2, 3))
    with pytest.raises(TypeError):
        FridgeSpec(q=0.1, r_block=2, permutation=(0, 1, 2, 3), f_count=2)


@settings(max_examples=100)
@given(r=st.integers(1, 4), data=st.data())
def test_spec_accepts_exactly_the_bijections(r, data):
    # the cycle walk itself rejects a label out of range or reached twice
    labels = data.draw(st.one_of(
        st.permutations(range(2**r)),
        st.lists(st.integers(-1, 2**r), min_size=2**r - 1, max_size=2**r + 1),
    ))
    if sorted(labels) == list(range(2**r)):
        assert FridgeSpec(0.1, r, tuple(labels)).permutation.tolist() == list(labels)
    else:
        with pytest.raises(CoolingError, match="not a bijection"):
            FridgeSpec(0.1, r, tuple(labels))


def test_register_cap_is_an_input_error():
    # checked before any 2^R enumeration, and not reported as infeasible cooling
    message = "a cooling block of 25 qubits needs 4294967296 bytes, above the memory budget"
    with pytest.raises(ValueError, match=message) as info:
        build_cooling_circuit(0.1, 25)
    assert not isinstance(info.value, CoolingError)
    with pytest.raises(ValueError, match=message):
        FridgeSpec(q=0.1, r_block=25, permutation=())


def test_stages_are_transposition_index_maps():
    spec = build_cooling_circuit(0.1, 3)
    for array in (spec.permutation, spec.stages):
        assert array.dtype == np.intp and not array.flags.writeable
    assert spec.stages.tolist() == [[3, 4]]
    # the wait stage is a self-swap
    assert build_cooling_circuit(0.1, 2).stages.tolist() == [[0, 0]]


def test_build_cooling_circuit_q01_r3():
    spec = build_cooling_circuit(0.1, 3)
    # the only out-of-order pair at q=0.1 is labels 3 (two ones) and 4 (one one)
    assert spec.permutation.tolist() == [0, 1, 2, 4, 3, 5, 6, 7]
    assert len(spec.stages) == 1 and spec.f_count == 3
    # stage product realizes the permutation
    u = np.eye(8)
    for i in range(len(spec.stages)):
        u = stage_unitary(spec, i) @ u
    assert np.allclose(u, permutation_unitary(spec))


def test_identity_permutation_gets_wait_stage():
    spec = build_cooling_circuit(0.1, 2)
    assert spec.permutation.tolist() == [0, 1, 2, 3]
    assert len(spec.stages) == 1 and spec.f_count == 2
    assert np.allclose(stage_unitary(spec, 0), np.eye(4))


def test_ideal_run_reset_population():
    spec = build_cooling_circuit(0.1, 3)
    report = run_fridge_ideal(spec)
    assert abs(report.reset_state[0, 0].real - top_mass(0.1, 3)) < 1e-12
    assert abs(report.reset_distance - 2 * (1 - top_mass(0.1, 3))) < 1e-12


@pytest.mark.parametrize("q", [0.01, 0.1, 0.3])
def test_ideal_run_gathers_what_the_stages_swap(monkeypatch, q):
    # one gather by the inverse permutation, bit for bit the stage walk
    want = {r: ideal_run_stage_walk(build_cooling_circuit(q, r)) for r in range(1, 11)}

    def no_stage_walk(*args):
        raise AssertionError("an ideal run walked its stages")

    monkeypatch.setattr(fridge, "_swap_rows", no_stage_walk)
    for r, walk in want.items():
        report = run_fridge_ideal(build_cooling_circuit(q, r))
        assert np.array_equal(report.reset_state, walk.reset_state)
        assert report.reset_distance == walk.reset_distance
        assert report.waste_entropy == walk.waste_entropy


def test_ideal_run_reset_population_at_r16():
    report = run_fridge_ideal(build_cooling_circuit(0.1, 16))
    assert abs(report.reset_state[0, 0].real - top_mass(0.1, 16)) <= 1e-12


def test_ideal_run_entropy_conservation():
    """The permutation is reversible: total entropy stays R h(q); the waste
    register carries everything the reset qubit gave up."""
    for q, r in ((0.1, 3), (0.2, 4), (0.3, 3)):
        spec = build_cooling_circuit(q, r)
        report = run_fridge_ideal(spec)
        reset_entropy = -sum(
            x * math.log2(x)
            for x in np.linalg.eigvalsh(report.reset_state).real
            if x > 1e-15
        )
        # subadditivity on a reversibly permuted product state
        assert report.waste_entropy + reset_entropy >= r * h2(q) - 1e-10
        assert report.waste_entropy <= r * h2(q) + 1e-10


def test_sorting_beats_random_unitaries_at_r2():
    """Majorization optimality probe: no unitary pushes more reset weight than
    the top-half eigenvalue mass."""
    rng = np.random.default_rng(41)
    q = 0.2
    best = top_mass(q, 2)
    single = np.diag([1 - q, q]).astype(complex)
    rho = np.kron(single, single)
    for _ in range(300):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        out = u @ rho @ u.conj().T
        pop = (out[0, 0] + out[1, 1]).real  # reset qubit |0> population
        assert pop <= best + 1e-9


def test_noisy_run_within_location_bound():
    spec = build_cooling_circuit(0.1, 3)
    noise = kraus_to_superop(amplitude_damping_kraus(0.02))
    report = run_fridge_noisy(spec, noise)
    ideal = run_fridge_ideal(spec)
    # noise is weak: the noisy reset stays in the same ballpark
    assert report.reset_distance < ideal.reset_distance + 3 * spec.f_count * 0.04


def _random_psd(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


_biases = st.floats(0, 0.5, exclude_max=True)
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60)
@given(q=_biases, r=st.integers(1, 10))
@example(q=0.0, r=10)
@example(q=1e-300, r=10)
def test_sorting_order_matches_python_sort(q, r):
    probs = _block_probabilities(q, r)
    order = sorted(range(2**r), key=lambda x: (-probs[x], x))
    # the i-th most likely label goes to label i
    assert build_cooling_circuit(q, r).permutation[order].tolist() == list(range(2**r))


def test_underflowed_weights_sort_by_label():
    # at q = 1e-300 every label with two or more 1 bits has probability
    # exactly 0, so those ties fall back to label order: 7 (three bits)
    # comes before 9 (two bits), which a sort by popcount alone would swap
    r = 10
    probs = _block_probabilities(1e-300, r)
    assert probs[7] == probs[9] == 0
    permutation = build_cooling_circuit(1e-300, r).permutation
    assert permutation[7] < permutation[9]
    by_popcount = sorted(range(2**r), key=lambda x: (bin(x).count("1"), x))
    assert permutation[by_popcount].tolist() != list(range(2**r))


def cycle_transpositions(permutation) -> list:
    """Oracle decomposition: for each cycle, found from ascending start
    labels, the start swapped with each later member in cycle order."""
    seen = set()
    pairs = []
    for start, x in enumerate(permutation):
        if start in seen:
            continue
        seen.add(start)
        while x != start:
            pairs.append((start, x))
            seen.add(x)
            x = permutation[x]
    return pairs


_blocks_and_permutations = st.integers(1, 8).flatmap(
    lambda r: st.tuples(st.just(r), st.permutations(range(2**r)))
)


@settings(max_examples=40)
@given(q=_biases, r_and_permutation=_blocks_and_permutations)
@example(q=0.0, r_and_permutation=(3, [7, 6, 5, 4, 3, 2, 1, 0]))
def test_spec_derives_its_stages_from_the_permutation(q, r_and_permutation):
    r, permutation = r_and_permutation
    for spec in (build_cooling_circuit(q, r), FridgeSpec(q, r, tuple(permutation))):
        # a permutation matrix is fixed by where it sends distinct entries
        labels = np.arange(2**r)
        for i in range(len(spec.stages)):
            labels = stage_unitary(spec, i) @ labels
        assert np.array_equal(labels, permutation_unitary(spec) @ np.arange(2**r))
        # one stage per transposition, or one wait stage
        want = cycle_transpositions(spec.permutation) or [(0, 0)]
        assert spec.f_count == len(want) * r
        assert spec.stages.tolist() == [list(pair) for pair in want]
        assert spec.stages.dtype == np.intp


@settings(max_examples=40)
@given(q=_biases, r=st.integers(1, 6), seed=_seeds)
def test_index_map_ideal_run_equals_dense_permutation(q, r, seed):
    # the tests' oracle gathers arbitrary blocks, so any state, not just the thermal one
    spec = build_cooling_circuit(q, r)
    rho = _random_psd(np.random.default_rng(seed), 2**r)
    p = permutation_unitary(spec)
    assert np.array_equal(apply_permutation(rho, spec), p @ rho @ p.T)


def test_marginal_kernel_matches_the_populations_at_r13():
    # no dense oracle fits at R = 13; on a diagonal block the populations
    # gather is exact, and each marginal is diagonal, a reshaped sum of it
    r = 13
    spec = build_cooling_circuit(0.1, r)
    p = np.random.default_rng(13).uniform(0, 1, r)
    diagonals = np.stack([1 - p, p], axis=1)
    got = MarginalKernel(spec)((diagonals[:, :, None] * np.eye(2)).astype(complex))
    cube = cool_populations(diagonals, spec).reshape((2,) * r)
    want = [np.diag(cube.sum(axis=tuple(j for j in range(r) if j != i))) for i in range(r)]
    assert np.max(np.abs(got - np.array(want))) <= 1e-12


def _reduced(rho, r):
    """(reset state, reset distance, waste entropy) of a dense final state."""
    reset = partial_trace(rho, [0], r)
    distance = np.sum(np.abs(np.linalg.eigvalsh(reset - np.diag([1.0, 0.0]))))
    entropy = 0.0
    if r > 1:
        waste = np.linalg.eigvalsh(partial_trace(rho, list(range(1, r)), r))
        waste = waste[waste > 1e-12]
        entropy = -np.sum(waste * np.log2(waste))
    return reset, distance, entropy


def _thermal_block(q, r):
    rho = np.diag([1 - q, q]).astype(complex)
    for _ in range(r - 1):
        rho = np.kron(rho, np.diag([1 - q, q]))
    return rho


def _conjugated(kraus_set, u):
    """The channel u N(u^dag . u) u^dag: the noise N in a rotated frame."""
    return KrausSet([u @ k @ u.conj().T for k in kraus_set.ops])


def _dense_reference(spec, noise):
    """Oracle: the thermal block through every stage as a dense 2^R x 2^R
    unitary, R noise passes each; returns (reset state, reset distance,
    waste entropy)."""
    r = spec.r_block
    rho = _thermal_block(spec.q, r)
    nat = noise.natural()
    for i in range(len(spec.stages)):
        rho = apply_unitary(rho, stage_unitary(spec, i), list(range(r)), r)
        for q_idx in range(r):
            rho = apply_single_qubit_superop(rho, nat, q_idx, r)
    return _reduced(rho, r)


def _assert_matches_reference(report, reference):
    reset, distance, entropy = reference
    assert np.max(np.abs(report.reset_state - reset)) <= 1e-12
    assert abs(report.reset_distance - distance) <= 1e-12
    assert abs(report.waste_entropy - entropy) <= 1e-12


def _count_dense_passes(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return apply_channel(*args)

    monkeypatch.setattr(densim, "apply_channel", counted)
    return calls


_DAMPING = {
    "amplitude_damping": amplitude_damping_kraus,
    "thermal": lambda s: thermal_kraus(s, 0.1),
}


@settings(max_examples=25)
@given(q=_biases, r=st.integers(1, 6), kind=st.sampled_from(sorted(_DAMPING)), gamma=st.floats(0.01, 0.2), seed=_seeds)
def test_noisy_run_matches_dense_stage_by_stage_reference(q, r, kind, gamma, seed):
    # damping in a Haar-random frame maps populations into coherences, so
    # the run takes the dense path
    spec = build_cooling_circuit(q, r)
    noise = kraus_to_superop(_conjugated(_DAMPING[kind](gamma), random_unitary(np.random.default_rng(seed))))
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_dense_passes(mp)
        report = run_fridge_noisy(spec, noise)
    assert len(calls) == len(spec.stages) * r
    _assert_matches_reference(report, _dense_reference(spec, noise))


@settings(max_examples=40)
@given(q=_biases, r=st.integers(1, 6))
def test_ideal_run_matches_permutation_unitary(q, r):
    spec = build_cooling_circuit(q, r)
    report = run_fridge_ideal(spec)
    p = permutation_unitary(spec)
    _assert_matches_reference(report, _reduced(p @ _thermal_block(q, r) @ p.T, r))


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_DIAGONAL_NOISE = {
    **_DAMPING,
    "dephasing": dephasing_kraus,
    "depolarizing": depolarizing_kraus,
}


def _mixed_kraus_form(kraus_set, rng):
    """The same channel written as K'_i = sum_j V_ij K_j for a random unitary V;
    its natural rep then leaks ~1e-18 into the coherences by rounding."""
    ops = kraus_set.ops
    g = rng.normal(size=(len(ops), len(ops))) + 1j * rng.normal(size=(len(ops), len(ops)))
    v, _ = np.linalg.qr(g)
    return KrausSet([sum(v[i, j] * ops[j] for j in range(len(ops))) for i in range(len(ops))])


# a monomial rotation (a permutation with phases on the axes) keeps diagonal
# states exactly diagonal, so noise in its frame still runs on the populations;
# phases off the axes would leave ~1e-17 imaginary parts on the diagonal
_monomials = st.builds(
    lambda flip, phases: np.diag(phases) @ (np.eye(2)[::-1] if flip else np.eye(2)),
    st.booleans(),
    st.lists(st.sampled_from([1, 1j, -1, -1j]), min_size=2, max_size=2),
)


@settings(max_examples=60)
@given(
    q=_biases,
    r=st.integers(1, 6),
    kind=st.sampled_from(sorted(_DIAGONAL_NOISE)),
    strength=st.floats(0, 0.2),
    u=_monomials,
    seed=_seeds,
)
def test_vector_path_matches_dense_oracle(q, r, kind, strength, u, seed):
    rng = np.random.default_rng(seed)
    noise = kraus_to_superop(_conjugated(_mixed_kraus_form(_DIAGONAL_NOISE[kind](strength), rng), u))
    spec = build_cooling_circuit(q, r)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_dense_passes(mp)
        report = run_fridge_noisy(spec, noise)
    assert not calls
    _assert_matches_reference(report, _dense_reference(spec, noise))


@settings(max_examples=40)
@given(q=_biases, r=st.integers(1, 6), kind=st.sampled_from(sorted(_DIAGONAL_NOISE)), u=_monomials)
def test_bound_check_takes_ideal_distance_from_populations(q, r, kind, u):
    spec = build_cooling_circuit(q, r)
    p = permutation_unitary(spec)
    expected = _reduced(p @ _thermal_block(q, r) @ p.T, r)[1]
    seen = []

    def recorded(*args, **kwargs):
        seen.append(run_fridge_ideal(*args, **kwargs))
        return seen[-1]

    def no_partial_trace(*args):
        raise AssertionError("dense reduction on a diagonal run")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fridge, "run_fridge_ideal", recorded)
        mp.setattr(fridge, "partial_trace", no_partial_trace)
        run_fridge_noisy(spec, kraus_to_superop(_conjugated(_DIAGONAL_NOISE[kind](0.01), u)))
    assert len(seen) == 1
    assert abs(seen[0].reset_distance - expected) <= 1e-12


@pytest.mark.parametrize(
    "noise",
    [amplitude_damping_kraus(0.05), thermal_kraus(0.05, 0.1)],
    ids=["hadamard_conjugated_damping", "hadamard_conjugated_thermal"],
)
def test_off_diagonal_runs_fall_back_to_dense_kernel(monkeypatch, noise):
    spec = build_cooling_circuit(0.1, 4)
    noise = kraus_to_superop(_conjugated(noise, _H))
    calls = _count_dense_passes(monkeypatch)
    report = run_fridge_noisy(spec, noise)
    assert len(calls) == len(spec.stages) * spec.r_block
    _assert_matches_reference(report, _dense_reference(spec, noise))
