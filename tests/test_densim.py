"""Density-matrix simulator: gates, noise, partial trace, entropies."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge.channels import (
    ChannelError,
    KrausSet,
    SuperOp,
    dephasing_kraus,
    depolarizing_kraus,
    kraus_to_superop,
)
from qfridge.densim import (
    DATA,
    NAMED_GATES,
    PSD_ATOL,
    REFERENCE,
    GateLayer,
    QRegister,
    SimulationError,
    apply_single_qubit_superop,
    apply_unitary,
    compile_layers,
    conditional_entropy,
    dephase_all,
    entropy_bits,
    epr_fidelity,
    epr_register,
    evolve,
    information,
    partial_trace,
    relative_entropy,
    step,
    von_neumann_entropy,
)

ZERO = np.diag([1.0, 0.0]).astype(complex)
ONE = np.diag([0.0, 1.0]).astype(complex)


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_register_validation():
    with pytest.raises(SimulationError):
        QRegister(np.eye(2), [DATA])  # trace 2
    with pytest.raises(SimulationError):
        QRegister(np.eye(4) / 4, [DATA])  # dimension mismatch
    with pytest.raises(SimulationError):
        QRegister(np.diag([1.5, -0.5]).astype(complex), [DATA])  # negative eigenvalue


def count_eigvalsh():
    """Patch numpy's eigvalsh with a call-counting wrapper."""
    return mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh)


@settings(max_examples=80)
@given(
    n=st.integers(1, 6),
    min_eig=st.sampled_from([-2e-9, -1.01e-9, -0.99e-9, -1e-10, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_psd_check_matches_smallest_eigenvalue(n, min_eig, seed):
    """A unitarily rotated trace-1 Hermitian matrix (dims 2..64) is accepted
    exactly when its smallest eigenvalue is >= -PSD_ATOL, without computing a
    spectrum; a rejection reports the eigenvalue."""
    dim = 2**n
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.1, 1.0, size=dim - 1)
    eigs = np.concatenate([[min_eig], rest * (1 - min_eig) / rest.sum()])
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(g)
    rho = (u * eigs) @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    with count_eigvalsh() as eigvalsh:
        if min_eig >= -PSD_ATOL:
            QRegister(rho, [DATA] * n)
            assert eigvalsh.call_count == 0
        else:
            with pytest.raises(SimulationError, match="eigenvalue") as err:
                QRegister(rho, [DATA] * n)
            reported = float(re.search(r"eigenvalue (\S+) <", str(err.value)).group(1))
            assert abs(reported - min_eig) < 1e-12


def argument_shapes(patched):
    return [call.args[0].shape for call in patched.call_args_list]


@settings(max_examples=80)
@given(
    n=st.integers(1, 6),
    k=st.integers(1, 32),
    min_eig=st.sampled_from([-2e-9, -1.01e-9, -0.99e-9, -1e-10, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_checks_run_on_the_exact_support(n, k, min_eig, seed):
    """A random block (dims 1..32) placed by a random permutation into a
    2^n matrix that is otherwise exactly zero: the register accepts it
    exactly when the block's smallest eigenvalue is >= -PSD_ATOL, a
    rejection reports that eigenvalue, the entropy is the block's, and the
    linear algebra runs on the block alone."""
    dim = 2**n
    k = min(k, dim)
    rng = np.random.default_rng(seed)
    if k == 1:
        eigs = np.array([1.0])
    else:
        rest = rng.uniform(0.1, 1.0, size=k - 1)
        eigs = np.concatenate([[min_eig], rest * (1 - min_eig) / rest.sum()])
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    u, _ = np.linalg.qr(g)
    block = (u * eigs) @ u.conj().T
    block = (block + block.conj().T) / 2
    idx = rng.permutation(dim)[:k]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.ix_(idx, idx)] = block
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        if eigs[0] >= -PSD_ATOL:
            reg = QRegister(rho, [DATA] * n)
            assert abs(von_neumann_entropy(reg) - entropy_bits(block)) < 1e-12
        else:
            with pytest.raises(SimulationError, match="eigenvalue") as err:
                QRegister(rho, [DATA] * n)
            reported = float(re.search(r"eigenvalue (\S+) <", str(err.value)).group(1))
            assert abs(reported - eigs[0]) < 1e-12
    assert argument_shapes(cholesky) == [(k, k)]


def test_support_keeps_an_index_whose_column_is_nonzero():
    """Row 0 is zero but column 0 holds a 1e-11 entry (Hermitian within
    TRACE_ATOL): index 0 stays, only the all-zero index 3 is dropped."""
    rho = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    rho[2, 0] = 1e-11
    want = entropy_bits(rho)
    with count_eigvalsh() as eigvalsh:
        got = von_neumann_entropy(QRegister(rho, [DATA] * 2))
    assert argument_shapes(eigvalsh) == [(3, 3)]
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("keep", [[1, 1], [3], [-1], [0, 3]])
def test_bad_qubit_subsets_raise_simulation_error(keep):
    reg = QRegister(np.eye(8, dtype=complex) / 8, [DATA] * 3)
    pattern = re.escape(str(keep))
    with pytest.raises(SimulationError, match=pattern):
        partial_trace(reg.rho, keep, 3)
    with pytest.raises(SimulationError, match=pattern):
        von_neumann_entropy(reg, keep)


def partial_trace_by_axis(rho, keep, n):
    """The per-axis np.trace loop partial_trace once used, kept as an oracle."""
    keep = list(keep)
    tensor = rho.reshape((2,) * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + tensor.ndim // 2)
    # axes now correspond to sorted(keep); reorder to the requested order
    current = sorted(keep)
    m = len(keep)
    perm = [current.index(q) for q in keep]
    tensor = tensor.transpose(perm + [m + p for p in perm])
    return tensor.reshape(2**m, 2**m)


@settings(max_examples=80)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_partial_trace_matches_per_axis_loop(n, seed):
    rng = np.random.default_rng(seed)
    dim = 2**n
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    keep = [int(q) for q in rng.permutation(n)[: rng.integers(0, n + 1)]]
    got = partial_trace(rho, keep, n)
    want = partial_trace_by_axis(rho, keep, n)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12


@pytest.mark.parametrize(
    "build, too_far",
    [
        (lambda e: QRegister(np.array([[0.5, 0.3], [0.3 + 1j * e, 0.5]]), [DATA]), 2e-6),
        (lambda e: GateLayer([((1 + e) * np.eye(2), (0,))]), 4e-6),
        (lambda e: KrausSet([(1 + e) * np.eye(2)]), 4e-6),
        (lambda e: SuperOp(np.diag([1 + e, 1, 1, 1])), 5e-6),
    ],
    ids=["hermitian", "unitary", "trace_preserving", "ptm_first_row"],
)
def test_tolerance_checks_are_absolute(build, too_far):
    """Each check holds to its stated 1e-10 absolute tolerance, not the
    1e-5 relative slack np.allclose adds by default, and rejects NaN."""
    build(2e-11)
    for bad in (too_far, float("nan")):
        with pytest.raises((SimulationError, ChannelError)):
            build(bad)


def test_memoised_entropy_equals_fresh_spectrum():
    rng = np.random.default_rng(35)
    reg = step(
        QRegister(random_state(rng, 4), [REFERENCE, DATA, DATA, DATA]),
        GateLayer([]),
        kraus_to_superop(depolarizing_kraus(0.2)),
    )
    subsets = [None, [0, 1, 2, 3], [1, 2, 3], [2], [3, 0], [0, 3]]
    for _ in range(2):  # the second pass reads the memo
        for subset in subsets:
            want = entropy_bits(reg.rho if subset is None else partial_trace(reg.rho, subset, 4))
            assert von_neumann_entropy(reg, subset) == want
    sys = reg.system_qubits
    assert information(reg) == len(sys) - von_neumann_entropy(reg, sys)


def test_entropy_memo_keys():
    rng = np.random.default_rng(36)
    reg = QRegister(random_state(rng, 3), [DATA] * 3)
    with count_eigvalsh() as eigvalsh, mock.patch(
        "qfridge.densim.partial_trace", wraps=partial_trace
    ) as ptrace:
        von_neumann_entropy(reg)
        von_neumann_entropy(reg, [0, 1, 2])  # same entry as the default
        von_neumann_entropy(reg, (0, 1, 2))
        assert (eigvalsh.call_count, ptrace.call_count) == (1, 0)
        # a reordered subset is its own entry and traces its own state
        von_neumann_entropy(reg, [0, 1])
        von_neumann_entropy(reg, [1, 0])
        von_neumann_entropy(reg, [1, 0])
        assert (eigvalsh.call_count, ptrace.call_count) == (3, 2)
    assert von_neumann_entropy(reg, [0, 1]) == entropy_bits(partial_trace(reg.rho, [0, 1], 3))
    assert von_neumann_entropy(reg, [1, 0]) == entropy_bits(partial_trace(reg.rho, [1, 0], 3))
    for _ in range(2):  # a subset that raises is not stored
        with pytest.raises(SimulationError):
            von_neumann_entropy(reg, [])


def test_step_result_has_its_own_memo():
    reg = epr_register(extra_system=1)
    before = von_neumann_entropy(reg, [1, 2])
    out = step(reg, GateLayer([]), kraus_to_superop(depolarizing_kraus(0.3)))
    after = von_neumann_entropy(out, [1, 2])
    assert after == entropy_bits(partial_trace(out.rho, [1, 2], 3))
    assert after > before + 0.1
    assert von_neumann_entropy(reg, [1, 2]) == before


def test_register_cap():
    with pytest.raises(SimulationError):
        QRegister(np.eye(2**13) / 2**13, [DATA] * 13)


def test_apply_unitary_agrees_with_dense_kron():
    """Targeted application must match the full kron-built unitary."""
    rng = np.random.default_rng(31)
    n = 4
    rho = random_state(rng, n)
    cnot = NAMED_GATES["CNOT"]
    # act on qubits (2, 0): compare against an explicitly permuted dense matrix
    got = apply_unitary(rho, cnot, [2, 0], n)
    big = np.zeros((16, 16), dtype=complex)
    for x in range(16):
        bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
        control, target = bits[2], bits[0]
        bits[0] = target ^ control
        y = sum(b << (n - 1 - q) for q, b in enumerate(bits))
        big[y, x] = 1.0
    assert np.allclose(got, big @ rho @ big.conj().T, atol=1e-12)


def apply_unitary_two_loops(rho, u, targets, n):
    """The hand-built permutation loops apply_unitary once used, kept as an
    oracle."""
    k = len(targets)
    tensor = rho.reshape((2,) * (2 * n))
    u_t = u.reshape((2,) * (2 * k))
    # ket side
    tensor = np.tensordot(u_t, tensor, axes=(list(range(k, 2 * k)), list(targets)))
    # tensordot moved the gate's output axes to the front; restore axis order
    dest = list(targets)
    src = list(range(k))
    remaining = [ax for ax in range(2 * n) if ax not in dest]
    perm = [0] * (2 * n)
    for s, d in zip(src, dest):
        perm[d] = s
    for s, d in zip(range(k, 2 * n), remaining):
        perm[d] = s
    tensor = tensor.transpose(perm)
    # bra side
    bra_targets = [n + q for q in targets]
    tensor = np.tensordot(np.conj(u_t), tensor, axes=(list(range(k, 2 * k)), bra_targets))
    dest = bra_targets
    perm = [0] * (2 * n)
    for s, d in zip(range(k), dest):
        perm[d] = s
    remaining = [ax for ax in range(2 * n) if ax not in dest]
    for s, d in zip(range(k, 2 * n), remaining):
        perm[d] = s
    tensor = tensor.transpose(perm)
    return tensor.reshape(2**n, 2**n)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=80)
@given(n=st.integers(1, 6), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_gate_kernel_matches_two_loop_oracle(n, k, seed):
    """apply_unitary is bit-identical to the two-loop kernel for 1-3 distinct
    targets in random order, and evolve equals applying its layers' gates one
    by one, then the noise on the listed qubits."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, n)
    u = random_unitary(rng, 2**k)
    targets = [int(q) for q in rng.permutation(n)[:k]]
    assert np.array_equal(apply_unitary(rho, u, targets, n), apply_unitary_two_loops(rho, u, targets, n))

    layers = []
    for _ in range(3):
        qubits = [int(q) for q in rng.permutation(n)]
        gates = []
        while qubits:
            arity = int(rng.integers(1, min(3, len(qubits)) + 1))
            gates.append((random_unitary(rng, 2**arity), tuple(qubits[:arity])))
            qubits = qubits[arity:]
        layers.append(GateLayer(gates))
    nat = kraus_to_superop(depolarizing_kraus(0.2)).natural()
    noisy = [int(q) for q in rng.permutation(n)[: rng.integers(0, n + 1)]]
    want = rho
    for layer in layers:
        for gate, gate_targets in layer.gates:
            want = apply_unitary_two_loops(want, gate, gate_targets, n)
    assert np.array_equal(evolve(rho, layers, n), want)
    for q in noisy:
        want = apply_single_qubit_superop(want, nat, q, n)
    assert np.array_equal(evolve(rho, layers, n, nat, noisy), want)


@settings(max_examples=60)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), with_noise=st.booleans())
def test_compiled_layers_match_the_gate_path(n, seed, with_noise):
    """evolve on the compile_layers unitary equals evolve on the layers, for
    three layers of Haar 1-3-qubit gates and a Hadamard layer, with and
    without a noise pass on random qubits."""
    rng = np.random.default_rng(seed)
    rho = random_state(rng, n)
    layers = []
    for _ in range(3):
        qubits = [int(q) for q in rng.permutation(n)]
        gates = []
        while qubits:
            arity = int(rng.integers(1, min(3, len(qubits)) + 1))
            gates.append((random_unitary(rng, 2**arity), tuple(qubits[:arity])))
            qubits = qubits[arity:]
        layers.append(GateLayer(gates))
    layers.append(GateLayer([(NAMED_GATES["H"], (q,)) for q in range(n)]))
    nat = kraus_to_superop(depolarizing_kraus(0.2)).natural() if with_noise else None
    noisy = [int(q) for q in rng.permutation(n)[: rng.integers(0, n + 1)]]
    want = evolve(rho, layers, n, nat, noisy)
    assert np.max(np.abs(evolve(rho, compile_layers(layers, n), n, nat, noisy) - want)) <= 1e-12


def test_evolve_noise_defaults_to_every_qubit():
    rng = np.random.default_rng(37)
    rho = random_state(rng, 3)
    nat = kraus_to_superop(dephasing_kraus(0.2)).natural()
    want = rho
    for q in range(3):
        want = apply_single_qubit_superop(want, nat, q, 3)
    assert np.array_equal(evolve(rho, [], 3, nat), want)
    outside = [GateLayer([(NAMED_GATES["H"], (3,))])]
    with pytest.raises(SimulationError, match="outside register"):
        evolve(rho, outside, 3)
    with pytest.raises(SimulationError, match="outside register"):
        compile_layers(outside, 3)
    with pytest.raises(SimulationError, match="does not fit"):
        evolve(rho, compile_layers([], 2), 3)


def superop_loop(rho, nat, qubits, n):
    for q in qubits:
        rho = apply_single_qubit_superop(rho, nat, q, n)
    return rho


def count_superop_calls():
    return mock.patch("qfridge.densim.apply_single_qubit_superop", wraps=apply_single_qubit_superop)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    p=st.one_of(st.just(0.5), st.floats(0, 0.5)),
    theta=st.one_of(st.just(0.0), st.floats(0, 2 * np.pi)),
    subset=st.sampled_from(["empty", "all", "random"]),
    from_kraus=st.booleans(),
)
def test_diagonal_noise_pass_matches_the_tensor_kernel(n, seed, p, theta, subset, from_kraus):
    """A diagonal natural rep (dephasing, rotated about z or not, p = 1/2
    included) gives exactly the bytes of the per-qubit tensor kernel, on the
    listed qubits in their order.  A real rep scales rho without the kernel;
    a complex one goes through it.  The input, read-only as in a register, is
    left unchanged."""
    rng = np.random.default_rng(seed)
    if from_kraus:
        rot = np.diag([1, np.exp(1j * theta)])
        nat = kraus_to_superop(KrausSet([rot @ k for k in dephasing_kraus(p).ops])).natural()
    else:
        c = (1 - 2 * p) * np.exp(1j * theta)
        nat = np.diag([1, c, np.conj(c), 1]).astype(complex)
    assert np.array_equal(nat, np.diag(nat.diagonal()))
    noisy = {"empty": [], "all": list(range(n))}.get(subset)
    if noisy is None:
        noisy = [int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)]]
    reg = QRegister(random_state(rng, n), [DATA] * n)
    before = reg.rho.copy()
    with count_superop_calls() as kernel:
        got = evolve(reg.rho, [], n, nat, noisy)
    assert np.array_equal(got, superop_loop(reg.rho, nat, noisy, n))
    assert np.array_equal(reg.rho, before)
    real = not nat.diagonal().imag.any()
    assert kernel.call_count == (0 if real else len(noisy))


@pytest.mark.parametrize("seed", range(6))
def test_mixed_kraus_dephasing_takes_the_tensor_path(seed):
    """Dephasing written in a Haar-mixed Kraus form carries ~1e-17 of
    rounding off the real diagonal of its natural rep (off-diagonal entries,
    or imaginary parts on the diagonal), so its noise pass runs the tensor
    kernel."""
    rng = np.random.default_rng(seed)
    ops = dephasing_kraus(0.1).ops
    v = random_unitary(rng, len(ops))
    mixed = [sum(v[i, j] * op for j, op in enumerate(ops)) for i in range(len(ops))]
    nat = kraus_to_superop(KrausSet(mixed)).natural()
    residue = np.abs(nat - np.diag(nat.diagonal().real))
    assert 0 < np.max(residue) < 1e-15
    n = 3
    rho = random_state(rng, n)
    with count_superop_calls() as kernel:
        got = evolve(rho, [], n, nat)
    assert kernel.call_count == n
    exact = kraus_to_superop(dephasing_kraus(0.1)).natural()
    assert np.max(np.abs(got - evolve(rho, [], n, exact))) <= 1e-15


def dephase_all_mask(reg):
    """The XOR-index oracle: keep rho_ij only where i and j agree on every
    non-reference qubit."""
    n = reg.n_qubits
    mask_bits = 0
    for q in reg.system_qubits:
        mask_bits |= 1 << (n - 1 - q)
    idx = np.arange(2**n)
    keep = ((idx[:, None] ^ idx[None, :]) & mask_bits) == 0
    return np.where(keep, reg.rho, 0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_dephase_all_matches_the_xor_mask(n, seed):
    rng = np.random.default_rng(seed)
    roles = [REFERENCE if r else DATA for r in rng.integers(0, 2, size=n)]
    roles[int(rng.integers(n))] = REFERENCE
    reg = QRegister(random_state(rng, n), roles)
    assert np.array_equal(dephase_all(reg).rho, dephase_all_mask(reg))


def test_single_qubit_superop_matches_global_action():
    rng = np.random.default_rng(32)
    n = 3
    rho = random_state(rng, n)
    c = kraus_to_superop(dephasing_kraus(0.2))
    k = dephasing_kraus(0.2)
    got = apply_single_qubit_superop(rho, c.natural(), 1, n)
    want = np.zeros_like(rho)
    for op in k.ops:
        big = np.kron(np.kron(np.eye(2), op), np.eye(2))
        want += big @ rho @ big.conj().T
    assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_product_state():
    rho = np.kron(np.kron(ZERO, ONE), (ZERO + ONE) / 2)
    assert np.allclose(partial_trace(rho, [1], 3), ONE, atol=1e-12)
    # order of `keep` controls output qubit order
    pair = partial_trace(rho, [1, 0], 3)
    assert np.allclose(pair, np.kron(ONE, ZERO), atol=1e-12)


def test_partial_trace_entangled():
    reg = epr_register()
    for q in (0, 1):
        assert np.allclose(partial_trace(reg.rho, [q], 2), np.eye(2) / 2, atol=1e-12)


def test_gate_layer_validation():
    h = NAMED_GATES["H"]
    with pytest.raises(SimulationError):
        GateLayer([(h, (0,)), (h, (0,))])  # overlapping targets
    with pytest.raises(SimulationError):
        GateLayer([(np.eye(2) * 2, (0,))])  # not unitary
    with pytest.raises(SimulationError, match="not distinct"):
        GateLayer([(h, (-1,))])  # negative target
    with pytest.raises(SimulationError, match="not distinct"):
        GateLayer([(NAMED_GATES["CNOT"], (0, 0))])  # repeated target


def test_step_noise_skips_reference():
    reg = epr_register()
    noise = kraus_to_superop(depolarizing_kraus(0.3))
    out = step(reg, GateLayer([]), noise)
    # reference marginal untouched
    assert np.allclose(partial_trace(out.rho, [0], 2), np.eye(2) / 2, atol=1e-12)
    # system marginal still maximally mixed, but correlations decayed
    assert von_neumann_entropy(out) > von_neumann_entropy(reg) + 0.1


def test_entropy_values():
    reg = QRegister.from_product([ZERO, np.eye(2) / 2], [DATA, DATA])
    assert abs(von_neumann_entropy(reg) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(reg, [0])) < 1e-12
    assert abs(von_neumann_entropy(reg, [1]) - 1.0) < 1e-12


def test_conditional_entropy_negative_for_epr():
    reg = epr_register()
    assert conditional_entropy(reg, [1], [0]) < -0.999


def test_information_pure_state():
    rng = np.random.default_rng(33)
    reg = QRegister(random_state(rng, 3), [DATA] * 3)
    assert abs(information(reg) - 3.0) < 1e-9


def test_dephase_all_kills_system_coherence():
    plus = np.full((2, 2), 0.5, dtype=complex)
    reg = QRegister.from_product([plus, plus], [DATA, DATA])
    out = dephase_all(reg)
    assert np.allclose(out.rho, np.eye(4) / 4, atol=1e-12)


def test_dephase_all_spares_reference():
    reg = epr_register()
    out = dephase_all(reg)
    # Bell diagonal part survives: classical correlation remains
    assert abs(out.rho[0, 0] - 0.5) < 1e-12 and abs(out.rho[0, 3]) < 1e-12


def test_relative_entropy_properties():
    rng = np.random.default_rng(34)
    assert relative_entropy(ZERO, ONE) == float("inf")
    assert relative_entropy(ZERO, ZERO) == 0.0
    # classical cross-check on commuting states
    a = np.diag([0.3, 0.7]).astype(complex)
    b = np.diag([0.6, 0.4]).astype(complex)
    want = 0.3 * np.log2(0.3 / 0.6) + 0.7 * np.log2(0.7 / 0.4)
    assert abs(relative_entropy(a, b) - want) < 1e-12
    # nonnegativity on random full-rank pairs
    for _ in range(50):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = g @ g.conj().T
        a /= np.trace(a).real
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = g @ g.conj().T
        b /= np.trace(b).real
        assert relative_entropy(a, b) >= -1e-10


def test_epr_fidelity_perfect_and_decoded():
    reg = epr_register()
    assert abs(epr_fidelity(reg, [], 1, 0) - 1.0) < 1e-12
    # X on the system qubit drops overlap with |Phi+> to zero
    flipped = step(reg, GateLayer([(NAMED_GATES["X"], (1,))]), None)
    assert epr_fidelity(flipped, [], 1, 0) < 1e-12
    # an X-decoder restores it
    decode = [GateLayer([(NAMED_GATES["X"], (1,))])]
    assert abs(epr_fidelity(flipped, decode, 1, 0) - 1.0) < 1e-12
