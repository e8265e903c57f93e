"""Test fixtures and oracles that the package itself does not need.

Dense unitaries for a compiled fridge, its permutation gathered on a dense
block, the ideal fridge run stage by stage, the linear and the bisecting
block-size searches, the protocol's data-side cycle and record on the
5-qubit register, the entropy verdict by sampling states, Haar-random
unitaries, an EPR register, conditional entropy, Bloch read-out, two Kraus
constructors, direct channel application to a Bloch vector or a matrix and
composition, the stockpile run on its full register, the EPR storage run one
step at a time, the entropy margins and bounds-experiment sample loop one
state pair at a time, the protocol's storage house as a FIFO aged every
layer, and its R = 1 run on one register of the data and every stored qubit:
the tests build inputs and check results with them, while the program works
on index maps, one population gather, a block's marginals gathered from two
half-block products, natural reps, PTMs, the channel's class, the touched
qubits, a data-side cycle compiled into one read and one write map on the
decoded logical qubit, a fixed-dwell shift of single-qubit marginals, and
stacks of state pairs and of storage steps only.
"""

import bisect
import math
from collections import deque
from functools import reduce
from typing import Sequence

import numpy as np

from qfridge.channels import (PAULIS, ChannelError, KrausSet, SuperOp, canonical_form, dephasing_kraus,
                              kraus_to_superop, trace_norm)
from qfridge.classify import CAN_DECREASE, NON_DECREASING, STRICTLY_INCREASING
from qfridge.bounds import _CONCAVITY_K
from qfridge.densim import (
    DATA,
    EIG_CLAMP,
    NAMED_GATES,
    PHI_PLUS,
    REFERENCE,
    ZERO,
    QRegister,
    GateLayer,
    SimulationError,
    apply_unitary,
    compile_layers,
    dephase_all,
    entropy_bits,
    epr_fidelity,
    evolve,
    information,
    partial_trace,
    repetition_code,
    spectrum_entropy_bits,
    step,
    von_neumann_entropy,
)
from qfridge.bounds import entropy_ledger_step
from qfridge.experiments import (
    CODE_PHASE_FLIP,
    CORRECTION_INTERVAL,
    SEPARABILITY_EPS,
    EprStorageResult,
    StockpileResult,
    TraceRecord,
    _random_pair_layer,
)
from qfridge import fridge
from qfridge.fridge import CoolingError, CoolingReport, FridgeSpec, _swap_rows


def permutation_unitary(spec: FridgeSpec) -> np.ndarray:
    dim = 2**spec.r_block
    u = np.zeros((dim, dim), dtype=complex)
    for x, y in enumerate(spec.permutation):
        u[y, x] = 1.0
    return u


def apply_permutation(rho: np.ndarray, spec: FridgeSpec) -> np.ndarray:
    """rho -> P rho P^T with the compiled permutation P on the R-qubit block.

    An exact index gather, so it equals the product of the 0/1 stage matrices
    bit for bit.
    """
    inverse = np.argsort(spec.permutation)
    return rho[np.ix_(inverse, inverse)]


def stage_unitary(spec: FridgeSpec, i: int) -> np.ndarray:
    """Dense 2^R x 2^R unitary of stage i (identity for a wait stage)."""
    u = np.eye(2**spec.r_block, dtype=complex)
    _swap_rows(u, spec.stages[i])
    return u


def ideal_run_stage_walk(spec: FridgeSpec) -> CoolingReport:
    """`fridge.run_fridge_ideal` as a walk: the thermal block's populations
    swapped one stage at a time, reduced as the program reduces them."""
    r = spec.r_block
    state = reduce(np.kron, [np.array([1 - spec.q, spec.q])] * r, np.ones(1))
    for stage in spec.stages:
        _swap_rows(state, stage)
    by_reset_bit = state.reshape(2, -1)
    waste_entropy = spectrum_entropy_bits(by_reset_bit.sum(axis=0)) if r > 1 else 0.0
    reset = np.diag(by_reset_bit.sum(axis=1)).astype(complex)
    return CoolingReport(reset_state=reset, reset_distance=trace_norm(reset - ZERO), waste_entropy=waste_entropy)


def choose_R_linear(q: float, eps2: float) -> int | None:
    """`fridge.choose_R` as a scan of R = 1..MAX_R_SEARCH in order: the
    first block size whose reset residual 2 bottom_mass is below eps2, or
    None.  No input checks."""
    for r in range(1, fridge.MAX_R_SEARCH + 1):
        if 2 * fridge.bottom_mass(q, r) < eps2:
            return r
    return None


def choose_R_bisect(q: float, eps2: float) -> int:
    """`fridge.choose_R` as one bisection over R = 1..MAX_R_SEARCH, its
    first probe at R = 2048, with the same input checks and errors."""
    if not 0 <= q <= 0.5:
        raise CoolingError(f"bias q={q} outside [0, 1/2]")
    if not eps2 > 0:
        raise ValueError(f"eps2 {eps2} must be positive")
    if q == 0.5:
        raise CoolingError("unreachable: fixed point is the center, no cooling possible")
    limit = fridge.MAX_R_SEARCH
    r = 1 + bisect.bisect_left(range(1, limit + 1), True, key=lambda r: 2 * fridge.bottom_mass(q, r) < eps2)
    if r > limit:
        raise CoolingError(f"no block size up to {limit} meets eps2={eps2}")
    return r


def _correction_layers() -> list:
    """The protocol's correction on data qubits 0..2 and ancillas 3, 4:
    decode, swap the syndrome qubits with the ancillas, encode."""
    encode, decode = repetition_code((0, 1, 2))
    swap = NAMED_GATES["SWAP"]
    return decode + [GateLayer([(swap, (1, 3)), (swap, (2, 4))])] + encode


def cycle_stale_dense(rho3: np.ndarray, ancillas, nat: np.ndarray) -> tuple:
    """`protocol._cycle_stale` on the 5-qubit register: the correction gate
    by gate with the channel's noise pass on all five qubits, then a partial
    trace for the data state and for each garbage qubit, renormalised."""
    rho = evolve(np.kron(np.kron(rho3, ancillas[0]), ancillas[1]), _correction_layers(), 5, nat)
    garbage = [partial_trace(rho, [q], 5) for q in (3, 4)]
    return partial_trace(rho, [0, 1, 2], 5), [g / np.trace(g) for g in garbage]


def record_dense(cycle: int, rho3: np.ndarray, logical_ket: np.ndarray) -> TraceRecord:
    """`protocol`'s per-cycle record the long way: the decoder gate by gate,
    the logical qubit's partial trace and its overlap with the ket."""
    entropy = entropy_bits(rho3)
    one = partial_trace(evolve(rho3, repetition_code((0, 1, 2))[1], 3), [0], 3)
    return TraceRecord(
        step=cycle,
        entropy_bits=entropy,
        information_bits=3 - entropy,
        logical_fidelity=float((logical_ket.conj() @ one @ logical_ket).real),
    )


def _bloch_entropy(w: np.ndarray) -> float:
    x = 0.5 * (1 + min(np.linalg.norm(w), 1.0))
    return spectrum_entropy_bits(np.array([x, 1 - x]))


def entropy_behavior_sampled(c: SuperOp) -> tuple[str, float]:
    """`classify.entropy_behavior` by sampling: the entropy change of six
    states on the canonical axes, 200 random states from a fixed seed
    and I/2, with a 1e-9 tolerance.  Returns the verdict and the largest
    entropy drop observed (negative when every probe gained)."""
    rng = np.random.default_rng(0)
    # deterministic probes along the canonical axes catch invariant diameters
    # that random sampling misses with probability one
    f = canonical_form(c)
    probes = [sign * 0.5 * f.pre_rot[i] for i in range(3) for sign in (1, -1)]
    for _ in range(200):
        w = rng.normal(size=3)
        w *= rng.random() ** (1 / 3) / np.linalg.norm(w)
        probes.append(w)
    # the maximally mixed state is the decisive witness for non-unital maps
    probes.append(np.zeros(3))
    max_drop = -math.inf
    all_gain = True
    for w in probes:
        before = _bloch_entropy(w)
        after = _bloch_entropy(apply_bloch(c, w))
        max_drop = max(max_drop, before - after)
        if before < 1 - 1e-12 and after - before <= 1e-9:
            all_gain = False
    if max_drop > 1e-9:
        return CAN_DECREASE, max_drop
    return (STRICTLY_INCREASING if all_gain else NON_DECREASING), max_drop


def random_unitary(rng, dim: int = 2) -> np.ndarray:
    """Haar-random dim x dim unitary: QR of a complex Gaussian matrix, with
    the phases of R's diagonal moved into Q."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def epr_register(extra_system: int = 0) -> QRegister:
    """Reference qubit 0 maximally entangled with system qubit 1, plus
    optional extra system qubits in |0>."""
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    roles = [REFERENCE, DATA]
    for _ in range(extra_system):
        rho = np.kron(rho, ZERO)
        roles.append(DATA)
    return QRegister(rho, roles)


def conditional_entropy(reg: QRegister, a: Sequence[int], b: Sequence[int]) -> float:
    """S(A|B) = S(AB) - S(B) in bits."""
    if set(a) & set(b):
        raise SimulationError("conditional entropy subsets overlap")
    return von_neumann_entropy(reg, list(a) + list(b)) - von_neumann_entropy(reg, b)


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(p @ rho).real for p in PAULIS[1:]])


def pauli_channel_kraus(p_x: float, p_y: float, p_z: float) -> KrausSet:
    p0 = 1 - p_x - p_y - p_z
    probs = (p0, p_x, p_y, p_z)
    if any(p < -1e-12 for p in probs):
        raise ChannelError("Pauli probabilities out of range")
    return KrausSet([np.sqrt(max(p, 0.0)) * s for p, s in zip(probs, PAULIS)])


def unitary_kraus(u: np.ndarray) -> KrausSet:
    return KrausSet([np.asarray(u, dtype=complex)])


def apply_bloch(c: SuperOp, w) -> np.ndarray:
    """The channel on a Bloch vector: w -> t + Lam w."""
    return c.shift + c.linear @ np.asarray(w, dtype=float)


def apply_superop(c: SuperOp, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a 2x2 matrix (by linearity, any matrix)."""
    rho = np.asarray(rho, dtype=complex)
    return (c.natural() @ rho.reshape(4)).reshape(2, 2)


def compose(a: SuperOp, b: SuperOp) -> SuperOp:
    """a after b: (a . b)(rho) = a(b(rho))."""
    return SuperOp(a.ptm @ b.ptm)


def apply_kraus(k: KrausSet, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return sum(op @ rho @ op.conj().T for op in k.ops)


def stockpile_dense(a_exp, b_exp, n, p, seed=0, ancillas_per_step=1) -> StockpileResult:
    """`experiments.run_stockpile` on the full n-qubit register: every
    waiting stockpile qubit is held in one dense 2^n x 2^n matrix, takes
    every noise pass, and has its marginal checked against |0> each step.
    No input checks and no floor check."""
    channel = kraus_to_superop(dephasing_kraus(p))
    rng = np.random.default_rng(seed)
    m = int(np.ceil(n**a_exp))
    budget = int(np.ceil(n**b_exp))
    reg = QRegister.from_product([ZERO] * n)
    working = list(range(m))
    stockpile = list(range(m, n))
    records = []
    achieved = 0
    for t in range(1, budget + 1):
        if ancillas_per_step > 0:
            if len(stockpile) < ancillas_per_step:
                break
            for _ in range(ancillas_per_step):
                working.pop(0)  # retire the oldest working qubit
                working.append(stockpile.pop(0))
        reg = step(reg, _random_pair_layer(working, rng), channel)
        for q in stockpile:
            marginal = partial_trace(reg.rho, [q], n)
            if np.linalg.norm(marginal - ZERO) > 1e-12:
                raise SimulationError(f"stockpile qubit {q} disturbed by dephasing")
        achieved = t
        records.append(
            TraceRecord(
                step=t,
                entropy_bits=von_neumann_entropy(reg),
                information_bits=information(reg),
                extra={"stockpile_left": len(stockpile)},
            )
        )
    return StockpileResult(
        records=tuple(records),
        steps_achieved=achieved,
        stockpile_left=len(stockpile),
        in_regime=a_exp + b_exp < 1,
    )


def epr_storage_loop(code: str, p: float, steps: int) -> EprStorageResult:
    """`experiments.run_epr_storage` one step at a time: a validated register
    per post-noise, corrected and dephased state, one entropy ledger and one
    decode per step, and the ceiling check right after each step's record.
    No input checks."""
    channel = kraus_to_superop(dephasing_kraus(p))
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    if code == CODE_PHASE_FLIP:
        encode, decode = (compile_layers(c, 4) for c in repetition_code((1, 2, 3), phase_flip=True))
        reg = QRegister(evolve(np.kron(rho, np.kron(ZERO, ZERO)), encode, 4), [REFERENCE, DATA, DATA, DATA])
    else:
        reg = QRegister(rho, [REFERENCE, DATA])
        decode = []

    def record(t, reg, max_gap):
        return TraceRecord(
            step=t,
            entropy_bits=von_neumann_entropy(reg),
            information_bits=information(reg),
            epr_fidelity=epr_fidelity(reg, decode, 1, 0),
            max_gap=max_gap,
        )

    ancillas = 0
    records = [record(0, reg, None)]
    for t in range(1, steps + 1):
        if code == CODE_PHASE_FLIP and t % CORRECTION_INTERVAL == 0:
            kept = partial_trace(evolve(reg.rho, decode, 4), [0, 1], 4)
            reg = QRegister(evolve(np.kron(kept, np.kron(ZERO, ZERO)), encode, 4), reg.roles)
            ancillas += 2
        pre_noise = reg
        reg = step(reg, GateLayer([]), channel)
        ledger = entropy_ledger_step(pre_noise, reg, channel)
        records.append(record(t, reg, ledger.max_gap))
        deph_dist = np.linalg.norm(reg.rho - dephase_all(reg).rho)
        if deph_dist <= SEPARABILITY_EPS:
            fid = records[-1].epr_fidelity
            if fid > 0.5 + math.sqrt(2 ** (reg.n_qubits - 2)) * deph_dist + 1e-9:
                raise SimulationError(f"near-dephased state decoded above the separable ceiling: {fid}")
    return EprStorageResult(records=tuple(records), ancillas_consumed=ancillas)


def pair_entropy_bits(rho: np.ndarray) -> float:
    """Entropy in bits of one Hermitian matrix, eigenvalues at most
    EIG_CLAMP dropped."""
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > EIG_CLAMP]
    return float(-np.sum(eigs * np.log2(eigs)))


def pair_relative_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """S(a||b) in bits of one pair; +inf when supp(a) escapes supp(b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    mu, va = np.linalg.eigh(a)
    nu, vb = np.linalg.eigh(b)
    mu = np.clip(mu, 0.0, None)
    nu = np.clip(nu, 0.0, None)
    kernel = vb[:, nu <= EIG_CLAMP]
    if kernel.size and np.trace(kernel.conj().T @ a @ kernel).real > 1e-10:
        return float("inf")
    term_a = float(np.sum(mu[mu > EIG_CLAMP] * np.log2(mu[mu > EIG_CLAMP])))
    overlap = np.abs(vb.conj().T @ va) ** 2
    log_nu = np.where(nu > EIG_CLAMP, np.log2(np.where(nu > EIG_CLAMP, nu, 1.0)), 0.0)
    term_b = float(np.einsum("j,ji,i->", log_nu, overlap, mu).real)
    return max(term_a - term_b, 0.0)


def pair_pinsker_margin(a: np.ndarray, b: np.ndarray) -> float:
    rel = pair_relative_entropy(a, b)
    if math.isinf(rel):
        return float("inf")
    return rel - float(np.linalg.norm(np.asarray(a) - np.asarray(b)) ** 2) / (2 * math.log(2))


def pair_concavity_margin(a: np.ndarray, b: np.ndarray, p: float, mode: str) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    mix = (1 - p) * a + p * b
    gain = pair_entropy_bits(mix) - (1 - p) * pair_entropy_bits(a) - p * pair_entropy_bits(b)
    return gain - _CONCAVITY_K[mode] * p * (1 - p) * float(np.linalg.norm(a - b) ** 2)


def bounds_margins_loop(dim: int, samples: int, seed: int, mode: str) -> list:
    """(pinsker, concavity) margins of the bounds experiment's samples, drawn
    and scored one pair at a time from the same seed."""
    rng = np.random.default_rng(seed)

    def random_state():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    margins = []
    for _ in range(samples):
        a, b = random_state(), random_state()
        margins.append((pair_pinsker_margin(a, b), pair_concavity_margin(a, b, rng.random(), mode)))
    return margins


class AgedEveryCycle:
    """The protocol's storage house as a FIFO of single-qubit states: `tick`
    takes one noise layer on every entry, and a draw takes the oldest entry
    once it has dwelled storage_T layers, else the fixed point ``p_state``
    itself.  Every draw counts in ``drawn``."""

    def __init__(self, p_state, nat_layer, storage_T):
        self.p_state = p_state
        self.nat_layer = nat_layer
        self.storage_T = storage_T
        self.entries = deque()  # (state, layers dwelled), oldest first
        self.drawn = 0

    def tick(self):
        self.entries = deque(
            ((self.nat_layer @ state.reshape(4)).reshape(2, 2), age + 1) for state, age in self.entries
        )

    def enqueue(self, state):
        self.entries.append((np.asarray(state, dtype=complex), 0))

    def dequeue(self):
        self.drawn += 1
        if self.entries and self.entries[0][1] >= self.storage_T:
            return self.entries.popleft()[0]
        return self.p_state


def _move_qubits(rho: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """rho with its qubits reordered: new qubit k is old qubit order[k]."""
    n = len(order)
    axes = list(order) + [n + q for q in order]
    return rho.reshape((2,) * 2 * n).transpose(axes).reshape(2**n, 2**n)


def protocol_joint_fidelities(rho3, logical_ket, pre_rot, rho_p, spec: FridgeSpec, nat, storage_T, d_prime):
    """Per-cycle logical fidelity of the protocol's refrigerated run at R = 1,
    exact across cycles: one register holds the data (qubits 0..2) and, in
    return order, every returned qubit that a later cycle draws.  Cycle i
    draws the two oldest stored qubits once i >= max(storage_T, 1), else two
    fresh fixed points; each drawn qubit is rotated into the fridge's basis
    and permuted as a one-qubit block, the correction runs on the data and
    the two drawn qubits with the noise pass on every qubit in the register,
    and each returned syndrome a later cycle draws takes one more noise
    layer, as every stored qubit does each cycle.  So a recycled draw keeps
    its correlation with the data, which the marginal model drops."""
    assert spec.r_block == 1
    dwell = max(storage_T, 1)
    fridge_u = permutation_unitary(spec) @ pre_rot
    encode, decode = repetition_code((0, 1, 2))
    swap = NAMED_GATES["SWAP"]
    layers = decode + [GateLayer([(swap, (1, 3)), (swap, (2, 4))])] + encode
    rho, n = rho3, 3
    fidelities = []
    for i in range(d_prime):
        if i < dwell:
            # two fresh fixed points, moved in front of the stored qubits
            rho = _move_qubits(np.kron(np.kron(rho, rho_p), rho_p), [0, 1, 2, n, n + 1, *range(3, n)])
            n += 2
        for q in (3, 4):
            rho = apply_unitary(rho, fridge_u, [q], n)
        rho = evolve(rho, layers, n, nat)
        if i + dwell < d_prime:
            rho = _move_qubits(evolve(rho, [], n, nat, noisy=[3, 4]), [0, 1, 2, *range(5, n), 3, 4])
        else:
            rho = partial_trace(rho, [0, 1, 2, *range(5, n)], n)
            n -= 2
        fidelities.append(record_dense(i + 1, partial_trace(rho, [0, 1, 2], n), logical_ket).logical_fidelity)
    return np.array(fidelities)
