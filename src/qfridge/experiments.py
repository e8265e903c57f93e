"""Noise-regime experiments: information decay, stockpile computation, and
EPR-pair storage, each emitting per-step telemetry records.

Every run is a pure function of (config, seed); all randomness flows through
one seeded generator, so identical inputs reproduce identical traces.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import entropy_ledger_step
from .channels import dephasing_kraus, depolarizing_kraus, kraus_to_superop
from .densim import (
    DATA,
    PHI_PLUS,
    REFERENCE,
    ZERO,
    GateLayer,
    QRegister,
    SimulationError,
    check_memory,
    compile_layers,
    dense_bytes,
    dephase_all,
    epr_fidelity,
    evolve,
    information,
    partial_trace,
    qubit_dim,
    repetition_code,
    step,
    von_neumann_entropy,
)

MAX_STEPS = 2**17  # most steps a run may make: more is an input error, not days of work

CSV_COLUMNS = (
    "step",
    "entropy_bits",
    "information_bits",
    "epr_fidelity",
    "logical_fidelity",
    "max_gap",
)


@dataclass(frozen=True)
class TraceRecord:
    """One experiment step's telemetry."""

    step: int
    entropy_bits: float
    information_bits: float
    epr_fidelity: float | None = None
    logical_fidelity: float | None = None
    max_gap: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "step": self.step,
            "entropy_bits": self.entropy_bits,
            "information_bits": self.information_bits,
            "epr_fidelity": self.epr_fidelity,
            "logical_fidelity": self.logical_fidelity,
            "max_gap": self.max_gap,
        }
        doc.update(self.extra)
        return doc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_jsonl(records: Sequence[TraceRecord], path) -> None:
    lines = []
    for rec in records:
        doc = rec.to_dict()
        lines.append(json.dumps({k: _fmt(v) if isinstance(v, float) else v for k, v in doc.items()}, sort_keys=True))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_csv(records: Sequence[TraceRecord], path) -> None:
    rows = [",".join(CSV_COLUMNS)]
    for rec in records:
        doc = rec.to_dict()
        rows.append(",".join(_fmt(doc[col]) for col in CSV_COLUMNS))
    _atomic_write(path, "\n".join(rows) + "\n")


def _check_steps(steps: int) -> None:
    if steps < 0:
        raise ValueError(f"step count {steps} must not be negative")
    if steps > MAX_STEPS:
        raise ValueError(f"step count {steps} is above the cap of {MAX_STEPS}")


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_pure_register(n: int, rng: np.random.Generator, with_reference: bool) -> QRegister:
    if with_reference:
        state = PHI_PLUS
        for _ in range(n - 1):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = np.kron(state, v / np.linalg.norm(v))
        roles = [REFERENCE] + [DATA] * n
    else:
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        roles = [DATA] * n
    return QRegister(np.outer(state, state.conj()), roles)


def _random_pair_layer(qubits: Sequence[int], rng: np.random.Generator) -> GateLayer:
    qubits = list(qubits)
    rng.shuffle(qubits)
    gates = []
    while len(qubits) >= 2:
        a, b = qubits.pop(), qubits.pop()
        gates.append((_haar_unitary(4, rng), (a, b)))
    return GateLayer(gates)


# ---------------------------------------------------------------------------
# depolarizing-class information decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayResult:
    records: tuple


def run_depolarizing_decay(
    n: int,
    p: float,
    steps: int,
    policy: str = "idle",
    seed: int = 0,
    with_reference: bool = False,
) -> DecayResult:
    """Track the information n - S under depolarizing noise of probability p.

    Starts from a random pure state of n system qubits (and a reference
    qubit, with_reference), alternates policy gates with noise, and asserts
    the information never increases.  Any p in [0, 1] runs (p = 0 is the
    identity); any other p is an input error.
    """
    if n < 1:
        raise ValueError(f"decay experiment needs at least 1 system qubit, got {n}")
    check_memory(dense_bytes(qubit_dim(n + with_reference)), f"a decay run on {n + with_reference} qubits")
    _check_steps(steps)
    if policy not in ("idle", "random_circuit"):
        raise ValueError(f"unknown policy {policy!r}")
    if not 0 <= p <= 1:
        raise ValueError(f"depolarizing probability p = {p} must lie in [0, 1]")
    channel = kraus_to_superop(depolarizing_kraus(p))
    rng = np.random.default_rng(seed)
    reg = _random_pure_register(n, rng, with_reference)
    records = [_decay_record(0, reg, with_reference)]
    for t in range(1, steps + 1):
        layer = _random_pair_layer(reg.system_qubits, rng) if policy == "random_circuit" else GateLayer([])
        reg = step(reg, layer, channel)
        records.append(_decay_record(t, reg, with_reference))
        if records[-1].information_bits > records[-2].information_bits + 1e-9:
            raise SimulationError(f"information increased at step {t}")
    return DecayResult(records=tuple(records))


def _decay_record(t: int, reg: QRegister, with_reference: bool) -> TraceRecord:
    fid = epr_fidelity(reg, [], 1, 0) if with_reference else None
    return TraceRecord(
        step=t,
        entropy_bits=von_neumann_entropy(reg, reg.system_qubits),
        information_bits=information(reg),
        epr_fidelity=fid,
    )


# ---------------------------------------------------------------------------
# dephasing-class stockpile computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StockpileResult:
    records: tuple
    steps_achieved: int
    stockpile_left: int
    in_regime: bool  # a + b < 1


def run_stockpile(
    a_exp: float,
    b_exp: float,
    n: int,
    p: float,
    seed: int = 0,
    ancillas_per_step: int = 1,
) -> StockpileResult:
    """Random reversible computation on ~n^a qubits fed from a stockpile.

    m = ceil(n^a) working qubits run random two-qubit gates under dephasing
    noise; the remaining qubits sit in |0> (which z-dephasing fixes) and are
    consumed as fresh ancillas, each draw retiring the oldest working qubit.
    The run halts at the step budget ceil(n^b) or when the stockpile empties,
    whichever is first; a run of more than MAX_STEPS steps is an input
    error.  Records describe the whole n-qubit register.

    Only the working and retired qubits are simulated.  They are the prefix
    0..k-1 and a draw takes index k, so no gate ever touches a waiting
    stockpile qubit: each stays in product with the rest, in |0>, and is
    appended by a Kronecker product when drawn.  The memory budget applies to
    the m + min(budget, (n - m) // a) * a qubits simulated, checked before
    anything is allocated.
    """
    if n < 1:
        raise ValueError(f"stockpile needs at least 1 qubit, got {n}")
    if ancillas_per_step < 0:
        raise ValueError(f"ancillas per step {ancillas_per_step} must not be negative")
    if not 0 <= p <= 1:
        raise ValueError(f"dephasing probability p = {p} must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    try:
        m = int(np.ceil(n**a_exp))
        budget = int(np.ceil(n**b_exp))
    except OverflowError:
        raise ValueError("n^a or n^b is too large for a float") from None
    if m < 1 or m > n:
        raise ValueError("working-set size out of range")
    in_regime = a_exp + b_exp < 1
    draws = min(budget, (n - m) // ancillas_per_step) if ancillas_per_step else 0
    _check_steps(draws if ancillas_per_step else budget)
    simulated = m + draws * ancillas_per_step
    check_memory(dense_bytes(qubit_dim(simulated)), f"a stockpile run simulating {simulated} qubits")

    nat = kraus_to_superop(dephasing_kraus(p)).natural()
    reg = QRegister.from_product([ZERO] * m)
    left = n - m  # waiting qubits; the next one drawn is qubit n - left
    records = []
    achieved = 0
    for t in range(1, budget + 1):
        rho = reg.rho
        if ancillas_per_step > 0:
            if left < ancillas_per_step:
                break
            for _ in range(ancillas_per_step):
                rho = np.kron(rho, ZERO)
            left -= ancillas_per_step
        k = n - left  # the working qubits are the last m of 0..k-1
        layer = _random_pair_layer(range(k - m, k), rng)
        reg = QRegister(evolve(rho, [layer], k, nat), [DATA] * k)
        achieved = t
        entropy = von_neumann_entropy(reg)
        records.append(
            TraceRecord(
                step=t,
                entropy_bits=entropy,
                information_bits=n - entropy,
                extra={"stockpile_left": left},
            )
        )
    if achieved < draws:
        raise SimulationError(f"achieved {achieved} steps, below the stockpile floor {draws}")
    return StockpileResult(
        records=tuple(records),
        steps_achieved=achieved,
        stockpile_left=left,
        in_regime=in_regime,
    )


# ---------------------------------------------------------------------------
# EPR-pair storage under dephasing
# ---------------------------------------------------------------------------

CODE_NONE = "none"
CODE_PHASE_FLIP = "phase_flip_3"
CORRECTION_INTERVAL = 5  # steps between correction cycles of the coded memory
SEPARABILITY_EPS = 0.1  # 2-norm distance to the dephased state that counts as separable
# memory for one block of storage steps, which a step fills with about eight
# 2^n x 2^n complex states (pre- and post-noise, one noised copy per system
# qubit, decoded, dephased): 32 steps of the coded memory, 512 uncoded
EPR_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class EprStorageResult:
    records: tuple
    ancillas_consumed: int


def run_epr_storage(code: str, p: float, steps: int) -> EprStorageResult:
    """Store one half of an EPR pair under dephasing, optionally encoded.

    The encoded variant uses the 3-qubit phase-flip repetition code with
    coherent (unitary-only) correction cycles every CORRECTION_INTERVAL
    steps, each consuming two fresh ancillas; syndrome garbage is discarded.
    Once the state comes within SEPARABILITY_EPS of its completely dephased
    version (2-norm), the decoded fidelity is asserted to sit below the 1/2
    separable ceiling plus sqrt(2^(n-2)) times that distance: the decoded
    fidelity is tr(P rho) for a projector P of rank 2^(n-2), so
    Cauchy-Schwarz bounds its change by ||P||_2 ||rho - dephased||_2.

    The states are evolved step by step, as a register would be, then
    scored in blocks of steps sized from EPR_BLOCK_BYTES, each check one
    stacked call over the block (`_score_block`).
    """
    _check_steps(steps)
    if code not in (CODE_NONE, CODE_PHASE_FLIP):
        raise ValueError(f"unknown code {code!r}")
    if not 0 <= p <= 1:
        raise ValueError(f"dephasing probability p = {p} must lie in [0, 1]")
    channel = kraus_to_superop(dephasing_kraus(p))

    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    if code == CODE_PHASE_FLIP:
        encode, decode = (compile_layers(c, 4) for c in repetition_code((1, 2, 3), phase_flip=True))
        rho = evolve(np.kron(rho, np.kron(ZERO, ZERO)), encode, 4)
        roles = (REFERENCE, DATA, DATA, DATA)
    else:
        roles = (REFERENCE, DATA)
        decode = []
    n = len(roles)
    nat = channel.natural()
    system = tuple(range(1, n))

    records = _storage_records(0, QRegister(rho[None], roles), decode, [None])
    block = max(1, EPR_BLOCK_BYTES // (8 * 16 * 4**n))  # eight states of complex128 entries
    ancillas = 0
    for start in range(1, steps + 1, block):
        # the block's starting state, then each step's corrected state (on a
        # correction step) and post-noise state, in the order they arise
        states, post_at = [rho], []
        for t in range(start, min(start + block, steps + 1)):
            if code == CODE_PHASE_FLIP and t % CORRECTION_INTERVAL == 0:
                # the upper-bound adversary allows arbitrary unitaries between
                # noise applications, so the whole cycle sits inside one step;
                # qubits 2 and 3 are discarded and fresh |0> ancillas replace them
                kept = partial_trace(evolve(rho, decode, 4), [0, 1], 4)
                rho = evolve(np.kron(kept, np.kron(ZERO, ZERO)), encode, 4)
                states.append(rho)
                ancillas += 2
            rho = evolve(rho, [], n, nat, system)
            post_at.append(len(states))
            states.append(rho)
        records += _score_block(start, np.array(states), np.array(post_at), roles, decode, channel)
    return EprStorageResult(records=tuple(records), ancillas_consumed=ancillas)


def _score_block(start, states, post_at, roles, decode, channel) -> list:
    """Records of steps start, start + 1, ... of one block, step i's
    post-noise state at states[post_at[i]] and its pre-noise state just
    before it.  The stacked checks only decide pass or fail: a block that
    fails is scored again step by step, each step as a one-step block, so
    it raises its earliest failing step's error, as the step-by-step loop
    would."""
    try:
        return _block_records(start, states, post_at, roles, decode, channel)
    except SimulationError:
        for i, (first, at) in enumerate(zip([0, *post_at[:-1]], post_at)):
            _block_records(start + i, states[first : at + 1], np.array([at - first]), roles, decode, channel)
        raise


def _block_records(start, states, post_at, roles, decode, channel) -> list:
    # validates the corrected and post-noise states, and takes every
    # state's entropy once: S(pre-noise) is the previous state's
    chain = QRegister(states, roles)
    von_neumann_entropy(chain)
    after = chain[post_at]
    ledger = entropy_ledger_step(chain[post_at - 1], after, channel)
    records = _storage_records(start, after, decode, ledger.max_gap.tolist())
    dist = np.linalg.norm(after.rho - dephase_all(after).rho, axis=(-2, -1))
    fid = np.array([rec.epr_fidelity for rec in records])
    factor = 2.0 ** (len(roles) / 2 - 1)  # sqrt(2^(n-2)), the decoded projector's 2-norm
    above = np.flatnonzero((dist <= SEPARABILITY_EPS) & (fid > 0.5 + factor * dist + 1e-9))
    if above.size:
        raise SimulationError(f"near-dephased state decoded above the separable ceiling: {records[above[0]].epr_fidelity}")
    return records


def _storage_records(start, reg, decode, max_gaps) -> list:
    """One record per state of a stacked register, from step `start` on."""
    columns = zip(
        von_neumann_entropy(reg).tolist(),
        information(reg).tolist(),
        epr_fidelity(reg, decode, 1, 0).tolist(),
        max_gaps,
    )
    return [
        TraceRecord(step=t, entropy_bits=s, information_bits=info, epr_fidelity=fid, max_gap=gap)
        for t, (s, info, fid, gap) in enumerate(columns, start)
    ]
