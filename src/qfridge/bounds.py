"""Entropy-inequality machinery behind the dephasing storage bound.

The storage-time bound rests on three pieces: a Pinsker-style lower bound on
relative entropy, a strengthened concavity inequality derived from it, and a
per-qubit conditional-entropy chain rule.  The published concavity constant
2p(1-p)/ln 2 paired with the 2-norm fails on the pair (|0><0|, |1><1|) at
p = 1/2, so a provable constant p(1-p)/(2 ln 2) is offered as the default
``safe`` mode; ``paper`` mode keeps the printed constant for reproduction.
Switching constants rescales the per-step entropy threshold by 1/4 and the
storage-time bound by 4 without touching its n^3 scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import SuperOp
from .densim import (
    QRegister,
    SimulationError,
    apply_single_qubit_superop,
    entropy_bits,
    relative_entropy,
    von_neumann_entropy,
)

LN2 = math.log(2)

MODE_PAPER = "paper"
MODE_SAFE = "safe"

_CONCAVITY_K = {MODE_PAPER: 2 / LN2, MODE_SAFE: 1 / (2 * LN2)}


@dataclass(frozen=True)
class DephasingBoundParams:
    """Per-step entropy threshold delta and storage-time bound T = n/delta."""

    p: float
    eps: float
    n: int
    constant_mode: str
    delta: float
    t_bound: float


@dataclass(frozen=True)
class EntropyLedger:
    """One noise layer's entropy bookkeeping."""

    gaps: tuple  # per-qubit conditional-entropy gaps
    global_increase: float

    @property
    def max_gap(self) -> float:
        return max(self.gaps) if self.gaps else 0.0


def pinsker_margin(a: np.ndarray, b: np.ndarray) -> float:
    """S(a||b) - ||a - b||_2^2 / (2 ln 2); nonnegative, since the 2-norm is
    dominated by the 1-norm appearing in the standard inequality."""
    rel = relative_entropy(a, b)
    if math.isinf(rel):
        return float("inf")
    return rel - float(np.linalg.norm(np.asarray(a) - np.asarray(b)) ** 2) / (2 * LN2)


def concavity_margin(a: np.ndarray, b: np.ndarray, p: float, mode: str = MODE_SAFE) -> float:
    """Mixture entropy minus mean entropy minus k p(1-p) ||a - b||_2^2.

    Nonnegative in ``safe`` mode (k = 1/(2 ln 2), provable via Pinsker);
    ``paper`` mode (k = 2/ln 2) can go negative.
    """
    if not 0 <= p <= 1:
        raise ValueError("mix weight must lie in [0, 1]")
    k = _CONCAVITY_K[mode]
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    mix = (1 - p) * a + p * b
    gain = entropy_bits(mix) - (1 - p) * entropy_bits(a) - p * entropy_bits(b)
    return gain - k * p * (1 - p) * float(np.linalg.norm(a - b) ** 2)


def dephasing_bound(p: float, eps: float, n: int, mode: str = MODE_SAFE) -> DephasingBoundParams:
    """Per-step threshold delta = 8p(1-p)eps^2 / ((ln 2) n^2) and T = n/delta.

    In paper mode T = (ln 2) n^3 / (8 p (1-p) eps^2); safe mode divides delta
    by 4 and multiplies T by 4.
    """
    if not 0 < p < 1:
        raise ValueError("dephasing probability must lie in (0, 1)")
    if eps <= 0 or n < 1:
        raise ValueError("need eps > 0 and n >= 1")
    delta = 8 * p * (1 - p) * eps**2 / (LN2 * n**2)
    if mode == MODE_SAFE:
        delta /= 4
    elif mode != MODE_PAPER:
        raise ValueError(f"unknown constant mode {mode!r}")
    return DephasingBoundParams(
        p=p, eps=eps, n=n, constant_mode=mode, delta=delta, t_bound=n / delta
    )


def entropy_ledger_step(before: QRegister, after: QRegister, noise: SuperOp) -> EntropyLedger:
    """Per-qubit conditional-entropy gaps for one noise layer.

    The gap for qubit i conditions on all other qubits (reference included),
    so it reduces to S(noise on i only) - S(before); the chain rule makes the
    global entropy increase at least the largest gap, for every qubit
    ordering; that consequence is asserted.
    """
    if before.roles != after.roles:
        raise SimulationError("registers have different shapes")
    n = before.n_qubits
    nat = noise.natural()
    s_before = von_neumann_entropy(before)
    gaps = []
    for q in before.system_qubits:
        noised = apply_single_qubit_superop(before.rho, nat, q, n)
        gaps.append(entropy_bits(noised) - s_before)
    global_increase = von_neumann_entropy(after) - s_before
    ledger = EntropyLedger(gaps=tuple(gaps), global_increase=global_increase)
    if global_increase < ledger.max_gap - 1e-9:
        raise SimulationError(
            f"chain rule violated: increase {global_increase} < max gap {ledger.max_gap}"
        )
    return ledger
