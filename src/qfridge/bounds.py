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
    _as_float,
    entropy_bits,
    evolve,
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
    """One noise layer's entropy bookkeeping, or a block of steps'."""

    gaps: np.ndarray  # (..., system qubits) conditional-entropy gaps
    global_increase: float | np.ndarray

    @property
    def max_gap(self) -> float | np.ndarray:
        """Largest gap of each step (0.0 without system qubits); a Python
        float for one step."""
        gaps = self.gaps
        return _as_float(gaps.max(axis=-1) if gaps.shape[-1] else np.zeros(gaps.shape[:-1]))


def _sq_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a - b||_2^2 (Frobenius) for each pair of two (..., d, d) stacks."""
    diff = a - b
    return (diff.real**2 + diff.imag**2).sum(axis=(-2, -1))


def pinsker_margin(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """S(a||b) - ||a - b||_2^2 / (2 ln 2) for each pair of two (..., d, d)
    stacks; nonnegative, since the 2-norm is dominated by the 1-norm
    appearing in the standard inequality, and +inf where supp(a) escapes
    supp(b).  A Python float for one pair."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return _as_float(relative_entropy(a, b) - _sq_distance(a, b) / (2 * LN2))


def concavity_margin(
    a: np.ndarray, b: np.ndarray, p: float | np.ndarray, mode: str = MODE_SAFE
) -> float | np.ndarray:
    """Mixture entropy minus mean entropy minus k p(1-p) ||a - b||_2^2, for
    each pair of two (..., d, d) stacks and its weight p (a scalar, or one
    per pair); the entropies of the mixtures and of both states come from
    one stacked `eigvalsh`.  A Python float for one pair.

    Nonnegative in ``safe`` mode (k = 1/(2 ln 2), provable via Pinsker);
    ``paper`` mode (k = 2/ln 2) can go negative.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("mix weight must lie in [0, 1]")
    k = _CONCAVITY_K[mode]
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    w = p[..., None, None]
    s_mix, s_a, s_b = entropy_bits(np.stack([(1 - w) * a + w * b, a, b]))
    gain = s_mix - (1 - p) * s_a - p * s_b
    return _as_float(gain - k * p * (1 - p) * _sq_distance(a, b))


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
    """Per-qubit conditional-entropy gaps for one noise layer, or for a block
    of steps: stacked registers of B states, before[i] -> after[i] being
    step i's noise layer.

    The gap for qubit i conditions on all other qubits (reference included),
    so it reduces to S(noise on i only) - S(before); the chain rule makes the
    global entropy increase at least the largest gap, for every qubit
    ordering; that consequence is asserted, and a stack raises its first
    failing step's message.  The noised states, one per step and system
    qubit, are held at once and take one stacked `eigvalsh`.
    """
    if before.roles != after.roles or before.rho.shape != after.rho.shape:
        raise SimulationError("registers have different shapes")
    n = before.n_qubits
    nat = noise.natural()
    s_before = von_neumann_entropy(before)
    lead = before.rho.shape[:-2]
    noised = np.empty(lead + (len(before.system_qubits), 2**n, 2**n), dtype=complex)
    for i, q in enumerate(before.system_qubits):
        noised[..., i, :, :] = evolve(before.rho, [], n, nat, [q])
    gaps = entropy_bits(noised) - np.asarray(s_before)[..., None]
    global_increase = von_neumann_entropy(after) - s_before
    ledger = EntropyLedger(gaps=gaps, global_increase=global_increase)
    increase, top = np.reshape(global_increase, -1), np.reshape(ledger.max_gap, -1)
    broken = np.flatnonzero(increase < top - 1e-9)
    if broken.size:
        i = broken[0]
        raise SimulationError(f"chain rule violated: increase {float(increase[i])} < max gap {float(top[i])}")
    return ledger
