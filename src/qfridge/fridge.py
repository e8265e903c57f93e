"""Single-shot algorithmic cooling.

A block of R qubits, each near the channel's fixed point, is routed through a
basis permutation that sorts computational basis states by probability.  The
most likely half of the distribution lands on labels whose leading bit is 0,
so the leading qubit comes out close to |0> ("reset") while the entropy is
displaced onto the trailing R-1 qubits ("waste").

For one output qubit at fixed R this sorting permutation is optimal: the
reset population equals the sum of the 2^(R-1) largest eigenvalues of the
input state, which no unitary can exceed (majorization -- a unitary cannot
push more weight onto a rank-2^(R-1) subspace than the top eigenvalues hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelError, SuperOp, channel_distance, identity_channel, kraus_to_superop
from .densim import (
    MAX_QUBITS,
    apply_single_qubit_superop,
    apply_unitary,
    entropy_bits,
    partial_trace,
)


class CoolingError(ChannelError):
    """Infeasible cooling request (e.g. maximally mixed fixed point)."""


@dataclass(frozen=True)
class FridgeSpec:
    """Compiled cooling run: bias, block size, permutation, and location count.

    ``q`` is the minority population of the (rotated) fixed point, so q < 1/2
    strictly.  ``permutation[x]`` is the output basis label for input label x.
    ``stages`` holds the compiled circuit as a tuple of ``np.intp`` index
    arrays, one per stage: ``(x, y)`` swaps basis labels x and y, and an empty
    array is a wait stage.  Their product, in order, is ``permutation``.
    ``f_count`` counts locations = stages x R, idle qubits included as waits.
    """

    q: float
    r_block: int
    permutation: tuple
    pre_rotation: np.ndarray
    stages: tuple
    f_count: int

    def __post_init__(self):
        if not 0 <= self.q < 0.5:
            raise CoolingError(f"bias q={self.q} must lie in [0, 1/2)")
        _check_register_cap(self.r_block)
        if sorted(self.permutation) != list(range(2**self.r_block)):
            raise CoolingError("permutation is not a bijection on basis states")
        if self.f_count < self.r_block:
            raise CoolingError("location count below block size")

    def permutation_unitary(self) -> np.ndarray:
        dim = 2**self.r_block
        u = np.zeros((dim, dim), dtype=complex)
        for x, y in enumerate(self.permutation):
            u[y, x] = 1.0
        return u

    def stage_unitary(self, i: int) -> np.ndarray:
        """Dense 2^R x 2^R unitary of stage i (identity for a wait stage)."""
        u = np.eye(2**self.r_block, dtype=complex)
        _swap_rows(u, self.stages[i])
        return u


def _check_register_cap(r: int) -> None:
    # every 2^R enumeration and dense 2^R x 2^R state sits behind this check
    if r > MAX_QUBITS:
        raise ChannelError(f"block size {r} exceeds the {MAX_QUBITS}-qubit register cap")


def _swap_rows(a: np.ndarray, stage: np.ndarray) -> None:
    """Swap the rows a stage transposes, in place; a wait stage is a no-op."""
    a[stage] = a[stage[::-1]]


def apply_permutation(rho: np.ndarray, spec: FridgeSpec, blocks: int = 1) -> np.ndarray:
    """rho -> P rho P^T with the compiled permutation P acting on each of the
    last `blocks` R-qubit blocks of the register; leading qubits are idle.

    An exact index gather, so it equals the product of the 0/1 stage matrices
    bit for bit.
    """
    dim = 2**spec.r_block
    inverse = np.argsort(spec.permutation)
    index = np.arange(rho.shape[0] // dim**blocks)
    for _ in range(blocks):
        index = (index[:, None] * dim + inverse).ravel()
    return rho[np.ix_(index, index)]


@dataclass(frozen=True)
class CoolingReport:
    reset_state: np.ndarray
    reset_distance: float
    waste_entropy: float
    mode: str  # "ideal" | "noisy"

    def __post_init__(self):
        if not 0 <= self.reset_distance <= 2:
            raise CoolingError(f"reset distance {self.reset_distance} outside [0, 2]")


def _block_probabilities(q: float, r: int) -> np.ndarray:
    """Product distribution over {0,1}^R basis labels; a 1 bit has weight q."""
    weights = np.array([bin(x).count("1") for x in range(2**r)])
    return (1 - q) ** (r - weights) * q**weights


def top_mass(q: float, r: int) -> float:
    """Mass of the 2^(R-1) most likely basis states of the product
    distribution, via binomial weight classes (no 2^R enumeration)."""
    if r == 0:
        return 1.0
    if q == 0:
        return 1.0
    target = 2 ** (r - 1)
    taken = 0
    mass = 0.0
    for weight in range(r + 1):
        count = math.comb(r, weight)
        p_one = (1 - q) ** (r - weight) * q**weight
        if taken + count <= target:
            mass += count * p_one
            taken += count
            if taken == target:
                break
        else:
            mass += (target - taken) * p_one
            break
    return min(mass, 1.0)


def choose_R(q: float, eps2: float, max_r: int = 4096) -> int:
    """Minimal block size with reset 1-norm residual 2(1 - top_mass) < eps2."""
    if not 0 <= q <= 0.5:
        raise CoolingError(f"bias q={q} outside [0, 1/2]")
    if eps2 <= 0:
        raise CoolingError("eps2 must be positive")
    if q == 0.5:
        raise CoolingError("unreachable: fixed point is the center, no cooling possible")
    for r in range(1, max_r + 1):
        if 2 * (1 - top_mass(q, r)) < eps2:
            return r
    raise CoolingError(f"no block size up to {max_r} meets eps2={eps2}")


def build_cooling_circuit(
    q: float, r: int, pre_rotation: np.ndarray | None = None
) -> FridgeSpec:
    """Sorting permutation for bias q on R qubits, compiled to transposition
    stages.

    Basis states are ordered by descending probability, ties broken by
    ascending label; the i-th most likely state is mapped to label i.  Each
    transposition of the resulting permutation occupies one stage; an identity
    permutation still spends one wait stage.
    """
    if not 0 <= q < 0.5:
        raise CoolingError(f"bias q={q} must lie in [0, 1/2)")
    _check_register_cap(r)
    probs = _block_probabilities(q, r)
    order = sorted(range(2**r), key=lambda x: (-probs[x], x))
    permutation = [0] * 2**r
    for rank, x in enumerate(order):
        permutation[x] = rank

    # decompose into transpositions via cycles
    transpositions = []
    seen = [False] * 2**r
    for start in range(2**r):
        if seen[start] or permutation[start] == start:
            seen[start] = True
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = permutation[x]
        for other in cycle[1:]:
            transpositions.append((cycle[0], other))

    stages = [np.array(pair, dtype=np.intp) for pair in transpositions]
    if not stages:
        stages.append(np.array([], dtype=np.intp))  # wait stage
    if pre_rotation is None:
        pre_rotation = np.eye(2, dtype=complex)
    return FridgeSpec(
        q=q,
        r_block=r,
        permutation=tuple(permutation),
        pre_rotation=np.asarray(pre_rotation, dtype=complex),
        stages=tuple(stages),
        f_count=len(stages) * r,
    )


def _thermal_block(q: float, r: int) -> np.ndarray:
    single = np.diag([1 - q, q]).astype(complex)
    rho = np.array([[1.0]], dtype=complex)
    for _ in range(r):
        rho = np.kron(rho, single)
    return rho


def _report(rho: np.ndarray, r: int, mode: str) -> CoolingReport:
    reset = partial_trace(rho, [0], r)
    zero = np.diag([1.0, 0.0]).astype(complex)
    diff = reset - zero
    reset_distance = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    if r > 1:
        waste = partial_trace(rho, list(range(1, r)), r)
        waste_entropy = entropy_bits(waste)
    else:
        waste_entropy = 0.0
    return CoolingReport(
        reset_state=reset, reset_distance=reset_distance, waste_entropy=waste_entropy, mode=mode
    )


def run_fridge_ideal(spec: FridgeSpec, rho_in: np.ndarray | None = None) -> CoolingReport:
    """Noiseless cooling of the thermal product block (or a supplied state)."""
    r = spec.r_block
    rho = _thermal_block(spec.q, r) if rho_in is None else np.asarray(rho_in, dtype=complex)
    if rho.shape != (2**r, 2**r):
        raise CoolingError("input state dimension does not match block size")
    for q_idx in range(r):
        rho = apply_unitary(rho, spec.pre_rotation, [q_idx], r)
    return _report(apply_permutation(rho, spec), r, "ideal")


def run_fridge_noisy(
    spec: FridgeSpec,
    noise: SuperOp,
    rho_in: np.ndarray | None = None,
    check_bound: bool = True,
) -> CoolingReport:
    """Cooling with one noise application per location (R per stage).

    When `check_bound` is set, asserts the run stays within the ideal reset
    distance plus F x d, where d is ``channel_distance(...).upper`` of the
    noise against the identity.  That value is attained by some input, so it
    is a lower bound on the diamond distance; the 10% slack is meant to
    absorb the gap and is not a proven margin.
    """
    r = spec.r_block
    rho = _thermal_block(spec.q, r) if rho_in is None else np.asarray(rho_in, dtype=complex)
    if rho.shape != (2**r, 2**r):
        raise CoolingError("input state dimension does not match block size")
    for q_idx in range(r):
        rho = apply_unitary(rho, spec.pre_rotation, [q_idx], r)
    nat = noise.natural()
    for stage in spec.stages:
        # rho -> S rho S^T in place: swap the stage's rows, then its columns.
        # The pre-rotations left rho a fresh array, so rho_in is not touched.
        _swap_rows(rho, stage)
        _swap_rows(rho.T, stage)
        for q_idx in range(r):
            rho = apply_single_qubit_superop(rho, nat, q_idx, r)
    report = _report(rho, r, "noisy")
    if check_bound:
        ideal = run_fridge_ideal(spec, rho_in=rho_in)
        d = channel_distance(noise, kraus_to_superop(identity_channel())).upper
        bound = ideal.reset_distance + spec.f_count * d
        if report.reset_distance > 1.1 * bound + 1e-9:
            raise CoolingError(
                f"noisy reset distance {report.reset_distance} breaks the "
                f"ideal + F*d bound {bound}"
            )
    return report
