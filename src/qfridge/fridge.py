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

The ideal run cools the thermal product block through `cool_populations`:
the product of the R qubits' diagonals, gathered once at
``np.argsort(permutation)``.  The stages only permute basis states, so on a
diagonal block their product is that one exact gather.  The protocol cools
every block, coherent or diagonal, through `MarginalKernel`: each output
qubit's marginal, exactly, without the 2^R x 2^R state.

A noisy run applies the stages in order; under noise that keeps diagonal
states diagonal to within eps per location it is a Markov chain on the
block's probabilities.  The runner takes that path when
2 F eps <= POPULATION_ATOL, which bounds its trace-norm deviation from the
dense density-matrix run; every other noisy run takes the dense path.

The compile, the spec and an ideal run hold O(2^R) bytes, so they are held
to `densim.population_bytes`; a `MarginalKernel` holds O(R 2^R), and its
caller holds it to R times that.  A noisy run is held to `densim.dense_bytes`
on both of its paths: it can fall back to the dense path, and its
populations work, F R 2^R updates, grows as 4^R too.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelError, SuperOp, diamond_upper, identity_channel, kraus_to_superop, trace_norm
from .densim import (ZERO, SimulationError, check_memory, dense_bytes, entropy_bits, evolve, partial_trace,
                     population_bytes, qubit_dim, spectrum_entropy_bits)

# largest trace-norm deviation from the dense run that a noisy run's Markov
# chain on populations may add: the float-reordering allowance
POPULATION_ATOL = 1e-12
MAX_R_SEARCH = 4096  # largest block size choose_R considers


class CoolingError(ChannelError):
    """Infeasible cooling request (e.g. maximally mixed fixed point)."""


@dataclass(frozen=True)
class FridgeSpec:
    """Compiled cooling run: bias, block size, permutation, and location count.

    ``q`` is the minority population of the fixed point, so q < 1/2 strictly;
    the block is cooled in its computational basis, so a caller whose fixed
    point lies elsewhere rotates the input first.  ``permutation[x]`` is the
    output basis label for input label x, held as a read-only ``np.intp``
    array.  ``stages`` holds the compiled circuit, derived from
    ``permutation``, as a read-only (F, 2) ``np.intp`` array: row ``(x, y)``
    swaps basis labels x and y.  Their product, in order, is ``permutation``.
    Each transposition of ``permutation`` occupies one stage; an identity
    permutation still spends one wait stage, the self-swap ``(0, 0)``.
    ``f_count`` counts locations = stages x R, idle qubits included as waits.
    """

    q: float
    r_block: int
    permutation: np.ndarray
    stages: np.ndarray = field(init=False)
    f_count: int = field(init=False)

    def __post_init__(self):
        _check_block(self.q, self.r_block)
        permutation = np.array(self.permutation, dtype=np.intp)
        if permutation.shape != (2**self.r_block,):
            raise CoolingError("permutation is not a bijection on basis states")
        # one transposition (start, x) for each later label x of the cycle
        # that its least label, start, opens; only a bijection lets every
        # walk return to its start without leaving the labels or meeting a
        # label already walked
        image = permutation.tolist()
        seen = bytearray(len(image))
        pairs = []
        for start in range(len(image)):
            if seen[start]:
                continue
            x = image[start]
            while x != start:
                if not 0 <= x < len(image) or seen[x]:
                    raise CoolingError("permutation is not a bijection on basis states")
                pairs += (start, x)
                seen[x] = True
                x = image[x]
        stages = np.array(pairs or [0, 0], dtype=np.intp).reshape(-1, 2)
        permutation.setflags(write=False)
        stages.setflags(write=False)
        object.__setattr__(self, "permutation", permutation)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "f_count", len(stages) * self.r_block)


def _check_block(q: float, r: int) -> None:
    """Reject a bias outside [0, 1/2), a block under one qubit, or one whose
    populations exceed the memory budget, before any 2^R enumeration."""
    if not 0 <= q < 0.5:
        raise CoolingError(f"bias q={q} must lie in [0, 1/2)")
    if r < 1:
        raise ChannelError(f"block size {r} must be at least 1")
    check_memory(population_bytes(r), f"a cooling block of {r} qubits")


def _swap_rows(a: np.ndarray, stage: np.ndarray) -> None:
    """Swap the rows a stage transposes, in place; the wait stage (0, 0)
    swaps row 0 with itself."""
    a[stage] = a[stage[::-1]]


def _product(factors) -> np.ndarray:
    """Entries of a product of qubits, qubit 0 the leading digit, from each
    qubit's populations or its flattened 2 x 2 state: np.kron's products,
    without its per-call overhead."""
    block = np.ones(1)
    for factor in factors:
        block = (block[:, None] * factor).reshape(-1)
    return block


def cool_populations(diagonals, spec: FridgeSpec) -> np.ndarray:
    """Populations of a block of R diagonal qubits after the cooling
    permutation: their product, gathered at the inverse permutation.  Equal,
    bit for bit, to the diagonal of P diag(product) P^T."""
    return _product(diagonals)[np.argsort(spec.permutation)]


class MarginalKernel:
    """The R single-qubit marginals of P(rho_1 (x) ... (x) rho_R)P^dag, for
    the spec's permutation P and any product input.

    Qubit i's marginal is M_i[a, b] = sum_s rho_in[x, x'] over the 2^(R-1)
    settings s of the other output bits, x = P^-1(a at bit i, s) and
    x' = P^-1(b at bit i, s).  rho_in[x, x'] is the product of one entry of
    the Kronecker product of the first R // 2 qubits' flattened states and
    one of the rest's, each at the digits 2 x_j + x'_j.  The index tables
    are built once per spec; a block then costs O(R 2^R) time and bytes:
    tables of 32 R 2^R bytes, and 64 R 2^R more a call.
    """

    def __init__(self, spec: FridgeSpec):
        r = spec.r_block
        tail_digits = r - r // 2
        labels = np.arange(2**r).reshape((2,) * r)
        # (R, 2, 2^(R-1)): the output labels with bit i at a, the rest at s
        by_bit = np.stack([np.moveaxis(labels, i, 0).reshape(2, -1) for i in range(r)])
        inputs = np.argsort(spec.permutation)[by_bit]
        ket, bra = inputs[:, :, None, :], inputs[:, None, :, :]
        digits = 0
        for shift in range(r - 1, -1, -1):
            digits = 4 * digits + 2 * ((ket >> shift) & 1) + ((bra >> shift) & 1)
        self.spec = spec
        self.lead, self.tail = digits >> 2 * tail_digits, digits & (4**tail_digits - 1)

    def __call__(self, states) -> np.ndarray:
        """(R, 2, 2) marginals, reset qubit first, of the block cooled from
        an (R, 2, 2) stack of input states."""
        flat = np.asarray(states).reshape(-1, 4)
        split = len(flat) // 2
        marginals = _product(flat[split:])[self.tail]
        marginals *= _product(flat[:split])[self.lead]
        return marginals.sum(axis=-1)


@dataclass(frozen=True)
class CoolingReport:
    reset_state: np.ndarray
    reset_distance: float
    waste_entropy: float

    def __post_init__(self):
        if not 0 <= self.reset_distance <= 2:
            raise CoolingError(f"reset distance {self.reset_distance} outside [0, 2]")


def _block_probabilities(q: float, r: int) -> np.ndarray:
    """Product distribution over {0,1}^R basis labels; a 1 bit has weight q."""
    weights = np.bitwise_count(np.arange(2**r))
    return (1 - q) ** (r - weights) * q**weights


def _half_mass(q: float, r: int, weights) -> float:
    """Mass of 2^(R-1) basis states of the product distribution, taken whole
    weight classes at a time in the given order of weights (a 1 bit has
    weight q), via binomial class sizes (no 2^R enumeration).  Class sizes
    are exact integers; where one is too large for a float, its share is
    taken in logs."""
    target = 2 ** (r - 1)
    taken = 0
    mass = 0.0
    count = 1  # C(r, k) = C(r, r - k) at the k-th class taken, updated exactly
    for k, weight in enumerate(weights):
        if k:
            count = count * (r - k + 1) // k
        take = min(count, target - taken)
        p_one = (1 - q) ** (r - weight) * q**weight
        try:
            mass += take * p_one
        except OverflowError:
            mass += math.exp(math.log(take) + (r - weight) * math.log1p(-q) + weight * math.log(q))
        taken += take
        if taken == target:
            break
    return mass


def top_mass(q: float, r: int) -> float:
    """Mass of the 2^(R-1) most likely basis states: the lightest classes."""
    if r == 0 or q == 0:
        return 1.0
    return min(_half_mass(q, r, range(r + 1)), 1.0)


def bottom_mass(q: float, r: int) -> float:
    """Mass of the 2^(R-1) least likely basis states, 1 - top_mass(q, r),
    summed over the heaviest classes so that it keeps its relative
    precision where 1 - top_mass is rounding: at q = 0.375, R = 4096 that
    difference reads 8e-14 while this mass is 1e-59."""
    if r == 0 or q == 0:
        return 0.0
    return _half_mass(q, r, range(r, -1, -1))


def choose_R(q: float, eps2: float) -> int:
    """Minimal block size with reset 1-norm residual 2 bottom_mass < eps2,
    over 1..MAX_R_SEARCH: probe R = 1, 2, 4, ... until one passes, then
    bisect inside the last doubling.  bottom_mass is non-increasing in R (up
    to its rounding, ~1e-15 relative), as an idle qubit added to a block
    cannot lower its best top mass, and a probe at R costs O(R), so a small
    answer is found without a probe at a large R.

    A non-positive (or NaN) eps2 is an input error (ValueError), not an
    infeasible request."""
    if not 0 <= q <= 0.5:
        raise CoolingError(f"bias q={q} outside [0, 1/2]")
    if not eps2 > 0:
        raise ValueError(f"eps2 {eps2} must be positive")
    if q == 0.5:
        raise CoolingError("unreachable: fixed point is the center, no cooling possible")

    def meets(r):
        return 2 * bottom_mass(q, r) < eps2

    failed, r = 0, 1
    while not meets(r):
        if r == MAX_R_SEARCH:
            raise CoolingError(f"no block size up to {MAX_R_SEARCH} meets eps2={eps2}")
        failed, r = r, min(2 * r, MAX_R_SEARCH)
    return failed + 1 + bisect.bisect_left(range(failed + 1, r), True, key=meets)


def build_cooling_circuit(q: float, r: int) -> FridgeSpec:
    """Sorting permutation for bias q on R qubits, compiled to transposition
    stages.

    Basis states are ordered by descending probability, ties broken by
    ascending label; the i-th most likely state is mapped to label i.
    """
    _check_block(q, r)
    order = np.lexsort((np.arange(2**r), -_block_probabilities(q, r)))
    # each label's rank in that order: the order's inverse
    return FridgeSpec(q=q, r_block=r, permutation=np.argsort(order))


def _coherence_leak(nat: np.ndarray) -> float:
    """How far a channel (natural rep) strays from mapping diagonal states to
    diagonal states: its largest population -> coherence entry, or imaginary
    part of its population block."""
    pops = (0, 3)
    leak = np.abs(nat[1:3][:, pops]).max()
    return float(max(leak, np.abs(nat[np.ix_(pops, pops)].imag).max()))


def _run(spec: FridgeSpec, noise: SuperOp | None) -> CoolingReport:
    """Cool the thermal block.  Without noise, through `cool_populations`;
    with noise, apply the stages in order, each followed by one noise pass
    per qubit.

    A noisy run is a Markov chain on the 2^R populations, in O(F 2^R) time
    and O(2^R) memory, when 2 F eps <= POPULATION_ATOL: eps is
    the largest population -> coherence entry of the noise's natural rep, or
    imaginary part of its population block, and a telescoping argument over
    the F locations bounds the trace-norm deviation from the dense run by
    2 F eps.  Rounding in a mixed Kraus form leaves eps of 1e-18 to 1e-16 for
    channels that keep diagonal states diagonal.  Every other run is on the
    dense state.
    """
    r = spec.r_block
    nat = None if noise is None else noise.natural()
    thermal = [np.array([1 - spec.q, spec.q])] * r
    dense = nat is not None and 2 * spec.f_count * _coherence_leak(nat) > POPULATION_ATOL
    if nat is None:
        state = cool_populations(thermal, spec)
    else:
        state = _product(thermal)
        if dense:
            state = np.diag(state).astype(complex)
        transfer = nat[np.ix_((0, 3), (0, 3))].real
        for stage in spec.stages:
            # state -> S state S^T in place: swap the stage's rows, then its columns
            _swap_rows(state, stage)
            if dense:
                _swap_rows(state.T, stage)
                state = evolve(state, [], r, nat)
            else:
                for q_idx in range(r):
                    state = np.matmul(transfer, state.reshape(2**q_idx, 2, -1)).reshape(-1)
    if dense:
        waste_entropy = entropy_bits(partial_trace(state, list(range(1, r)), r)) if r > 1 else 0.0
        reset = partial_trace(state, [0], r)
    else:
        by_reset_bit = state.reshape(2, -1)
        waste_entropy = spectrum_entropy_bits(by_reset_bit.sum(axis=0)) if r > 1 else 0.0
        reset = np.diag(by_reset_bit.sum(axis=1)).astype(complex)
    return CoolingReport(reset_state=reset, reset_distance=trace_norm(reset - ZERO), waste_entropy=waste_entropy)


def run_fridge_ideal(spec: FridgeSpec) -> CoolingReport:
    """Noiseless cooling of the thermal product block, within the populations
    budget its spec was built under."""
    return _run(spec, None)


def check_dense_block(r: int) -> None:
    """Reject a block whose dense 2^R x 2^R state would exceed the memory
    budget: a noisy run's, on both of its paths."""
    check_memory(dense_bytes(qubit_dim(r)), f"a dense cooling block of {r} qubits")


def run_fridge_noisy(spec: FridgeSpec, noise: SuperOp) -> CoolingReport:
    """Cooling with one noise application per location (R per stage).

    Asserts the run stays within the ideal reset distance plus F x d, where
    d is ``diamond_upper`` of the noise against the identity.  d bounds the
    diamond distance from above, so the bound is a theorem: replacing the
    noise by the identity one location at a time moves the state by at most
    d in trace norm, F times over.  A broken bound raises SimulationError.
    """
    check_dense_block(spec.r_block)
    report = _run(spec, noise)
    d = diamond_upper(noise, kraus_to_superop(identity_channel()))
    bound = run_fridge_ideal(spec).reset_distance + spec.f_count * d
    if report.reset_distance > bound + 1e-9:
        raise SimulationError(
            f"noisy reset distance {report.reset_distance} breaks the "
            f"ideal + F*d bound {bound}"
        )
    return report
