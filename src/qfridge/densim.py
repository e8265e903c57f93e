"""Exact density-matrix simulation of small registers.

Circuits follow a strict alternation: a layer of perfect gates, then one
application of a single-qubit noise channel to every non-reference qubit.
Reference qubits are exempt from noise; they model a perfect bystander system
used to witness entanglement.

`evolve` is the one layer executor, and `apply_channel` its one kernel: a
k-qubit natural rep contracted into its targets' ket and bra axes of rho.
Every gate u reaches rho as its natural rep kron(u, conj(u)).  A noisy
qubit that a gate of the last layer touches has the channel contracted into
that gate's rep, whatever the channel; any other noisy qubit takes the
channel alone, through the same kernel with the 4x4 rep.  This is exact: a
layer's gates act on disjoint qubits, and one-qubit channels on different
qubits commute.  Two routes keep small calls cheap.  A channel alone whose
natural rep is exactly a real diagonal matrix (dephasing along z;
diag(1, 0, 0, 1) is its p = 1/2 limit) scales a copy of rho in place, with
the kernel's bytes; `dephase_all` and `bounds.entropy_ledger_step` take it.
And no noise falls between one call's layers, so a constant layer list
compiles exactly into one unitary (`compile_layers`), applied as one dense
U rho U^dag.  `apply_unitary` and `apply_single_qubit_superop` are
reference kernels for the tests; `evolve` calls neither.

Every size cap comes from one memory budget, MEMORY_BUDGET bytes, and one
check, `check_memory`, which raises ValueError (an input error) naming the
bytes a run needs and the budget.  Two byte formulas state the peaks: a
dense path holds at most DENSE_COPIES d x d complex matrices
(`dense_bytes`), so 12 qubits fit and 13 do not; a fridge block on its
populations holds at most POPULATION_BYTES per basis label
(`population_bytes`), and a protocol's cooling block at most R times that.
Each entry point checks its formula before it allocates.  A cap bounds what
is simulated, not the system a run describes: the stockpile experiment holds
only the qubits its gates have touched and checks that count.

Entropies come from one helper, `spectrum_entropy_bits`, which scores one
spectrum or a stack of them along the last axis.  `entropy_bits` and
`relative_entropy` take (..., d, d) stacks and make one stacked
`eigvalsh` (`eigh` per side) call for the whole stack, so the bounds
experiment scores a block of state pairs at LAPACK cost, not per-call
overhead; given one 2-D input, each returns a Python float from the same
code.  Every reduction runs along its own pair, so a pair's value does not
depend on the stack it sits in.

A QRegister holds one state or a (B, d, d) stack of them, as
`experiments.run_epr_storage` scores a block of steps at once; the same
code serves both, and one 2-D state keeps Python floats and 2-D LAPACK
calls.  A register is validated once, when it is built: shape, unit trace,
Hermiticity, and positivity, decided by a Cholesky factorisation of
rho + PSD_ATOL*I (a full spectrum is computed only to report a rejection),
one stacked call per support group.  The stacked checks only decide pass
or fail: a stack that fails is checked again one state at a time, so it
raises its first bad state's own error.  Registers never change, so each one
memoises its von Neumann entropies per qubit subset; indexing a stacked
register takes those with the states.  `partial_trace`, `evolve`,
`epr_fidelity` and the entropies take stacks as well.

Positivity checks and entropies run on each state's exact support: the
indices whose row or column holds a nonzero entry (a qubit in |0> that no
gate has touched, or a |Phi+> pair, leaves many exactly-zero rows and
columns).  This is exact, not an approximation: such a matrix is
permutation-similar to block-diag(A, 0), so A + PSD_ATOL*I factors exactly
when the whole shifted matrix does, the smallest eigenvalue reported is the
same, and the dropped eigenvalues are zeros, which carry no entropy.  A
stack is split into groups of states sharing a support, so each state's
LAPACK call sees the same matrix as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channels import SuperOp

MEMORY_BUDGET = 2**31  # bytes any one run may hold
# most d x d complex matrices a dense path holds at once (tracemalloc peaks
# over 16 d^2): a register build holds 2, a step 3, a stockpile or decay
# run 4.1, the fridge's dense path 4.1 and a bounds sample 6
DENSE_COPIES = 7
# most bytes per basis label of a fridge block on its populations: the
# compile's Python lists, its stage pairs and the permutation (a tracemalloc
# peak of 99 at R = 18), or an ideal run's population vectors
POPULATION_BYTES = 128
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-9
EIG_CLAMP = 1e-12

DATA = "data"
REFERENCE = "reference"

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]

# |Phi+> = (|00> + |11>)/sqrt(2) and |0><0|, shared read-only
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PHI_PLUS.setflags(write=False)
ZERO = np.diag([1.0, 0.0]).astype(complex)
ZERO.setflags(write=False)
# natural rep of complete dephasing: keeps populations, zeroes coherences
_DEPHASE = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
_DEPHASE.setflags(write=False)

NAMED_GATES = {
    "H": _H,
    "X": _X,
    "Z": _Z,
    "CNOT": _CNOT,
    "SWAP": _SWAP,
    "TOFFOLI": _TOFFOLI,
}


class SimulationError(ValueError):
    """Invalid register, layer, or state encountered during simulation."""


def check_memory(nbytes: int, what: str) -> None:
    """Raise ValueError (an input error) when `what` needs more than
    MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise ValueError(f"{what} needs {nbytes} bytes, above the memory budget of {MEMORY_BUDGET} bytes")


def qubit_dim(n: int) -> int:
    """2^n, the dimension of n qubits, taken at n = 64 for larger n (already
    far past the budget), so that an absurd count costs no huge power."""
    return 2 ** min(n, 64)


def dense_bytes(d: int) -> int:
    """Peak bytes of a dense path on d x d complex matrices."""
    return DENSE_COPIES * 16 * d * d


def population_bytes(r: int) -> int:
    """Peak bytes of an R-qubit fridge block on its 2^R populations: its
    compile, its spec and an ideal run."""
    return POPULATION_BYTES * qubit_dim(r)


@dataclass(frozen=True)
class GateLayer:
    """Parallel unitaries on pairwise-disjoint targets."""

    gates: tuple

    def __init__(self, gates: Sequence):
        parsed = []
        seen = set()
        for u, targets in gates:
            u = np.asarray(u, dtype=complex)
            targets = tuple(int(q) for q in targets)
            if len(set(targets)) != len(targets) or any(q < 0 for q in targets):
                raise SimulationError(f"gate targets {targets} are not distinct qubits")
            dim = 2 ** len(targets)
            if u.shape != (dim, dim):
                raise SimulationError(
                    f"gate on {len(targets)} qubits must be {dim}x{dim}, got {u.shape}"
                )
            if not np.allclose(u @ u.conj().T, np.eye(dim), rtol=0, atol=TRACE_ATOL):
                raise SimulationError("gate matrix is not unitary")
            if seen & set(targets):
                raise SimulationError("overlapping gate targets in one layer")
            seen |= set(targets)
            parsed.append((u, targets))
        object.__setattr__(self, "gates", tuple(parsed))


@dataclass(frozen=True)
class QRegister:
    """n-qubit density matrix with per-qubit roles, or a (B, 2^n, 2^n) stack
    of them sharing the roles."""

    rho: np.ndarray
    roles: tuple

    def __init__(self, rho: np.ndarray, roles: Sequence[str]):
        n = len(roles)
        check_memory(dense_bytes(qubit_dim(n)), f"a register of {n} qubits")
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (2**n, 2**n):
            raise SimulationError("density matrix dimension does not match roles")
        _check_states(rho)
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "roles", tuple(roles))
        # subset tuple (None: all qubits in order) -> entropy in bits (an
        # array for a stack)
        object.__setattr__(self, "_entropies", {})

    def __getitem__(self, index) -> "QRegister":
        """The states of a stacked register at `index` (an index array or a
        slice), with their memoised entropies; they are not checked again."""
        sub = object.__new__(QRegister)
        rho = self.rho[index]
        rho.setflags(write=False)
        object.__setattr__(sub, "rho", rho)
        object.__setattr__(sub, "roles", self.roles)
        object.__setattr__(sub, "_entropies", {k: v[index] for k, v in self._entropies.items()})
        return sub

    @property
    def n_qubits(self) -> int:
        return len(self.roles)

    @property
    def system_qubits(self) -> tuple:
        return tuple(i for i, r in enumerate(self.roles) if r != REFERENCE)

    @classmethod
    def from_product(cls, states: Sequence[np.ndarray]):
        """Product of single-qubit density matrices, all data qubits."""
        rho = np.array([[1.0]], dtype=complex)
        for s in states:
            rho = np.kron(rho, np.asarray(s, dtype=complex))
        return cls(rho, [DATA] * len(states))


def _support_groups(rho: np.ndarray) -> list:
    """(members, sub) pairs that split a d x d state (member 0) or a (B, d, d)
    stack by exact support: sub holds the members' states restricted to the
    indices whose row or column holds a nonzero entry, a 2-D matrix for a 2-D
    input.  One group holding rho itself when no diagonal entry is zero (then
    no row or column is all zero)."""
    d = rho.shape[-1]
    stack = rho.reshape(-1, d, d)
    if np.count_nonzero(stack.diagonal(axis1=1, axis2=2)) == stack.shape[0] * d:
        return [(np.arange(len(stack)), rho)]
    nonzero = stack != 0
    rows = nonzero.any(axis=1) | nonzero.any(axis=2)
    groups = []
    left = np.arange(len(stack))
    while left.size:
        same = (rows[left] == rows[left[0]]).all(axis=1)
        members, idx = left[same], np.flatnonzero(rows[left[0]])
        groups.append((members, rho[np.ix_(idx, idx)] if rho.ndim == 2 else stack[np.ix_(members, idx, idx)]))
        left = left[~same]
    return groups


def _factors(sub: np.ndarray) -> bool:
    """Whether sub + PSD_ATOL*I has a Cholesky factor, for a matrix or every
    matrix of a stack: exactly when the smallest eigenvalue of sub exceeds
    -PSD_ATOL, up to ~dim*eps of rounding."""
    shifted = sub.copy()
    diag = np.arange(sub.shape[-1])
    shifted[..., diag, diag] += PSD_ATOL
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        return False


def _check_states(rho: np.ndarray) -> None:
    """Validate a d x d state or a (B, d, d) stack in one vectorised pass:
    unit trace, Hermiticity, and positivity (`_factors`, one call per
    support group; the smallest eigenvalue decides only where a
    factorisation fails).  A stack that fails any check is checked again
    one state at a time, which raises the first bad state's own message."""
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if np.any((abs(trace.real - 1) > TRACE_ATOL) | (abs(trace.imag) > TRACE_ATOL)):
        fault = f"trace {trace} != 1"
    # written so that a NaN entry fails the comparison and is rejected
    elif not np.all(np.abs(rho - rho.conj().swapaxes(-1, -2)) <= TRACE_ATOL):
        fault = "density matrix is not Hermitian"
    else:
        failed = [sub for _, sub in _support_groups(rho) if not _factors(sub)]
        min_eig = min((float(np.linalg.eigvalsh(sub)[..., 0].min()) for sub in failed), default=0.0)
        if min_eig >= -PSD_ATOL:
            return
        fault = f"density matrix has eigenvalue {min_eig} < -{PSD_ATOL}"
    if rho.ndim == 2:
        raise SimulationError(fault)
    for one in rho:
        _check_states(one)


def repetition_code(data: Sequence[int], phase_flip: bool = False) -> tuple:
    """(encode, decode) gate layers of the 3-qubit repetition code on the data
    qubits (d0, d1, d2), d0 holding the logical qubit.  Decoding undoes the
    encoder and ends with a Toffoli that corrects d0 from the syndrome left on
    d1 and d2.  The phase-flip code adds a Hadamard on each data qubit after
    encoding and before decoding."""
    d0, d1, d2 = data
    cnot = NAMED_GATES["CNOT"]
    encode = [GateLayer([(cnot, (d0, d1))]), GateLayer([(cnot, (d0, d2))])]
    decode = encode + [GateLayer([(NAMED_GATES["TOFFOLI"], (d1, d2, d0))])]
    if phase_flip:
        h = GateLayer([(NAMED_GATES["H"], (q,)) for q in data])
        encode, decode = encode + [h], [h] + decode
    return encode, decode


# ---------------------------------------------------------------------------
# low-level matrix updates
# ---------------------------------------------------------------------------


def _contract(u_t: np.ndarray, tensor: np.ndarray, axes: list) -> np.ndarray:
    """Contract a k-qubit gate tensor into `axes` of a 2n-axis tensor, keeping
    the axis order: tensordot puts the gate's k output axes first."""
    k = len(axes)
    out = np.tensordot(u_t, tensor, axes=(list(range(k, 2 * k)), axes))
    rest = iter(range(k, out.ndim))
    return out.transpose([axes.index(d) if d in axes else next(rest) for d in range(out.ndim)])


def apply_unitary(rho: np.ndarray, u: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """rho -> U rho U^dag with U acting on the given qubits, one contraction
    per side (a reference kernel for the tests)."""
    u_t = u.reshape((2,) * (2 * len(targets)))
    tensor = _contract(u_t, rho.reshape((2,) * (2 * n)), list(targets))
    tensor = _contract(np.conj(u_t), tensor, [n + q for q in targets])
    return tensor.reshape(2**n, 2**n)


def apply_single_qubit_superop(rho: np.ndarray, nat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply a channel (natural 4x4 rep, row-major vec) to one qubit as one
    matrix product (a reference kernel for the tests)."""
    tensor = rho.reshape((2,) * (2 * n))
    tensor = np.moveaxis(tensor, (qubit, n + qubit), (0, 1))
    shape = tensor.shape
    flat = tensor.reshape(4, -1)
    flat = nat @ flat
    tensor = flat.reshape(shape)
    tensor = np.moveaxis(tensor, (0, 1), (qubit, n + qubit))
    return tensor.reshape(2**n, 2**n)


def partial_trace(rho: np.ndarray, keep: Sequence[int], n: int) -> np.ndarray:
    """Reduced density matrix on `keep`, in the listed qubit order, of each
    matrix of a (..., 2^n, 2^n) stack."""
    keep = list(keep)
    if len(set(keep)) != len(keep) or not all(0 <= q < n for q in keep):
        raise SimulationError(f"qubit subset {keep} is not distinct qubits of 0..{n - 1}")
    # a traced qubit shares its ket and bra label, so einsum sums it out
    labels = [..., *range(n), *(n + q if q in keep else q for q in range(n))]
    out = [..., *keep, *(n + q for q in keep)]
    lead = rho.shape[:-2]
    m = len(keep)
    return np.einsum(rho.reshape(lead + (2,) * (2 * n)), labels, out).reshape(lead + (2**m, 2**m))


# ---------------------------------------------------------------------------
# register operations
# ---------------------------------------------------------------------------


def _gates(layers: Iterable[GateLayer], n: int):
    """Each (gate, targets) of the layers in order, targets checked against n."""
    for layer in layers:
        for u, targets in layer.gates:
            if any(q >= n for q in targets):
                raise SimulationError("gate target outside register")
            yield u, targets


def compile_layers(layers: Iterable[GateLayer], n: int) -> np.ndarray:
    """The 2^n x 2^n product unitary of the layers (the first layer acts
    first), built by contracting each gate into the ket axes of the identity."""
    tensor = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    for u, targets in _gates(layers, n):
        tensor = _contract(u.reshape((2,) * (2 * len(targets))), tensor, list(targets))
    return tensor.reshape(2**n, 2**n)


def apply_channel(tensor: np.ndarray, rep: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Contract a k-qubit natural rep, as a (2,)*4k tensor (ket outputs, bra
    outputs, ket inputs, bra inputs), into the targets' ket and bra axes of
    rho as a (..., 2, ..., 2) tensor whose last 2n axes are the qubits':
    `evolve`'s one kernel."""
    lead = tensor.ndim - 2 * n
    return _contract(rep, tensor, [*(lead + q for q in targets), *(lead + n + q for q in targets)])


def evolve(rho: np.ndarray, layers: Sequence[GateLayer] | np.ndarray, n: int,
           nat: np.ndarray | None = None, noisy: Iterable[int] | None = None) -> np.ndarray:
    """Apply gates to a raw 2^n x 2^n matrix, or to each matrix of a
    (..., 2^n, 2^n) stack: layers gate by gate, or their `compile_layers`
    unitary U as one U rho U^dag.  Then, with a channel's
    natural rep `nat` given, one noise pass on the `noisy` qubits (default:
    all), folded into the last layer's gates (see the module docstring).
    No validation of the result."""
    if isinstance(layers, np.ndarray):
        if layers.shape != (2**n, 2**n):
            raise SimulationError(f"compiled unitary of shape {layers.shape} does not fit {n} qubits")
        rho = layers @ rho @ layers.conj().T
        layers = ()
    if nat is None and not layers:
        return rho
    lead = rho.shape[:-2]
    tensor = rho.reshape(lead + (2,) * (2 * n))
    last = []  # (natural rep, targets) of each gate of the last layer
    if layers:
        for u, targets in _gates(layers[:-1], n):
            tensor = apply_channel(tensor, np.kron(u, u.conj()).reshape((2,) * (4 * len(targets))), targets, n)
        last = [(np.kron(u, u.conj()).reshape((2,) * (4 * len(t))), t) for u, t in _gates(layers[-1:], n)]
    if nat is not None:
        owner = {q: (i, j) for i, (_, targets) in enumerate(last) for j, q in enumerate(targets)}
        lone = []
        for q in range(n) if noisy is None else noisy:
            if q in owner:
                i, j = owner[q]
                rep, targets = last[i]
                last[i] = (_contract(nat.reshape(2, 2, 2, 2), rep, [j, len(targets) + j]), targets)
            else:
                lone.append(q)
        factors = nat.diagonal()
        # exactly a real diagonal matrix (no nonzero entry off the diagonal, no
        # imaginary part on it): scaling gives the bytes of the tensor kernel
        if lone and np.count_nonzero(nat) == np.count_nonzero(factors) and not np.count_nonzero(factors.imag):
            tensor, factors = tensor.copy(), factors.real
            for q in lone:
                shape = [1] * tensor.ndim
                shape[len(lead) + q] = shape[len(lead) + n + q] = 2
                tensor *= factors.reshape(shape)
        else:
            for q in lone:
                tensor = apply_channel(tensor, nat.reshape(2, 2, 2, 2), [q], n)
    for rep, targets in last:
        tensor = apply_channel(tensor, rep, targets, n)
    return tensor.reshape(lead + (2**n, 2**n))


def step(reg: QRegister, layer: GateLayer, noise: SuperOp | None) -> QRegister:
    """One time step: perfect gates, then noise on every non-reference qubit."""
    nat = None if noise is None else noise.natural()
    return QRegister(evolve(reg.rho, [layer], reg.n_qubits, nat, reg.system_qubits), reg.roles)


def _as_float(x: np.ndarray | np.generic) -> float | np.ndarray:
    """A 0-d numpy result as a Python float; a stacked result as it is."""
    return float(x) if x.ndim == 0 else x


def spectrum_entropy_bits(eigs: np.ndarray) -> float | np.ndarray:
    """Entropy in bits of each spectrum or probability vector along the last
    axis (real parts): entries at most EIG_CLAMP, negative ones included,
    carry none.  A Python float for one vector, an array for a stack."""
    eigs = np.asarray(eigs).real
    # a dropped entry becomes 1, whose term 1 * log2(1) is exactly 0
    kept = np.where(eigs > EIG_CLAMP, eigs, 1.0)
    return _as_float(-(kept * np.log2(kept)).sum(axis=-1))


def entropy_bits(rho: np.ndarray) -> float | np.ndarray:
    """Entropy in bits of each Hermitian matrix of a (..., d, d) stack, from
    one stacked `eigvalsh` (see spectrum_entropy_bits); no PSD check."""
    return spectrum_entropy_bits(np.linalg.eigvalsh(rho))


def von_neumann_entropy(reg: QRegister, subset: Sequence[int] | None = None) -> float | np.ndarray:
    """Entropy in bits of the reduced state on `subset` (default: everything):
    a Python float for one state, an array for a stacked register.

    One stacked `eigvalsh` per support group (`_support_groups`); a state
    with an eigenvalue below -PSD_ATOL raises, naming it (a stack names its
    first such state's).
    Memoised on the register per subset tuple; the full in-order subset
    shares the default's entry.  A subset that raises is not stored.
    """
    key = None if subset is None else tuple(subset)
    if key == ():
        raise SimulationError("entropy of an empty subset")
    if key == tuple(range(reg.n_qubits)):
        key = None
    if key not in reg._entropies:
        sub = reg.rho if key is None else partial_trace(reg.rho, key, reg.n_qubits)
        entropy = np.empty(sub.shape[:-2]).reshape(-1)
        low = np.empty_like(entropy)
        for members, block in _support_groups(sub):
            eigs = np.linalg.eigvalsh(block)
            entropy[members] = spectrum_entropy_bits(eigs)
            low[members] = eigs[..., 0]
        negative = low[low < -PSD_ATOL]
        if negative.size:
            raise SimulationError(f"reduced state has eigenvalue {negative[0]}")
        reg._entropies[key] = _as_float(entropy.reshape(sub.shape[:-2]))
    return reg._entropies[key]


def information(reg: QRegister) -> float | np.ndarray:
    """n - S(rho) over the non-reference qubits."""
    sys = reg.system_qubits
    return len(sys) - von_neumann_entropy(reg, sys)


def dephase_all(reg: QRegister) -> QRegister:
    """Zero every element whose bra/ket indices differ on a non-reference
    qubit: one noise pass of the p = 1/2 dephasing channel."""
    return QRegister(evolve(reg.rho, [], reg.n_qubits, _DEPHASE, reg.system_qubits), reg.roles)


def relative_entropy(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """S(a||b) in bits for each pair of two (..., d, d) stacks, from one
    stacked `eigh` per side; +inf where supp(a) escapes supp(b).  A Python
    float for one pair."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    mu, va = np.linalg.eigh(a)
    nu, vb = np.linalg.eigh(b)
    support = nu > EIG_CLAMP
    escaped = np.zeros(support.shape[:-1], dtype=bool)
    if not support.all():
        # trace of a on b's kernel: the support columns of vb zeroed
        kernel = np.where(support[..., None, :], 0.0, vb)
        escaped = (kernel.conj() * (a @ kernel)).sum(axis=(-2, -1)).real > 1e-10
    overlap = np.abs(vb.conj().swapaxes(-1, -2) @ va) ** 2  # overlap[..., j, i] = |<w_j|v_i>|^2
    # weight[..., j] = sum_i overlap[..., j, i] mu_i: one matrix-vector
    # product per pair, so a pair's value does not depend on its stack
    weight = (overlap @ np.clip(mu, 0.0, None)[..., None])[..., 0]
    log_nu = np.where(support, np.log2(np.where(support, nu, 1.0)), 0.0)
    term_b = (log_nu * weight).sum(axis=-1)
    rel = np.maximum(-spectrum_entropy_bits(mu) - term_b, 0.0)
    return _as_float(np.where(escaped, np.inf, rel))


def epr_fidelity(
    reg: QRegister,
    decoder: Iterable[GateLayer] | np.ndarray,
    system_qubit: int,
    reference_qubit: int,
) -> float:
    """Apply the decoder (noiselessly; layers or their compiled unitary, as
    `evolve` takes them), reduce to (system, reference), and return the
    overlap with the |Phi+> Bell state: a Python float for one state, an
    array for a stacked register."""
    if reg.roles[reference_qubit] != REFERENCE:
        raise SimulationError("reference_qubit is not flagged as reference")
    n = reg.n_qubits
    pair = partial_trace(evolve(reg.rho, decoder, n), [system_qubit, reference_qubit], n)
    return _as_float((PHI_PLUS.conj() @ pair @ PHI_PLUS).real)
