"""Exact density-matrix simulation of small registers.

Circuits follow a strict alternation: a layer of perfect gates, then one
application of a single-qubit noise channel to every non-reference qubit.
Reference qubits are exempt from noise; they model a perfect bystander system
used to witness entanglement.  No noise falls between one `evolve` call's
layers, so a constant layer list compiles exactly into one unitary
(`compile_layers`), applied as one dense U rho U^dag.

A noise pass whose natural rep is exactly a real diagonal matrix (dephasing
along z; diag(1, 0, 0, 1) is its p = 1/2 limit) multiplies each qubit's
(ket, bra) entries of one copy of rho in place.  Every other channel goes
through the general tensor kernel, `apply_single_qubit_superop`, one qubit at
a time.  Both give the same bytes on a real diagonal rep; a complex factor
(a z-rotation in the channel) keeps the kernel, because numpy's complex
product and BLAS's round differently.  `dephase_all` and the entropy
ledger's single-qubit passes (`bounds.entropy_ledger_step`) run through the
same pass.

Registers are capped at 12 qubits (dense 4096x4096 complex matrices).

A QRegister is validated once, when it is built: shape, unit trace,
Hermiticity, and positivity, decided by a Cholesky factorisation of
rho + PSD_ATOL*I (a full spectrum is computed only to report a rejection).
Registers never change, so each one memoises its von Neumann entropies per
qubit subset.

Positivity checks and entropies run on the state's exact support: the
indices whose row or column holds a nonzero entry (qubits waiting in |0>
leave many exactly-zero rows and columns).  This is exact, not an
approximation: such a matrix is permutation-similar to block-diag(A, 0), so
A + PSD_ATOL*I factors exactly when the whole shifted matrix does, the
smallest eigenvalue reported is the same, and the dropped eigenvalues are
zeros, which carry no entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channels import SuperOp

MAX_QUBITS = 12
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
    """n-qubit density matrix with per-qubit roles."""

    rho: np.ndarray
    roles: tuple

    def __init__(self, rho: np.ndarray, roles: Sequence[str]):
        rho = np.asarray(rho, dtype=complex)
        n = len(roles)
        if n > MAX_QUBITS:
            raise SimulationError(f"register of {n} qubits exceeds cap {MAX_QUBITS}")
        if rho.shape != (2**n, 2**n):
            raise SimulationError("density matrix dimension does not match roles")
        trace = np.trace(rho)
        if abs(trace.real - 1) > TRACE_ATOL or abs(trace.imag) > TRACE_ATOL:
            raise SimulationError(f"trace {trace} != 1")
        # written so that a NaN entry fails the comparison and is rejected
        if not np.max(np.abs(rho - rho.conj().T)) <= TRACE_ATOL:
            raise SimulationError("density matrix is not Hermitian")
        # rho + PSD_ATOL*I has a Cholesky factor exactly when the smallest
        # eigenvalue of rho exceeds -PSD_ATOL, up to ~dim*eps of rounding; the
        # eigenvalue itself decides only when the factorisation fails.
        support = _support(rho)
        shifted = support.copy()
        shifted.flat[:: len(support) + 1] += PSD_ATOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(support)[0])
            if min_eig < -PSD_ATOL:
                raise SimulationError(
                    f"density matrix has eigenvalue {min_eig} < -{PSD_ATOL}"
                ) from None
        del support, shifted
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "roles", tuple(roles))
        # subset tuple (None: all qubits in order) -> entropy in bits
        object.__setattr__(self, "_entropies", {})

    @property
    def n_qubits(self) -> int:
        return len(self.roles)

    @property
    def system_qubits(self) -> tuple:
        return tuple(i for i, r in enumerate(self.roles) if r != REFERENCE)

    @classmethod
    def from_product(cls, states: Sequence[np.ndarray], roles: Sequence[str] | None = None):
        """Product of single-qubit density matrices."""
        rho = np.array([[1.0]], dtype=complex)
        for s in states:
            rho = np.kron(rho, np.asarray(s, dtype=complex))
        return cls(rho, roles or [DATA] * len(states))


def _support(rho: np.ndarray) -> np.ndarray:
    """rho restricted to the indices whose row or column holds a nonzero
    entry; rho itself when no diagonal entry is zero (then no row or column
    is all zero)."""
    if np.count_nonzero(rho.diagonal()) == len(rho):
        return rho
    nonzero = rho != 0
    idx = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    return rho[np.ix_(idx, idx)]


def epr_register(extra_system: int = 0) -> QRegister:
    """Reference qubit 0 maximally entangled with system qubit 1, plus
    optional extra system qubits in |0>."""
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    roles = [REFERENCE, DATA]
    for _ in range(extra_system):
        rho = np.kron(rho, ZERO)
        roles.append(DATA)
    return QRegister(rho, roles)


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
    """rho -> U rho U^dag with U acting on the given qubits."""
    u_t = u.reshape((2,) * (2 * len(targets)))
    tensor = _contract(u_t, rho.reshape((2,) * (2 * n)), list(targets))
    tensor = _contract(np.conj(u_t), tensor, [n + q for q in targets])
    return tensor.reshape(2**n, 2**n)


def apply_single_qubit_superop(rho: np.ndarray, nat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply a channel (natural 4x4 rep, row-major vec) to one qubit."""
    tensor = rho.reshape((2,) * (2 * n))
    tensor = np.moveaxis(tensor, (qubit, n + qubit), (0, 1))
    shape = tensor.shape
    flat = tensor.reshape(4, -1)
    flat = nat @ flat
    tensor = flat.reshape(shape)
    tensor = np.moveaxis(tensor, (0, 1), (qubit, n + qubit))
    return tensor.reshape(2**n, 2**n)


def partial_trace(rho: np.ndarray, keep: Sequence[int], n: int) -> np.ndarray:
    """Reduced density matrix on `keep`, in the listed qubit order."""
    keep = list(keep)
    if len(set(keep)) != len(keep) or not all(0 <= q < n for q in keep):
        raise SimulationError(f"qubit subset {keep} is not distinct qubits of 0..{n - 1}")
    # a traced qubit shares its ket and bra label, so einsum sums it out
    labels = list(range(n)) + [n + q if q in keep else q for q in range(n)]
    out = keep + [n + q for q in keep]
    m = len(keep)
    return np.einsum(rho.reshape((2,) * (2 * n)), labels, out).reshape(2**m, 2**m)


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


def evolve(rho: np.ndarray, layers: Iterable[GateLayer] | np.ndarray, n: int,
           nat: np.ndarray | None = None, noisy: Iterable[int] | None = None) -> np.ndarray:
    """Apply gates to a raw 2^n x 2^n matrix: layers gate by gate, or their
    `compile_layers` unitary U as one U rho U^dag.  Then, with a channel's
    natural rep `nat` given, one noise pass on the `noisy` qubits (default:
    all), in the listed order.  A rep that equals a real diagonal matrix
    exactly scales a copy of rho in place, qubit by qubit; any other goes
    through `apply_single_qubit_superop`.  No validation of the result."""
    if isinstance(layers, np.ndarray):
        if layers.shape != (2**n, 2**n):
            raise SimulationError(f"compiled unitary of shape {layers.shape} does not fit {n} qubits")
        rho = layers @ rho @ layers.conj().T
    else:
        for u, targets in _gates(layers, n):
            rho = apply_unitary(rho, u, targets, n)
    if nat is None:
        return rho
    qubits = range(n) if noisy is None else noisy
    factors = nat.diagonal()
    # exactly a real diagonal matrix: no nonzero entry off the diagonal and no
    # imaginary part on it (counted, as the protocol's 1-qubit passes are cheap)
    if np.count_nonzero(nat) != np.count_nonzero(factors) or factors.imag.any():
        for q in qubits:
            rho = apply_single_qubit_superop(rho, nat, q, n)
        return rho
    factors = factors.real
    # nat @ flat adds only exact zeros to these products: the same bytes
    tensor = rho.reshape((2,) * (2 * n)).copy()
    for q in qubits:
        shape = [1] * (2 * n)
        shape[q] = shape[n + q] = 2
        tensor *= factors.reshape(shape)
    return tensor.reshape(2**n, 2**n)


def step(reg: QRegister, layer: GateLayer, noise: SuperOp | None) -> QRegister:
    """One time step: perfect gates, then noise on every non-reference qubit."""
    nat = None if noise is None else noise.natural()
    return QRegister(evolve(reg.rho, [layer], reg.n_qubits, nat, reg.system_qubits), reg.roles)


def spectrum_entropy_bits(eigs: np.ndarray) -> float:
    """Entropy in bits of a spectrum or probability vector: entries are
    clipped at 0 and those at most EIG_CLAMP are dropped."""
    eigs = np.clip(eigs.real, 0.0, None)
    eigs = eigs[eigs > EIG_CLAMP]
    return float(-np.sum(eigs * np.log2(eigs)))


def entropy_bits(rho: np.ndarray) -> float:
    """Entropy in bits of a Hermitian matrix's spectrum (see
    spectrum_entropy_bits); no PSD check."""
    return spectrum_entropy_bits(np.linalg.eigvalsh(rho))


def von_neumann_entropy(reg: QRegister, subset: Sequence[int] | None = None) -> float:
    """Entropy in bits of the reduced state on `subset` (default: everything).

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
        eigs = np.linalg.eigvalsh(_support(sub))
        if eigs[0] < -PSD_ATOL:
            raise SimulationError(f"reduced state has eigenvalue {eigs[0]}")
        reg._entropies[key] = spectrum_entropy_bits(eigs)
    return reg._entropies[key]


def conditional_entropy(reg: QRegister, a: Sequence[int], b: Sequence[int]) -> float:
    """S(A|B) = S(AB) - S(B) in bits."""
    if set(a) & set(b):
        raise SimulationError("conditional entropy subsets overlap")
    return von_neumann_entropy(reg, list(a) + list(b)) - von_neumann_entropy(reg, b)


def information(reg: QRegister) -> float:
    """n - S(rho) over the non-reference qubits."""
    sys = reg.system_qubits
    return len(sys) - von_neumann_entropy(reg, sys)


def dephase_all(reg: QRegister) -> QRegister:
    """Zero every element whose bra/ket indices differ on a non-reference
    qubit: one noise pass of the p = 1/2 dephasing channel."""
    return QRegister(evolve(reg.rho, [], reg.n_qubits, _DEPHASE, reg.system_qubits), reg.roles)


def relative_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """S(a||b) in bits; +inf when supp(a) escapes supp(b)."""
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
    overlap = np.abs(vb.conj().T @ va) ** 2  # overlap[j, i] = |<w_j|v_i>|^2
    log_nu = np.where(nu > EIG_CLAMP, np.log2(np.where(nu > EIG_CLAMP, nu, 1.0)), 0.0)
    term_b = float(np.einsum("j,ji,i->", log_nu, overlap, mu).real)
    return max(term_a - term_b, 0.0)


def epr_fidelity(
    reg: QRegister,
    decoder: Iterable[GateLayer] | np.ndarray,
    system_qubit: int,
    reference_qubit: int,
) -> float:
    """Apply the decoder (noiselessly; layers or their compiled unitary, as
    `evolve` takes them), reduce to (system, reference), and return the
    overlap with the |Phi+> Bell state."""
    if reg.roles[reference_qubit] != REFERENCE:
        raise SimulationError("reference_qubit is not flagged as reference")
    n = reg.n_qubits
    pair = partial_trace(evolve(reg.rho, decoder, n), [system_qubit, reference_qubit], n)
    return float((PHI_PLUS.conj() @ pair @ PHI_PLUS).real)
