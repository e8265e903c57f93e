"""Test fixtures and oracles that the package itself does not need.

Dense unitaries for a compiled fridge, an EPR register, conditional entropy,
Bloch read-out, two Kraus constructors and direct channel application and
composition: the tests build inputs and check results with them, while the
program works on index maps, natural reps and PTMs.
"""

from typing import Sequence

import numpy as np

from qfridge.channels import PAULIS, ChannelError, KrausSet, SuperOp
from qfridge.densim import DATA, PHI_PLUS, REFERENCE, ZERO, QRegister, SimulationError, von_neumann_entropy
from qfridge.fridge import FridgeSpec, _swap_rows


def permutation_unitary(spec: FridgeSpec) -> np.ndarray:
    dim = 2**spec.r_block
    u = np.zeros((dim, dim), dtype=complex)
    for x, y in enumerate(spec.permutation):
        u[y, x] = 1.0
    return u


def stage_unitary(spec: FridgeSpec, i: int) -> np.ndarray:
    """Dense 2^R x 2^R unitary of stage i (identity for a wait stage)."""
    u = np.eye(2**spec.r_block, dtype=complex)
    _swap_rows(u, spec.stages[i])
    return u


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


def apply_channel(c: SuperOp, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a 2x2 matrix (by linearity, any matrix)."""
    rho = np.asarray(rho, dtype=complex)
    return (c.natural() @ rho.reshape(4)).reshape(2, 2)


def compose(a: SuperOp, b: SuperOp) -> SuperOp:
    """a after b: (a . b)(rho) = a(b(rho))."""
    return SuperOp(a.ptm @ b.ptm)


def apply_kraus(k: KrausSet, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return sum(op @ rho @ op.conj().T for op in k.ops)
