"""Single-qubit channel algebra.

A channel is held in one of three interchangeable forms:

* :class:`KrausSet` -- a list of 2x2 complex Kraus operators,
* :class:`SuperOp` -- the 4x4 real Pauli transfer matrix (PTM) acting on
  (I, X, Y, Z) coefficient vectors,
* :class:`CanonicalForm` -- the rotation-sandwiched normal form
  ``C = U . C' . V`` where ``C'`` shifts the Bloch vector by ``t`` and
  rescales the axes by ``lam = (lx, ly, lz)``.

All objects are immutable values; every operation returns a new object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

ATOL = 1e-10
CLASS_TOL = 1e-8  # tolerance of the channel-class verdicts: unital, uncontracted, degenerate

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)

# change of basis between row-major vec(rho) and Pauli coefficients
# tr(sigma_i rho): rho = (1/2) sum_i c_i sigma_i
_TO_PAULI = np.array([p.T.reshape(4) for p in PAULIS])
_FROM_PAULI = 0.5 * np.array([p.reshape(4) for p in PAULIS]).T


class ChannelError(ValueError):
    """Invalid channel data or an operation outside its domain."""


class NonContractiveAxisError(ChannelError):
    """A fixed point was requested along an axis the channel does not contract."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrausSet:
    """Trace-preserving set of 2x2 Kraus operators."""

    ops: tuple

    def __init__(self, ops: Sequence[np.ndarray]):
        mats = tuple(np.asarray(op, dtype=complex) for op in ops)
        if not mats or any(m.shape != (2, 2) for m in mats):
            raise ChannelError("Kraus operators must be 2x2 matrices")
        total = sum(m.conj().T @ m for m in mats)
        if not np.allclose(total, I2, rtol=0, atol=ATOL):
            raise ChannelError("Kraus set is not trace preserving")
        object.__setattr__(self, "ops", mats)


@dataclass(frozen=True)
class SuperOp:
    """Qubit channel as a 4x4 real Pauli transfer matrix."""

    ptm: np.ndarray

    def __init__(self, ptm: np.ndarray):
        ptm = np.array(ptm, dtype=float)
        if ptm.shape != (4, 4):
            raise ChannelError("PTM must be 4x4")
        if not np.allclose(ptm[0], [1.0, 0.0, 0.0, 0.0], rtol=0, atol=ATOL):
            raise ChannelError("PTM first row must be (1, 0, 0, 0): not trace preserving")
        ptm.setflags(write=False)
        object.__setattr__(self, "ptm", ptm)

    @property
    def shift(self) -> np.ndarray:
        """Bloch translation t."""
        return self.ptm[1:, 0]

    @property
    def linear(self) -> np.ndarray:
        """3x3 Bloch linear block."""
        return self.ptm[1:, 1:]

    def natural(self) -> np.ndarray:
        """4x4 superoperator on row-major-flattened 2x2 matrices: the PTM
        in the vec(rho) basis.

        Computed once per instance and returned read-only.
        """
        nat = self.__dict__.get("_natural")
        if nat is None:
            nat = _FROM_PAULI @ (self.ptm @ _TO_PAULI)
            nat.setflags(write=False)
            object.__setattr__(self, "_natural", nat)
        return nat


@dataclass(frozen=True)
class CanonicalForm:
    """Rotation-sandwiched normal form of a qubit channel.

    ``t`` and ``lam`` live in the canonical frame; the channel acts as
    ``w -> post_rot @ (t + lam * (pre_rot @ w))``.  ``lam`` entries may be
    negative: improper rotation factors from the SVD are repaired by folding
    an axis sign into ``lam`` so that both rotations stay proper.
    """

    t: np.ndarray
    lam: np.ndarray
    pre_rot: np.ndarray
    post_rot: np.ndarray

    def __post_init__(self):
        for name in ("t", "lam", "pre_rot", "post_rot"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_superop(self) -> SuperOp:
        ptm = np.zeros((4, 4))
        ptm[0, 0] = 1.0
        ptm[1:, 0] = self.post_rot @ self.t
        ptm[1:, 1:] = self.post_rot @ np.diag(self.lam) @ self.pre_rot
        return SuperOp(ptm)


@dataclass(frozen=True)
class BlochVector:
    """Point inside the closed Bloch ball."""

    w: np.ndarray

    def __init__(self, w: Sequence[float]):
        w = np.array(w, dtype=float)
        if w.shape != (3,):
            raise ChannelError("Bloch vector must have 3 components")
        if np.linalg.norm(w) > 1 + 1e-12:
            raise ChannelError(f"Bloch vector has norm {np.linalg.norm(w)} > 1")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def density(self) -> np.ndarray:
        return 0.5 * (I2 + self.w[0] * PAULI_X + self.w[1] * PAULI_Y + self.w[2] * PAULI_Z)


@dataclass(frozen=True)
class PauliChannelParams:
    """Probabilities of X, Y and Z errors for a unital channel."""

    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        for p in (self.p_x, self.p_y, self.p_z):
            if p < -1e-12:
                raise ChannelError(f"negative Pauli probability {p}")
        if self.p_x + self.p_y + self.p_z > 1 + 1e-12:
            raise ChannelError("Pauli probabilities sum past 1")


class ChannelDistance(NamedTuple):
    """Certified sandwich ``lower <= ||a - b||_<> <= upper`` on the diamond
    distance between two channels.

    ``lower`` is attained (the value at the maximally entangled input);
    ``upper`` is a feasible value of the dual SDP (:func:`diamond_upper`).
    """

    lower: float
    upper: float


# ---------------------------------------------------------------------------
# Bloch helpers
# ---------------------------------------------------------------------------


def bloch_to_density(w: Sequence[float]) -> np.ndarray:
    return BlochVector(w).density()


# ---------------------------------------------------------------------------
# named channels
# ---------------------------------------------------------------------------


def identity_channel() -> KrausSet:
    return KrausSet([I2])


def dephasing_kraus(p: float) -> KrausSet:
    """rho -> (1-p) rho + p Z rho Z."""
    return KrausSet([np.sqrt(1 - p) * I2, np.sqrt(p) * PAULI_Z])


def depolarizing_kraus(p: float) -> KrausSet:
    """rho -> (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)."""
    return KrausSet(
        [np.sqrt(1 - p) * I2]
        + [np.sqrt(p / 3) * s for s in (PAULI_X, PAULI_Y, PAULI_Z)]
    )


def amplitude_damping_kraus(p: float) -> KrausSet:
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    return KrausSet([k0, k1])


def thermal_kraus(gamma: float, excited: float) -> KrausSet:
    """Generalized damping toward diag(1 - excited, excited).

    ``gamma`` is the per-step relaxation strength; ``excited`` is the excited
    population of the fixed point (0 recovers plain amplitude damping).
    """
    s = excited
    k0 = np.sqrt(1 - s) * np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.sqrt(1 - s) * np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    k2 = np.sqrt(s) * np.array([[np.sqrt(1 - gamma), 0], [0, 1]], dtype=complex)
    k3 = np.sqrt(s) * np.array([[0, 0], [np.sqrt(gamma), 0]], dtype=complex)
    return KrausSet([k0, k1, k2, k3])


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def kraus_to_superop(k: KrausSet) -> SuperOp:
    """PTM entry (i, j) = (1/2) tr[sigma_i sum_A A sigma_j A^dag]."""
    ptm = np.zeros((4, 4))
    for j, sj in enumerate(PAULIS):
        out = sum(a @ sj @ a.conj().T for a in k.ops)
        for i, si in enumerate(PAULIS):
            ptm[i, j] = 0.5 * np.trace(si @ out).real
    return SuperOp(ptm)


def canonical_form(c: SuperOp) -> CanonicalForm:
    """Factor the Bloch block by a real SVD into proper rotations.

    Improper factors get one axis sign folded into ``lam``, so the returned
    ``pre_rot``/``post_rot`` are always rotations while ``lam`` may carry
    negative entries.
    """
    u, sv, vt = np.linalg.svd(c.linear)
    lam = sv.copy()
    if np.linalg.det(u) < 0:
        u = u.copy()
        u[:, 2] *= -1
        lam[2] *= -1
    if np.linalg.det(vt) < 0:
        vt = vt.copy()
        vt[2, :] *= -1
        lam[2] *= -1
    t_canonical = u.T @ c.shift
    return CanonicalForm(t=t_canonical, lam=lam, pre_rot=vt, post_rot=u)


def is_unital(c: SuperOp) -> bool:
    """True iff the Bloch shift vanishes, i.e. C(I) = I."""
    return bool(np.linalg.norm(c.shift) <= CLASS_TOL)


def pauli_probs(f: CanonicalForm) -> PauliChannelParams:
    """Error probabilities of the Pauli channel matching a unital form."""
    if np.linalg.norm(f.t) > ATOL:
        raise ChannelError("pauli_probs requires a unital channel")
    lx, ly, lz = f.lam
    return PauliChannelParams(
        p_x=(1 + lx - ly - lz) / 4,
        p_y=(1 - lx + ly - lz) / 4,
        p_z=(1 - lx - ly + lz) / 4,
    )


def cp_check(f: CanonicalForm) -> bool:
    """Complete-positivity verdict for a canonical form.

    Unital case: the four mixture weights (1 +- lx +- ly +- lz)/4 with an even
    number of minus signs must all be nonnegative, which is equivalent to the
    |l_i +- l_j| <= |1 +- l_k| inequality family.  Non-unital forms fall back
    to the Choi eigenvalue oracle.
    """
    if np.linalg.norm(f.t) > ATOL:
        return choi_positive(f.to_superop())
    lx, ly, lz = f.lam
    weights = (
        1 + lx + ly + lz,
        1 + lx - ly - lz,
        1 - lx + ly - lz,
        1 - lx - ly + lz,
    )
    return all(w / 4 >= -ATOL for w in weights)


def choi_matrix(c: SuperOp) -> np.ndarray:
    """Normalized Choi state (C x id)(|Phi+><Phi+|), trace 1: the natural
    rep's (out, out', in, in') entries reordered to (out, in), (out', in')."""
    return 0.5 * c.natural().reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def choi_positive(c: SuperOp) -> bool:
    """True iff the Choi matrix has minimum eigenvalue >= -ATOL."""
    eigs = np.linalg.eigvalsh(choi_matrix(c))
    return bool(eigs[0] >= -ATOL)


def fixed_point(f: CanonicalForm) -> BlochVector:
    """Unique fixed point, solving (I - M) w = t in the world frame.

    For an axis-aligned channel this reduces to the per-axis closed form
    t_i / (1 - lam_i).  Unital channels return the center.  An uncontracted
    direction carrying a shift component has no fixed point and raises.
    """
    shift = f.post_rot @ f.t
    if np.linalg.norm(shift) <= ATOL:
        return BlochVector(np.zeros(3))
    a = np.eye(3) - f.post_rot @ np.diag(f.lam) @ f.pre_rot
    u, s, vt = np.linalg.svd(a)
    small = s < CLASS_TOL
    if small.any():
        coeffs = u.T @ shift
        if np.linalg.norm(coeffs[small]) > ATOL:
            raise NonContractiveAxisError(
                "shift component along a non-contractive direction: no fixed point"
            )
        w = vt.T @ np.where(small, 0.0, coeffs / np.where(small, 1.0, s))
    else:
        w = np.linalg.solve(a, shift)
    return BlochVector(w)


def power(c: SuperOp, k: int) -> SuperOp:
    """k-fold composition; power(c, 0) is the identity channel."""
    if k < 0:
        raise ChannelError("power requires k >= 0")
    return SuperOp(np.linalg.matrix_power(c.ptm, k))


def replacement_channel(p: BlochVector) -> SuperOp:
    """Channel that discards its input and outputs the state at p."""
    ptm = np.zeros((4, 4))
    ptm[0, 0] = 1.0
    ptm[1:, 0] = p.w
    return SuperOp(ptm)


# ---------------------------------------------------------------------------
# diamond distance bounds
# ---------------------------------------------------------------------------


def trace_norm(m: np.ndarray) -> float:
    """Schatten 1-norm of a Hermitian matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def diamond_upper(a: SuperOp, b: SuperOp) -> float:
    """Certified upper bound on the diamond distance ||a - b||_<>.

    With J the unnormalised Choi matrix of a - b (output x input, as
    :func:`choi_matrix` lays it out), Y0 = Y1 = |J| is a feasible point of
    Watrous's dual SDP (arXiv:1207.5726), so the distance is at most
    ||Tr_out |J|||_inf.  Exact for Pauli channels against each other and
    for replacement channels; the value is clipped at 2.
    """
    j = 2 * (choi_matrix(a) - choi_matrix(b))
    eigvals, eigvecs = np.linalg.eigh(0.5 * (j + j.conj().T))
    abs_j = (eigvecs * np.abs(eigvals)) @ eigvecs.conj().T
    marginal = np.einsum("iaib->ab", abs_j.reshape(2, 2, 2, 2))
    return min(float(np.linalg.eigvalsh(marginal)[-1]), 2.0)


def channel_distance(a: SuperOp, b: SuperOp, restarts=None) -> ChannelDistance:
    """Certified sandwich on ``||a - b||_<>``: the Choi value (the value at
    the maximally entangled input) and :func:`diamond_upper`, raised to it
    where rounding puts the bound ~1e-16 below.  ``restarts`` is ignored; it
    goes with this function once the benchmark stops passing it."""
    lower = trace_norm(choi_matrix(a) - choi_matrix(b))
    return ChannelDistance(lower=lower, upper=max(diamond_upper(a, b), lower))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def channel_from_dict(doc: dict) -> SuperOp:
    """Parse {"kraus": [...]} (complex entries as [re, im]) or {"ptm": 4x4}."""
    if not isinstance(doc, dict):
        raise ChannelError("channel document must be a JSON object")
    if "kraus" in doc:
        try:
            pairs = np.array(doc["kraus"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ChannelError(f"Kraus entries must be [re, im] pairs: {exc}") from None
        if pairs.ndim != 4 or pairs.shape[-1] != 2:
            raise ChannelError("Kraus entries must be [re, im] pairs")
        # read each (re, im) pair in place as one complex number
        return kraus_to_superop(KrausSet(pairs.view(complex)[..., 0]))
    if "ptm" in doc:
        return SuperOp(np.array(doc["ptm"], dtype=float))
    raise ChannelError("channel document needs a 'kraus' or 'ptm' key")


def load_channel(path) -> SuperOp:
    with open(path) as fh:
        return channel_from_dict(json.load(fh))


def kraus_to_dict(k: KrausSet) -> dict:
    return {
        "kraus": [
            [[[z.real, z.imag] for z in row] for row in op] for op in k.ops
        ]
    }
