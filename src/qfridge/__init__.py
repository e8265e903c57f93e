"""Qubit-channel taxonomy, entropy bounds, algorithmic cooling, and the
refrigerated-memory protocol built on them."""

__version__ = "0.1.0"

from .channels import (
    BlochVector,
    CanonicalForm,
    ChannelDistance,
    ChannelError,
    KrausSet,
    SuperOp,
    amplitude_damping_kraus,
    canonical_form,
    channel_distance,
    cp_check,
    dephasing_kraus,
    depolarizing_kraus,
    diamond_upper,
    fixed_point,
    kraus_to_superop,
    pauli_probs,
    power,
    thermal_kraus,
)
from .classify import (
    DEPHASING_CLASS,
    DEPOLARIZING_CLASS,
    NON_UNITAL_CLASS,
    ChannelClass,
    classify,
    entropy_behavior,
    relaxation_time,
)
from .densim import QRegister, SimulationError, step, von_neumann_entropy
from .fridge import FridgeSpec, build_cooling_circuit, choose_R, run_fridge_ideal, run_fridge_noisy, top_mass
from .bounds import concavity_margin, dephasing_bound, entropy_ledger_step, pinsker_margin
from .experiments import run_depolarizing_decay, run_epr_storage, run_stockpile
from .protocol import ProtocolConfig, ProtocolResult, run_refrigerator_protocol

__all__ = [name for name in dir() if not name.startswith("_")]
