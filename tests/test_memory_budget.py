"""One memory budget decides every size cap: an entry point one size over
its cap exits 2 (or raises ValueError) before it allocates, and each byte
formula is at least the tracemalloc peak of the path it guards."""

import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from qfridge import densim
from qfridge.channels import KrausSet, amplitude_damping_kraus, depolarizing_kraus, kraus_to_dict, kraus_to_superop
from qfridge.cli import main
from qfridge.densim import DATA, GateLayer, QRegister, dense_bytes, population_bytes, step
from qfridge.experiments import run_depolarizing_decay, run_stockpile
from qfridge.fridge import build_cooling_circuit, run_fridge_ideal, run_fridge_noisy
from qfridge.protocol import ProtocolConfig, run_refrigerator_protocol

_OVER_BUDGET = "bytes, above the memory budget of 2147483648 bytes"
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _peak(run):
    """(result of run(), tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cli(tmp_path, args):
    """Run the CLI on args, with a dict written as an experiment config and
    "NOISE" standing for an amplitude-damping channel file."""
    noise = tmp_path / "ad.json"
    noise.write_text(json.dumps(kraus_to_dict(amplitude_damping_kraus(1e-3))))
    words = []
    for arg in args:
        if isinstance(arg, dict):
            (tmp_path / "c.json").write_text(json.dumps(arg))
            words += ["--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")]
        else:
            words.append(str(noise) if arg == "NOISE" else arg)
    return CliRunner().invoke(main, words)


def _register_over_cap():
    # a full-size 13-qubit matrix as a view that holds no memory
    huge = np.broadcast_to(np.complex128(0), (2**13, 2**13))
    return lambda: QRegister(huge, [DATA] * 13)


def _noisy_fridge_over_cap():
    spec = build_cooling_circuit(0.1, 13)
    noise = kraus_to_superop(amplitude_damping_kraus(1e-3))
    return lambda: run_fridge_noisy(spec, noise)


@pytest.mark.parametrize("args, what", [
    (["experiment", "stockpile", {"a": 1.0, "b": 0.0, "n": 13, "p": 0.05, "ancillas_per_step": 0}],
     "a stockpile run simulating 13 qubits"),
    (["experiment", "depol_decay", {"n": 12, "p": 0.05, "steps": 2, "with_reference": True}],
     "a decay run on 13 qubits"),
    (["experiment", "fridge_protocol", {"p": 0.05, "cycles": 1, "r_block": 20, "storage_T": 0}],
     "a protocol cooling block of 20 qubits"),
    (["experiment", "fridge_protocol", {"p": 0.05, "cycles": 2**21 + 1, "r_block": 1, "storage_T": 0}],
     "a run of 2097153 cycles"),
    # the records (1.84 GB) and the blocks (1.28 GB) fit; storage holds
    # 900,000 cycles' 38 returns at 64 bytes each (2.19 GB)
    (["experiment", "fridge_protocol", {"p": 0.05, "cycles": 1_800_000, "r_block": 19, "storage_T": 900_000}],
     "a storage house of 34200000 qubits"),
    (["fridge", "--q", "0.1", "--r", "13", "--noise", "NOISE"], "a dense cooling block of 13 qubits"),
    (["fridge", "--q", "0.1", "--r", "25"], "a cooling block of 25 qubits"),
    (["experiment", "bounds", {"p": 0.1, "n": 4, "dim": 4379, "samples": 1}], "a bounds sample of dimension 4379"),
    (_register_over_cap, "a register of 13 qubits"),
    (_noisy_fridge_over_cap, "a dense cooling block of 13 qubits"),
], ids=["stockpile", "depol_decay", "protocol", "protocol_cycles", "protocol_storage", "noisy_fridge", "ideal_fridge", "bounds_dim",
        "register", "noisy_fridge_api"])
def test_one_size_over_its_cap_exits_2_before_allocating(tmp_path, args, what):
    if callable(args):
        run = args()  # its inputs are built outside the measured window

        def call():
            with pytest.raises(ValueError) as info:
                run()
            return str(info.value)

        message, peak = _peak(call)
    else:
        result, peak = _peak(lambda: _cli(tmp_path, args))
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")
        message = result.output.strip()[len("error: "):]
        assert not (tmp_path / "out").exists()
    assert message.startswith(f"{what} needs ") and message.endswith(_OVER_BUDGET)
    assert peak < 16 * 2**20


def test_twelve_qubits_fit_and_thirteen_do_not():
    assert dense_bytes(2**12) <= densim.MEMORY_BUDGET < dense_bytes(2**13)
    assert dense_bytes(4378) <= densim.MEMORY_BUDGET < dense_bytes(4379)
    assert population_bytes(24) <= densim.MEMORY_BUDGET < population_bytes(25)


# each setup builds its inputs outside the measured window and returns the
# run whose peak its formula bounds, at a size that runs in under a second


def _register_build(tmp_path):
    rho = np.eye(2**10, dtype=complex) / 2**10
    return lambda: QRegister(rho, [DATA] * 10)


def _step(tmp_path):
    reg = QRegister(np.eye(2**10, dtype=complex) / 2**10, [DATA] * 10)
    noise = kraus_to_superop(depolarizing_kraus(0.1))
    return lambda: step(reg, GateLayer([]), noise)


def _stockpile(tmp_path):
    return lambda: run_stockpile(1.0, 0.0, 10, 0.05, ancillas_per_step=0)


def _depol_decay(tmp_path):
    return lambda: run_depolarizing_decay(9, 0.1, 1, with_reference=True)


def _protocol(tmp_path):
    # damping in the Hadamard frame: from cycle 17 on every block is cooled
    # from recycled draws that carry coherences
    channel = kraus_to_superop(KrausSet([_H @ k @ _H for k in amplitude_damping_kraus(0.7).ops]))
    cfg = ProtocolConfig(d_prime=20, r_block=13, storage_T=16)
    return lambda: run_refrigerator_protocol(cfg, channel)


def _noisy_fridge_dense(tmp_path):
    # damping in the Hadamard frame leaks populations into coherences, so
    # the run takes its dense path
    noise = kraus_to_superop(KrausSet([_H @ k @ _H for k in amplitude_damping_kraus(0.01).ops]))
    spec = build_cooling_circuit(0.1, 7)
    return lambda: run_fridge_noisy(spec, noise)


def _ideal_fridge(tmp_path):
    return lambda: run_fridge_ideal(build_cooling_circuit(0.1, 16))


def _bounds(tmp_path):
    # two samples, so the second block's draw runs after the first block's
    def run():
        result = _cli(tmp_path, ["experiment", "bounds", {"p": 0.1, "n": 4, "dim": 384, "samples": 2}])
        assert result.exit_code == 0, result.output

    return run


_SETUPS = [
    (_register_build, dense_bytes(2**10)),
    (_step, dense_bytes(2**10)),
    (_stockpile, dense_bytes(2**10)),
    (_depol_decay, dense_bytes(2**10)),
    (_protocol, 13 * population_bytes(13)),
    (_noisy_fridge_dense, dense_bytes(2**7)),
    (_ideal_fridge, population_bytes(16)),
    (_bounds, dense_bytes(384)),
]


@pytest.mark.parametrize("setup, stated", _SETUPS, ids=[setup.__name__[1:] for setup, _ in _SETUPS])
def test_byte_formula_bounds_the_measured_peak(tmp_path, setup, stated):
    _, peak = _peak(setup(tmp_path))
    assert peak <= stated
