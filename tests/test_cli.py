"""Command-line front end: exit codes, report shapes, output files, determinism."""

import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from qfridge import cli, densim, fridge
from qfridge.channels import (
    KrausSet,
    amplitude_damping_kraus,
    dephasing_kraus,
    depolarizing_kraus,
    kraus_to_dict,
    thermal_kraus,
)
from qfridge.cli import main
from qfridge.densim import SimulationError

from oracles import bounds_margins_loop, pauli_channel_kraus


@pytest.fixture
def runner():
    return CliRunner()


def write_channel(path, kraus_set):
    path.write_text(json.dumps(kraus_to_dict(kraus_set)))
    return str(path)


def test_classify_amplitude_damping(runner, tmp_path):
    f = write_channel(tmp_path / "ad.json", amplitude_damping_kraus(0.1))
    result = runner.invoke(main, ["classify", f])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["class"] == "non_unital"
    assert np.allclose(doc["fixed_point"], [0, 0, 1], atol=1e-9)


def test_classify_dephasing_axis(runner, tmp_path):
    f = write_channel(tmp_path / "deph.json", dephasing_kraus(0.1))
    result = runner.invoke(main, ["classify", f])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["class"] == "dephasing"
    assert np.allclose(np.abs(doc["axis"]), [0, 0, 1], atol=1e-9)


def test_classify_with_relaxation_table(runner, tmp_path):
    f = write_channel(tmp_path / "ad.json", amplitude_damping_kraus(0.3))
    result = runner.invoke(main, ["classify", f, "--relax-targets", "0.1,0.01"])
    assert result.exit_code == 0
    table = json.loads(result.output)["relaxation_table"]
    assert len(table) == 2 and table[0]["steps"] < table[1]["steps"]


def test_classify_malformed_json_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["classify", str(bad)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kraus": [[[1, 0], [0, 0]]]}, "[re, im] pairs"),
        ({"kraus": "x"}, "[re, im] pairs"),
        (5, "must be a JSON object"),
    ],
    ids=["real-entries", "string", "number"],
)
def test_classify_malformed_channel_exit_2(runner, tmp_path, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["classify", str(bad)])
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize(
    "doc, code, message",
    [
        # contraction factors straddling CLASS_TOL: a CP channel, unitary to the tolerance
        (kraus_to_dict(pauli_channel_kraus(4e-9, 0, 4e-9)), 2, "unitary channel"),
        ({"ptm": np.diag([1, 1, 1, 0.5]).tolist()}, 3, '"cp": false'),
    ],
    ids=["straddle", "cp_violation"],
)
def test_classify_two_uncontracted_axes_exit_code(runner, tmp_path, doc, code, message):
    f = tmp_path / "channel.json"
    f.write_text(json.dumps(doc))
    result = runner.invoke(main, ["classify", str(f)])
    assert result.exit_code == code, result.output
    assert message in result.output


def test_classify_non_cp_exit_3(runner, tmp_path):
    f = tmp_path / "noncp.json"
    f.write_text(json.dumps({"ptm": np.diag([1, 1, 0.9, 1]).tolist()}))
    result = runner.invoke(main, ["classify", str(f)])
    assert result.exit_code == 3
    assert json.loads(result.output)["cp"] is False


def test_fridge_report(runner):
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--eps2", "0.06"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["R"] == 3
    assert abs(doc["reset_distance"] - 0.056) < 1e-9
    assert abs(doc["reset_population"] - 0.972) < 1e-12


def test_fridge_zero_bias(runner):
    result = runner.invoke(main, ["fridge", "--q", "0", "--eps2", "0.1"])
    doc = json.loads(result.output)
    assert doc["R"] == 1 and doc["reset_distance"] < 1e-12


def test_fridge_center_exit_4(runner):
    result = runner.invoke(main, ["fridge", "--q", "0.5", "--eps2", "0.1"])
    assert result.exit_code == 4
    assert "no cooling possible" in result.output


@pytest.mark.parametrize("eps2", ["0", "-1", "nan"])
def test_fridge_nonpositive_eps2_exit_2(runner, eps2):
    # an input error, as the same value is in an experiment config
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--eps2", eps2])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines() == [f"error: eps2 {float(eps2)} must be positive"]


def test_fridge_missing_args_exit_2(runner):
    result = runner.invoke(main, ["fridge", "--q", "0.1"])
    assert result.exit_code == 2


def test_experiment_unknown_name_exit_2(runner, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    result = runner.invoke(
        main, ["experiment", "teleport", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("name", ["bounds", "depol_decay"])
@pytest.mark.parametrize("config", ['"x"', "[1, 2]"], ids=["string", "array"])
def test_experiment_config_not_an_object_exit_2(runner, tmp_path, name, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(config)
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", name, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "config must be a JSON object" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "name, config, key",
    [
        ("depol_decay", {"p": 0.05, "n": "4", "steps": 2}, "n"),
        ("bounds", {"p": "0.3", "n": 2}, "p"),
        ("depol_decay", {"p": 0.05, "n": True, "steps": 2}, "n"),
        ("epr_storage", {"p": 0.05, "steps": 2, "code": None}, "code"),
    ],
    ids=["string-int", "string-float", "bool-int", "null-string"],
)
def test_experiment_config_wrong_type_exit_2(runner, tmp_path, name, config, key):
    """A wrong-typed config value is an input error, reported in one line
    before the output directory is made."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", name, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines() == [
        f"error: config value {key!r} has the wrong type: {json.dumps(config[key])}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "name, config, message",
    [
        ("stockpile", {"a": 1.0, "b": 0.5, "n": 13, "p": 0.05},
         "a stockpile run simulating 13 qubits needs 7516192768 bytes, above the memory budget of 2147483648 bytes"),
        ("stockpile", {"a": 0.5, "b": 0.5, "n": 0, "p": 0.05}, "stockpile needs at least 1 qubit, got 0"),
        ("stockpile", {"a": 0.5, "b": 0.5, "n": 10**400, "p": 0.05}, "n^a or n^b is too large for a float"),
        ("depol_decay", {"p": 0.05, "n": 13, "steps": 2}, "a decay run on 13 qubits needs 7516192768 bytes, above the memory budget of 2147483648 bytes"),
        ("depol_decay", {"p": 0.05, "n": -1, "steps": 2}, "decay experiment needs at least 1 system qubit, got -1"),
        # a count above 64 qubits is taken as 64: no 2^(10^12) is computed
        ("depol_decay", {"p": 0.05, "n": 10**12, "steps": 2},
         f"a decay run on 1000000000000 qubits needs {7 * 16 * 4**64} bytes, above the memory budget of 2147483648 bytes"),
        ("epr_storage", {"p": 0.05, "steps": -3}, "step count -3 must not be negative"),
        ("stockpile", {"a": 0.5, "b": 0.5, "n": 6, "p": 0.05, "ancillas_per_step": -2},
         "ancillas per step -2 must not be negative"),
        ("epr_storage", {"p": 0.05, "steps": 2, "correction_interval": 5}, "unknown config key 'correction_interval'"),
        ("depol_decay", {"n": 4, "steps": 2}, "config is missing required key 'p'"),
        ("fridge_protocol", {"p": 0.01, "cycles": -1, "storage_T": 20}, "cycle count -1 must be at least 1"),
        ("fridge_protocol", {"p": 0.01, "cycles": 0, "storage_T": 20}, "cycle count 0 must be at least 1"),
        ("fridge_protocol", {"p": 0.01, "cycles": 4, "storage_T": -3}, "storage time -3 must not be negative"),
        ("bounds", {"p": 0.1, "n": 4, "samples": 0}, "sample count 0 must be at least 1"),
        ("bounds", {"p": 0.1, "n": 4, "dim": 0}, "state dimension 0 must be at least 1"),
        ("bounds", {"p": 0.1, "n": 4, "dim": 1000000, "samples": 1},
         "a bounds sample of dimension 1000000 needs 112000000000000 bytes, above the memory budget of 2147483648 bytes"),
        ("fridge_protocol", {"p": 0.01, "cycles": 3, "storage_T": 20, "eps1": -1}, "eps1 -1 must be positive"),
        ("fridge_protocol", {"p": 0.01, "cycles": 3, "eps2": 0, "r_block": None}, "eps2 0 must be positive"),
        ("fridge_protocol", {"p": 0.01, "cycles": 3, "eps2": -1, "r_block": 2, "storage_T": 20}, "eps2 -1 must be positive"),
        ("stockpile", {"a": 0.1, "b": 1.0, "n": 1000000000, "p": 0.05, "ancillas_per_step": 0},
         "step count 1000000000 is above the cap of 131072"),
        ("depol_decay", {"p": 0.05, "n": 2, "steps": 131073}, "step count 131073 is above the cap of 131072"),
        ("epr_storage", {"p": 0.05, "steps": 10**12}, "step count 1000000000000 is above the cap of 131072"),
        ("epr_storage", {"p": -0.1, "steps": 2}, "dephasing probability p = -0.1 must lie in [0, 1]"),
        ("epr_storage", {"p": 1.5, "steps": 2}, "dephasing probability p = 1.5 must lie in [0, 1]"),
        ("stockpile", {"a": 0.5, "b": 0.5, "n": 6, "p": -0.1}, "dephasing probability p = -0.1 must lie in [0, 1]"),
        ("stockpile", {"a": 0.5, "b": 0.5, "n": 6, "p": 1.5}, "dephasing probability p = 1.5 must lie in [0, 1]"),
        ("depol_decay", {"p": -0.1, "n": 2, "steps": 3}, "depolarizing probability p = -0.1 must lie in [0, 1]"),
        ("depol_decay", {"p": 1.5, "n": 2, "steps": 3}, "depolarizing probability p = 1.5 must lie in [0, 1]"),
    ],
    ids=["stockpile-n13", "stockpile-n0", "stockpile-n-overflow", "decay-n13", "decay-n-1", "decay-n-absurd", "epr-negative-steps", "stockpile-negative-ancillas",
         "unknown-key", "missing-key", "protocol-negative-cycles", "protocol-zero-cycles",
         "protocol-negative-storage-T", "bounds-zero-samples", "bounds-zero-dim", "bounds-huge-dim",
         "protocol-negative-eps1", "protocol-zero-eps2", "protocol-negative-eps2",
         "stockpile-step-cap", "decay-step-cap", "epr-step-cap",
         "epr-negative-p", "epr-p-above-1", "stockpile-negative-p", "stockpile-p-above-1",
         "decay-negative-p", "decay-p-above-1"],
)
def test_experiment_bad_input_exit_2(runner, tmp_path, name, config, message):
    """An out-of-range, unknown or missing config value is an input error,
    reported in one line, and leaves no output directory."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", name, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_experiment_epr_zero_noise(runner, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p": 0.0, "steps": 4}))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["experiment", "epr_storage", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 0
    rows = (out / "summary.csv").read_text().strip().split("\n")
    assert float(rows[-1].split(",")[3]) > 1 - 1e-9  # final epr fidelity
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "experiment epr_storage"
    assert manifest["seed"] == 0


@pytest.mark.parametrize("p", [0.2, 0.25, 0.3, 0.4])
def test_experiment_epr_coded_strong_noise_exit_0(runner, tmp_path, p):
    """The coded memory under strong dephasing nears its dephased state with
    a decoded fidelity above 1/2 + distance (0.5967 at distance 0.080 for
    p = 0.2, step 4), which the 4-qubit ceiling of 1/2 + 2 * distance
    allows: the run exits 0."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"code": "phase_flip_3", "p": p, "steps": 50}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "epr_storage", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len((out / "trace.jsonl").read_text().strip().split("\n")) == 51


@pytest.mark.parametrize("p", [0.0, 1e-9, 1e-8, 1.0])
@pytest.mark.parametrize("name, config", [
    ("epr_storage", {"code": "phase_flip_3", "steps": 6}),
    ("stockpile", {"a": 0.5, "b": 0.5, "n": 6}),
], ids=["epr_storage", "stockpile"])
def test_experiment_dephasing_p_in_range_exit_0(runner, tmp_path, name, config, p):
    """Every p in [0, 1] gives a dephasing channel the run accepts, however
    weak: p = 0 and p = 1 are the identity and Z."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**config, "p": p}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", name, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "trace.jsonl").exists()


@pytest.mark.parametrize("p", [0.0, 1e-9, 1.0])
def test_experiment_depol_decay_p_in_range_exit_0(runner, tmp_path, p):
    """Every p in [0, 1] gives a depolarizing channel the run accepts,
    however weak: p = 0 is the identity."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "p": p, "steps": 3}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "depol_decay", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len((out / "trace.jsonl").read_text().strip().split("\n")) == 4


def test_experiment_stockpile_long_run_exit_0(runner, tmp_path):
    """15,849 steps on 4 working qubits at p = 0.05, where the natural rep's
    rounded [0, 0] entry (0.9999999999999999) would move a noised |0> by
    ~1e-16 a step: every waiting qubit is still |0>, and the run exits 0."""
    config = {"a": 0.1, "b": 0.7, "n": 1000000, "p": 0.05, "ancillas_per_step": 0}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "stockpile", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "trace.jsonl").read_text().strip().split("\n")
    assert len(lines) == 15849
    assert json.loads(lines[-1])["stockpile_left"] == 1000000 - 4


def test_experiment_bounds_paper_counterexample(runner, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p": 0.5, "n": 2, "samples": 20}))
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["experiment", "bounds", "--config", str(cfg), "--out", str(out), "--mode", "paper"],
    )
    assert result.exit_code == 0
    summary = (out / "summary.csv").read_text()
    row = [r for r in summary.strip().split("\n") if r.startswith("concavity_counterexample")]
    assert len(row) == 1
    assert float(row[0].split(",")[2]) < 0


@pytest.mark.parametrize(
    "dim, samples, budget, mode",
    [(3, 17, 5 * 32 * 9, "safe"), (3, 17, 5 * 32 * 9, "paper"), (46, 3, None, "safe")],
    ids=["dim3-safe", "dim3-paper", "dim46-default-budget"],
)
def test_experiment_bounds_blocks_match_the_pair_loop(runner, tmp_path, monkeypatch, dim, samples, budget, mode):
    """Samples spanning at least three blocks, the last one partial when the
    block holds more than one, give the pair-at-a-time loop's margins at
    the same seed within 1e-12, and the same bytes as one run with every
    sample in one block."""
    if budget is not None:
        monkeypatch.setattr(cli, "BOUNDS_BLOCK_BYTES", budget)
    assert samples > 2 * (cli.BOUNDS_BLOCK_BYTES // (32 * dim * dim))  # a pair is 32 dim^2 bytes
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p": 0.1, "n": 4, "dim": dim, "samples": samples}))
    args = ["experiment", "bounds", "--config", str(cfg), "--seed", "11", "--mode", mode]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "blocks")])
    assert result.exit_code == 0, result.output
    docs = [json.loads(line) for line in (tmp_path / "blocks" / "trace.jsonl").read_text().splitlines()]
    want = bounds_margins_loop(dim, samples, 11, mode)
    assert [doc["step"] for doc in docs] == list(range(samples))
    for doc, (pinsker, concavity) in zip(docs, want):
        assert abs(float(doc["pinsker_margin"]) - pinsker) <= 1e-12
        assert abs(float(doc["concavity_margin"]) - concavity) <= 1e-12
    monkeypatch.setattr(cli, "BOUNDS_BLOCK_BYTES", samples * 32 * dim * dim)
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "one")])
    assert result.exit_code == 0, result.output
    for name in ("trace.jsonl", "summary.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "blocks" / name).read_bytes()


def test_experiment_determinism(runner, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p": 0.1, "n": 2, "steps": 3, "policy": "random_circuit"}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(
            main,
            ["experiment", "depol_decay", "--config", str(cfg), "--seed", "9", "--out", str(out)],
        )
        assert result.exit_code == 0
        outs.append((out / "trace.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_experiment_fridge_protocol(runner, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p": 0.02, "cycles": 4, "storage_T": 20}))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["experiment", "fridge_protocol", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 0
    lines = (out / "trace.jsonl").read_text().strip().split("\n")
    assert len(lines) == 4
    assert "stale_logical_fidelity" in json.loads(lines[-1])


def test_experiment_fridge_protocol_coherent_r13_exit_0(runner, tmp_path):
    # damping in the Hadamard frame: from cycle 17 on both blocks are cooled
    # from recycled draws that carry coherences, and a block's marginals
    # hold O(R 2^R) bytes, so R = 13, past the dense 2^R x 2^R cap, runs
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    channel = KrausSet([h @ k @ h for k in amplitude_damping_kraus(0.7).ops])
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"channel": kraus_to_dict(channel), "cycles": 20, "r_block": 13, "storage_T": 16}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "fridge_protocol", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len((out / "trace.jsonl").read_text().strip().split("\n")) == 20


def test_experiment_fridge_protocol_uncertified_storage_T_exit_5(runner, tmp_path):
    # storage_T 44 is below D' = 60, so draws would be recycled, and AD(0.3)
    # needs 45 layers to meet the dwell target: the run stops before a cycle
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p": 0.3, "cycles": 60, "r_block": 1, "storage_T": 44}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "fridge_protocol", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 5
    assert "assertion failure: storage time 44 leaves stored qubits" in result.output
    assert (out / "trace.jsonl").read_text().strip() == ""


def test_fridge_register_cap_exit_2(runner):
    # 128 bytes per basis label: R = 24 fits the budget and R = 25 does not
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", "25"])
    assert result.exit_code == 2
    assert result.output.strip() == "error: a cooling block of 25 qubits needs 4294967296 bytes, above the memory budget of 2147483648 bytes"


def test_fridge_ideal_r16_runs_on_populations(runner):
    # an ideal run holds O(2^R) bytes, so R = 16 fits the memory budget
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", "16"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert abs(doc["reset_distance"] - 2 * (1 - doc["reset_population"])) <= 1e-12
    assert doc["R"] == 16 and doc["F"] % 16 == 0


def test_fridge_noisy_r16_exit_2(runner, tmp_path):
    # a noisy run is held to the dense 4^R formula, checked before the
    # compile, whose arrays alone would take ~6 MB at R = 16
    noise = write_channel(tmp_path / "ad.json", amplitude_damping_kraus(1e-3))
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", "16", "--noise", noise])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert result.exit_code == 2
    assert result.output.strip() == (
        "error: a dense cooling block of 16 qubits needs 481036337152 bytes, "
        "above the memory budget of 2147483648 bytes"
    )


@pytest.mark.parametrize("r", ["0", "-1"])
def test_fridge_empty_block_exit_2(runner, r):
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", r])
    assert result.exit_code == 2
    assert f"block size {r} must be at least 1" in result.output


def test_fridge_noisy_r9_runs_without_the_dense_kernel(runner, tmp_path, monkeypatch):
    # thermal input and amplitude damping: the run is a Markov chain on the
    # 2^R populations, so no density-matrix noise pass may happen
    def dense_pass(*args):
        raise AssertionError("dense noise pass on a diagonal run")

    monkeypatch.setattr(densim, "apply_channel", dense_pass)
    noise = write_channel(tmp_path / "ad.json", amplitude_damping_kraus(1e-3))
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", "9", "--noise", noise])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["R"] == 9 and doc["F"] % 9 == 0
    assert 0 <= doc["noisy_reset_distance"] <= 2
    assert 0 <= doc["noisy_waste_entropy"] <= 8


def _raise_simulation_error(*args, **kwargs):
    raise SimulationError("invariant broken")


@pytest.mark.parametrize(
    "target, args",
    [
        ("classification_report", ["classify", "CHANNEL"]),
        ("relaxation_time", ["classify", "CHANNEL", "--relax-targets", "0.1"]),
        ("run_fridge_ideal", ["fridge", "--q", "0.1", "--r", "3"]),
    ],
)
def test_simulation_error_exit_5(runner, tmp_path, monkeypatch, target, args):
    monkeypatch.setattr(cli, target, _raise_simulation_error)
    channel = write_channel(tmp_path / "ad.json", amplitude_damping_kraus(0.1))
    result = runner.invoke(main, [channel if a == "CHANNEL" else a for a in args])
    assert result.exit_code == 5
    assert "assertion failure: invariant broken" in result.output


def test_experiment_simulation_error_writes_partial_outputs(runner, tmp_path, monkeypatch):
    # a failed run, not bad input: outputs are written before the exit
    monkeypatch.setattr(cli, "run_refrigerator_protocol", _raise_simulation_error)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p": 0.02, "cycles": 4, "storage_T": 20}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "fridge_protocol", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 5
    assert "invariant broken" in result.output
    assert (out / "trace.jsonl").read_text().strip() == ""
    assert "invariant broken" in (out / "summary.csv").read_text()
    assert json.loads((out / "manifest.json").read_text())["command"] == "experiment fridge_protocol"


def test_fridge_noisy_r12_allocates_no_dense_state(runner, tmp_path, monkeypatch):
    # the ideal run and the F*d check also run on the 2^R populations: no
    # register is reduced, and the peak allocation stays far below the
    # 268 MB of one dense 2^12 x 2^12 complex state
    def dense(*args):
        raise AssertionError("dense 2^R x 2^R work on a diagonal run")

    for name in ("evolve", "partial_trace"):
        monkeypatch.setattr(fridge, name, dense)
    noise = write_channel(tmp_path / "ad.json", amplitude_damping_kraus(1e-3))
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", "12", "--noise", noise])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert peak < 64 * 2**20
    doc = json.loads(result.output)
    assert doc["R"] == 12 and doc["F"] % 12 == 0
    assert 0 <= doc["noisy_reset_distance"] <= 2
    assert 0 <= doc["noisy_waste_entropy"] <= 11


def test_cooling_error_exits_4_from_every_command(runner, tmp_path, monkeypatch):
    result = runner.invoke(main, ["fridge", "--q", "0.5", "--eps2", "0.1"])
    assert result.exit_code == 4
    assert "unreachable" in result.output
    # the fixed point's bias 0.3 needs R = 39 for eps2 = 0.01; a search capped at 2 gives up
    monkeypatch.setattr(fridge, "MAX_R_SEARCH", 2)
    cfg = tmp_path / "c.json"
    channel = kraus_to_dict(thermal_kraus(0.1, 0.3))
    cfg.write_text(json.dumps({"p": 0.01, "channel": channel, "r_block": None, "eps2": 0.01}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "fridge_protocol", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 4
    assert "no block size up to 2 meets eps2=0.01" in result.output
    # an infeasible run still writes its outputs before the exit
    assert "no block size up to 2 meets eps2=0.01" in (out / "summary.csv").read_text()
    assert json.loads((out / "manifest.json").read_text())["command"] == "experiment fridge_protocol"


def test_infeasible_block_search_exits_4_in_few_evaluations(runner, monkeypatch):
    # the search gallops 1, 2, 4, ..., 4096, so 13 bottom_mass evaluations
    # reach the answer that a scan of every block size took 4,096 for
    calls = []
    bottom_mass = fridge.bottom_mass

    def counted(q, r):
        calls.append(r)
        return bottom_mass(q, r)

    monkeypatch.setattr(fridge, "bottom_mass", counted)
    result = runner.invoke(main, ["fridge", "--q", "0.49", "--eps2", "1e-3"])
    assert result.exit_code == 4
    assert "no block size up to 4096 meets eps2=0.001" in result.output
    assert 0 < len(calls) <= 13


def test_broken_location_bound_exits_5(runner, tmp_path, monkeypatch):
    # a failed F*d check is a broken invariant, not an infeasible request
    monkeypatch.setattr(fridge, "diamond_upper", lambda a, b: 0.0)
    noise = write_channel(tmp_path / "dep.json", depolarizing_kraus(0.05))
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", "3", "--noise", noise])
    assert result.exit_code == 5
    assert "ideal + F*d bound" in result.output
