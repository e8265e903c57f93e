"""Command-line front end: exit codes, report shapes, output files, determinism."""

import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from qfridge import cli, fridge
from qfridge.channels import (
    amplitude_damping_kraus,
    dephasing_kraus,
    depolarizing_kraus,
    kraus_to_dict,
)
from qfridge.cli import main
from qfridge.densim import SimulationError


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


def test_fridge_register_cap_exit_2(runner):
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", "13"])
    assert result.exit_code == 2
    assert "register cap" in result.output
    assert "no cooling possible" not in result.output


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

    monkeypatch.setattr(fridge, "apply_single_qubit_superop", dense_pass)
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

    for name in ("apply_single_qubit_superop", "partial_trace"):
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


def test_cooling_error_exits_4_from_every_command(runner, tmp_path):
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--eps2", "0"])
    assert result.exit_code == 4
    assert "eps2 must be positive" in result.output
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p": 0.01, "r_block": None, "eps2": 0}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "fridge_protocol", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 4
    assert "eps2 must be positive" in result.output
    # an infeasible run still writes its outputs before the exit
    assert "eps2 must be positive" in (out / "summary.csv").read_text()
    assert json.loads((out / "manifest.json").read_text())["command"] == "experiment fridge_protocol"


def test_broken_location_bound_exits_5(runner, tmp_path, monkeypatch):
    # a failed F*d check is a broken invariant, not an infeasible request
    monkeypatch.setattr(fridge, "diamond_upper", lambda a, b: 0.0)
    noise = write_channel(tmp_path / "dep.json", depolarizing_kraus(0.05))
    result = runner.invoke(main, ["fridge", "--q", "0.1", "--r", "3", "--noise", noise])
    assert result.exit_code == 5
    assert "ideal + F*d bound" in result.output
