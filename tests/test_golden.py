"""Golden outputs: same-seed experiment runs must keep their trace and summary.

Each case runs ``qfridge experiment`` at a small fixed config and seed and
compares the parsed ``trace.jsonl`` and ``summary.csv`` against the files
stored under ``tests/golden/<case>/``.  Values are expected to be exactly
equal; the comparison allows 1e-12 absolute for float reordering.

Regenerate the fixtures only when an output is meant to change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qfridge.cli import main

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12

# case name -> (experiment, config, seed, extra CLI arguments)
CASES = {
    "depol_decay": (
        "depol_decay",
        {"n": 5, "p": 0.05, "steps": 6, "policy": "random_circuit", "with_reference": True},
        3,
        [],
    ),
    "stockpile": ("stockpile", {"a": 0.5, "b": 0.5, "n": 6, "p": 0.05, "ancillas_per_step": 1}, 5, []),
    "epr_storage": ("epr_storage", {"code": "phase_flip_3", "p": 0.02, "steps": 30}, 0, []),
    "bounds_safe": ("bounds", {"p": 0.1, "n": 4, "dim": 4, "samples": 60}, 7, ["--mode", "safe"]),
    "bounds_paper": ("bounds", {"p": 0.1, "n": 4, "dim": 2, "samples": 30}, 8, ["--mode", "paper"]),
    "fridge_protocol": (
        "fridge_protocol",
        {"cycles": 4, "r_block": 2, "storage_T": 300, "p": 0.01},
        2,
        [],
    ),
    # criterion 10's channel and storage time: the stale run's fidelity decays
    # to 0 by cycle 50 if the per-cycle trace renormalisation is dropped
    "fridge_protocol_factorized": (
        "fridge_protocol",
        {"cycles": 50, "r_block": 1, "storage_T": 1558, "p": 0.01},
        0,
        [],
    ),
}


def run_case(case: str, out: Path) -> None:
    experiment, config, seed, extra = CASES[case]
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))
    result = CliRunner().invoke(
        main,
        ["experiment", experiment, "--config", str(config_path), "--seed", str(seed),
         "--out", str(out), *extra],
    )
    assert result.exit_code == 0, result.output


def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_trace(path: Path) -> list:
    docs = [json.loads(line) for line in path.read_text().splitlines() if line]
    return [{k: _value(v) if isinstance(v, str) else v for k, v in doc.items()} for doc in docs]


def parse_summary(path: Path) -> list:
    return [[_value(cell) for cell in line.split(",")] for line in path.read_text().splitlines()]


def assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=0, abs_tol=TOL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    run_case(case, tmp_path)
    assert_close(parse_trace(tmp_path / "trace.jsonl"), parse_trace(GOLDEN / case / "trace.jsonl"), "trace")
    assert_close(parse_summary(tmp_path / "summary.csv"), parse_summary(GOLDEN / case / "summary.csv"), "summary")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(CASES):
        target = GOLDEN / name
        run_case(name, target)
        for extra in ("config.json", "manifest.json"):
            (target / extra).unlink()
        print(f"wrote {target}")
