"""Tests of the benchmark's correctness gate and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qfridge  # noqa: E402
import workloads  # noqa: E402
from tracer import DETERMINISTIC_SUFFIXES, Tracer  # noqa: E402
from worker import WORK_DIR, run_pass  # noqa: E402

fridge_module = sys.modules["qfridge.fridge"]


@pytest.fixture
def workdir():
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _exact_protocol_op(workdir):
    ops = workloads.build("small_register", workloads.DEFAULT_SEED, workdir)
    return next(op for op in ops if op.name == "protocol_exact_r2")


def test_reference_matches_at_default_seed(workdir):
    op = _exact_protocol_op(workdir)
    reference = workloads.load_reference("small_register")
    [result] = run_pass([op], reference=reference)
    assert result["problems"] == []


def test_perturbed_reference_fails_the_op(workdir):
    op = _exact_protocol_op(workdir)
    reference = copy.deepcopy(workloads.load_reference("small_register"))
    reference[op.name]["refrigerated_fidelity"][5] += 1e-9
    [result] = run_pass([op], reference=reference)
    assert len(result["problems"]) == 1
    assert result["problems"][0].startswith("refrigerated_fidelity[5]:")


def test_reference_tolerance_allows_reordering_only(workdir):
    op = _exact_protocol_op(workdir)
    outputs = op.run()
    reference = {k: copy.deepcopy(v) for k, v in outputs.items()}
    reference["margin"] += 5e-13
    assert workloads.compare_reference(op, outputs, reference) == []
    reference["margin"] += 1e-12
    assert workloads.compare_reference(op, outputs, reference) != []


def test_estimator_outputs_are_checked_by_property(workdir):
    inputs = workloads.Inputs(workloads.DEFAULT_SEED, workdir)
    path = inputs.channel_file("thermal", qfridge.thermal_kraus(0.05, 0.1))
    op = workloads.classify_op("classify_relax", path, (1e-2,))
    outputs = op.run()
    assert op.properties(outputs) == []
    outputs["relax_achieved"] = [outputs["relax_targets"][0] * 1.01]
    assert op.properties(outputs) != []


def test_tracer_counts_a_hand_countable_run():
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open("op.test")
        # called through the package, which holds the function by name
        qfridge.run_fridge_ideal(fridge_module.build_cooling_circuit(0.1, 3))
        tracer.close(root)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["densim.apply_unitary.calls"] == 4  # 3 pre-rotations + 1 stage
    assert metrics["densim.apply_unitary.flops"] == 3 * 2 * 8 * 4**3 * 2 + 2 * 8 * 4**3 * 8
    assert metrics["fridge.stages"] == 1 and metrics["fridge.f_count"] == 3
    assert metrics["fridge.run_fridge_ideal.calls"] == 1
    assert metrics["fridge.run_fridge_ideal.eigvalsh_calls"] == 2  # reset distance, waste entropy
    assert metrics["densim.partial_trace.calls"] == 2
    # uninstall puts the originals back everywhere
    assert fridge_module.run_fridge_ideal is qfridge.run_fridge_ideal
    assert not hasattr(fridge_module.apply_unitary, "__wrapped__")


def test_tracer_records_nothing_outside_an_operation():
    tracer = Tracer()
    tracer.install()
    try:
        qfridge.run_fridge_ideal(fridge_module.build_cooling_circuit(0.1, 3))
    finally:
        tracer.uninstall()
    assert tracer.spans == [] and not tracer.counts


def _traced_counts(workdir):
    workdir.mkdir()
    inputs = workloads.Inputs(workloads.DEFAULT_SEED, workdir)
    ops = workloads.small_register(inputs)
    thermal = inputs.channel_file("thermal", qfridge.thermal_kraus(0.05, 0.1))
    noise = inputs.channel_file("noise", qfridge.amplitude_damping_kraus(1e-3))
    ops += [workloads.classify_op("classify_relax", thermal, (1e-2,)),
            workloads.fridge_op("fridge_r4", 0.1, 4, noise)]
    tracer = Tracer()
    tracer.install()
    try:
        results = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert all(r["problems"] == [] for r in results)
    metrics = tracer.metrics()
    return {k: v for k, v in metrics.items() if k.endswith(DETERMINISTIC_SUFFIXES)}


def test_counts_repeat_for_the_same_seed(workdir):
    first = _traced_counts(workdir / "a")
    second = _traced_counts(workdir / "b")
    assert first == second
    for key in ("densim.QRegister.eigvalsh_calls", "channels.channel_distance.eigh_calls",
                "densim.apply_unitary.flops", "fridge.stages", "fridge.stage_bytes",
                "classify.relaxation_time.distance_evals", "classify.relaxation_time.steps"):
        assert first[key] > 0, key
