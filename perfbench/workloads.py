"""Workloads of the qfridge benchmark.

A workload is a fixed list of operations.  Each operation is one public
qfridge call or one in-process command-line invocation; the loop is closed
with one client, so an operation starts after the previous one returns.

Inputs are made from the seed.  The default seed gives the canonical inputs
whose outputs are stored under ``reference/``.  Other seeds write each
channel in a randomly mixed but equivalent Kraus form, draw the logical
state near |1>, and jitter noise strengths; none of this changes the
amount of work, so timings stay comparable across seeds.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from click.testing import CliRunner

channels = importlib.import_module("qfridge.channels")
cli = importlib.import_module("qfridge.cli")
protocol = importlib.import_module("qfridge.protocol")

DEFAULT_SEED = 0
REFERENCE_ATOL = 1e-12  # float reordering allowance for reference outputs
PROPERTY_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# storage_T as found by the relaxation search at the parent commit for
# thermal(0.05, 0.1) at these (D', R); pinned so those runs skip the search.
PINNED_STORAGE_T = {(20, 7): 346, (30, 2): 313}


@dataclass
class Op:
    """One benchmark operation and the checks on what it returns."""

    name: str
    run: Callable[[], dict]  # returns the outputs to check
    properties: Callable[[dict], list]  # returns the violated properties
    estimator_keys: tuple = ()  # outputs checked by property only, never by value


class Inputs:
    """Seeded input generator for one workload."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.canonical = seed == DEFAULT_SEED
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def jitter(self, value: float, rel: float) -> float:
        if self.canonical:
            return value
        return value * (1 + rel * self.rng.uniform(-1, 1))

    def kraus(self, kraus_set):
        """The same channel in another Kraus form: K'_i = sum_j V_ij K_j."""
        ops = list(kraus_set.ops)
        if self.canonical:
            return kraus_set
        m = len(ops)
        g = self.rng.normal(size=(m, m)) + 1j * self.rng.normal(size=(m, m))
        q, r = np.linalg.qr(g)
        v = q * (np.diag(r) / np.abs(np.diag(r)))
        return channels.KrausSet([sum(v[i, j] * ops[j] for j in range(m)) for i in range(m)])

    def superop(self, kraus_set):
        return channels.kraus_to_superop(self.kraus(kraus_set))

    def channel_file(self, name: str, kraus_set) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(channels.kraus_to_dict(self.kraus(kraus_set))))
        return str(path)

    def config_file(self, name: str, config: dict) -> str:
        path = self.workdir / f"{name}.config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def logical_ket(self):
        """|1> by default; otherwise a state within 0.25 rad of it."""
        if self.canonical:
            return None
        theta = self.rng.uniform(0, 0.25)
        phase = np.exp(1j * self.rng.uniform(0, 2 * np.pi))
        return np.array([math.sin(theta) * phase, math.cos(theta)])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _bad_range(label, values, lo, hi):
    return [
        f"{label}[{i}] = {v} outside [{lo}, {hi}]"
        for i, v in enumerate(values)
        if v is not None and not lo - PROPERTY_TOL <= v <= hi + PROPERTY_TOL
    ]


def protocol_op(name, inputs, channel, cfg, searched=False):
    """``run_refrigerator_protocol``; with ``searched`` storage_T comes from
    the relaxation search and is checked by its defining property."""
    ket = inputs.logical_ket()

    def run():
        result = protocol.run_refrigerator_protocol(cfg, channel, logical_ket=ket, seed=inputs.seed)
        return {
            "refrigerated_fidelity": [r.logical_fidelity for r in result.refrigerated],
            "stale_fidelity": [r.logical_fidelity for r in result.stale],
            "refrigerated_entropy": [r.entropy_bits for r in result.refrigerated],
            "stale_entropy": [r.entropy_bits for r in result.stale],
            "margin": result.margin,
            "throughput": result.throughput,
            "throughput_bound": result.throughput_bound,
            "storage_T": result.storage_T,
            "r_block": result.fridge.r_block,
            "f_count": result.fridge.f_count,
            "code_frame": result.code_frame,
        }

    def properties(out):
        problems = []
        refr, stale = out["refrigerated_fidelity"], out["stale_fidelity"]
        if len(refr) != cfg.d_prime or len(stale) != cfg.d_prime:
            problems.append(f"expected {cfg.d_prime} cycles per policy")
        problems += _bad_range("refrigerated_fidelity", refr, 0, 1)
        problems += _bad_range("stale_fidelity", stale, 0, 1)
        if out["margin"] < -1e-12 or abs(out["margin"] - (refr[-1] - stale[-1])) > 1e-12:
            problems.append(f"margin {out['margin']} is negative or not the final fidelity gap")
        if out["throughput"] > out["throughput_bound"]:
            problems.append("storage throughput above n' R D'")
        if searched:
            problems += _dwell_property(channel, cfg.dwell_target(out["r_block"]), out["storage_T"])
        elif out["storage_T"] != cfg.storage_T:
            problems.append("pinned storage_T was not used")
        return problems

    return Op(name, run, properties, estimator_keys=("storage_T",) if searched else ())


def _dwell_property(channel, target, steps):
    """storage_T must bring C^T within the dwell target of the replacement
    channel, with a consistent distance sandwich."""
    f = channels.canonical_form(channel)
    cp = channels.replacement_channel(channels.fixed_point(f))
    d = channels.channel_distance(channels.power(channel, steps), cp, restarts=16)
    problems = []
    if not d.lower <= d.upper:
        problems.append(f"distance sandwich lower {d.lower} > upper {d.upper}")
    if not d.upper < target:
        problems.append(f"storage_T={steps} gives distance {d.upper} >= dwell target {target}")
    return problems


def _invoke(args):
    result = CliRunner().invoke(cli.main, args)
    if result.exit_code != 0:
        raise RuntimeError(f"qfridge {' '.join(args)} exited {result.exit_code}: {result.output[-500:]}")
    return result.output


def classify_op(name, path, targets):
    arg = ",".join(format(t, "g") for t in targets)

    def run():
        report = json.loads(_invoke(["classify", path, "--relax-targets", arg]))
        table = report.pop("relaxation_table")
        report["relax_steps"] = [row["steps"] for row in table]
        report["relax_achieved"] = [row["achieved"] for row in table]
        report["relax_targets"] = [row["target"] for row in table]
        return report

    def properties(out):
        problems = []
        if out["class"] != "non_unital" or not out["cp"]:
            problems.append(f"class {out['class']}, cp {out['cp']}: expected a CP non-unital channel")
        for steps, achieved, target in zip(out["relax_steps"], out["relax_achieved"], out["relax_targets"]):
            if not (achieved < target and steps >= 1):
                problems.append(f"relaxation row steps={steps} achieved={achieved} target={target}")
        if out["relax_steps"] != sorted(out["relax_steps"]):
            problems.append("relaxation time shrinks as the target tightens")
        return problems

    return Op(name, run, properties, estimator_keys=("relax_steps", "relax_achieved"))


def fridge_op(name, q, r, noise_path):
    def run():
        return json.loads(_invoke(["fridge", "--q", repr(q), "--r", str(r), "--noise", noise_path]))

    def properties(out):
        problems = []
        if abs(out["reset_distance"] - 2 * (1 - out["reset_population"])) > PROPERTY_TOL:
            problems.append("ideal reset distance is not 2 (1 - top mass)")
        problems += _bad_range("waste_entropy", [out["waste_entropy"], out["noisy_waste_entropy"]], 0, r - 1)
        problems += _bad_range("noisy_reset_distance", [out["noisy_reset_distance"]], 0, 2)
        if out["F"] < r or out["F"] % r:
            problems.append(f"F={out['F']} is not a positive multiple of R={r}")
        return problems

    return Op(name, run, properties)


def _number(text):
    if text in ("", None):
        return None
    try:
        return float(text)
    except (TypeError, ValueError):
        return text


def _columns(rows):
    """Rows of dicts -> dict of column lists."""
    keys = sorted({k for row in rows for k in row})
    return {k: [row.get(k) for row in rows] for k in keys}


def experiment_op(name, inputs, experiment, config, properties, extra_args=()):
    config_path = inputs.config_file(name, config)
    out_dir = inputs.workdir / f"out_{name}"

    def run():
        _invoke(["experiment", experiment, "--config", config_path, "--seed", str(inputs.seed),
                 "--out", str(out_dir), *extra_args])
        trace = [json.loads(line) for line in (out_dir / "trace.jsonl").read_text().splitlines() if line]
        trace = [{k: _number(v) if isinstance(v, str) else v for k, v in doc.items()} for doc in trace]
        lines = (out_dir / "summary.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        out = {f"trace.{k}": v for k, v in _columns(trace).items()}
        if header == ["kind", "mode", "value"]:
            out.update({f"summary.{kind}": _number(value) for kind, _, value in rows})
        else:
            out.update({f"summary.{k}": v for k, v in _columns(
                [dict(zip(header, map(_number, row))) for row in rows]).items()})
        if not (out_dir / "manifest.json").exists():
            raise RuntimeError("experiment wrote no manifest")
        return out

    return Op(name, run, lambda out: properties(out, config))


def _depol_properties(out, config):
    info = out["trace.information_bits"]
    problems = [] if len(info) == config["steps"] + 1 else ["wrong record count"]
    problems += [f"information rose at step {t}" for t in range(1, len(info)) if info[t] > info[t - 1] + PROPERTY_TOL]
    return problems + _bad_range("epr_fidelity", out["trace.epr_fidelity"], 0, 1)


def _stockpile_properties(out, config):
    left = out["trace.stockpile_left"]
    steps = math.ceil(config["n"] ** config["b"])
    problems = [] if len(left) == steps else [f"expected {steps} steps, got {len(left)}"]
    if any(b >= a for a, b in zip(left, left[1:])):
        problems.append("stockpile did not shrink every step")
    return problems + _bad_range("entropy_bits", out["trace.entropy_bits"], 0, config["n"])


def _epr_properties(out, config):
    fid = out["trace.epr_fidelity"]
    problems = [] if len(fid) == config["steps"] + 1 else ["wrong record count"]
    problems += _bad_range("epr_fidelity", fid, 0, 1)
    return problems + _bad_range("max_gap", out["trace.max_gap"], 0, 4)


def _bounds_properties(out, config):
    problems = [] if len(out["trace.step"]) == config["samples"] else ["wrong record count"]
    for key in ("summary.pinsker_min_margin", "summary.concavity_min_margin"):
        if out[key] < -PROPERTY_TOL:
            problems.append(f"{key} = {out[key]} is negative")
    if not out["summary.t_bound"] > 0:
        problems.append("storage-time bound is not positive")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def relax_search(inputs):
    ad = inputs.superop(channels.amplitude_damping_kraus(0.01))
    thermal_path = inputs.channel_file("thermal", channels.thermal_kraus(0.05, 0.1))
    return [
        protocol_op("protocol_search", inputs, ad,
                    protocol.ProtocolConfig(d_prime=50, mode="factorized"), searched=True),
        classify_op("classify_relax", thermal_path, (1e-2, 1e-4)),
    ]


def fridge_block(inputs):
    thermal = inputs.superop(channels.thermal_kraus(0.05, 0.1))
    noise_path = inputs.channel_file("noise", channels.amplitude_damping_kraus(inputs.jitter(1e-3, 0.2)))
    q = inputs.jitter(0.1, 0.1)
    cfg = protocol.ProtocolConfig(d_prime=20, r_block=7, storage_T=PINNED_STORAGE_T[(20, 7)], mode="factorized")
    ops = [protocol_op("protocol_r7", inputs, thermal, cfg)]
    ops += [fridge_op(f"fridge_r{r}", q, r, noise_path) for r in range(3, 9)]
    return ops


def big_register(inputs):
    depol = {"n": 8, "p": inputs.jitter(0.05, 0.2), "steps": 10, "policy": "random_circuit", "with_reference": True}
    stock = {"a": 0.5, "b": 0.5, "n": 10, "p": inputs.jitter(0.05, 0.2), "ancillas_per_step": 1}
    return [
        experiment_op("depol_decay_n8", inputs, "depol_decay", depol, _depol_properties),
        experiment_op("stockpile_n10", inputs, "stockpile", stock, _stockpile_properties),
    ]


def small_register(inputs):
    epr = {"code": "phase_flip_3", "p": inputs.jitter(0.02, 0.1), "steps": 1000}
    bounds = {"p": inputs.jitter(0.1, 0.2), "n": 4, "dim": 4, "samples": 2000}
    thermal = inputs.superop(channels.thermal_kraus(0.05, 0.1))
    cfg = protocol.ProtocolConfig(d_prime=30, r_block=2, storage_T=PINNED_STORAGE_T[(30, 2)], mode="exact")
    return [
        experiment_op("epr_storage", inputs, "epr_storage", epr, _epr_properties),
        experiment_op("bounds_safe", inputs, "bounds", bounds, _bounds_properties, ("--mode", "safe")),
        protocol_op("protocol_exact_r2", inputs, thermal, cfg),
    ]


WORKLOADS = {
    "relax_search": relax_search,
    "fridge_block": fridge_block,
    "big_register": big_register,
    "small_register": small_register,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Make the workload's inputs from the seed and return its operations."""
    return WORKLOADS[workload](Inputs(seed, workdir))


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _diff(path, got, want):
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _diff(f"{path}[{i}]", g, w)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if abs(got - want) <= REFERENCE_ATOL else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def compare_reference(op: Op, outputs: dict, reference: dict) -> list:
    """Differences between outputs and the stored reference, estimator
    outputs excluded."""
    keys = set(outputs) | set(reference)
    return [p for k in sorted(keys - set(op.estimator_keys))
            for p in _diff(k, outputs.get(k), reference.get(k))]


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def check(op: Op, outputs: dict, reference: dict | None) -> list:
    """Violated properties, plus reference differences when one is given."""
    problems = op.properties(outputs)
    if reference is not None:
        problems += compare_reference(op, outputs, reference[op.name])
    return problems
