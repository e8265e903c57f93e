"""Command-line front end.

Subcommands: ``classify`` (channel taxonomy report), ``fridge`` (cooling-run
report), ``experiment`` (batch runs writing trace JSONL + summary CSV + a run
manifest).  Exit codes are a stable contract: 0 success, 2 input error, 3
non-CP channel, 4 infeasible cooling, 5 assertion failure (a broken
invariant).
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bounds import (
    MODE_PAPER,
    MODE_SAFE,
    concavity_margin,
    dephasing_bound,
    pinsker_margin,
)
from .channels import (
    ChannelError,
    amplitude_damping_kraus,
    channel_from_dict,
    depolarizing_kraus,
    kraus_to_superop,
    load_channel,
)
from .classify import classification_report, relaxation_time
from .densim import ZERO, SimulationError
from .experiments import (
    TraceRecord,
    run_depolarizing_decay,
    run_epr_storage,
    run_stockpile,
    write_csv,
    write_jsonl,
)
from .fridge import (
    CoolingError,
    build_cooling_circuit,
    choose_R,
    run_fridge_ideal,
    run_fridge_noisy,
    top_mass,
)
from .protocol import ProtocolConfig, run_refrigerator_protocol

EXIT_INPUT = 2
EXIT_NON_CP = 3
EXIT_INFEASIBLE = 4
EXIT_ASSERTION = 5

# exception -> (exit code, message prefix).  The first matching row wins:
# CoolingError is a ChannelError, and it and SimulationError are ValueErrors.
_EXITS = (
    (CoolingError, EXIT_INFEASIBLE, "error: no cooling possible"),
    (SimulationError, EXIT_ASSERTION, "assertion failure"),
    ((ChannelError, ValueError, KeyError, OSError), EXIT_INPUT, "error"),
)


@dataclass(frozen=True)
class RunManifest:
    """Provenance sidecar written next to every experiment output set."""

    command: str
    config: str
    seed: int
    out: str
    version: str
    duration_seconds: float


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


@contextmanager
def _exit_codes():
    """Exit with the contract's code for an exception listed in _EXITS."""
    try:
        yield
    except Exception as exc:
        for types, code, prefix in _EXITS:
            if isinstance(exc, types):
                _fail(code, f"{prefix}: {exc}")
        raise


@click.group()
@click.version_option(__version__)
def main():
    """Qubit-channel taxonomy, algorithmic cooling, and noise experiments."""


@main.command("classify")
@click.argument("channel_file", type=click.Path())
@click.option(
    "--relax-targets",
    default="",
    help="Comma-separated diamond-distance targets to tabulate relaxation times for.",
)
def cmd_classify(channel_file, relax_targets):
    """Print a JSON taxonomy report for a channel file."""
    with _exit_codes():
        channel = load_channel(channel_file)
        report = classification_report(channel)
        table = []
        for item in filter(None, (s.strip() for s in relax_targets.split(","))):
            target = float(item)
            rep = relaxation_time(channel, target)
            table.append({"target": target, "steps": rep.steps, "achieved": rep.achieved_distance})
    report["relaxation_table"] = table
    click.echo(json.dumps(report, indent=2, sort_keys=True))
    if not report["cp"]:
        sys.exit(EXIT_NON_CP)


@main.command("fridge")
@click.option("--q", type=float, required=True, help="Minority population of the fixed point.")
@click.option("--eps2", type=float, default=None, help="Reset residual budget (picks R).")
@click.option("--r", "r_block", type=int, default=None, help="Explicit block size.")
@click.option("--noise", "noise_file", type=click.Path(), default=None)
def cmd_fridge(q, eps2, r_block, noise_file):
    """Compile and run a cooling block; print a JSON report."""
    with _exit_codes():
        if r_block is None:
            if eps2 is None:
                _fail(EXIT_INPUT, "error: provide --r or --eps2")
            r_block = choose_R(q, eps2)
        spec = build_cooling_circuit(q, r_block)
        ideal = run_fridge_ideal(spec)
        report = {
            "q": q,
            "R": r_block,
            "F": spec.f_count,
            "reset_population": top_mass(q, r_block),
            "reset_distance": ideal.reset_distance,
            "waste_entropy": ideal.waste_entropy,
        }
        if noise_file is not None:
            noise = load_channel(noise_file)
            noisy = run_fridge_noisy(spec, noise)
            report["noisy_reset_distance"] = noisy.reset_distance
            report["noisy_waste_entropy"] = noisy.waste_entropy
    click.echo(json.dumps(report, indent=2, sort_keys=True))


@main.command("experiment")
@click.argument("name")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--mode", type=click.Choice([MODE_PAPER, MODE_SAFE]), default=MODE_SAFE)
def cmd_experiment(name, config_path, seed, out_dir, mode):
    """Run a named experiment; write trace JSONL, summary CSV, and a manifest."""
    if name not in _EXPERIMENTS:
        _fail(EXIT_INPUT, f"error: unknown experiment {name!r}")
    runner, types = _EXPERIMENTS[name]
    with _exit_codes():
        with open(config_path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            _fail(EXIT_INPUT, "error: config must be a JSON object")
        _check_config_types(types, config)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        try:
            records, summary_rows = runner(config, seed, mode)
            failure = None
        except (CoolingError, SimulationError) as exc:
            # a run that failed, not bad input: write what there is first
            records, summary_rows, failure = [], None, exc
        write_jsonl(records, out / "trace.jsonl")
        if summary_rows is None:
            (out / "summary.csv").write_text(f"error\n{failure}\n")
        elif summary_rows is _STEP_TRACE:
            write_csv(records, out / "summary.csv")
        else:
            (out / "summary.csv").write_text(
                "\n".join(",".join(str(c) for c in row) for row in summary_rows) + "\n"
            )
        manifest = RunManifest(
            command=f"experiment {name}",
            config=str(config_path),
            seed=seed,
            out=str(out),
            version=__version__,
            duration_seconds=time.monotonic() - started,
        )
        (out / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2) + "\n")
        if failure is not None:
            raise failure


_STEP_TRACE = object()  # sentinel: summary CSV is the per-step trace table

def _check_config_types(types, config):
    """Raise ValueError (an input error) for a config value of the wrong JSON
    type, before any output is made; true and false count only as booleans."""
    for key, value in config.items():
        accepted = types.get(key)
        if accepted is None:
            continue
        if not isinstance(value, accepted) or (isinstance(value, bool) and accepted is not bool):
            raise ValueError(f"config value {key!r} has the wrong type: {json.dumps(value)}")


def _channel_from_config(config):
    if "channel" in config:
        return channel_from_dict(config["channel"])
    return kraus_to_superop(amplitude_damping_kraus(config["p"]))


def _run_depol_decay(config, seed, mode):
    channel = kraus_to_superop(depolarizing_kraus(config["p"]))
    result = run_depolarizing_decay(
        n=config["n"],
        channel=channel,
        steps=config["steps"],
        policy=config.get("policy", "idle"),
        seed=seed,
        with_reference=config.get("with_reference", False),
    )
    return list(result.records), _STEP_TRACE


def _run_stockpile(config, seed, mode):
    result = run_stockpile(
        a_exp=config["a"],
        b_exp=config["b"],
        n=config["n"],
        p=config["p"],
        seed=seed,
        ancillas_per_step=config.get("ancillas_per_step", 1),
    )
    return list(result.records), _STEP_TRACE


def _run_epr_storage(config, seed, mode):
    result = run_epr_storage(
        code=config.get("code", "none"),
        p=config["p"],
        steps=config["steps"],
        seed=seed,
        correction_interval=config.get("correction_interval", 5),
        separability_eps=config.get("separability_eps", 0.1),
    )
    return list(result.records), _STEP_TRACE


def _run_fridge_protocol(config, seed, mode):
    channel = _channel_from_config(config)
    cfg = ProtocolConfig(
        d_prime=config.get("cycles", 50),
        r_block=config.get("r_block", 2),
        eps1=config.get("eps1", 0.1),
        eps2=config.get("eps2", 0.2),
        storage_T=config.get("storage_T"),
    )
    result = run_refrigerator_protocol(cfg, channel, seed=seed)
    records = []
    for refr, stale in zip(result.refrigerated, result.stale):
        records.append(
            TraceRecord(
                step=refr.step,
                entropy_bits=refr.entropy_bits,
                information_bits=refr.information_bits,
                logical_fidelity=refr.logical_fidelity,
                extra={"stale_logical_fidelity": stale.logical_fidelity},
            )
        )
    return records, _STEP_TRACE


def _run_bounds(config, seed, mode):
    p = config["p"]
    eps = config.get("eps", 0.5)
    n = config["n"]
    samples = config.get("samples", 100)
    dim = config.get("dim", 2)
    rng = np.random.default_rng(seed)

    def random_state():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    records = []
    worst_pinsker = worst_concavity = float("inf")
    for i in range(samples):
        a, b = random_state(), random_state()
        pm = pinsker_margin(a, b)
        cm = concavity_margin(a, b, rng.random(), mode=mode)
        worst_pinsker = min(worst_pinsker, pm)
        worst_concavity = min(worst_concavity, cm)
        records.append(
            TraceRecord(
                step=i,
                entropy_bits=0.0,
                information_bits=0.0,
                extra={"pinsker_margin": pm, "concavity_margin": cm},
            )
        )
    params = dephasing_bound(p, eps, n, mode=mode)
    rows = [
        ("kind", "mode", "value"),
        ("pinsker_min_margin", mode, format(worst_pinsker, ".17g")),
        ("concavity_min_margin", mode, format(worst_concavity, ".17g")),
        ("delta", mode, format(params.delta, ".17g")),
        ("t_bound", mode, format(params.t_bound, ".17g")),
    ]
    if mode == MODE_PAPER:
        # the printed constant fails on this orthogonal pure pair
        one = np.diag([0.0, 1.0])
        margin = concavity_margin(ZERO, one, 0.5, mode=MODE_PAPER)
        rows.append(("concavity_counterexample", mode, format(margin, ".17g")))
        if margin >= 0:
            raise SimulationError("expected the paper constant to fail on pure orthogonal states")
    if worst_pinsker < -1e-9:
        raise SimulationError(f"Pinsker margin went negative: {worst_pinsker}")
    if mode == MODE_SAFE and worst_concavity < -1e-9:
        raise SimulationError(f"safe concavity margin went negative: {worst_concavity}")
    return records, rows


_NUMBER = (int, float)
_INT_OR_NULL = (int, type(None))
# name -> (runner, config key -> accepted JSON value types; other keys are ignored)
_EXPERIMENTS = {
    "depol_decay": (_run_depol_decay, {
        "p": _NUMBER, "n": int, "steps": int, "policy": str, "with_reference": bool}),
    "stockpile": (_run_stockpile, {
        "a": _NUMBER, "b": _NUMBER, "n": int, "p": _NUMBER, "ancillas_per_step": int}),
    "epr_storage": (_run_epr_storage, {
        "code": str, "p": _NUMBER, "steps": int, "correction_interval": int, "separability_eps": _NUMBER}),
    "fridge_protocol": (_run_fridge_protocol, {
        "channel": dict, "p": _NUMBER, "cycles": int, "r_block": _INT_OR_NULL,
        "eps1": _NUMBER, "eps2": _NUMBER, "storage_T": _INT_OR_NULL}),
    "bounds": (_run_bounds, {"p": _NUMBER, "eps": _NUMBER, "n": int, "samples": int, "dim": int}),
}


if __name__ == "__main__":
    main()
