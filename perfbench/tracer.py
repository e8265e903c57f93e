"""Outside-in tracer for the qfridge benchmark.

It wraps public qfridge functions from outside the package and records one
span (name, start, end, parent) per call, plus work counts computed from the
call's arguments and result.  Nothing in ``src/`` knows about it.

Calls are recorded only while a root span (one benchmark operation) is open,
so correctness checks made between operations stay out of the figures.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

COMPLEX_MAC_FLOPS = 8  # one complex multiply-add in real floating-point operations

# Counts that must repeat exactly between two traced runs of one seed.
DETERMINISTIC_SUFFIXES = (
    ".calls",
    ".eigh_calls",
    ".eigvalsh_calls",
    ".flops",
    ".stages",
    ".stage_bytes",
    ".distance_evals",
    ".steps",
)


def _count_apply_unitary(counts, result, rho, u, targets, n):
    # two tensordot contractions (ket and bra side) of a 2^k gate over 4^n entries
    counts["densim.apply_unitary.flops"] += 2 * COMPLEX_MAC_FLOPS * 4**n * 2 ** len(targets)


def _count_superop(counts, result, rho, nat, qubit, n):
    # one (4 x 4) @ (4 x 4^(n-1)) product
    counts["densim.apply_single_qubit_superop.flops"] += COMPLEX_MAC_FLOPS * 4 ** (n + 1)


def _count_circuit(counts, spec, *args, **kwargs):
    counts["fridge.stages"] += len(spec.stages)
    counts["fridge.stage_bytes"] += sum(stage.nbytes for stage in spec.stages)
    counts["fridge.f_count"] += spec.f_count
    counts["fridge.max_stages"] = max(counts["fridge.max_stages"], len(spec.stages))


def _count_relaxation(counts, report, *args, **kwargs):
    counts["classify.relaxation_time.steps"] += report.steps


def _count_protocol(counts, result, *args, **kwargs):
    counts["protocol.cycles"] += len(result.refrigerated) + len(result.stale)
    counts["protocol.storage_draws"] += result.throughput


def _count_records(counts, result, *args, **kwargs):
    counts["experiments.records"] += len(result.records)


def _count_write(counts, result, records, path):
    counts["experiments.write_bytes"] += os.path.getsize(path)


def _count_cli(counts, result, *args, **kwargs):
    if result.exit_code != 0:
        counts["cli.nonzero_exits"] += 1


# (module, attribute, span name, counter).  A dotted attribute is a method.
# The benchmark drives the command line in process through ``CliRunner``.
TARGETS = (
    ("click.testing", "CliRunner.invoke", "cli", _count_cli),
    ("qfridge.channels", "channel_distance", "channels.channel_distance", None),
    ("qfridge.channels", "power", "channels.other", None),
    ("qfridge.channels", "canonical_form", "channels.other", None),
    ("qfridge.channels", "fixed_point", "channels.other", None),
    ("qfridge.channels", "kraus_to_superop", "channels.other", None),
    ("qfridge.channels", "replacement_channel", "channels.other", None),
    ("qfridge.channels", "choi_matrix", "channels.other", None),
    ("qfridge.channels", "choi_positive", "channels.other", None),
    ("qfridge.channels", "cp_check", "channels.other", None),
    ("qfridge.channels", "load_channel", "channels.other", None),
    ("qfridge.channels", "SuperOp.natural", "channels.other", None),
    ("qfridge.classify", "relaxation_time", "classify.relaxation_time", _count_relaxation),
    ("qfridge.classify", "classification_report", "classify.classification_report", None),
    ("qfridge.fridge", "build_cooling_circuit", "fridge.build_cooling_circuit", _count_circuit),
    ("qfridge.fridge", "run_fridge_ideal", "fridge.run_fridge_ideal", None),
    ("qfridge.fridge", "run_fridge_noisy", "fridge.run_fridge_noisy", None),
    ("qfridge.densim", "apply_unitary", "densim.apply_unitary", _count_apply_unitary),
    ("qfridge.densim", "apply_single_qubit_superop", "densim.apply_single_qubit_superop", _count_superop),
    ("qfridge.densim", "QRegister.__init__", "densim.QRegister", None),
    ("qfridge.densim", "von_neumann_entropy", "densim.von_neumann_entropy", None),
    ("qfridge.densim", "partial_trace", "densim.partial_trace", None),
    ("qfridge.densim", "step", "densim.step", None),
    ("qfridge.densim", "epr_fidelity", "densim.epr_fidelity", None),
    ("qfridge.densim", "relative_entropy", "densim.relative_entropy", None),
    ("qfridge.bounds", "entropy_ledger_step", "bounds.entropy_ledger_step", None),
    ("qfridge.bounds", "pinsker_margin", "bounds.margins", None),
    ("qfridge.bounds", "concavity_margin", "bounds.margins", None),
    ("qfridge.protocol", "run_refrigerator_protocol", "protocol.run_refrigerator_protocol", _count_protocol),
    ("qfridge.experiments", "run_depolarizing_decay", "experiments.run", _count_records),
    ("qfridge.experiments", "run_stockpile", "experiments.run", _count_records),
    ("qfridge.experiments", "run_epr_storage", "experiments.run", _count_records),
    ("qfridge.experiments", "write_jsonl", "experiments.write", _count_write),
    ("qfridge.experiments", "write_csv", "experiments.write", _count_write),
)

# Per-layer metrics reported by the benchmark: name -> unit.
LAYER_METRICS = {
    "channels.channel_distance.calls": "count",
    "channels.channel_distance.self_s": "s",
    "channels.channel_distance.eigh_calls": "count",
    "channels.other.self_s": "s",
    "classify.relaxation_time.calls": "count",
    "classify.relaxation_time.self_s": "s",
    "classify.relaxation_time.distance_evals": "count",
    "classify.relaxation_time.steps": "count",
    "classify.classification_report.self_s": "s",
    "fridge.build_cooling_circuit.self_s": "s",
    "fridge.stages": "count",
    "fridge.max_stages": "count",
    "fridge.stage_bytes": "B",
    "fridge.f_count": "count",
    "fridge.run_fridge_ideal.self_s": "s",
    "fridge.run_fridge_noisy.self_s": "s",
    "densim.apply_unitary.calls": "count",
    "densim.apply_unitary.self_s": "s",
    "densim.apply_unitary.flops": "flop",
    "densim.apply_single_qubit_superop.calls": "count",
    "densim.apply_single_qubit_superop.self_s": "s",
    "densim.apply_single_qubit_superop.flops": "flop",
    "densim.QRegister.calls": "count",
    "densim.QRegister.self_s": "s",
    "densim.QRegister.eigvalsh_calls": "count",
    "densim.von_neumann_entropy.calls": "count",
    "densim.von_neumann_entropy.self_s": "s",
    "densim.partial_trace.calls": "count",
    "densim.partial_trace.self_s": "s",
    "densim.step.self_s": "s",
    "densim.epr_fidelity.self_s": "s",
    "densim.relative_entropy.self_s": "s",
    "bounds.entropy_ledger_step.calls": "count",
    "bounds.entropy_ledger_step.self_s": "s",
    "bounds.margins.self_s": "s",
    "protocol.run_refrigerator_protocol.self_s": "s",
    "protocol.cycles": "count",
    "protocol.storage_draws": "count",
    "experiments.run.self_s": "s",
    "experiments.records": "count",
    "experiments.write.self_s": "s",
    "experiments.write_bytes": "B",
    "cli.self_s": "s",
    "cli.nonzero_exits": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory until written."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # indices of open spans, innermost last
        self.counts = defaultdict(int)
        self._restore = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was innermost")

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer.counts, result, *args, **kwargs)
            return result

        return traced

    def _count_into_innermost(self, fn, suffix):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.stack:
                tracer.counts[tracer.spans[tracer.stack[-1]][0] + suffix] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target wherever a ``qfridge`` module holds it.

        Modules import functions by name, so each module that holds the
        original gets the wrapper.  ``qfridge.classify`` as an attribute is
        the function, not the module, so modules come from ``sys.modules``.
        """
        modules = [m for k, m in sys.modules.items() if k == "qfridge" or k.startswith("qfridge.")]
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, meth, self._wrap(cls.__dict__[meth], name, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        self._rebind(np.linalg, "eigh", self._count_into_innermost(np.linalg.eigh, ".eigh_calls"))
        self._rebind(np.linalg, "eigvalsh", self._count_into_innermost(np.linalg.eigvalsh, ".eigvalsh_calls"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Calls and self seconds per span name, merged with the counts."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_s[i]
        out = {f"{name}.calls": n for name, n in calls.items()}
        out.update({f"{name}.self_s": s for name, s in self_s.items()})
        out.update(self._distance_evals())
        out.update(self.counts)
        return out

    def _distance_evals(self) -> dict:
        """channel_distance calls made by relaxation_time, in total and per
        root span (benchmark operation)."""
        evals = defaultdict(int)
        evals["classify.relaxation_time.distance_evals"] = 0
        for name, _, _, parent in self.spans:
            if name != "channels.channel_distance":
                continue
            in_search = False
            while parent >= 0:
                in_search = in_search or self.spans[parent][0] == "classify.relaxation_time"
                root, parent = self.spans[parent][0], self.spans[parent][3]
            if in_search:
                evals["classify.relaxation_time.distance_evals"] += 1
                evals[f"{root}.distance_evals"] += 1
        return dict(evals)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
