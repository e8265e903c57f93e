"""Noise-regime experiments and their telemetry plumbing."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge import bounds, densim, experiments
from qfridge.channels import dephasing_kraus, kraus_to_superop
from qfridge.densim import DATA, MEMORY_BUDGET, PHI_PLUS, REFERENCE, QRegister, SimulationError
from qfridge.experiments import (
    CODE_NONE,
    CODE_PHASE_FLIP,
    CSV_COLUMNS,
    TraceRecord,
    run_depolarizing_decay,
    run_epr_storage,
    run_stockpile,
    write_csv,
    write_jsonl,
)

from oracles import epr_storage_loop, random_unitary, stockpile_dense


def test_trace_record_round_trip():
    rec = TraceRecord(step=3, entropy_bits=0.5, information_bits=2.5, extra={"k": 1})
    doc = rec.to_dict()
    assert doc["step"] == 3 and doc["k"] == 1


def test_write_jsonl_and_csv(tmp_path):
    recs = [
        TraceRecord(step=0, entropy_bits=0.0, information_bits=2.0),
        TraceRecord(step=1, entropy_bits=0.25, information_bits=1.75, epr_fidelity=0.9),
    ]
    jpath = tmp_path / "trace.jsonl"
    cpath = tmp_path / "summary.csv"
    write_jsonl(recs, jpath)
    write_csv(recs, cpath)
    lines = jpath.read_text().strip().split("\n")
    assert len(lines) == 2
    doc = json.loads(lines[1])
    assert doc["epr_fidelity"] == format(0.9, ".17g")
    rows = cpath.read_text().strip().split("\n")
    assert rows[0] == ",".join(CSV_COLUMNS)


def test_write_jsonl_deterministic(tmp_path):
    recs = [TraceRecord(step=0, entropy_bits=1 / 3, information_bits=2 / 3)]
    write_jsonl(recs, tmp_path / "a.jsonl")
    write_jsonl(recs, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestDepolarizingDecay:
    def test_information_monotone_and_geometric(self):
        result = run_depolarizing_decay(3, 0.15, 15, policy="random_circuit", seed=5)
        infos = [r.information_bits for r in result.records]
        assert all(b <= a + 1e-9 for a, b in zip(infos, infos[1:]))

    def test_idle_policy_and_reference(self):
        result = run_depolarizing_decay(2, 0.2, 5, policy="idle", seed=6, with_reference=True)
        fids = [r.epr_fidelity for r in result.records]
        assert fids[0] > 0.999
        assert all(b <= a + 1e-9 for a, b in zip(fids, fids[1:]))

    def test_size_cap(self):
        # an oversized register is an input error, not a broken invariant;
        # the reference qubit counts towards it
        for n, with_reference in ((13, False), (12, True)):
            with pytest.raises(ValueError, match=f"a decay run on 13 qubits needs .* budget of {MEMORY_BUDGET}") as info:
                run_depolarizing_decay(n, 0.1, 2, with_reference=with_reference)
            assert not isinstance(info.value, SimulationError)


class TestStockpile:
    def test_in_regime_run_completes_budget(self):
        # a + b < 1: the stockpile outlasts the step budget
        result = run_stockpile(0.4, 0.5, 8, 0.1, seed=7)
        assert result.in_regime
        assert result.steps_achieved == int(np.ceil(8**0.5))

    def test_out_of_regime_flag(self):
        result = run_stockpile(0.5, 0.9, 6, 0.05, seed=8)
        assert not result.in_regime

    def test_stockpile_untouched_by_dephasing(self):
        # every waiting stockpile qubit is drawn in exactly |0>
        result = run_stockpile(0.3, 0.6, 7, 0.3, seed=9)
        assert result.records[-1].extra["stockpile_left"] == result.stockpile_left

    def test_checks_and_entropies_skip_the_zero_stockpile_block(self):
        # only the m + achieved * a working and retired qubits are simulated:
        # at n = 10 that is 4 + 4 * 1, so nothing above 256 x 256 is checked
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
                mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
            result = run_stockpile(0.5, 0.5, 10, 0.1, seed=0)
        simulated = 4 + result.steps_achieved * 1
        assert simulated == 8
        calls = eigvalsh.call_args_list + cholesky.call_args_list
        assert calls
        assert all(call.args[0].shape[-1] <= 2**simulated for call in calls)

    def test_register_cap_checked_before_allocating(self):
        # a = 1 works on all 13 qubits; no register is built for it
        with mock.patch.object(QRegister, "from_product", side_effect=AssertionError("allocated")):
            with pytest.raises(ValueError, match=f"simulating 13 qubits needs .* budget of {MEMORY_BUDGET}") as info:
                run_stockpile(1.0, 0.5, 13, 0.05)
        assert not isinstance(info.value, SimulationError)

    def test_cap_counts_simulated_qubits_not_n(self):
        # n = 13, a = b = 0.5: 4 working qubits and 4 draws, 8 qubits simulated
        result = run_stockpile(0.5, 0.5, 13, 0.05, seed=1)
        assert result.steps_achieved == 4
        assert result.stockpile_left == 13 - 8
        assert all(13 - 8 <= rec.information_bits <= 13 for rec in result.records)

    @settings(max_examples=100)
    @given(
        n=st.integers(1, 8),
        a_exp=st.floats(0, 1),
        b_exp=st.floats(0, 1),
        ancillas=st.sampled_from([0, 1, 2]),
        p=st.floats(0.001, 0.99),
        seed=st.integers(0, 2**16),
    )
    def test_matches_full_register_oracle(self, n, a_exp, b_exp, ancillas, p, seed):
        got = run_stockpile(a_exp, b_exp, n, p, seed=seed, ancillas_per_step=ancillas)
        want = stockpile_dense(a_exp, b_exp, n, p, seed=seed, ancillas_per_step=ancillas)
        assert (got.steps_achieved, got.stockpile_left) == (want.steps_achieved, want.stockpile_left)
        assert len(got.records) == len(want.records)
        for g, w in zip(got.records, want.records):
            assert (g.step, g.extra) == (w.step, w.extra)
            assert abs(g.entropy_bits - w.entropy_bits) <= 1e-12
            assert abs(g.information_bits - w.information_bits) <= 1e-12


class TestEprStorage:
    def test_uncoded_closed_form(self):
        p = 0.1
        result = run_epr_storage(CODE_NONE, p, 30)
        for t, rec in enumerate(result.records):
            want = (1 + (1 - 2 * p) ** t) / 2
            assert abs(rec.epr_fidelity - want) < 1e-9

    def test_zero_noise_perfect(self):
        result = run_epr_storage(CODE_PHASE_FLIP, 0.0, 8)
        assert abs(result.records[-1].epr_fidelity - 1.0) < 1e-9

    def test_coded_beats_uncoded(self):
        p = 0.02
        coded = run_epr_storage(CODE_PHASE_FLIP, p, 10)
        uncoded = run_epr_storage(CODE_NONE, p, 10)
        assert coded.records[10].epr_fidelity > uncoded.records[10].epr_fidelity
        assert coded.ancillas_consumed == 4  # two correction cycles

    def test_ledger_column_present(self):
        result = run_epr_storage(CODE_NONE, 0.1, 3)
        assert all(r.max_gap is not None for r in result.records[1:])

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            run_epr_storage("surface_17", 0.1, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        code=st.sampled_from([CODE_NONE, CODE_PHASE_FLIP]),
        p=st.floats(0, 0.5),
        steps=st.integers(0, 60),
        block=st.sampled_from([1, 3, 7]),
        trace_atol=st.sampled_from([densim.TRACE_ATOL, 1e-15, 4e-15]),
    )
    def test_blocks_match_the_step_loop(self, code, p, steps, block, trace_atol):
        """Blocks of 1, 3 and 7 steps put block edges on and off the
        correction steps (every 5th).  Entropies and gaps are bit-identical
        to the loop's, the fidelity is within 1e-12 (its Phi+ overlap is
        stacked), and where the loop raises the run raises the same error.
        A trace tolerance of a few ulps makes validation fail on rounding, at
        a step that depends on the run."""
        n = 4 if code == CODE_PHASE_FLIP else 2
        with mock.patch.object(densim, "TRACE_ATOL", trace_atol):
            try:
                want = epr_storage_loop(code, p, steps)
            except SimulationError as err:
                want = err
            with mock.patch.object(experiments, "EPR_BLOCK_BYTES", block * 128 * 4**n), \
                    mock.patch.object(experiments, "entropy_ledger_step", wraps=bounds.entropy_ledger_step) as ledger:
                try:
                    got = run_epr_storage(code, p, steps)
                except SimulationError as err:
                    got = err
        if isinstance(want, SimulationError):
            assert isinstance(got, SimulationError) and str(got) == str(want)
            return
        assert not isinstance(got, SimulationError), str(got)
        assert ledger.call_count == -(-steps // block)
        assert got.ancillas_consumed == want.ancillas_consumed
        assert len(got.records) == len(want.records) == steps + 1
        for g, w in zip(got.records, want.records):
            assert (g.step, g.entropy_bits, g.information_bits, g.max_gap) == (
                w.step, w.entropy_bits, w.information_bits, w.max_gap)
            assert abs(g.epr_fidelity - w.epr_fidelity) <= 1e-12

    def test_block_raises_its_earliest_step_error(self):
        """Step 1's post-noise state has trace 2, and step 0's claims no
        entropy increase under p = 0.4 dephasing: the loop would stop at
        step 0's chain-rule check, before it validates step 1's state."""
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        states = np.array([rho, rho, 2 * rho])
        channel = kraus_to_superop(dephasing_kraus(0.4))
        with pytest.raises(SimulationError, match="chain rule violated"):
            experiments._score_block(1, states, np.array([1, 2]), (REFERENCE, DATA), [], channel)
        with pytest.raises(SimulationError, match="trace"):
            QRegister(states[2], (REFERENCE, DATA))


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([2, 4]), rank=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_decoded_fidelity_sits_below_the_separable_ceiling(n, rank, seed):
    """For any state of the reference and n - 1 data qubits, the decoded
    Phi+ fidelity exceeds 1/2 by at most sqrt(2^(n-2)) times the 2-norm
    distance to the state with every data qubit dephased: 2 for the coded
    memory, 1 for the bare pair."""
    rng = np.random.default_rng(seed)
    dim = 2**n
    g = rng.normal(size=(dim, min(rank, dim))) + 1j * rng.normal(size=(dim, min(rank, dim)))
    g = random_unitary(rng, dim) @ g
    reg = QRegister(g @ g.conj().T / np.trace(g @ g.conj().T).real, [REFERENCE] + [DATA] * (n - 1))
    if n == 4:
        decode = densim.compile_layers(densim.repetition_code((1, 2, 3), phase_flip=True)[1], 4)
    else:
        decode = []
    fid = densim.epr_fidelity(reg, decode, 1, 0)
    dist = np.linalg.norm(reg.rho - densim.dephase_all(reg).rho)
    assert fid - 0.5 <= 2 ** (n / 2 - 1) * dist + 1e-12
