"""Channel algebra: representations, canonical form, CP conditions, distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge.channels import (
    PAULIS,
    BlochVector,
    CanonicalForm,
    ChannelError,
    KrausSet,
    SuperOp,
    amplitude_damping_kraus,
    bloch_to_density,
    canonical_form,
    channel_distance,
    channel_from_dict,
    choi_matrix,
    choi_positive,
    cp_check,
    diamond_upper,
    dephasing_kraus,
    depolarizing_kraus,
    fixed_point,
    identity_channel,
    is_unital,
    kraus_to_dict,
    kraus_to_superop,
    pauli_probs,
    power,
    replacement_channel,
    thermal_kraus,
)

from oracles import apply_bloch, apply_kraus, apply_superop, compose, density_to_bloch, pauli_channel_kraus, unitary_kraus


def random_cp_channel(rng, n_kraus=3):
    """Random CP trace-preserving qubit channel via a Stinespring isometry."""
    g = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    q, _ = np.linalg.qr(g)
    return KrausSet([q[2 * i : 2 * i + 2, :] for i in range(n_kraus)])


def test_kraus_set_rejects_non_trace_preserving():
    with pytest.raises(ChannelError):
        KrausSet([np.eye(2) * 0.5])


def test_superop_rejects_bad_first_row():
    ptm = np.eye(4)
    ptm[0, 1] = 0.3
    with pytest.raises(ChannelError):
        SuperOp(ptm)


def test_ptm_of_identity():
    assert np.allclose(kraus_to_superop(identity_channel()).ptm, np.eye(4))


def test_dephasing_ptm_shrinks_xy():
    c = kraus_to_superop(dephasing_kraus(0.25))
    assert np.allclose(np.diag(c.ptm), [1, 0.5, 0.5, 1])
    assert np.allclose(c.shift, 0)


def test_depolarizing_ptm_is_isotropic():
    c = kraus_to_superop(depolarizing_kraus(0.3))
    s = 1 - 4 * 0.3 / 3
    assert np.allclose(np.diag(c.ptm), [1, s, s, s])


def test_amplitude_damping_shift_and_scales():
    p = 0.36
    c = kraus_to_superop(amplitude_damping_kraus(p))
    assert np.allclose(c.shift, [0, 0, p])
    assert np.allclose(np.diag(c.linear), [np.sqrt(1 - p), np.sqrt(1 - p), 1 - p])


def test_apply_matches_kraus_action():
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = random_cp_channel(rng)
        c = kraus_to_superop(k)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert np.allclose(apply_superop(c, rho), apply_kraus(k, rho), atol=1e-12)


def test_natural_rep_consistency():
    rng = np.random.default_rng(8)
    k = random_cp_channel(rng)
    c = kraus_to_superop(k)
    nat = c.natural()
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose((nat @ g.reshape(4)).reshape(2, 2), apply_kraus(k, g), atol=1e-12)


def test_natural_rep_is_computed_once_and_read_only():
    c = kraus_to_superop(amplitude_damping_kraus(0.3))
    first = c.natural()
    assert np.array_equal(c.natural(), first)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    assert np.array_equal(kraus_to_superop(amplitude_damping_kraus(0.3)).natural(), first)


def natural_by_basis(c):
    """natural() as the PTM applied to each basis matrix |j><j'| through
    Pauli coefficients, the construction it once used; kept as an oracle."""
    cols = []
    for j in range(2):
        for jp in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[j, jp] = 1.0
            out = c.ptm.astype(complex) @ np.array([np.trace(p @ basis) for p in PAULIS])
            cols.append((0.5 * sum(x * p for x, p in zip(out, PAULIS))).reshape(4))
    return np.stack(cols, axis=1)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_kraus=st.integers(1, 4))
def test_natural_rep_matches_basis_oracle(seed, n_kraus):
    c = kraus_to_superop(random_cp_channel(np.random.default_rng(seed), n_kraus))
    assert np.max(np.abs(c.natural() - natural_by_basis(c))) <= 1e-15


@given(
    kind=st.sampled_from([amplitude_damping_kraus, dephasing_kraus, depolarizing_kraus]),
    p=st.floats(0, 1),
)
def test_natural_rep_of_named_channels_equals_basis_oracle(kind, p):
    c = kraus_to_superop(kind(p))
    assert np.array_equal(c.natural(), natural_by_basis(c))


def test_compose_matches_sequential_application():
    a = kraus_to_superop(dephasing_kraus(0.1))
    b = kraus_to_superop(amplitude_damping_kraus(0.2))
    rho = bloch_to_density([0.3, -0.4, 0.5])
    assert np.allclose(apply_superop(compose(a, b), rho), apply_superop(a, apply_superop(b, rho)), atol=1e-12)


def test_bloch_roundtrip():
    w = np.array([0.1, -0.5, 0.7])
    assert np.allclose(density_to_bloch(bloch_to_density(w)), w)


def test_bloch_vector_rejects_outside_ball():
    with pytest.raises(ChannelError):
        BlochVector([1.0, 1.0, 0.0])


def test_canonical_form_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = kraus_to_superop(random_cp_channel(rng))
        f = canonical_form(c)
        assert np.allclose(f.to_superop().ptm, c.ptm, atol=1e-10)
        # both factors are proper rotations
        for r in (f.pre_rot, f.post_rot):
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-10)
            assert np.linalg.det(r) > 0


def test_canonical_form_handles_improper_factor():
    # a reflection-like Bloch block (dephasing composed with a half-turn)
    c = compose(
        kraus_to_superop(unitary_kraus(np.array([[0, 1], [1, 0]], dtype=complex))),
        kraus_to_superop(dephasing_kraus(0.2)),
    )
    f = canonical_form(c)
    assert np.allclose(f.to_superop().ptm, c.ptm, atol=1e-10)


def test_pauli_probs_recovers_generating_probabilities():
    k = pauli_channel_kraus(0.1, 0.05, 0.2)
    probs = pauli_probs(canonical_form(kraus_to_superop(k)))
    got = sorted([probs.p_x, probs.p_y, probs.p_z])
    assert np.allclose(got, [0.05, 0.1, 0.2], atol=1e-10)


def test_cp_check_matches_choi_on_unital_forms():
    rng = np.random.default_rng(12)
    for _ in range(500):
        lam = rng.uniform(-1, 1, size=3)
        f = CanonicalForm(t=np.zeros(3), lam=lam, pre_rot=np.eye(3), post_rot=np.eye(3))
        assert cp_check(f) == choi_positive(f.to_superop())


def test_cp_check_rejects_transpose_like_form():
    f = CanonicalForm(
        t=np.zeros(3), lam=np.array([1.0, 0.9, 1.0]), pre_rot=np.eye(3), post_rot=np.eye(3)
    )
    assert not cp_check(f)
    assert not choi_positive(f.to_superop())


def test_choi_eigenvalues_are_pauli_probs():
    k = pauli_channel_kraus(0.1, 0.2, 0.3)
    eigs = sorted(np.linalg.eigvalsh(choi_matrix(kraus_to_superop(k))))
    assert np.allclose(eigs, [0.1, 0.2, 0.3, 0.4], atol=1e-12)


def test_fixed_point_amplitude_damping():
    f = canonical_form(kraus_to_superop(amplitude_damping_kraus(0.1)))
    assert np.allclose(fixed_point(f).w, [0, 0, 1], atol=1e-12)


def test_fixed_point_is_fixed():
    rng = np.random.default_rng(13)
    for _ in range(50):
        c = kraus_to_superop(random_cp_channel(rng))
        f = canonical_form(c)
        if np.max(np.abs(f.lam)) >= 1 - 1e-8:
            continue
        w = fixed_point(f).w
        assert np.allclose(apply_bloch(c, w), w, atol=1e-9)


def test_power_composition():
    c = kraus_to_superop(dephasing_kraus(0.1))
    assert np.allclose(power(c, 3).ptm, compose(compose(c, c), c).ptm, atol=1e-12)
    assert np.allclose(power(c, 0).ptm, np.eye(4))


def test_replacement_channel_outputs_target():
    p = BlochVector([0.2, 0.0, -0.3])
    c = replacement_channel(p)
    assert np.allclose(apply_bloch(c, [0.9, -0.9, 0.1]), p.w)


def test_thermal_kraus_fixed_population():
    c = kraus_to_superop(thermal_kraus(0.3, 0.1))
    f = canonical_form(c)
    rho = bloch_to_density(fixed_point(f).w)
    assert np.allclose(np.diag(rho).real, [0.9, 0.1], atol=1e-10)
    assert np.allclose(apply_superop(c, rho), rho, atol=1e-10)


def test_is_unital():
    assert is_unital(kraus_to_superop(dephasing_kraus(0.2)))
    assert not is_unital(kraus_to_superop(amplitude_damping_kraus(0.2)))


class TestChannelDistance:
    def test_identical_channels(self):
        c = kraus_to_superop(dephasing_kraus(0.1))
        d = channel_distance(c, c)
        assert d.lower <= 1e-12 and d.upper <= 1e-12

    def test_sandwich_order(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = kraus_to_superop(random_cp_channel(rng))
            b = kraus_to_superop(random_cp_channel(rng))
            d = channel_distance(a, b)
            assert 0 <= d.lower <= d.upper <= 2 + 1e-9

    def test_restarts_is_inert(self):
        a = kraus_to_superop(amplitude_damping_kraus(0.3))
        b = kraus_to_superop(depolarizing_kraus(0.2))
        assert channel_distance(a, b, restarts=16) == channel_distance(a, b)

    def test_dephasing_vs_identity_known_value(self):
        # Z with prob p against the identity: diamond distance 2p
        p = 0.1
        d = channel_distance(
            kraus_to_superop(dephasing_kraus(p)), kraus_to_superop(identity_channel())
        )
        assert abs(d.lower - 2 * p) < 1e-12
        assert abs(d.upper - 2 * p) < 1e-12

    def test_replacement_channels_trace_distance(self):
        a = replacement_channel(BlochVector([0, 0, 1.0]))
        b = replacement_channel(BlochVector([0, 0, -1.0]))
        d = channel_distance(a, b)
        assert abs(d.upper - 2.0) < 1e-12


class TestDiamondUpper:
    def test_dephasing_vs_identity_is_exact(self):
        identity = kraus_to_superop(identity_channel())
        for p in (0.0, 0.01, 0.1, 0.3):
            assert abs(diamond_upper(kraus_to_superop(dephasing_kraus(p)), identity) - 2 * p) <= 1e-12

    def test_antipodal_replacement_channels(self):
        a = replacement_channel(BlochVector([0, 0, 1.0]))
        b = replacement_channel(BlochVector([0, 0, -1.0]))
        assert abs(diamond_upper(a, b) - 2.0) <= 1e-12


@settings(max_examples=60)
@given(channel_seed=st.integers(0, 2**32 - 1))
def test_diamond_upper_bounds_the_ascent(channel_seed):
    rng = np.random.default_rng(channel_seed)
    a = kraus_to_superop(random_cp_channel(rng))
    b = kraus_to_superop(random_cp_channel(rng))
    upper = diamond_upper(a, b)
    assert upper <= 2
    assert abs(upper - diamond_upper(b, a)) <= 1e-12
    assert diamond_upper(a, a) <= 1e-12
    d = channel_distance(a, b)
    assert d.upper == max(upper, d.lower)
    attained = _channel_distance_loop(a, b)
    if attained is None:
        return
    # an attained value may pass a tight bound by rounding
    assert d.lower <= attained <= d.upper + 1e-12


def _apply_system_superop_2d(nat, rho):
    t = rho.reshape(2, 2, 2, 2)
    t = t.transpose(0, 2, 1, 3).reshape(4, 4)
    t = nat @ t
    t = t.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return t


def _channel_distance_loop(a, b, restarts=8, max_iter=500, tol=1e-12, seed=0):
    """Best value attained by an alternating ascent on the diamond-distance
    maximization over pure inputs on system plus one ancilla qubit.

    For a fixed input the optimal observable is the sign of the output
    difference; for a fixed observable the optimal input is the top
    eigenvector of the pulled-back observable.  Each value is the one at
    some input, so the result is a lower bound on the distance, and it is at
    least the Choi value.  Returns None when no restart moves by less than
    ``tol`` within ``max_iter`` iterations.
    """
    delta_nat = a.natural() - b.natural()
    delta_adj = delta_nat.conj().T
    lower = float(np.sum(np.abs(np.linalg.eigvalsh(choi_matrix(a) - choi_matrix(b)))))

    rng = np.random.default_rng(seed)
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    starts = [phi]
    for _ in range(restarts):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        starts.append(v / np.linalg.norm(v))

    best = 0.0
    any_converged = False
    for psi in starts:
        val = 0.0
        for _ in range(max_iter):
            out = _apply_system_superop_2d(delta_nat, np.outer(psi, psi.conj()))
            out = 0.5 * (out + out.conj().T)
            eigvals, eigvecs = np.linalg.eigh(out)
            new_val = float(np.sum(np.abs(eigvals)))
            witness = (eigvecs * np.sign(eigvals)) @ eigvecs.conj().T
            pulled = _apply_system_superop_2d(delta_adj, witness)
            pulled = 0.5 * (pulled + pulled.conj().T)
            pvals, pvecs = np.linalg.eigh(pulled)
            psi = pvecs[:, -1]
            if abs(new_val - val) < tol:
                any_converged = True
                val = new_val
                break
            val = new_val
        best = max(best, val)
    return max(best, lower) if any_converged else None


def test_channel_dict_roundtrip(tmp_path):
    k = amplitude_damping_kraus(0.3)
    doc = kraus_to_dict(k)
    c = channel_from_dict(doc)
    assert np.allclose(c.ptm, kraus_to_superop(k).ptm, atol=1e-12)


def test_channel_from_dict_ptm_and_errors():
    c = channel_from_dict({"ptm": np.eye(4).tolist()})
    assert np.allclose(c.ptm, np.eye(4))
    with pytest.raises(ChannelError):
        channel_from_dict({"nope": 1})
