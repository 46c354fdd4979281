"""State-vector simulator tests: gate algebra, Born statistics, teleportation
and swap chains, checked against independent dense-matrix oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import assert_bell_pair
from qauthsim.qsim import (
    Basis,
    CapacityError,
    DeadQubitError,
    NAMED_STATES,
    Simulator,
    SimulationError,
    derive_seed,
    make_rng,
    states_equal,
)

SQ = 1 / math.sqrt(2)

# -- independent dense-matrix oracle helpers ---------------------------------

I2 = np.eye(2, dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) * SQ
CNOT_01 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
BELL = np.array([SQ, 0, 0, SQ], dtype=complex)


def born_probs(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def test_fresh_qubit_measures_zero():
    sim = Simulator()
    rng = make_rng(0)
    for _ in range(50):
        q = sim.allocate_qubit()
        assert sim.measure(q, Basis.Z, rng) == 0
        sim.release(q)


def test_h_zero_measures_plus():
    sim = Simulator()
    rng = make_rng(1)
    for _ in range(50):
        q = sim.allocate_qubit()
        sim.apply_h(q)
        assert sim.measure(q, Basis.X, rng) == 0
        sim.release(q)


def test_two_allocations_are_independent_groups():
    sim = Simulator()
    a = sim.allocate_qubit()
    b = sim.allocate_qubit()
    assert sim.group_members(a) == (a.id,)
    assert sim.group_members(b) == (b.id,)
    # joint state is the tensor product of the singletons
    joint = np.kron(sim.amplitudes(a), sim.amplitudes(b))
    assert states_equal(joint, np.array([1, 0, 0, 0], dtype=complex))


def test_x_then_h_gives_minus():
    sim = Simulator()
    q = sim.allocate_qubit()
    sim.apply_x(q)
    sim.apply_h(q)
    np.testing.assert_allclose(sim.amplitudes(q), np.array([SQ, -SQ]), atol=1e-12)


def test_h_is_involutory():
    sim = Simulator()
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        q = sim.allocate_qubit(v)
        before = sim.amplitudes(q)
        sim.apply_h(q)
        sim.apply_h(q)
        np.testing.assert_allclose(sim.amplitudes(q), before, atol=1e-9)
        sim.release(q)


def test_bell_circuit_matches_dense_oracle():
    # oracle: CNOT @ (H (x) I) |00>
    expected = CNOT_01 @ np.kron(H_MAT, I2) @ np.array([1, 0, 0, 0], dtype=complex)
    sim = Simulator()
    a = sim.allocate_qubit()
    b = sim.allocate_qubit()
    sim.apply_h(a)
    sim.apply_cnot(a, b)
    np.testing.assert_allclose(sim.amplitudes(a), expected, atol=1e-12)
    np.testing.assert_allclose(expected, BELL, atol=1e-12)


def test_minus_in_x_basis_is_deterministic():
    sim = Simulator()
    rng = make_rng(3)
    for _ in range(50):
        q = sim.allocate_qubit(NAMED_STATES["-"])
        assert sim.measure(q, Basis.X, rng) == 1
        sim.release(q)


def test_minus_in_z_basis_is_fair():
    sim = Simulator()
    rng = make_rng(4)
    ones = 0
    for _ in range(10_000):
        q = sim.allocate_qubit(NAMED_STATES["-"])
        ones += sim.measure(q, Basis.Z, rng)
        sim.release(q)
    assert abs(ones / 10_000 - 0.5) < 0.02


def test_bell_pair_z_correlation_and_marginals():
    sim = Simulator()
    rng = make_rng(5)
    ones = 0
    for _ in range(10_000):
        a, b = sim.make_bell_pair()
        ma = sim.measure(a, Basis.Z, rng)
        mb = sim.measure(b, Basis.Z, rng)
        assert ma == mb
        ones += ma
        sim.release(a)
        sim.release(b)
    assert abs(ones / 10_000 - 0.5) < 0.02


def test_bell_pair_x_correlation():
    sim = Simulator()
    rng = make_rng(6)
    for _ in range(500):
        a, b = sim.make_bell_pair()
        assert sim.measure(a, Basis.X, rng) == sim.measure(b, Basis.X, rng)
        sim.release(a)
        sim.release(b)


def test_bell_measure_on_fresh_pair_is_00():
    # oracle: (H (x) I) CNOT |Bell> = |00>, so both Z outcomes are 0
    post = np.kron(H_MAT, I2) @ CNOT_01 @ BELL
    probs = born_probs(post)
    assert probs[0] == pytest.approx(1.0)

    sim = Simulator()
    rng = make_rng(7)
    for _ in range(100):
        a, b = sim.make_bell_pair()
        assert sim.bell_measure(a, b, rng) == (0, 0)


def test_bell_measure_plus_against_bell_half_is_uniform():
    # oracle: enumerate the 8-amplitude state |+> (x) |Bell|, Bell-measure
    # qubits 0 and 1; all four (m0, m1) combinations carry weight 1/4.
    state = np.kron(NAMED_STATES["+"], BELL)
    cnot_q0q1 = np.kron(CNOT_01, I2)
    h_q0 = np.kron(H_MAT, np.eye(4, dtype=complex))
    post = h_q0 @ cnot_q0q1 @ state
    probs = born_probs(post).reshape(2, 2, 2).sum(axis=2)
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    sim = Simulator()
    rng = make_rng(8)
    counts = {}
    n = 10_000
    for _ in range(n):
        q = sim.allocate_qubit(NAMED_STATES["+"])
        a, b = sim.make_bell_pair()
        out = sim.bell_measure(q, a, rng)
        assert out[0] in (0, 1) and out[1] in (0, 1)
        counts[out] = counts.get(out, 0) + 1
        sim.release(b)
    for combo in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert abs(counts[combo] / n - 0.25) < 0.02


def test_teleport_minus_state():
    sim = Simulator()
    rng = make_rng(9)
    for _ in range(50):
        payload = sim.allocate_qubit(NAMED_STATES["-"])
        e1, e2 = sim.make_bell_pair()
        assert_bell_pair(sim, e1, e2)
        sim.teleport(payload, e1, e2, rng)
        assert sim.measure(e2, Basis.X, rng) == 1
        sim.release(e2)


def test_teleport_zero_state():
    sim = Simulator()
    rng = make_rng(10)
    payload = sim.allocate_qubit()
    e1, e2 = sim.make_bell_pair()
    assert_bell_pair(sim, e1, e2)
    sim.teleport(payload, e1, e2, rng)
    assert sim.measure(e2, Basis.Z, rng) == 0


def test_teleport_random_states_full_fidelity():
    sim = Simulator()
    rng = make_rng(11)
    state_rng = np.random.default_rng(12)
    for _ in range(100):
        v = state_rng.normal(size=2) + 1j * state_rng.normal(size=2)
        v /= np.linalg.norm(v)
        payload = sim.allocate_qubit(v)
        e1, e2 = sim.make_bell_pair()
        assert_bell_pair(sim, e1, e2)
        m_a, m_b = sim.teleport(payload, e1, e2, rng)
        assert states_equal(sim.amplitudes(e2), v, tol=1e-9)
        assert m_a in (0, 1) and m_b in (0, 1)
        assert not sim.is_live(payload) and not sim.is_live(e1)
        sim.release(e2)


def _swap_chain(sim, rng, hops):
    """Build an end-to-end pair from `hops` adjacent pairs via swaps: each
    swap teleports the chain's far half over the next pair."""
    left, right = sim.make_bell_pair()
    for _ in range(hops - 1):
        a, b = sim.make_bell_pair()
        sim.teleport(right, a, b, rng)
        right = b
    return left, right


# -- fused Bell measurement against the gate sequence ---------------------------


def reference_bell_measure(sim, a, b, rng):
    """The unfused Bell measurement: CNOT, H, two Z measurements, release."""
    sim.apply_cnot(a, b)
    sim.apply_h(a)
    m_a = sim.measure(a, Basis.Z, rng)
    m_b = sim.measure(b, Basis.Z, rng)
    sim.release(a)
    sim.release(b)
    return m_a, m_b


def load_groups(states):
    """A simulator holding one entanglement group per amplitude vector."""
    sim = Simulator()
    groups = []
    for amps in states:
        qubits = [sim.allocate_qubit() for _ in range(len(amps).bit_length() - 1)]
        for q in qubits[1:]:
            sim.apply_cnot(qubits[0], q)  # leaves |0..0> as is, joins the group
        sim._groups[qubits[0].id].amps[:] = amps  # test-only: arbitrary state
        groups.append(qubits)
    return sim, groups


def random_state(draw, n_qubits):
    part = st.floats(-1, 1, allow_nan=False, allow_subnormal=False)
    amps = [complex(draw(part), draw(part)) for _ in range(2**n_qubits)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in amps))
    assume(norm > 1e-3)
    return [x / norm for x in amps]


@st.composite
def bell_measure_cases(draw):
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):  # a and b in one group
        states = [random_state(draw, n)]
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        where = ((0, i), (0, j))
    else:
        k = draw(st.integers(1, n - 1))
        states = [random_state(draw, k), random_state(draw, n - k)]
        first = draw(st.integers(0, 1))  # which group holds a
        sizes = (k, n - k)
        where = (
            (first, draw(st.integers(0, sizes[first] - 1))),
            (1 - first, draw(st.integers(0, sizes[1 - first] - 1))),
        )
    return states, where, draw(st.integers(0, 2**64 - 1))


@given(bell_measure_cases())
@settings(max_examples=300, deadline=None)
def test_fused_bell_measure_matches_gate_sequence(case):
    states, ((ga, ia), (gb, ib)), seed = case
    ref_sim, ref_groups = load_groups(states)
    sim, groups = load_groups(states)
    ref_rng, rng = make_rng(seed), make_rng(seed)

    expected = reference_bell_measure(
        ref_sim, ref_groups[ga][ia], ref_groups[gb][ib], ref_rng
    )
    a, b = groups[ga][ia], groups[gb][ib]
    assert sim.bell_measure(a, b, rng) == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws
    assert not sim.is_live(a) and not sim.is_live(b)
    for q in (q for qubits in groups for q in qubits if q not in (a, b)):
        assert sim.group_members(q) == ref_sim.group_members(q)
        np.testing.assert_allclose(
            sim.amplitudes(q), ref_sim.amplitudes(q), rtol=0, atol=1e-12
        )


def test_swap_then_z_measurement_correlates():
    sim = Simulator()
    rng = make_rng(13)
    for _ in range(300):
        left, right = _swap_chain(sim, rng, hops=2)
        assert sim.measure(left, Basis.Z, rng) == sim.measure(right, Basis.Z, rng)
        sim.release(left)
        sim.release(right)


def test_swap_chain_equals_direct_pair_for_teleport():
    sim = Simulator()
    rng = make_rng(14)
    state_rng = np.random.default_rng(15)
    for _ in range(100):
        v = state_rng.normal(size=2) + 1j * state_rng.normal(size=2)
        v /= np.linalg.norm(v)
        left, right = _swap_chain(sim, rng, hops=2)
        payload = sim.allocate_qubit(v)
        assert_bell_pair(sim, left, right)
        sim.teleport(payload, left, right, rng)
        assert states_equal(sim.amplitudes(right), v, tol=1e-9)
        sim.release(right)


@pytest.mark.parametrize("hops", [2, 3, 4, 5])
def test_chained_swaps_keep_bell_correlation(hops):
    # up to 4 intermediate swaps still leaves a maximally entangled pair
    sim = Simulator()
    rng = make_rng(16)
    for _ in range(100):
        left, right = _swap_chain(sim, rng, hops=hops)
        assert_bell_pair(sim, left, right)
        np.testing.assert_allclose(
            np.abs(sim.amplitudes(left)), np.abs(BELL), atol=1e-9
        )
        assert sim.measure(left, Basis.Z, rng) == sim.measure(right, Basis.Z, rng)
        sim.release(left)
        sim.release(right)


# -- invariants ---------------------------------------------------------------


def test_unitarity_under_random_gate_sequences():
    sim = Simulator()
    rng = np.random.default_rng(17)
    qubits = [sim.allocate_qubit() for _ in range(4)]
    for _ in range(2000):
        op = rng.integers(0, 4)
        if op == 0:
            sim.apply_x(qubits[rng.integers(0, 4)])
        elif op == 1:
            sim.apply_z(qubits[rng.integers(0, 4)])
        elif op == 2:
            sim.apply_h(qubits[rng.integers(0, 4)])
        else:
            i, j = rng.choice(4, size=2, replace=False)
            sim.apply_cnot(qubits[i], qubits[j])
    norm = np.linalg.norm(sim.amplitudes(qubits[0]))
    assert abs(norm - 1.0) <= 1e-9


def test_repeat_measurement_is_stable():
    sim = Simulator()
    rng = make_rng(18)
    for basis in (Basis.Z, Basis.X):
        for _ in range(200):
            q = sim.allocate_qubit()
            sim.apply_h(q)
            first = sim.measure(q, basis, rng)
            assert sim.measure(q, basis, rng) == first
            sim.release(q)


def test_identical_seeds_replay_identical_outcomes():
    def script(seed):
        sim = Simulator()
        rng = make_rng(seed)
        outcomes = []
        for _ in range(200):
            a, b = sim.make_bell_pair()
            q = sim.allocate_qubit()
            sim.apply_h(q)
            outcomes.append(sim.measure(q, Basis.Z, rng))
            outcomes.extend(sim.bell_measure(a, b, rng))
            sim.release(q)
        return outcomes

    assert script(99) == script(99)
    assert script(99) != script(100)  # astronomically unlikely to collide


def test_cross_basis_measurement_disturbs():
    # Z eigenstate measured in X then re-measured in Z: original value
    # survives only half the time.
    sim = Simulator()
    rng = make_rng(19)
    kept = 0
    n = 10_000
    for _ in range(n):
        q = sim.allocate_qubit()  # |0>
        sim.measure(q, Basis.X, rng)
        kept += sim.measure(q, Basis.Z, rng) == 0
        sim.release(q)
    assert abs(kept / n - 0.5) < 0.02


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(1, 0) == derive_seed(1, 0)
    seen = {derive_seed(5, i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2**64 for s in seen)


# -- errors and edge cases -----------------------------------------------------


def test_dead_qubit_rejected():
    sim = Simulator()
    rng = make_rng(20)
    q = sim.allocate_qubit()
    sim.release(q)
    with pytest.raises(DeadQubitError):
        sim.apply_x(q)
    with pytest.raises(DeadQubitError):
        sim.measure(q, Basis.Z, rng)


def test_consumed_by_bell_measure_rejected():
    sim = Simulator()
    rng = make_rng(21)
    a, b = sim.make_bell_pair()
    sim.bell_measure(a, b, rng)
    with pytest.raises(DeadQubitError):
        sim.apply_h(a)
    c, d = sim.make_bell_pair()
    with pytest.raises(DeadQubitError):
        sim.bell_measure(a, c, rng)
    with pytest.raises(DeadQubitError):
        sim.bell_measure(c, b, rng)
    assert sim.is_live(c) and sim.is_live(d)


def test_registry_capacity():
    sim = Simulator(max_qubits=3)
    for _ in range(3):
        sim.allocate_qubit()
    with pytest.raises(CapacityError):
        sim.allocate_qubit()


def test_group_size_cap():
    sim = Simulator(max_qubits=64)
    qubits = [sim.allocate_qubit() for _ in range(17)]
    for q in qubits[1:16]:
        sim.apply_cnot(qubits[0], q)  # 16-qubit group: at the cap
    with pytest.raises(CapacityError):
        sim.apply_cnot(qubits[0], qubits[16])
    # a Bell measurement spanning the same 17 qubits is refused the same way
    rng = make_rng(24)
    with pytest.raises(CapacityError):
        sim.bell_measure(qubits[3], qubits[16], rng)
    assert sim.is_live(qubits[3]) and sim.is_live(qubits[16])


def test_cnot_needs_distinct_qubits():
    sim = Simulator()
    q = sim.allocate_qubit()
    with pytest.raises(ValueError):
        sim.apply_cnot(q, q)
    with pytest.raises(ValueError):
        sim.bell_measure(q, q, make_rng(25))


def test_teleport_rejects_unentangled_pair():
    # The check these tests run before every teleport refuses separate
    # qubits and a product state within one group alike.
    sim = Simulator()
    a = sim.allocate_qubit()
    b = sim.allocate_qubit()
    with pytest.raises(AssertionError):
        assert_bell_pair(sim, a, b)
    sim.apply_cnot(a, b)
    with pytest.raises(AssertionError):
        assert_bell_pair(sim, a, b)
    c, d = sim.make_bell_pair()
    assert_bell_pair(sim, d, c)


def test_release_rejects_entangled_qubit():
    sim = Simulator()
    a, b = sim.make_bell_pair()
    with pytest.raises(SimulationError):
        sim.release(a)


def test_allocate_rejects_bad_states():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.allocate_qubit([1, 0, 0])
    with pytest.raises(ValueError):
        sim.allocate_qubit([0, 0])
    with pytest.raises(ValueError):
        sim.allocate_qubit([float("nan"), 1])

