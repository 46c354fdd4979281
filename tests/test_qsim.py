"""State-vector simulator tests: gate algebra, Born statistics, teleportation
and swap chains, checked against independent dense-matrix oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import assert_bell_pair, group_of
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
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Z_MAT = np.diag([1, -1]).astype(complex)
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
    assert group_of(sim, a) == (a.id,)
    assert group_of(sim, b) == (b.id,)
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
    np.testing.assert_allclose(expected, BELL, atol=1e-12)
    sim = Simulator()
    rng = make_rng(2)
    a, b = sim.make_bell_pair()
    np.testing.assert_allclose(sim.amplitudes(a), expected, atol=1e-12)
    # a swap leaves the same state on (a, d), up to global phase
    c, d = sim.make_bell_pair()
    sim.teleport(b, c, d, rng)
    assert group_of(sim, a) == (a.id, d.id)
    assert states_equal(sim.amplitudes(a), expected, tol=1e-12)
    # and the pair carries |1> from a to d, measured there on its own
    payload = sim.allocate_qubit(NAMED_STATES["1"])
    sim.teleport(payload, a, d, rng)
    assert sim.measure(d, Basis.Z, rng) == 1


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


def carries(sim, rng, near, far, label, basis):
    """Teleport the named state over (near, far) and measure it at far, on
    its own, in ``basis``. Returns the outcome and the correction bits."""
    bits = sim.teleport(sim.allocate_qubit(NAMED_STATES[label]), near, far, rng)
    outcome = sim.measure(far, basis, rng)
    sim.release(far)
    return outcome, bits


def test_bell_pair_z_correlation_and_marginals():
    # A payload |v> arrives as |v> only if the halves' Z values agree; m_b
    # is v XOR the near half's Z value, which must be a fair coin.
    sim = Simulator()
    rng = make_rng(5)
    ones = 0
    for i in range(10_000):
        a, b = sim.make_bell_pair()
        v = i % 2
        outcome, (_, m_b) = carries(sim, rng, a, b, str(v), Basis.Z)
        assert outcome == v
        ones += m_b ^ v
    assert abs(ones / 10_000 - 0.5) < 0.02


def test_bell_pair_x_correlation():
    sim = Simulator()
    rng = make_rng(6)
    for i in range(500):
        a, b = sim.make_bell_pair()
        label, want = ("+", 0) if i % 2 else ("-", 1)
        assert carries(sim, rng, a, b, label, Basis.X)[0] == want


def test_swap_outcome_names_the_bell_state_left_behind():
    # oracle: Bell-measuring the inner halves b, c of two |Bell> pairs leaves
    # (I (x) X^m_b Z^m_a)|Bell> on the outer halves (a, d), which teleport's
    # correction Z^m_a X^m_b at d undoes; each outcome has weight 1/4
    rng = make_rng(7)
    counts = {}
    n = 4000
    for _ in range(n):
        sim = Simulator()
        a, b = sim.make_bell_pair()
        c, d = sim.make_bell_pair()
        m_a, m_b = sim.bell_measure(b, c, rng)
        pauli = np.linalg.matrix_power(X_MAT, m_b) @ np.linalg.matrix_power(Z_MAT, m_a)
        assert group_of(sim, a) == (a.id, d.id)
        assert states_equal(sim.amplitudes(a), np.kron(I2, pauli) @ BELL, tol=1e-12)
        counts[m_a, m_b] = counts.get((m_a, m_b), 0) + 1
    for combo in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert abs(counts[combo] / n - 0.25) < 0.03


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
        assert group_of(sim, payload) == group_of(sim, e1) == ()
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


def dense_bell_measure(state, ia, ib, rng):
    """CNOT(ia -> ib), H on ia, then Z measurements of ia and ib, on a dense
    state vector over qubits most-significant-first. Each outcome is drawn
    against one ``rng.random()``. Returns the outcomes and the renormalised
    state of the other qubits."""
    n = len(state).bit_length() - 1
    psi = np.array(state, dtype=complex).reshape((2,) * n)
    control = tuple(1 if k == ia else slice(None) for k in range(n))
    psi[control] = np.flip(psi[control], axis=ib - (ib > ia))
    psi = np.moveaxis(np.tensordot(H_MAT, psi, axes=([1], [ia])), 0, ia)
    outcomes = []
    for axis in (ia, ib):
        p1 = np.sum(np.abs(np.take(psi, 1, axis=axis)) ** 2)
        m = int(rng.random() < p1)
        psi[tuple(1 - m if k == axis else slice(None) for k in range(n))] = 0
        psi /= math.sqrt(p1 if m else 1.0 - p1)
        outcomes.append(m)
    m_a, m_b = outcomes
    rest = psi[tuple(m_a if k == ia else m_b if k == ib else slice(None) for k in range(n))]
    return (m_a, m_b), rest.reshape(-1)


def load_group(sim, amps):
    """A lone qubit or a pair holding the given amplitudes."""
    qubits = [sim.allocate_qubit()] if len(amps) == 2 else list(sim.make_bell_pair())
    sim._groups[qubits[0].id].amps[:] = amps  # test-only: arbitrary state
    return qubits


def random_state(draw, n_qubits):
    part = st.floats(-1, 1, allow_nan=False, allow_subnormal=False)
    amps = [complex(draw(part), draw(part)) for _ in range(2**n_qubits)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in amps))
    assume(norm > 1e-3)
    return [x / norm for x in amps]


@st.composite
def bell_measure_cases(draw):
    # a in a lone qubit or a pair, b in a separate lone qubit or pair, each
    # at any position of its group
    ka, kb = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    states = (random_state(draw, ka), random_state(draw, kb))
    where = (draw(st.integers(0, ka - 1)), draw(st.integers(0, kb - 1)))
    return states, where, draw(st.integers(0, 2**64 - 1))


@given(bell_measure_cases())
@settings(max_examples=300, deadline=None)
def test_fused_bell_measure_matches_gate_sequence(case):
    (state_a, state_b), (ia, ib), seed = case
    ref_rng, rng = make_rng(seed), make_rng(seed)
    ka = len(state_a).bit_length() - 1
    expected, rest = dense_bell_measure(np.kron(state_a, state_b), ia, ka + ib, ref_rng)

    sim = Simulator()
    group_a, group_b = load_group(sim, state_a), load_group(sim, state_b)
    a, b = group_a[ia], group_b[ib]
    assert sim.bell_measure(a, b, rng) == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws
    assert group_of(sim, a) == group_of(sim, b) == ()
    left = [q for q in group_a + group_b if q not in (a, b)]
    for q in left:
        assert group_of(sim, q) == tuple(x.id for x in left)
        np.testing.assert_allclose(sim.amplitudes(q), rest, rtol=0, atol=1e-12)


@st.composite
def teleport_cases(draw):
    # q a lone qubit or either half of a pair; near either half of its pair
    # (a reverse-direction hop has near second)
    kq = draw(st.integers(1, 2))
    states = (random_state(draw, kq), random_state(draw, 2))
    where = (draw(st.integers(0, kq - 1)), draw(st.integers(0, 1)))
    return states, where, draw(st.integers(0, 2**64 - 1))


@given(teleport_cases())
@settings(max_examples=200, deadline=None)
def test_teleport_matches_bell_measure_then_corrections(case):
    (state_q, state_pair), (iq, inear), seed = case
    ref_rng, rng = make_rng(seed), make_rng(seed)
    kq = len(state_q).bit_length() - 1
    bits, rest = dense_bell_measure(np.kron(state_q, state_pair), iq, kq + inear, ref_rng)
    m_a, m_b = bits
    # X^m_b, then Z^m_a, on far: the last of the remaining qubits
    pauli = np.linalg.matrix_power(Z_MAT, m_a) @ np.linalg.matrix_power(X_MAT, m_b)
    expected = (rest.reshape(-1, 2) @ pauli.T).reshape(-1)

    sim = Simulator()
    group_q, pair = load_group(sim, state_q), load_group(sim, state_pair)
    q, near, far = group_q[iq], pair[inear], pair[1 - inear]
    assert sim.teleport(q, near, far, rng) == bits
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws
    assert group_of(sim, q) == group_of(sim, near) == ()
    survivors = tuple(x.id for x in group_q if x != q) + (far.id,)
    assert group_of(sim, far) == survivors
    np.testing.assert_allclose(sim.amplitudes(far), expected, rtol=0, atol=1e-12)


def test_swap_then_z_measurement_correlates():
    sim = Simulator()
    rng = make_rng(13)
    for i in range(300):
        left, right = _swap_chain(sim, rng, hops=2)
        assert carries(sim, rng, left, right, str(i % 2), Basis.Z)[0] == i % 2


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
        assert carries(sim, rng, left, right, "1", Basis.Z)[0] == 1


# -- invariants ---------------------------------------------------------------


def test_unitarity_under_random_gate_sequences():
    # X and H on the lone qubit q, interleaved with teleports of q over the
    # pair (a, b) and swaps of b onto a fresh pair
    sim = Simulator()
    rng = np.random.default_rng(17)
    world = make_rng(17)
    q = sim.allocate_qubit()
    a, b = sim.make_bell_pair()
    gates = (sim.apply_x, sim.apply_h)
    for _ in range(2000):
        op = rng.integers(0, 4)
        if op < 2:
            gates[op](q)
        elif op == 2:
            sim.teleport(q, a, b, world)
            q, (a, b) = b, sim.make_bell_pair()
        else:
            c, d = sim.make_bell_pair()
            sim.teleport(b, c, d, world)
            b = d
    assert sim.live_count() == 3
    for x in (q, a):
        assert abs(np.linalg.norm(sim.amplitudes(x)) - 1.0) <= 1e-9


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
            outcomes.extend(sim.teleport(q, a, b, rng))
            outcomes.append(sim.measure(b, Basis.X, rng))
            sim.release(b)
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
    q = sim.allocate_qubit()
    a, b = sim.make_bell_pair()
    sim.bell_measure(q, a, rng)
    with pytest.raises(DeadQubitError):
        sim.apply_h(a)
    c, d = sim.make_bell_pair()
    with pytest.raises(DeadQubitError):
        sim.bell_measure(a, c, rng)
    with pytest.raises(DeadQubitError):
        sim.bell_measure(c, q, rng)
    assert group_of(sim, c) == (c.id, d.id)


def test_registry_capacity():
    sim = Simulator(max_qubits=3)
    for _ in range(3):
        sim.allocate_qubit()
    with pytest.raises(CapacityError):
        sim.allocate_qubit()


def test_pair_shape_checks_refuse_and_leave_state_alone():
    # Groups hold at most one pair: a Bell measurement within one group, a
    # single-qubit measurement of or gate on a pair half and a teleport over
    # two qubits that are not one pair are refused, before any draw
    sim = Simulator()
    rng = make_rng(24)
    draws = rng.bit_generator.state
    a, b = sim.make_bell_pair()
    with pytest.raises(SimulationError):
        sim.bell_measure(a, b, rng)
    for q, basis in ((a, Basis.Z), (b, Basis.X)):
        with pytest.raises(SimulationError):
            sim.measure(q, basis, rng)
    for gate, q in ((sim.apply_x, a), (sim.apply_h, b)):
        with pytest.raises(SimulationError):
            gate(q)
    # teleport's far must be near's partner, not some other qubit or near
    q, other = sim.allocate_qubit(), sim.allocate_qubit()
    for far in (other, a):
        with pytest.raises(SimulationError):
            sim.teleport(q, a, far, rng)
    assert group_of(sim, q) == (q.id,) and group_of(sim, other) == (other.id,)
    assert group_of(sim, a) == group_of(sim, b) == (a.id, b.id)
    assert sim.amplitudes(a) == (SQ + 0j, 0j, 0j, SQ + 0j)
    assert rng.bit_generator.state == draws


def test_bell_measure_needs_distinct_qubits():
    sim = Simulator()
    q = sim.allocate_qubit()
    with pytest.raises(ValueError):
        sim.bell_measure(q, q, make_rng(25))
    assert group_of(sim, q) == (q.id,)


def test_teleport_rejects_unentangled_pair():
    # The check these tests run before every teleport refuses separate
    # qubits and a product state within one group alike.
    sim = Simulator()
    a = sim.allocate_qubit()
    b = sim.allocate_qubit()
    with pytest.raises(AssertionError):
        assert_bell_pair(sim, a, b)
    a, b = sim.make_bell_pair()
    sim._groups[a.id].amps[:] = [1, 0, 0, 0]  # test-only: |00> in one group
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

