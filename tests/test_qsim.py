"""State-vector simulator tests: gate algebra, Born statistics, teleportation
and swap chains, checked against independent dense-matrix oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import assert_bell_pair, group_of
from qauthsim import qsim
from qauthsim.qsim import (
    Basis,
    DeadQubitError,
    Draws,
    NAMED_STATES,
    Simulator,
    SimulationError,
    derive_seed,
    make_rng,
    states_equal,
)
from qauthsim.protocol import PayloadDistribution, sample_payload

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
    assert group_of(sim, a) == (a,)
    assert group_of(sim, b) == (b,)
    # joint state is the tensor product of the singletons
    joint = np.kron(sim.amplitudes(a), sim.amplitudes(b))
    assert states_equal(joint, np.array([1, 0, 0, 0], dtype=complex))


def test_x_then_h_gives_minus():
    sim = Simulator()
    q = sim.prepare(1, Basis.Z)
    np.testing.assert_array_equal(sim.amplitudes(q), X_MAT @ [1, 0])
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
    sim.bell_measure(b, c, rng)
    assert group_of(sim, a) == (a, d)
    assert states_equal(sim.amplitudes(a), expected, tol=1e-12)
    # and the pair carries |1> from a to d, measured there on its own
    payload = sim.allocate_qubit(NAMED_STATES["1"])
    sim.bell_measure(payload, a, rng)
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
    bits = sim.bell_measure(sim.allocate_qubit(NAMED_STATES[label]), near, rng)
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
    # (I (x) X^m_b Z^m_a)|Bell> on the outer halves (a, d), which the
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
        correction = np.linalg.matrix_power(Z_MAT, m_a) @ np.linalg.matrix_power(X_MAT, m_b)
        assert group_of(sim, a) == (a, d)
        left_behind = np.kron(I2, pauli) @ BELL
        assert states_equal(sim.amplitudes(a), np.kron(I2, correction) @ left_behind, tol=1e-12)
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
        sim.bell_measure(payload, e1, rng)
        assert sim.measure(e2, Basis.X, rng) == 1
        sim.release(e2)


def test_teleport_zero_state():
    sim = Simulator()
    rng = make_rng(10)
    payload = sim.allocate_qubit()
    e1, e2 = sim.make_bell_pair()
    assert_bell_pair(sim, e1, e2)
    sim.bell_measure(payload, e1, rng)
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
        m_a, m_b = sim.bell_measure(payload, e1, rng)
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
        sim.bell_measure(right, a, rng)
        right = b
    return left, right


# -- fused Bell measurement against the gate sequence ---------------------------


def dense_bell_measure(state, ia, ib, rng):
    """CNOT(ia -> ib), H on ia, then Z measurements of ia and ib, on a dense
    state vector over qubits most-significant-first. Each outcome is drawn
    against one ``rng.random()``. Returns the outcomes (m_a, m_b) and the
    renormalised state of the other qubits with X^m_b, then Z^m_a, applied
    at the last of them: ib's partner, when ib is half of a pair."""
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
    pauli = np.linalg.matrix_power(Z_MAT, m_a) @ np.linalg.matrix_power(X_MAT, m_b)
    return (m_a, m_b), (rest.reshape(-1, 2) @ pauli.T).reshape(-1)


def load_group(sim, amps):
    """A lone qubit or a pair holding the given amplitudes."""
    qubits = [sim.allocate_qubit()] if len(amps) == 2 else list(sim.make_bell_pair())
    sim._groups[qubits[0]].amps = tuple(map(complex, amps))  # test-only: arbitrary state
    return qubits


def random_state(draw, n_qubits):
    part = st.floats(-1, 1, allow_nan=False, allow_subnormal=False)
    amps = [complex(draw(part), draw(part)) for _ in range(2**n_qubits)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in amps))
    assume(norm > 1e-3)
    return [x / norm for x in amps]


@st.composite
def bell_measure_cases(draw):
    # q a lone qubit or either half of a pair; near either half of its pair
    # (a reverse-direction hop has near second)
    kq = draw(st.integers(1, 2))
    states = (random_state(draw, kq), random_state(draw, 2))
    where = (draw(st.integers(0, kq - 1)), draw(st.integers(0, 1)))
    return states, where, draw(st.integers(0, 2**64 - 1))


def measure_case(case):
    """Run the kernel and the gate sequence on one ``bell_measure_cases``
    case. Returns the simulator, q's group, near, far, the kernel's and the
    gate sequence's outcomes, both RNG states and the corrected state."""
    (state_q, state_pair), (iq, inear), seed = case
    ref_rng, rng = make_rng(seed), make_rng(seed)
    kq = len(state_q).bit_length() - 1
    bits, expected = dense_bell_measure(np.kron(state_q, state_pair), iq, kq + inear, ref_rng)

    sim = Simulator()
    group_q, pair = load_group(sim, state_q), load_group(sim, state_pair)
    q, near, far = group_q[iq], pair[inear], pair[1 - inear]
    got = sim.bell_measure(q, near, rng)
    return sim, group_q, q, near, far, (got, bits), (rng, ref_rng), expected


@given(bell_measure_cases())
@settings(max_examples=300, deadline=None)
def test_fused_bell_measure_matches_gate_sequence(case):
    # The gate sequence's outcomes from the same draws, with q and near
    # gone and q's partner, then far, left in one group.
    sim, group_q, q, near, far, (got, bits), (rng, ref_rng), _ = measure_case(case)
    assert got == bits
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws
    assert group_of(sim, q) == group_of(sim, near) == ()
    survivors = tuple(x for x in group_q if x != q) + (far,)
    for x in survivors:
        assert group_of(sim, x) == survivors


@given(bell_measure_cases())
@settings(max_examples=200, deadline=None)
def test_teleport_matches_bell_measure_then_corrections(case):
    # The state left behind is the gate sequence's, with X^m_b, then Z^m_a,
    # applied at far.
    sim, _, _, _, far, (got, bits), _, expected = measure_case(case)
    assert got == bits
    np.testing.assert_allclose(sim.amplitudes(far), expected, rtol=0, atol=1e-12)


# -- the per-simulator Bell-measurement memo ---------------------------------

#: (group size, position in the group): a lone qubit or either half of a pair
SHAPES = ((1, 0), (2, 0), (2, 1))


@st.composite
def memo_cases(draw):
    # a lone and a pair state for q and a pair state for near's pair, reused
    # by every shape, so shapes that share q's amplitude pairs meet in one memo
    lone = random_state(draw, 1)
    pair = (random_state(draw, 2), random_state(draw, 2))
    return lone, pair, draw(st.integers(0, 2**64 - 1))


def miss_then_hit(sim, states, where, seed):
    """Load the two operand groups, at positions ``where``, and Bell-measure
    with an RNG from ``seed``; then the same on a second copy of the groups
    in the same simulator, which the memo must serve. Returns, per copy, the
    outcome, the RNG state and the amplitudes of the remaining qubits, each
    checked to form one group in order (q's partner, then far)."""
    runs = []
    for _ in range(2):
        rng = make_rng(seed)
        group_q, pair = load_group(sim, states[0]), load_group(sim, states[1])
        q, near = group_q[where[0]], pair[where[1]]
        size = len(sim._bell_cache)
        out = sim.bell_measure(q, near, rng)
        left = [x for x in group_q + pair if x not in (q, near)]
        for x in left:
            assert group_of(sim, x) == tuple(left)
        runs.append((out, rng.bit_generator.state, sim.amplitudes(left[0])))
    assert len(sim._bell_cache) == size  # the second copy was a memo hit
    return runs


@given(memo_cases())
@settings(max_examples=100, deadline=None)
def test_bell_memo_hit_equals_miss(case):
    # q of every shape and near either half of its pair, in one simulator,
    # each run on two copies of the same groups: the first fills the memo
    # (unless an earlier shape with the same amplitude pairs did), the second
    # reads it. The two must agree exactly, and match the dense gate sequence
    # and correction to 1e-12, on the given seed and on the first seed from
    # it whose correction bits are not (0, 0).
    lone, pair, seed = case
    sim = Simulator()
    for (kq, iq), inear in itertools.product(SHAPES, (0, 1)):
        states = (lone if kq == 1 else pair[0], pair[1])
        for s in range(seed, seed + 64):  # P(0, 0) <= 1/2 for any such input
            bits, expected = dense_bell_measure(np.kron(*states), iq, kq + inear, make_rng(s))
            if s == seed or bits != (0, 0):
                miss, hit = miss_then_hit(sim, states, (iq, inear), s)
                assert miss == hit and hit[0] == bits
                np.testing.assert_allclose(hit[2], expected, rtol=0, atol=1e-12)
            if bits != (0, 0):
                break


def test_bell_memo_is_bounded_and_per_simulator(monkeypatch):
    # With the bound at 4, ten distinct Haar inputs, each measured twice in
    # a row, overflow the memo; it is emptied and refilled, never holding
    # more than 4 entries, and every result equals a cold simulator's.
    monkeypatch.setattr(qsim, "BELL_CACHE_MAX", 4)
    assert Simulator()._bell_cache == {}
    sim = Simulator()
    state_rng = np.random.default_rng(26)
    sizes = []
    for i in range(20):
        if i % 2 == 0:
            v = state_rng.normal(size=2) + 1j * state_rng.normal(size=2)
        runs = []
        for s in (sim, Simulator()):
            rng = make_rng(i)
            q = s.allocate_qubit(v)
            a, b = s.make_bell_pair()
            runs.append((s.bell_measure(q, a, rng), rng.bit_generator.state, s.amplitudes(b)))
            s.release(b)
        assert runs[0] == runs[1]
        sizes.append(len(sim._bell_cache))
    assert max(sizes) == 4 and sizes[-1] < 4  # reached the bound, then emptied


def test_drifted_input_is_refused_before_any_draw():
    # A lone (0.6, 0.8i) and a Bell pair, both written at 0.9 and at 1.2
    # times their unit states. Bell-measuring the lone qubit against either
    # pair half is refused on every seed before any draw, whichever outcome
    # the draws would give: the RNG is untouched, both groups stay as
    # written (no correction reaches the pair) and the memo stays empty.
    sim = Simulator()
    for scale in (0.9, 1.2):
        lone = [0.6 * scale, 0.8j * scale]
        pair = [SQ * scale, 0, 0, SQ * scale]
        for seed, inear in itertools.product(range(400), (0, 1)):
            rng = make_rng(seed)
            state = rng.bit_generator.state
            (q,), halves = load_group(sim, lone), load_group(sim, pair)
            with pytest.raises(SimulationError, match="norm drifted"):
                sim.bell_measure(q, halves[inear], rng)
            assert rng.bit_generator.state == state
            assert [(group_of(sim, q), sim.amplitudes(q)),
                    (group_of(sim, halves[inear]), sim.amplitudes(halves[1 - inear]))] == [
                        ((q,), tuple(lone)), (tuple(halves), tuple(pair))]
            assert sim._bell_cache == {}


@pytest.mark.parametrize("seed", range(8))
def test_allocate_unit_stores_numpy_amplitudes_as_python_complex(seed):
    # numpy complex128 scalars are complex instances; stored as they come,
    # they made the Bell table numpy-valued and failed after one draw.
    outcomes = []
    for amps in (tuple(np.array([0.6, 0.8j])), (0.6 + 0j, 0.8j)):
        sim, rng = Simulator(), make_rng(seed)
        q = sim.allocate_unit(amps)
        assert all(type(z) is complex for z in sim.amplitudes(q))
        a, b = sim.make_bell_pair()
        bits = sim.bell_measure(q, a, rng)
        outcomes.append((bits, rng.bit_generator.state, sim.amplitudes(b)))
    assert outcomes[0] == outcomes[1]


def test_bell_measure_of_named_states_matches_gate_sequence():
    # A named q against a product-state pair of named halves gives Bell
    # outcomes of probability 0 (|+> against |+> never yields m_a = 1, |0>
    # against |0> never m_b = 1); the outcome table still covers every
    # outcome without failing, and the drawn ones match the gates.
    sim = Simulator()
    for labels in itertools.product(NAMED_STATES, repeat=3):
        vq, vnear, vfar = (NAMED_STATES[label] for label in labels)
        for seed, inear in itertools.product(range(4), (0, 1)):
            state = np.kron(vnear, vfar) if inear == 0 else np.kron(vfar, vnear)
            q, pair = sim.allocate_qubit(vq), load_group(sim, state)
            bits, expected = dense_bell_measure(np.kron(vq, state), 0, 1 + inear, make_rng(seed))
            assert sim.bell_measure(q, pair[inear], make_rng(seed)) == bits, (labels, seed)
            np.testing.assert_allclose(sim.amplitudes(pair[1 - inear]), expected, atol=1e-12)
            sim.release(pair[1 - inear])
    assert sim.live_count() == 0


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
        sim.bell_measure(payload, left, rng)
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
    # H on the lone qubit q, or q replaced by a prepared eigenstate,
    # interleaved with teleports of q over the pair (a, b) and swaps of b
    # onto a fresh pair
    sim = Simulator()
    rng = np.random.default_rng(17)
    world = make_rng(17)
    q = sim.allocate_qubit()
    a, b = sim.make_bell_pair()
    for _ in range(2000):
        op = rng.integers(0, 4)
        if op == 0:
            sim.apply_h(q)
        elif op == 1:
            sim.release(q)
            q = sim.prepare(int(rng.integers(0, 2)), (Basis.Z, Basis.X)[rng.integers(0, 2)])
        elif op == 2:
            sim.bell_measure(q, a, world)
            q, (a, b) = b, sim.make_bell_pair()
        else:
            c, d = sim.make_bell_pair()
            sim.bell_measure(b, c, world)
            b = d
    assert sim.live_count() == 3
    for x in (q, a):
        assert abs(np.linalg.norm(sim.amplitudes(x)) - 1.0) <= 1e-9


def assert_registry(sim):
    """Each live id maps to a group that lists it, every listed id maps back
    to that same group object, and each group holds one or two qubits and a
    tuple of amplitudes of norm 1."""
    groups = sim._groups  # test-only: the simulator's layout
    for qid, group in groups.items():
        assert qid in group.qubits
        assert len(group.qubits) in (1, 2) and len(set(group.qubits)) == len(group.qubits)
        for other in group.qubits:
            assert groups.get(other) is group, (qid, other)
        assert type(group.amps) is tuple and len(group.amps) == 2 ** len(group.qubits)
        norm = sum(x.real * x.real + x.imag * x.imag for x in group.amps)
        assert abs(norm - 1.0) <= qsim.NORM_TOL


OPS = ("allocate", "prepare", "pair", "bell", "measure", "h", "release")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_registry_invariants_under_random_operations(data):
    sim = Simulator()
    rng = make_rng(data.draw(st.integers(0, 2**64 - 1)))
    for op in data.draw(st.lists(st.sampled_from(OPS), max_size=40)):
        groups = sim._groups
        live = sorted(groups)
        lone = [q for q in live if len(groups[q].qubits) == 1]
        halves = [q for q in live if len(groups[q].qubits) == 2]
        if op == "allocate":
            sim.allocate_qubit(random_state(data.draw, 1))
        elif op == "prepare":
            sim.prepare(data.draw(st.integers(0, 1)), data.draw(st.sampled_from(Basis)))
        elif op == "pair":
            sim.make_bell_pair()
        elif op == "bell":
            if not halves:
                continue
            near = data.draw(st.sampled_from(halves))
            others = [x for x in live if groups[x] is not groups[near]]
            if not others:
                continue
            sim.bell_measure(data.draw(st.sampled_from(others)), near, rng)
        elif lone:
            q = data.draw(st.sampled_from(lone))
            if op == "measure":
                sim.measure(q, data.draw(st.sampled_from(Basis)), rng)
            elif op == "h":
                sim.apply_h(q)
            else:
                sim.release(q)
        assert_registry(sim)


def shared_teleports(sim, v):
    """Teleport ``v`` twice with one seed whose bits are not (0, 0).
    Returns the seed, the bits and the two far qubits."""
    for seed in range(64):  # P(0, 0) is 1/4 for a lone qubit against a pair
        fars = []
        for _ in range(2):
            q, (near, far) = sim.allocate_qubit(v), sim.make_bell_pair()
            bits = sim.bell_measure(q, near, make_rng(seed))
            fars.append(far)
        if bits != (0, 0):
            return seed, bits, fars
        for far in fars:
            sim.release(far)
    raise AssertionError("no seed with bits other than (0, 0)")


def test_teleports_share_the_corrected_survivor():
    # Two teleports of equal operands with one seed (bits not (0, 0)) hand
    # out one corrected tuple, in two groups: the dense gate sequence's
    # teleported state.
    v = (0.6 + 0j, 0.8j)
    sim = Simulator()
    seed, _, fars = shared_teleports(sim, v)
    shared = sim.amplitudes(fars[0])
    assert sim._groups[fars[0]] is not sim._groups[fars[1]]
    assert sim.amplitudes(fars[1]) is shared
    _, expected = dense_bell_measure(np.kron(v, BELL), 0, 1, make_rng(seed))
    np.testing.assert_allclose(shared, expected, rtol=0, atol=1e-12)
    assert_registry(sim)


def test_a_correction_leaves_a_shared_survivor_alone():
    # Measuring one holder of the shared corrected tuple in X replaces its
    # tuple, and a third teleport of equal operands with that seed, a memo
    # hit, hands out the same tuple again: the other holder keeps it
    # unchanged, and the memo is unchanged.
    v = (0.6 + 0j, 0.8j)
    sim = Simulator()
    seed, bits, fars = shared_teleports(sim, v)
    shared = sim.amplitudes(fars[0])
    before = tuple(complex(x) for x in shared)
    table = dict(sim._bell_cache)
    sim.measure(fars[1], Basis.X, make_rng(seed))
    assert sim.amplitudes(fars[1]) is not shared
    q, (near, far) = sim.allocate_qubit(v), sim.make_bell_pair()
    assert sim.bell_measure(q, near, make_rng(seed)) == bits
    assert sim.amplitudes(far) is shared and sim.amplitudes(fars[0]) is shared
    assert shared == before and sim._bell_cache == table
    assert_registry(sim)


@pytest.mark.parametrize("label", ["1", "+", "-", "haar", "pair"])
def test_corrected_survivor_is_the_explicit_correction(label):
    # The teleported state from a memo miss and from two hits is the same,
    # complex by complex in repr, so signed zeros count, and equals the
    # dense gate sequence with X^m_b Z^m_a applied, for all four outcomes.
    # A pair q leaves a two-qubit survivor, corrected at its last qubit.
    g = np.random.default_rng(27).normal(size=8)
    if label == "haar":
        state = tuple(complex(a, b) for a, b in zip(g[:2], g[2:4]))
        norm = math.sqrt(sum(abs(x) ** 2 for x in state))
        state = tuple(x / norm for x in state)
    elif label == "pair":
        state = tuple(complex(a, b) for a, b in zip(g[:4], g[4:]))
        norm = math.sqrt(sum(abs(x) ** 2 for x in state))
        state = tuple(x / norm for x in state)
    else:
        state = NAMED_STATES[label]
    k = len(state) // 2
    checked = set()
    for seed in range(32):
        bits, expected = dense_bell_measure(np.kron(state, BELL), k - 1, k, make_rng(seed))
        sim = Simulator()
        reprs = []
        for _ in range(3):  # a miss, then two hits
            q, (near, far) = load_group(sim, state), sim.make_bell_pair()
            assert sim.bell_measure(q[-1], near, make_rng(seed)) == bits
            reprs.append([repr(x) for x in sim.amplitudes(far)])
        assert reprs[0] == reprs[1] == reprs[2], (seed, bits)
        np.testing.assert_allclose(sim.amplitudes(far), expected, rtol=0, atol=1e-12)
        checked.add(bits)
    assert len(checked) == 4


def test_lone_or_same_group_near_is_refused_before_any_draw():
    # near a lone qubit, or the other half of q's own pair: refused before
    # any draw, with every qubit in its group and state and the memo
    # unchanged.
    sim = Simulator()
    v = (0.6 + 0j, 0.8j)
    q, (near, far) = sim.allocate_qubit(v), sim.make_bell_pair()
    sim.bell_measure(q, near, make_rng(28))  # a memo entry for these operands
    sim.release(far)
    memo = dict(sim._bell_cache)
    q, lone, (a, b) = sim.allocate_qubit(v), sim.allocate_qubit(v), sim.make_bell_pair()
    rng = make_rng(28)
    draws = rng.bit_generator.state
    before = [(group_of(sim, x), sim.amplitudes(x)) for x in (q, lone, a, b)]
    for x, near, match in ((q, lone, "not half of a pair"), (a, b, "share a group")):
        with pytest.raises(SimulationError, match=match):
            sim.bell_measure(x, near, rng)
    assert rng.bit_generator.state == draws
    assert [(group_of(sim, x), sim.amplitudes(x)) for x in (q, lone, a, b)] == before
    assert sim._bell_cache == memo


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
            outcomes.extend(sim.bell_measure(q, a, rng))
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


# -- the block-read random stream and the eigenstate table ---------------------

#: integers spans: one value (no draw), small powers of two, a span whose
#: Lemire draw is rejected a quarter of the time, and the full 32 bits
DRAW_SPANS = (1, 2, 4, 3 * 2**30, 2**32)

draw_calls = st.one_of(
    st.tuples(st.just("random"), st.integers(1, 300)),  # that many in a row
    st.tuples(st.just("integers"), st.sampled_from(DRAW_SPANS), st.integers(-3, 3)),
    st.tuples(st.just("normal"), st.integers(0, 5)),
)


def replay(stream, calls):
    """The values of ``calls`` drawn from ``stream``, in order."""
    out = []
    for call in calls:
        if call[0] == "random":
            out.extend(stream.random() for _ in range(call[1]))
        elif call[0] == "integers":
            _, span, low = call
            out.append(int(stream.integers(low, low + span)))
        else:
            out.extend(stream.normal(size=call[1]).tolist())
    return out


#: draws of every kind after a replay, which show that a stream ends where
#: the Generator's does: each full 32-bit draw returns a kept half whole, and
#: the second is kept across a normal call for the third
TAIL = [("integers", 2**32, 0), ("random", 1), ("normal", 2), ("integers", 2**32, 0),
        ("normal", 1), ("integers", 2**32, 0), ("integers", 3 * 2**30, 0), ("random", 1)]


@given(st.integers(0, 2**64 - 1), st.lists(draw_calls, max_size=40))
@settings(max_examples=200, deadline=None)
def test_draws_replay_the_generator_value_for_value(seed, calls):
    # Up to 40 calls of up to 300 draws each cross the 8-to-256-word block
    # boundaries.
    draws, gen = Draws(seed), make_rng(seed)
    assert replay(draws, calls + TAIL) == replay(gen, calls + TAIL)


def test_draws_keep_a_split_word_across_a_normal_call():
    # integers(0, 2) uses the low half of a word and keeps the high half,
    # which the next 32-bit draw takes, whether or not a normal call comes
    # between; the first block's 8 words are read before the normal call.
    calls = [("integers", 2, 0), ("random", 3), ("normal", 2), ("integers", 2, 0),
             ("integers", 2, 0), ("normal", 1), ("random", 40), ("integers", 4, 0)]
    for seed in range(50):
        draws, gen = Draws(seed), make_rng(seed)
        assert replay(draws, calls[:3]) == replay(gen, calls[:3])
        assert gen.bit_generator.state["has_uint32"] == 1
        assert replay(draws, calls[2:] + TAIL) == replay(gen, calls[2:] + TAIL)


def test_draws_normal_at_the_end_of_a_block():
    # Blocks after a normal call hold 8, then 16 words. Each normal call
    # below comes when every word read is used, so it moves nothing back:
    # with no half kept, at the end of the second block, with a half kept,
    # and with that half used.
    block = qsim.DRAWS_BLOCK_MIN
    steps = [
        [("random", block)],
        [("random", 3 * block)],
        [("integers", 2, 0), ("random", block - 1)],
        [("integers", 2, 0), ("random", block)],
    ]
    for seed in range(50):
        draws, gen = Draws(seed), make_rng(seed)
        for calls in steps:
            assert replay(draws, calls) == replay(gen, calls)
            assert draws._words == []  # the block is used up
            assert draws.normal(size=2).tolist() == gen.normal(size=2).tolist()
        assert replay(draws, TAIL) == replay(gen, TAIL)


def test_draws_refuse_a_range_above_32_bits():
    draws = Draws(1)
    for low, high in ((0, 2**32 + 1), (5, 5), (3, 1)):
        with pytest.raises(ValueError):
            draws.integers(low, high)
    assert replay(draws, TAIL) == replay(make_rng(1), TAIL)  # nothing drawn


def test_prepare_tables_equal_the_gate_sequence():
    sim = Simulator()
    for bit in (0, 1):
        for basis in Basis:
            v = np.linalg.matrix_power(X_MAT, bit) @ [1, 0]
            if basis is Basis.X:
                v = H_MAT @ v
            np.testing.assert_array_equal(sim.amplitudes(sim.prepare(bit, basis)), v)


def test_prepared_qubits_share_no_amplitudes():
    # Prepared, measured and named-payload qubits share their table's
    # amplitude tuple, which nothing writes into: measuring one in X, or
    # applying H to it, leaves the next one made alike unchanged.
    sim = Simulator()
    rng = make_rng(7)

    def measured(bit, basis):  # collapsed onto the state it was prepared in
        q = sim.prepare(bit, basis)
        sim.measure(q, basis, rng)
        return q

    def payload(label):
        return sample_payload(sim, PayloadDistribution("fixed", label), rng)[0]

    makers = [lambda b=b, x=x: sim.prepare(b, x) for b in (0, 1) for x in Basis]
    makers += [lambda b=b, x=x: measured(b, x) for b in (0, 1) for x in Basis]
    makers += [lambda label=label: payload(label) for label in NAMED_STATES]
    for make in makers:
        expected = sim.amplitudes(make())
        sim.measure(make(), Basis.X, rng)
        assert sim.amplitudes(make()) == expected
        sim.apply_h(make())
        assert sim.amplitudes(make()) == expected


# -- errors and edge cases -----------------------------------------------------


def test_dead_qubit_rejected():
    sim = Simulator()
    rng = make_rng(20)
    q = sim.allocate_qubit()
    sim.release(q)
    with pytest.raises(DeadQubitError):
        sim.apply_h(q)
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
    assert group_of(sim, c) == (c, d)


def test_pair_shape_checks_refuse_and_leave_state_alone():
    # Groups hold at most one pair: a Bell measurement within one group, a
    # single-qubit measurement of or gate on a pair half and a Bell
    # measurement against a lone near are refused, before any draw
    sim = Simulator()
    rng = make_rng(24)
    draws = rng.bit_generator.state
    a, b = sim.make_bell_pair()
    with pytest.raises(SimulationError):
        sim.bell_measure(a, b, rng)
    for q, basis in ((a, Basis.Z), (b, Basis.X)):
        with pytest.raises(SimulationError):
            sim.measure(q, basis, rng)
    for q in (a, b):
        with pytest.raises(SimulationError):
            sim.apply_h(q)
    # near must be half of a pair, whichever side q is on
    q, other = sim.allocate_qubit(), sim.allocate_qubit()
    for x, near in ((q, other), (other, q)):
        with pytest.raises(SimulationError):
            sim.bell_measure(x, near, rng)
    assert group_of(sim, q) == (q,) and group_of(sim, other) == (other,)
    assert group_of(sim, a) == group_of(sim, b) == (a, b)
    assert sim.amplitudes(a) == (SQ + 0j, 0j, 0j, SQ + 0j)
    assert rng.bit_generator.state == draws


def test_bell_measure_needs_distinct_qubits():
    sim = Simulator()
    q = sim.allocate_qubit()
    with pytest.raises(ValueError):
        sim.bell_measure(q, q, make_rng(25))
    assert group_of(sim, q) == (q,)


def test_teleport_rejects_unentangled_pair():
    # The check these tests run before every teleport refuses separate
    # qubits and a product state within one group alike.
    sim = Simulator()
    a = sim.allocate_qubit()
    b = sim.allocate_qubit()
    with pytest.raises(AssertionError):
        assert_bell_pair(sim, a, b)
    a, b = sim.make_bell_pair()
    sim._groups[a].amps = (1, 0, 0, 0)  # test-only: |00> in one group
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

