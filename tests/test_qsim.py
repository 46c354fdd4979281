"""State-vector simulator tests: gate algebra, Born statistics, teleportation
and swap chains, checked against independent dense-matrix oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_bell_pair,
    assert_registry,
    assert_teleports_intact,
    group_of,
    load_group,
    memo_by_value,
    registry,
    teleport,
)
from qauthsim import qsim
from qauthsim.qsim import (
    Basis,
    DeadQubitError,
    Draws,
    NAMED_STATES,
    PHI_PLUS,
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


# -- single-qubit cases ----------------------------------------------------------

#: an outcome that is 0 or 1 with probability 1/2, checked to 0.02 over the
#: row's repetitions; one equal to the outcome before it; one left unchecked
FAIR, SAME, ANY = "fair", "same", None
#: the eigenvectors of outcomes 0 and 1, by basis name
EIGEN = {"Z": (I2[0], I2[1]), "X": (H_MAT @ I2[0], H_MAT @ I2[1])}

#: Single-qubit cases, by the test that runs them: the prepared state (a
#: ``prepare`` bit and basis, or a NAMED_STATES label), the number of H gates,
#: the bases measured in turn, the expected outcome of each, and the
#: repetitions and seed.
SINGLE_QUBIT = {
    "fresh_qubit_measures_zero": [((0, Basis.Z), 0, "Z", (0,), 50, 0)],
    "h_zero_measures_plus": [((0, Basis.Z), 1, "X", (0,), 50, 1)],
    "x_then_h_gives_minus": [((1, Basis.Z), 1, "", (), 1, 0)],
    "minus_in_x_basis_is_deterministic": [("-", 0, "X", (1,), 50, 3)],
    "minus_in_z_basis_is_fair": [("-", 0, "Z", (FAIR,), 10_000, 4)],
    "repeat_measurement_is_stable": [((0, Basis.Z), 1, bases, (ANY, SAME), 200, 18)
                                     for bases in ("ZZ", "XX")],
    # a Z eigenstate measured in X keeps its value in Z only half the time
    "cross_basis_measurement_disturbs": [((0, Basis.Z), 0, "XZ", (ANY, FAIR), 10_000, 19)],
    "prepare_tables_equal_the_gate_sequence": [((bit, basis), 0, "", (), 1, 0)
                                               for bit in (0, 1) for basis in Basis],
}


def run_single_qubit(name):
    """Run the SINGLE_QUBIT rows of ``name`` against the dense oracle: the
    prepared amplitudes are exactly X^bit, then H for the X basis, on |0>
    (or the named state), each gate is H_MAT to 1e-12, and each expected
    outcome has the Born probability it claims in the state the outcomes
    before it left. Every repetition then gives those outcomes."""
    for prep, gates, bases, expected, n, seed in SINGLE_QUBIT[name]:
        if isinstance(prep, str):
            state = np.array(NAMED_STATES[prep])
        else:
            state = np.linalg.matrix_power(X_MAT, prep[0]) @ [1, 0]
            state = H_MAT @ state if prep[1] is Basis.X else state
        after = np.linalg.matrix_power(H_MAT, gates) @ state
        sim, rng = Simulator(), make_rng(seed)
        ones = [0] * len(bases)
        for rep in range(n):
            q = sim.allocate_unit(state) if isinstance(prep, str) else sim.prepare(*prep)
            if rep == 0:
                np.testing.assert_array_equal(sim.amplitudes(q), state)
            for _ in range(gates):
                sim.apply_h(q)
            if rep == 0:
                np.testing.assert_allclose(sim.amplitudes(q), after, atol=1e-12)
            outcomes = [sim.measure(q, Basis[b], rng) for b in bases]
            sim.release(q)
            v = after
            for i, (b, m, want) in enumerate(zip(bases, outcomes, expected)):
                p1 = abs(np.vdot(EIGEN[b][1], v)) ** 2  # the oracle's Born probability
                v = EIGEN[b][m]
                if want is FAIR:
                    assert abs(p1 - 0.5) < 1e-12
                    ones[i] += m
                elif want is SAME:
                    assert abs(p1 - outcomes[i - 1]) < 1e-12 and m == outcomes[i - 1]
                elif want is not ANY:
                    assert abs(p1 - want) < 1e-12 and m == want
        for i, want in enumerate(expected):
            if want is FAIR:
                assert abs(ones[i] / n - 0.5) < 0.02


def test_fresh_qubit_measures_zero():
    run_single_qubit("fresh_qubit_measures_zero")


def test_h_zero_measures_plus():
    run_single_qubit("h_zero_measures_plus")


def test_x_then_h_gives_minus():
    run_single_qubit("x_then_h_gives_minus")


def test_minus_in_x_basis_is_deterministic():
    run_single_qubit("minus_in_x_basis_is_deterministic")


def test_minus_in_z_basis_is_fair():
    run_single_qubit("minus_in_z_basis_is_fair")


def test_repeat_measurement_is_stable():
    run_single_qubit("repeat_measurement_is_stable")


def test_cross_basis_measurement_disturbs():
    run_single_qubit("cross_basis_measurement_disturbs")


def test_prepare_tables_equal_the_gate_sequence():
    run_single_qubit("prepare_tables_equal_the_gate_sequence")


def test_two_allocations_are_independent_groups():
    sim = Simulator()
    a = sim.prepare(0, Basis.Z)
    b = sim.prepare(0, Basis.Z)
    assert group_of(sim, a) == (a,)
    assert group_of(sim, b) == (b,)
    # joint state is the tensor product of the singletons
    joint = np.kron(sim.amplitudes(a), sim.amplitudes(b))
    assert states_equal(joint, np.array([1, 0, 0, 0], dtype=complex))


def test_h_is_involutory():
    sim = Simulator()
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        q = sim.allocate_unit(v / np.linalg.norm(v))
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
    payload = sim.allocate_unit(NAMED_STATES["1"])
    sim.bell_measure(payload, a, rng)
    assert sim.measure(d, Basis.Z, rng) == 1


def carries(sim, rng, label, basis, hops=1):
    """Teleport the named state over a chain of ``hops`` fresh pairs and
    measure it at the far end, on its own, in ``basis``. Returns the outcome
    and the correction bits."""
    far, bits = teleport(sim, rng, NAMED_STATES[label], hops)
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
        v = i % 2
        outcome, (_, m_b) = carries(sim, rng, str(v), Basis.Z)
        assert outcome == v
        ones += m_b ^ v
    assert abs(ones / 10_000 - 0.5) < 0.02


def test_bell_pair_x_correlation():
    sim = Simulator()
    rng = make_rng(6)
    for i in range(500):
        label, want = ("+", 0) if i % 2 else ("-", 1)
        assert carries(sim, rng, label, Basis.X)[0] == want


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
        q = sim.allocate_unit(NAMED_STATES["+"])
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
        assert carries(sim, rng, "-", Basis.X)[0] == 1


def test_teleport_zero_state():
    sim = Simulator()
    rng = make_rng(10)
    assert carries(sim, rng, "0", Basis.Z)[0] == 0


def test_teleport_random_states_full_fidelity():
    assert_teleports_intact(Simulator(), make_rng(11), np.random.default_rng(12), hops=1)


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
@settings(max_examples=300)
def test_fused_bell_measure_matches_gate_sequence(case):
    # The gate sequence's outcomes from the same draws, with q and near
    # gone and q's partner, then far, left in one group. The pure kernel
    # on the two groups' tuples gives the same bits, draws and survivor,
    # and fills its memo, read by value, as bell_measure fills its own.
    sim, group_q, q, near, far, (got, bits), (rng, ref_rng), _ = measure_case(case)
    assert got == bits
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws
    assert group_of(sim, q) == group_of(sim, near) == ()
    survivors = tuple(x for x in group_q if x != q) + (far,)
    for x in survivors:
        assert group_of(sim, x) == survivors
    (state_q, state_pair), (iq, inear), seed = case
    memo, step_rng = {}, make_rng(seed)
    o, survivor = qsim.bell_step(memo, tuple(map(complex, state_q)), iq == 0,
                                 tuple(map(complex, state_pair)), inear == 0, step_rng)
    assert (divmod(o, 2), survivor, memo_by_value(memo)) == (
        got, sim.amplitudes(far), memo_by_value(sim.bell_memo))
    assert step_rng.bit_generator.state == rng.bit_generator.state


@given(bell_measure_cases())
@settings(max_examples=200)
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
        size = len(sim.bell_memo)
        out = sim.bell_measure(q, near, rng)
        left = [x for x in group_q + pair if x not in (q, near)]
        for x in left:
            assert group_of(sim, x) == tuple(left)
        runs.append((out, rng.bit_generator.state, sim.amplitudes(left[0])))
    # the second copy was a memo hit (a lone q is one-shot: neither copy
    # enters the memo)
    assert len(sim.bell_memo) == size
    return runs


@given(memo_cases())
@settings(max_examples=100)
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


@st.composite
def one_shot_cases(draw):
    # a lone state other than the NAMED_STATES tuples, near's position, and
    # whether near's pair is fresh or left by a swap
    v = tuple(map(complex, random_state(draw, 1)))
    assume(v not in NAMED_STATES.values())
    return v, draw(st.integers(0, 1)), draw(st.booleans()), draw(st.integers(0, 2**63))


@given(one_shot_cases())
@settings(max_examples=100)
def test_one_shot_operand_matches_its_table_entry(case):
    # A lone operand that is not a NAMED_STATES tuple is measured without a
    # table. On seeds from the given one until all four outcomes are drawn,
    # it gives the bits, the draws and, repr for repr, the survivor of
    # _bell_table's corrected entry for the drawn outcome, and leaves the
    # memo (holding the swaps' tables) as it was.
    v, inear, swapped, seed = case
    sim = Simulator()
    drawn = set()
    for s in range(seed, seed + 64):  # each outcome has probability 1/4
        pair = sim.make_bell_pair()
        if swapped:
            c, d = sim.make_bell_pair()
            sim.bell_measure(pair[1], c, make_rng(s))
            pair = (pair[0], d)
        (q,), near, far = load_group(sim, v), pair[inear], pair[1 - inear]
        pa1, pb1s, corrected = qsim._bell_table(
            qsim._halves(v, True), qsim._halves(sim.amplitudes(near), inear == 0))
        ref, rng = make_rng(s), make_rng(s)
        m_a = ref.random() < pa1
        o = 2 * m_a + (ref.random() < pb1s[m_a])
        memo = dict(sim.bell_memo)
        assert sim.bell_measure(q, near, rng) == (m_a, o % 2)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert list(map(repr, sim.amplitudes(far))) == list(map(repr, corrected[o]))
        assert sim.bell_memo == memo
        sim.release(far)
        drawn.add(o)
        if len(drawn) == 4:
            break
    assert len(drawn) == 4


def test_bell_memo_is_bounded_and_per_simulator(monkeypatch):
    # With the bound at 4, ten distinct pair-half inputs, each measured twice
    # in a row, overflow the memo; it is emptied and refilled, never holding
    # more than 4 entries, and every result equals a cold simulator's.
    monkeypatch.setattr(qsim, "BELL_CACHE_MAX", 4)
    assert Simulator().bell_memo == {}
    sim = Simulator()
    state_rng = np.random.default_rng(26)
    sizes = []
    for i in range(20):
        if i % 2 == 0:
            v = state_rng.normal(size=4) + 1j * state_rng.normal(size=4)
            v /= np.linalg.norm(v)
        runs = []
        for s in (sim, Simulator()):
            rng = make_rng(i)
            (q, _), (a, b) = load_group(s, v), s.make_bell_pair()
            runs.append((s.bell_measure(q, a, rng), rng.bit_generator.state, s.amplitudes(b)))
        assert runs[0] == runs[1]
        sizes.append(len(sim.bell_memo))
    assert max(sizes) == 4 and sizes[-1] < 4  # reached the bound, then emptied


def unit_pair_state(state_rng):
    """A random two-qubit state as a tuple of four Python complex values."""
    v = state_rng.normal(size=4) + 1j * state_rng.normal(size=4)
    a, b, c, d = (v / np.linalg.norm(v)).tolist()
    return a, b, c, d


def test_a_memo_entry_keeps_its_operands_alive():
    # The memo keys an entry by its operands' ids, so the entry holds both
    # operands: after the caller drops them, the key's ids are still theirs,
    # and fresh tuples of other values, made where the dropped ones would
    # have been freed, each get a table of their own, as a cold memo does.
    state_rng = np.random.default_rng(31)
    memo = {}
    q, near = unit_pair_state(state_rng), unit_pair_state(state_rng)
    qsim.bell_step(memo, q, True, near, False, make_rng(0))
    (key, entry), = memo.items()
    assert entry[3][0] is q and entry[3][1] is near
    del near, q  # q's memory is the first reused
    assert (key[0], key[2]) == tuple(map(id, entry[3]))
    for seed in range(20):
        q, near = unit_pair_state(state_rng), unit_pair_state(state_rng)
        cold = qsim.bell_step({}, q, True, near, False, make_rng(seed))
        assert qsim.bell_step(memo, q, True, near, False, make_rng(seed)) == cold
        assert len(memo) == seed + 2 and memo[key] is entry


def test_an_equal_copy_gets_the_same_entry_and_survivor():
    # A copy of a memoised operand, equal in value but another object, is
    # served the entry of the first: no table is built, and each seed gives
    # the same outcome and the same survivor object. A copy of PHI_PLUS
    # meets the entry of PHI_PLUS itself, whose survivors are canonical:
    # a swap survivor equal to PHI_PLUS is PHI_PLUS.
    state_rng = np.random.default_rng(32)
    first = unit_pair_state(state_rng)
    canonical = []
    for q, near in ((first, PHI_PLUS), (PHI_PLUS, PHI_PLUS)):
        copies = (tuple(list(q)), tuple(list(near)))
        assert copies[0] is not q and copies[1] is not near
        memo = {}
        for seed in range(16):
            o, survivor = qsim.bell_step(memo, q, False, near, True, make_rng(seed))
            assert len(memo) == 1
            o2, survivor2 = qsim.bell_step(memo, copies[0], False, copies[1], True,
                                           make_rng(seed))
            assert (o2, len(memo)) == (o, 1) and survivor2 is survivor
            canonical.append(survivor == PHI_PLUS)
            assert (survivor is PHI_PLUS) == canonical[-1]
    assert any(canonical)


def test_memo_and_canonical_map_stay_bounded(monkeypatch):
    # With the bound at 4, forty distinct pair-half inputs through one memo,
    # each beside an input through a fresh memo that also adds its states to
    # the shared canonical map: the memo never holds more than 4 entries and
    # the map never more than 6 * (4 + 1) states, and both are emptied.
    monkeypatch.setattr(qsim, "BELL_CACHE_MAX", 4)
    state_rng = np.random.default_rng(33)
    memo, sizes, canon = {}, [], []
    for seed in range(40):
        for m in (memo, {}):
            qsim.bell_step(m, unit_pair_state(state_rng), True, PHI_PLUS, False, make_rng(seed))
            sizes.append(len(memo))
            canon.append(len(qsim._canon))
    assert max(sizes) == 4 and min(sizes[8:]) == 1
    assert max(canon) <= 30 and min(canon[8:]) <= 11


def test_drifted_input_is_refused_before_any_draw():
    # A lone (0.6, 0.8i), a pair half of (0.6, 0, 0, 0.8i) and a Bell pair,
    # each written at 0.9 and at 1.2 times its unit state. Bell-measuring
    # the lone qubit (one-shot) or the pair half (a table) against either
    # half of the Bell pair is refused on every seed before any draw,
    # whichever outcome the draws would give: the RNG is untouched, both
    # groups stay as written (no correction reaches the pair) and the memo,
    # holding one swap's table, is untouched.
    sim = Simulator()
    (a, b), (c, d) = sim.make_bell_pair(), sim.make_bell_pair()
    sim.bell_measure(b, c, make_rng(0))
    memo = dict(sim.bell_memo)
    assert len(memo) == 1
    for scale, kq in itertools.product((0.9, 1.2), (1, 2)):
        state_q = [0.6 * scale, 0.8j * scale] if kq == 1 else [0.6 * scale, 0, 0, 0.8j * scale]
        pair = [SQ * scale, 0, 0, SQ * scale]
        for seed, inear in itertools.product(range(400), (0, 1)):
            rng = make_rng(seed)
            state = rng.bit_generator.state
            group_q, halves = load_group(sim, state_q), load_group(sim, pair)
            q = group_q[0]
            with pytest.raises(SimulationError, match="norm drifted"):
                sim.bell_measure(q, halves[inear], rng)
            assert rng.bit_generator.state == state
            assert [(group_of(sim, q), sim.amplitudes(q)),
                    (group_of(sim, halves[inear]), sim.amplitudes(halves[1 - inear]))] == [
                        (tuple(group_q), tuple(state_q)), (tuple(halves), tuple(pair))]
            assert sim.bell_memo == memo


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
            q, pair = sim.allocate_unit(vq), load_group(sim, state)
            bits, expected = dense_bell_measure(np.kron(vq, state), 0, 1 + inear, make_rng(seed))
            assert sim.bell_measure(q, pair[inear], make_rng(seed)) == bits, (labels, seed)
            np.testing.assert_allclose(sim.amplitudes(pair[1 - inear]), expected, atol=1e-12)
            sim.release(pair[1 - inear])
    assert sim.live_count() == 0


def test_swap_then_z_measurement_correlates():
    sim = Simulator()
    rng = make_rng(13)
    for i in range(300):
        assert carries(sim, rng, str(i % 2), Basis.Z, hops=2)[0] == i % 2


def test_swap_chain_equals_direct_pair_for_teleport():
    assert_teleports_intact(Simulator(), make_rng(14), np.random.default_rng(15), hops=2)


@pytest.mark.parametrize("hops", [2, 3, 4, 5])
def test_chained_swaps_keep_bell_correlation(hops):
    # up to 4 intermediate swaps still leave a maximally entangled pair with
    # the magnitudes of |Bell> (teleport checks both)
    sim = Simulator()
    rng = make_rng(16)
    for _ in range(100):
        assert carries(sim, rng, "1", Basis.Z, hops)[0] == 1


# -- invariants ---------------------------------------------------------------


def test_unitarity_under_random_gate_sequences():
    # H on the lone qubit q, or q replaced by a prepared eigenstate,
    # interleaved with teleports of q over the pair (a, b) and swaps of b
    # onto a fresh pair
    sim = Simulator()
    rng = np.random.default_rng(17)
    world = make_rng(17)
    q = sim.prepare(0, Basis.Z)
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


OPS = ("allocate", "prepare", "pair", "bell", "measure", "h", "release")


@given(st.data())
@settings(max_examples=200)
def test_registry_invariants_under_random_operations(data):
    sim = Simulator()
    rng = make_rng(data.draw(st.integers(0, 2**64 - 1)))
    for op in data.draw(st.lists(st.sampled_from(OPS), max_size=40)):
        lone, halves = map(sorted, registry(sim))
        if op == "allocate":
            sim.allocate_unit(random_state(data.draw, 1))
        elif op == "prepare":
            sim.prepare(data.draw(st.integers(0, 1)), data.draw(st.sampled_from(Basis)))
        elif op == "pair":
            sim.make_bell_pair()
        elif op == "bell":
            if not halves:
                continue
            near = data.draw(st.sampled_from(halves))
            others = [x for x in lone + halves if x not in group_of(sim, near)]
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


def shared_teleports(sim):
    """Teleport a prepared |+>, whose table the memo keeps, twice with one
    seed whose bits are not (0, 0). Returns the seed, the bits and the two
    far qubits."""
    for seed in range(64):  # P(0, 0) is 1/4 for a lone qubit against a pair
        fars = []
        for _ in range(2):
            q, (near, far) = sim.prepare(0, Basis.X), sim.make_bell_pair()
            bits = sim.bell_measure(q, near, make_rng(seed))
            fars.append(far)
        if bits != (0, 0):
            return seed, bits, fars
        for far in fars:
            sim.release(far)
    raise AssertionError("no seed with bits other than (0, 0)")


def test_teleports_share_the_corrected_survivor():
    # Two teleports of equal memoised operands with one seed (bits not
    # (0, 0)) hand out one corrected tuple, to two lone qubits: the dense
    # gate sequence's teleported state.
    sim = Simulator()
    seed, _, fars = shared_teleports(sim)
    shared = sim.amplitudes(fars[0])
    assert [group_of(sim, far) for far in fars] == [(far,) for far in fars]
    assert sim.amplitudes(fars[1]) is shared
    _, expected = dense_bell_measure(np.kron(NAMED_STATES["+"], BELL), 0, 1, make_rng(seed))
    np.testing.assert_allclose(shared, expected, rtol=0, atol=1e-12)
    assert_registry(sim)


def test_a_correction_leaves_a_shared_survivor_alone():
    # Measuring one holder of the shared corrected tuple in Z replaces its
    # tuple, and a third teleport of equal operands with that seed, a memo
    # hit, hands out the same tuple again: the other holder keeps it
    # unchanged, and the memo is unchanged. (The survivor equals |+>, so it
    # is the canonical NAMED_STATES["+"], which an X measurement would
    # leave in place.)
    sim = Simulator()
    seed, bits, fars = shared_teleports(sim)
    shared = sim.amplitudes(fars[0])
    before = tuple(complex(x) for x in shared)
    table = dict(sim.bell_memo)
    sim.measure(fars[1], Basis.Z, make_rng(seed))
    assert sim.amplitudes(fars[1]) is not shared
    q, (near, far) = sim.prepare(0, Basis.X), sim.make_bell_pair()
    assert sim.bell_measure(q, near, make_rng(seed)) == bits
    assert sim.amplitudes(far) is shared and sim.amplitudes(fars[0]) is shared
    assert shared == before and sim.bell_memo == table
    assert_registry(sim)


@pytest.mark.parametrize("label", ["1", "+", "-", "haar", "pair"])
def test_corrected_survivor_is_the_explicit_correction(label):
    # The teleported state from a memo miss and from two hits is the same,
    # complex by complex in repr, so signed zeros count, and equals the
    # dense gate sequence with X^m_b Z^m_a applied, for all four outcomes.
    # A pair q leaves a two-qubit survivor, corrected at its last qubit.
    g = np.random.default_rng(27).normal(size=8)
    if label in ("haar", "pair"):  # 2 or 4 gaussian amplitudes, normalised
        n = 2 if label == "haar" else 4
        state = tuple(complex(a, b) for a, b in zip(g[:n], g[n:2 * n]))
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
    q, (near, far) = sim.allocate_unit(v), sim.make_bell_pair()
    sim.bell_measure(q, near, make_rng(28))  # a memo entry for these operands
    sim.release(far)
    memo = dict(sim.bell_memo)
    q, lone, (a, b) = sim.allocate_unit(v), sim.allocate_unit(v), sim.make_bell_pair()
    rng = make_rng(28)
    draws = rng.bit_generator.state
    before = [(group_of(sim, x), sim.amplitudes(x)) for x in (q, lone, a, b)]
    for x, near, match in ((q, lone, "not half of a pair"), (a, b, "share a group")):
        with pytest.raises(SimulationError, match=match):
            sim.bell_measure(x, near, rng)
    assert rng.bit_generator.state == draws
    assert [(group_of(sim, x), sim.amplitudes(x)) for x in (q, lone, a, b)] == before
    assert sim.bell_memo == memo


def test_identical_seeds_replay_identical_outcomes():
    def script(seed):
        sim = Simulator()
        rng = make_rng(seed)
        outcomes = []
        for _ in range(200):
            a, b = sim.make_bell_pair()
            q = sim.prepare(0, Basis.Z)
            sim.apply_h(q)
            outcomes.append(sim.measure(q, Basis.Z, rng))
            outcomes.extend(sim.bell_measure(q, a, rng))
            outcomes.append(sim.measure(b, Basis.X, rng))
            sim.release(b)
        return outcomes

    assert script(99) == script(99)
    assert script(99) != script(100)  # astronomically unlikely to collide


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
@settings(max_examples=200)
def test_draws_replay_the_generator_value_for_value(seed, calls):
    # Up to 40 calls of up to 300 draws each cross the 8-to-256-word block
    # boundaries.
    draws, gen = Draws(seed), make_rng(seed)
    assert replay(draws, calls + TAIL) == replay(gen, calls + TAIL)


#: checks after a segment of a call mix: the Generator keeps the high half
#: of a 32-bit word; every word the stream read is used; each call is refused
KEEPS_HALF, USED_UP, REFUSED = "keeps half", "used up", "refused"
BLOCK = qsim.DRAWS_BLOCK_MIN

#: Draws call mixes, by the test that runs them: segments of calls, each
#: replayed from a Draws and a Generator of one seed, then checked.
DRAW_MIXES = {
    # integers(0, 2) uses the low half of a word and keeps the high half,
    # which the next 32-bit draw takes, whether or not a normal call comes
    # between; the first block's 8 words are read before the normal call.
    "keep_a_split_word_across_a_normal_call": [
        ([("integers", 2, 0), ("random", 3), ("normal", 2)], KEEPS_HALF),
        ([("normal", 2), ("integers", 2, 0), ("integers", 2, 0), ("normal", 1),
          ("random", 40), ("integers", 4, 0), *TAIL], None),
    ],
    # Blocks after a normal call hold 8, then 16 words. Each normal call
    # below comes when every word read is used, so it moves nothing back:
    # with no half kept, at the end of the second block, with a half kept,
    # and with that half used.
    "normal_at_the_end_of_a_block": [
        segment
        for calls in ([("random", BLOCK)], [("random", 3 * BLOCK)],
                      [("integers", 2, 0), ("random", BLOCK - 1)],
                      [("integers", 2, 0), ("random", BLOCK)])
        for segment in ((calls, USED_UP), ([("normal", 2)], None))
    ] + [(TAIL, None)],
    # a span above 32 bits or an empty range draws nothing
    "refuse_a_range_above_32_bits": [
        ([("integers", 2**32 + 1, 0), ("integers", 0, 5), ("integers", -2, 3)], REFUSED),
        (TAIL, None),
    ],
}


def run_draw_mix(name):
    """Run the DRAW_MIXES mix ``name`` on seeds 0 to 49."""
    for seed in range(50):
        draws, gen = Draws(seed), make_rng(seed)
        for calls, check in DRAW_MIXES[name]:
            if check is REFUSED:
                for call in calls:
                    with pytest.raises(ValueError, match="integers needs"):
                        replay(draws, [call])
                continue
            assert replay(draws, calls) == replay(gen, calls)
            if check is KEEPS_HALF:
                assert gen.bit_generator.state["has_uint32"] == 1
            elif check is USED_UP:
                assert draws._words == []  # test-only: the unread block


def test_draws_keep_a_split_word_across_a_normal_call():
    run_draw_mix("keep_a_split_word_across_a_normal_call")


def test_draws_normal_at_the_end_of_a_block():
    run_draw_mix("normal_at_the_end_of_a_block")


def test_draws_refuse_a_range_above_32_bits():
    run_draw_mix("refuse_a_range_above_32_bits")


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


def released(sim):
    q = sim.prepare(0, Basis.Z)
    sim.release(q)
    return {"q": q}


def consumed(sim):
    """q and a, spent by a teleport of q over (a, b), and a fresh pair c, d."""
    q, (a, b) = sim.prepare(0, Basis.Z), sim.make_bell_pair()
    sim.bell_measure(q, a, make_rng(21))
    c, d = sim.make_bell_pair()
    return {"q": q, "a": a, "c": c}


def shapes(sim):
    """A Bell pair a, b and two lone qubits q and other."""
    (a, b), q, other = sim.make_bell_pair(), sim.prepare(0, Basis.Z), sim.prepare(0, Basis.Z)
    return {"a": a, "b": b, "q": q, "other": other}


def vouched(amps):
    """A lone q stored with ``amps`` as its caller vouched for them, and a
    Bell pair a, b."""
    def setup(sim):
        q, (a, b) = sim.allocate_unit(amps), sim.make_bell_pair()
        return {"q": q, "a": a, "b": b}
    return setup


#: Refused simulator calls, by the test that runs them: a setup that names
#: qubits (and values) in a fresh simulator, the call as a method name and
#: argument names, and the error it raises with the start of its message.
REGISTRY_REFUSALS = {
    "dead_qubit_rejected": [(released, call, DeadQubitError, "qubit 0 is not live")
                            for call in ("apply_h q", "measure q Z rng", "hop q PHI fwd rng")],
    "consumed_by_bell_measure_rejected": [
        (consumed, call, DeadQubitError, "qubit . is not live")
        for call in ("apply_h a", "bell_measure a c rng", "bell_measure c q rng")],
    # Groups hold at most one pair: a Bell measurement within one group, a
    # single-qubit measurement of, gate on or hop of a pair half and a Bell
    # measurement against a lone near, whichever side q is on, are refused.
    "pair_shape_checks_refuse_and_leave_state_alone": [
        (shapes, "bell_measure a b rng", SimulationError, "qubits 0 and 1 share a group"),
        *[(shapes, call, SimulationError, "qubit . is still entangled")
          for call in ("measure a Z rng", "measure b X rng", "apply_h a", "apply_h b",
                       "hop b PHI fwd rng")],
        (shapes, "bell_measure q other rng", SimulationError, "qubit 3 is not half of a pair"),
        (shapes, "bell_measure other q rng", SimulationError, "qubit 2 is not half of a pair"),
    ],
    "bell_measure_needs_distinct_qubits": [
        (shapes, "bell_measure q q rng", ValueError, "Bell measurement needs two distinct")],
    "release_rejects_entangled_qubit": [
        (shapes, "release a", SimulationError, "qubit 0 is still entangled")],
    # allocate_unit refuses any count of amplitudes but two. It stores a zero
    # or NaN state as its caller vouched for it, and the next Bell
    # measurement or hop refuses that qubit before any draw.
    "allocate_unit_takes_two_amplitudes_and_bell_refuses_bad_norms": [
        (lambda sim: {"three": [1, 0, 0], "one": [1]}, call, ValueError, "")
        for call in ("allocate_unit three", "allocate_unit one")
    ] + [(vouched(amps), call, SimulationError, "state norm drifted")
         for amps in ([0, 0], [float("nan"), 1])
         for call in ("bell_measure q a rng", "hop q PHI fwd rng")],
}


def run_registry_refusals(name):
    """Run the REGISTRY_REFUSALS rows of ``name``: each call raises its
    error, and every lone qubit and pair (``registry``), live_count() and
    the RNG are as they were."""
    for setup, call, error, message in REGISTRY_REFUSALS[name]:
        sim, rng = Simulator(), make_rng(20)
        values = {**setup(sim), "rng": rng, "Z": Basis.Z, "X": Basis.X,
                  "PHI": qsim.PHI_PLUS, "fwd": True}
        method, *args = call.split()
        before = registry(sim), sim.live_count(), rng.bit_generator.state
        with pytest.raises(error, match="^" + message):
            getattr(sim, method)(*(values[a] for a in args))
        assert (registry(sim), sim.live_count(), rng.bit_generator.state) == before, call


@pytest.mark.parametrize("forward", [True, False])
def test_hop_is_bell_step_in_place(forward):
    # Simulator.hop is bell_step on a lone qubit's entry over a pair tuple,
    # with the simulator's memo: the same outcome, draws and survivor, kept
    # under the qubit's own id, and the same memo read by value, for named
    # (memoised) and one-shot operands.
    pair = (0.6 + 0j, 0j, 0.48j, 0.64 + 0j)
    lone = [*NAMED_STATES.values(), (0.6 + 0j, 0.8j)]
    for seed, amps in itertools.product(range(8), lone):
        sim, memo = Simulator(), {}
        q = sim.allocate_unit(amps)
        rng, step_rng = make_rng(seed), make_rng(seed)
        o = sim.hop(q, pair, forward, rng)
        assert (o, sim.amplitudes(q)) == qsim.bell_step(memo, amps, True, pair, forward, step_rng)
        assert (sim.live_count(), memo_by_value(sim.bell_memo)) == (1, memo_by_value(memo))
        assert rng.bit_generator.state == step_rng.bit_generator.state


def test_dead_qubit_rejected():
    run_registry_refusals("dead_qubit_rejected")


def test_consumed_by_bell_measure_rejected():
    run_registry_refusals("consumed_by_bell_measure_rejected")


def test_pair_shape_checks_refuse_and_leave_state_alone():
    run_registry_refusals("pair_shape_checks_refuse_and_leave_state_alone")


def test_bell_measure_needs_distinct_qubits():
    run_registry_refusals("bell_measure_needs_distinct_qubits")


def test_release_rejects_entangled_qubit():
    run_registry_refusals("release_rejects_entangled_qubit")


def test_allocate_unit_takes_two_amplitudes_and_bell_refuses_bad_norms():
    run_registry_refusals("allocate_unit_takes_two_amplitudes_and_bell_refuses_bad_norms")


def test_teleport_rejects_unentangled_pair():
    # The check these tests run before every teleport refuses separate
    # qubits and a product state within one group alike.
    sim = Simulator()
    a = sim.prepare(0, Basis.Z)
    b = sim.prepare(0, Basis.Z)
    with pytest.raises(AssertionError):
        assert_bell_pair(sim, a, b)
    a, b = load_group(sim, (1, 0, 0, 0))  # |00> in one group
    with pytest.raises(AssertionError):
        assert_bell_pair(sim, a, b)
    c, d = sim.make_bell_pair()
    assert_bell_pair(sim, d, c)
