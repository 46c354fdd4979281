"""Repeater behavior tests: interception mechanics, detection statistics,
blindness, and the entanglement layout each behavior leaves behind."""

import json

import numpy as np
import pytest

import qauthsim as qa
from qauthsim import adversary
from qauthsim.adversary import (
    Honest,
    InterceptResend,
    RepeaterState,
    handle_arrival,
    parse_behavior,
)
from qauthsim.netsim import EntanglementFabric
from helpers import assert_maximally_entangled, decoded, run_cli, session_config
from qauthsim.experiments import trial_seed
from qauthsim.qsim import (
    Basis,
    Draws,
    NAMED_STATES,
    Simulator,
    derive_seed,
    make_rng,
    states_equal,
)

CHAIN = qa.Topology.chain(1)


def eve_state(policy="always_z", seed=0):
    return RepeaterState(InterceptResend(policy), "r1", seed, log=[])


def per_round_intercept_failure() -> float:
    # Enumerate the decision tree: uniform basis bit b, uniform interceptor
    # basis e, then the two collapses. Matching basis passes undisturbed;
    # a crossed basis leaves a uniform outcome at the verifier.
    total = 0.0
    for b in (0, 1):
        for e in (0, 1):
            total += 0.25 * (0.0 if e == b else 0.5)
    return total


def test_enumerated_per_round_failure_is_quarter():
    assert per_round_intercept_failure() == 0.25


def test_matching_basis_forwarding_is_transparent():
    sim = Simulator()
    state = eve_state("always_z")
    rng = make_rng(1)
    for _ in range(20):
        q = sim.prepare(0, Basis.Z)  # |0>
        out = handle_arrival(state, sim, q, "forward", rng)
        assert states_equal(sim.amplitudes(out), NAMED_STATES["0"])
        sim.release(out)


def test_resend_is_the_measured_qubit_in_its_eigenstate():
    # The repeater forwards the qubit it measured, collapsed onto the table
    # entry of the logged basis and outcome; it makes and frees no qubit.
    sim = Simulator()
    state = eve_state("random_zx", seed=3)
    rng = make_rng(4)
    labels = {("Z", 0): "0", ("Z", 1): "1", ("X", 0): "+", ("X", 1): "-"}
    for i in range(40):
        q = sim.allocate_unit(NAMED_STATES["+-01"[i % 4]])
        live = sim.live_count()
        assert handle_arrival(state, sim, q, "forward", rng) == q
        assert sim.live_count() == live
        entry = json.loads(state.log[-1])
        assert sim.amplitudes(q) == NAMED_STATES[labels[entry["basis"], entry["outcome"]]]
        sim.release(q)
    assert {(e["basis"], e["outcome"]) for e in decoded(state.log)} == set(labels)


def test_z_interceptor_smashes_minus_state():
    sim = Simulator()
    state = eve_state("always_z", seed=5)
    rng = make_rng(2)
    fails = 0
    n = 10_000
    for _ in range(n):
        q = sim.allocate_unit(NAMED_STATES["-"])
        out = handle_arrival(state, sim, q, "reverse", rng)
        # forwarded state is a Z eigenstate, never |->
        assert states_equal(sim.amplitudes(out), NAMED_STATES["0"]) or states_equal(
            sim.amplitudes(out), NAMED_STATES["1"]
        )
        fails += sim.measure(out, Basis.X, rng) != 1
        sim.release(out)
    outcomes = [e["outcome"] for e in decoded(state.log)]
    assert abs(sum(outcomes) / n - 0.5) < 0.02  # collapse is equiprobable
    assert abs(fails / n - 0.5) < 0.02  # verifier misses half the time


def test_intercept_log_contents_and_export(tmp_path):
    sim = Simulator()
    state = eve_state("random_zx", seed=9)
    rng = make_rng(3)
    for i in range(6):
        q = sim.allocate_unit(NAMED_STATES["+"])
        out = handle_arrival(state, sim, q, "forward" if i % 2 else "reverse", rng)
        sim.release(out)
    assert [e["seq"] for e in decoded(state.log)] == list(range(6))

    # The CLI exports each trial's log as JSON lines tagged with the trial.
    path = tmp_path / "intercepts.jsonl"
    argv = ["custom", "-T", "1", "--trials", "2", "--data-qubits", "6",
            "--key-length", "64", "--seed", "9", "--format", "csv",
            "--intercept-log", str(path)]
    assert run_cli(argv)[0] == 0
    expected = []
    for i in range(2):
        log = []
        qa.run_trial(CHAIN, InterceptResend("random_zx"), session_config(1, 6),
                     trial_seed(9, 1, i), intercept_log=log)
        assert [e["seq"] for e in decoded(log)] == list(range(len(log)))
        expected += [{"transfer_length": 1, "trial_index": i, **e} for e in decoded(log)]
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == expected and lines
    assert set(lines[0]) == {
        "transfer_length", "trial_index", "seq", "direction", "basis", "outcome"
    }
    assert {line["basis"] for line in lines} <= {"Z", "X"}


def recorded_repeaters(monkeypatch):
    """The RepeaterState of every trial run after this call, in order."""
    repeaters = []

    class Recorded(RepeaterState):
        def __init__(self, *args):
            super().__init__(*args)
            repeaters.append(self)

    monkeypatch.setattr(adversary, "RepeaterState", Recorded)
    return repeaters


def test_mitm_trial_without_a_log_builds_no_record(monkeypatch):
    repeaters = recorded_repeaters(monkeypatch)
    behavior, cfg = InterceptResend("random_zx"), session_config(1, 20)
    log = []
    logged = qa.run_trial(CHAIN, behavior, cfg, seed=21, intercept_log=log)
    unlogged = qa.run_trial(CHAIN, behavior, cfg, seed=21)
    assert unlogged == logged
    assert log and repeaters[0].log == log
    assert repeaters[1].log is None


def test_only_an_interceptor_holds_a_random_stream(monkeypatch):
    # An honest repeater never draws a basis, so it holds no stream. An
    # interceptor's stream is still the Draws of the repeater seed, apart
    # from the world stream: its logged bases replay that seed's draws.
    repeaters = recorded_repeaters(monkeypatch)
    cfg = session_config(1, 20)
    qa.run_trial(CHAIN, Honest(), cfg, seed=21)
    log = []
    qa.run_trial(CHAIN, InterceptResend("random_zx"), cfg, seed=21, intercept_log=log)
    honest, mitm = repeaters
    assert honest.rng is None
    assert isinstance(mitm.rng, Draws)
    eve = make_rng(derive_seed(21, 1))
    assert log and [e["basis"] for e in decoded(log)] == [
        "X" if eve.integers(0, 2) else "Z" for _ in log
    ]


@pytest.mark.parametrize("policy, basis", [("always_z", Basis.Z), ("always_x", Basis.X)])
def test_a_fixed_policy_holds_no_stream_and_draws_nothing(policy, basis):
    # A fixed policy is resolved when the state is built: it holds no
    # stream, and every intercept, whatever arrives, logs that one basis.
    state = eve_state(policy, seed=4)
    assert state.rng is None
    sim = Simulator()
    rng = make_rng(6)
    for label in "01+-" * 5:
        sim.release(handle_arrival(state, sim, sim.allocate_unit(NAMED_STATES[label]),
                                   "forward", rng))
    assert [e["basis"] for e in decoded(state.log)] == [basis.value] * 20


def test_parse_behavior_labels():
    assert parse_behavior("honest") == Honest()
    assert parse_behavior("intercept_random") == InterceptResend("random_zx")
    assert parse_behavior("intercept_z") == InterceptResend("always_z")
    assert parse_behavior("intercept_x") == InterceptResend("always_x")
    with pytest.raises(ValueError):
        parse_behavior("replay")
    with pytest.raises(ValueError):  # one spelling per behavior
        parse_behavior("intercept_always_z")
    with pytest.raises(ValueError):
        InterceptResend("diagonal")


def test_intercept_needs_a_node():
    with pytest.raises(ValueError):
        RepeaterState(InterceptResend("random_zx"), None, 1)


# -- entanglement layout after session setup ------------------------------------


def provision(topology, behavior, node=None, seed=0):
    sim = Simulator()
    repeater = RepeaterState(behavior, node, seed)
    fabric = EntanglementFabric(sim, topology, repeater, make_rng(seed))
    return sim, fabric.provision()


def test_honest_single_repeater_leaves_end_to_end_pair():
    # Segments are amplitude tuples, the left node's half first; provisioning
    # registers no qubit.
    sim, segments = provision(CHAIN, Honest())
    [(left, amps, right)] = segments
    assert (left, right) == ("alice", "bob")
    assert_maximally_entangled(amps)
    assert states_equal(amps, [2**-0.5, 0, 0, 2**-0.5], tol=1e-9)
    assert sim.live_count() == 0


def test_honest_three_repeaters_leave_end_to_end_pair():
    topo = qa.Topology.chain(3)
    sim, segments = provision(topo, Honest())
    [(_, amps, _)] = segments
    assert_maximally_entangled(amps)
    assert sim.live_count() == 0


def test_interceptor_splits_the_channel():
    # interceptor at the middle of three repeaters: no end-to-end pair, the
    # initiator's half is entangled with the interceptor's
    topo = qa.Topology.chain(3)
    sim, segments = provision(topo, InterceptResend("random_zx"), node="r2")
    assert [(left, right) for left, _, right in segments] == [
        ("alice", "r2"),
        ("r2", "bob"),
    ]
    (alice, alice_amps, eve_left), (_, eve_right_amps, _) = segments
    assert_maximally_entangled(alice_amps)
    assert_maximally_entangled(eve_right_amps)
    assert (alice, eve_left) == ("alice", "r2")
    # alice's and bob's halves share nothing: their reduced state is I/4
    psi = np.kron(alice_amps, eve_right_amps).reshape(2, 2, 2, 2)
    rho = np.einsum("aijb,cijd->abcd", psi, psi.conj()).reshape(4, 4)
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)
    assert sim.live_count() == 0


# -- detection statistics ---------------------------------------------------------


@pytest.mark.parametrize("policy", ["random_zx", "always_z", "always_x"])
def test_per_round_detection_quarter(policy):
    rounds = detections = 0
    i = 0
    while rounds < 4000:
        record = qa.run_trial(
            CHAIN, InterceptResend(policy), session_config(1, 10**9), seed=10_000 + i
        )
        assert record.detected
        rounds += record.rounds_to_detect
        detections += 1
        i += 1
    assert abs(detections / rounds - 0.25) < 0.025


def test_blindness_same_stream_same_bases():
    # The interceptor's basis choices depend only on its own stream and the
    # arrival count: changing the key (and with it all protocol behavior)
    # leaves the basis sequence prefix unchanged.
    def bases(key):
        cfg = session_config(2, 30, key)
        log = []
        qa.run_trial(
            CHAIN, InterceptResend("random_zx"), cfg, seed=77, intercept_log=log
        )
        return [e["basis"] for e in decoded(log)]

    a = bases("110100110100")
    b = bases("011011101001")
    prefix = min(len(a), len(b))
    assert prefix > 5
    assert a[:prefix] == b[:prefix]


def test_honest_transparency_end_to_end():
    # every delivered state matches what was sent, for all payload kinds
    for dist in ("uniform4", "haar"):
        cfg = session_config(2, 40, payload=qa.PayloadDistribution.parse(dist))
        record = qa.run_trial(CHAIN, Honest(), cfg, seed=5)
        assert record.completed
        assert record.data_qubits_intact == record.data_qubits_delivered == 40
