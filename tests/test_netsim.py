"""Topology validation, pair/message conservation, trial determinism, and
end-of-session bookkeeping."""

import json
import operator
from dataclasses import astuple
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qauthsim as qa
from helpers import (
    assert_maximally_entangled,
    busy_forever,
    decoded,
    honest_windows,
    memo_by_value,
    one_window_more,
    pair_group,
    run_cli,
    session_config,
)
from qauthsim.adversary import Honest, InterceptResend, RepeaterState, parse_behavior
from qauthsim import keyschedule, netsim, protocol, qsim
from qauthsim.experiments import trial_seed
from qauthsim.keyschedule import AuthPlan, KeyMaterial, RoundSchedule, ScheduleConfig
from qauthsim.netsim import (
    EntanglementFabric,
    Topology,
    intercept_node,
    run_trial,
    topology_from_json,
)
from qauthsim.protocol import (
    Initiator,
    PayloadDistribution,
    Responder,
    SessionConfig,
    SessionState,
)
from qauthsim.qsim import (
    BELL_CACHE_MAX,
    NAMED_STATES,
    Basis,
    Draws,
    SimulationError,
    Simulator,
    make_rng,
    states_equal,
)

CHAIN = Topology.chain(1)


# -- topology ---------------------------------------------------------------------


def test_chain_topology_layout():
    topo = Topology.chain(3)
    assert topo.path == ("alice", "r1", "r2", "r3", "bob")
    assert topo.intermediates == ("r1", "r2", "r3")
    assert intercept_node(topo, InterceptResend()) == "r2"


def test_direct_path_has_no_intermediates():
    topo = Topology.chain(0)
    assert topo.path == ("alice", "bob")
    assert topo.intermediates == ()
    with pytest.raises(ValueError):
        intercept_node(topo, InterceptResend())


def test_topology_validation():
    for nodes, edges, path, match in [
        (("a", "b"), (("a", "b"),), ("a",), "at least two nodes"),
        (("a", "b"), (("a", "b"),), ("a", "c"), "unknown nodes"),
        (("a", "b", "c"), (("a", "b"),), ("a", "c"), r"hop \(a, c\) is not an edge"),
        (("a", "b", "c"), (("a", "b"), ("b", "c")), ("a", "b", "a"), "revisit"),
    ]:
        with pytest.raises(ValueError, match=match):
            Topology(nodes=nodes, edges=edges, path=path)


def test_topology_accepts_reversed_edge_order():
    topo = Topology(
        nodes=("a", "b", "c"), edges=(("b", "a"), ("c", "b")), path=("a", "b", "c")
    )
    assert topo.intermediates == ("b",)


def test_topology_from_json():
    topo = topology_from_json(
        {
            "nodes": ["alice", "eve", "bob"],
            "edges": [["alice", "eve"], ["eve", "bob"]],
            "path": ["alice", "eve", "bob"],
        }
    )
    assert topo.intermediates == ("eve",)
    assert topology_from_json({}) == Topology.chain(1)


# -- entanglement distribution ------------------------------------------------------


@pytest.mark.parametrize("intermediates,edges", [(0, 1), (1, 2), (3, 4)])
def test_provision_creates_one_pair_per_edge(intermediates, edges):
    topo = Topology.chain(intermediates)
    sim = Simulator()
    fabric = EntanglementFabric(sim, topo, RepeaterState(Honest(), None, 0), make_rng(0))
    fabric.provision()
    assert fabric.pairs_created == edges
    fabric.provision()
    assert fabric.pairs_created == 2 * edges  # replenished on demand


def test_mitm_pair_layout_on_two_edge_path():
    sim = Simulator()
    repeater = RepeaterState(InterceptResend("random_zx"), "r1", 1)
    fabric = EntanglementFabric(sim, CHAIN, repeater, make_rng(1))
    segments = fabric.provision()
    assert [(left, right) for left, _, right in segments] == [
        ("alice", "r1"),
        ("r1", "bob"),
    ]
    for _, amps, _ in segments:
        assert_maximally_entangled(amps)
    assert sim.live_count() == 0


def test_a_fabric_that_swaps_nowhere_hands_out_fresh_copies():
    # The segments of an intercepted 1-repeater path never change: each call
    # returns its own list, equal to the last, and counts its pairs; a
    # transfer's reversal of one list leaves the next alone.
    sim = Simulator()
    repeater = RepeaterState(InterceptResend("random_zx"), "r1", 1)
    fabric = EntanglementFabric(sim, CHAIN, repeater, make_rng(1))
    first = fabric.provision()
    first.reverse()
    second, third = fabric.provision(), fabric.provision()
    assert second == third == [("alice", qsim.PHI_PLUS, "r1"), ("r1", qsim.PHI_PLUS, "bob")]
    assert first == second[::-1] and second is not third
    assert fabric.pairs_created == 6 and fabric.swaps == 0


def plan_leaves(obj):
    """The non-tuple values of a nest of tuples."""
    if isinstance(obj, tuple):
        for item in obj:
            yield from plan_leaves(item)
    else:
        yield obj


def test_one_fabric_plan_per_topology_behavior_node_and_tracing():
    # Fabrics of equal topologies (built apart), behavior, malicious node
    # and tracing read one plan object; an intercepting plan differs from
    # the honest one; only a traced plan holds event texts; a plan is
    # tuples of names, swap flags, texts, segments and None.
    chain3 = Topology.chain(3)
    cases = {"honest": (CHAIN, Honest(), None),
             "intercept": (CHAIN, InterceptResend("random_zx"), "r1"),
             "honest3": (chain3, Honest(), None),
             "intercept3": (chain3, InterceptResend("always_z"), "r2")}
    plans = {}
    for label, (topology, behavior, node) in cases.items():
        for traced in (False, True):
            plan = netsim._fabric_plan(topology, behavior, node, traced)
            for _ in range(2):
                fabric = EntanglementFabric(Simulator(), Topology(*astuple(topology)),
                                            RepeaterState(behavior, node, 1), Draws(1),
                                            [] if traced else None)
                members = (fabric._interior, fabric._unswapped, fabric._hop_texts)
                assert all(map(operator.is_, members, plan))
            texts = [plan[2]] + [t for _, _, t in plan[0]]
            assert all(texts) if traced else not any(texts)
            assert {type(v) for v in plan_leaves(plan)} <= {str, bool, complex, type(None)}
            plans[label, traced] = plan
    for traced in (False, True):
        assert plans["honest", traced] != plans["intercept", traced]
        assert plans["honest3", traced] != plans["intercept3", traced]
    assert [swaps for _, swaps, _ in plans["intercept3", True][0]] == [True, False, True]


def honest_fabric(topology):
    """A traced honest fabric over ``topology`` and its simulator and trace,
    with world stream ``Draws(3)``."""
    sim, trace = Simulator(), []
    repeater = RepeaterState(Honest(), None, 0)
    return sim, EntanglementFabric(sim, topology, repeater, Draws(3), trace), trace


def test_bad_direction_is_refused_before_provisioning():
    # A mistyped direction on a traced three-repeater chain makes no pair,
    # swap or trace event, draws nothing and leaves the payload live.
    sim, fabric, trace = honest_fabric(Topology.chain(3))
    payload = sim.prepare(0, Basis.X)
    with pytest.raises(ValueError, match="direction"):
        fabric.transfer(payload, "fwd")
    assert (fabric.pairs_created, fabric.swaps, fabric.teleports, trace) == (0, 0, 0, [])
    assert fabric.rng.random() == Draws(3).random()
    assert sim.live_count() == 1 and sim.amplitudes(payload) == NAMED_STATES["+"]


@pytest.mark.parametrize("operand, pairs, match", [("drifted", 1, "norm drifted"),
                                                   ("pair half", 0, "entangled")])
def test_refused_payload_stays_live_before_any_draw(operand, pairs, match):
    # On a direct path, whose provisioning draws nothing, a payload whose
    # norm drifted is refused by its hop, and half of a pair before the
    # pair is provisioned: both before any draw, and the payload stays live
    # with its state. No teleport is counted or traced, and the memo is
    # untouched.
    sim, fabric, trace = honest_fabric(Topology.chain(0))
    qubits = (sim.allocate_unit((0.6, 0.9)),) if operand == "drifted" else sim.make_bell_pair()
    before = [sim.amplitudes(q) for q in qubits]
    with pytest.raises(SimulationError, match=match):
        fabric.transfer(qubits[0], "forward")
    assert (fabric.pairs_created, fabric.teleports, trace, sim.bell_memo) == (pairs, 0, [], {})
    assert fabric.rng.random() == Draws(3).random()
    assert sim.live_count() == len(qubits)
    assert [sim.amplitudes(q) for q in qubits] == before


@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("repeaters, node", [(0, None), (1, None), (1, "r1"), (3, None),
                                             (3, "r2")])
def test_a_transfer_keeps_one_handle(monkeypatch, repeaters, node, direction):
    # Each hop writes its survivor into the payload's own entry: with
    # allocate_unit and release refused, a traced transfer, honest or
    # intercepted at ``node``, returns the payload's id with one qubit live,
    # counts its pairs, swaps and teleports as ever, and teleports over its
    # segments in the transfer's direction. An honest one delivers |->.
    def refuse(*args):
        raise AssertionError("a hop registered or released a qubit")

    topo = Topology.chain(repeaters)
    behavior = Honest() if node is None else InterceptResend("random_zx")
    repeater = RepeaterState(behavior, node, 5, [])
    sim, trace = Simulator(), []
    fabric = EntanglementFabric(sim, topo, repeater, Draws(3), trace)
    payload = sim.prepare(1, Basis.X)
    monkeypatch.setattr(Simulator, "allocate_unit", refuse)
    monkeypatch.setattr(Simulator, "release", refuse)
    assert fabric.transfer(payload, direction) == payload
    assert sim.live_count() == 1
    stops = [topo.path[0]] + ([] if node is None else [node]) + [topo.path[-1]]
    if direction == "reverse":
        stops.reverse()
    hops = len(stops) - 1
    assert (fabric.pairs_created, fabric.swaps, fabric.teleports) == (
        repeaters + 1, repeaters + 1 - hops, hops)
    teleports = [(e["from"], e["to"]) for e in decoded(trace) if e["event"] == "teleport"]
    assert teleports == list(zip(stops, stops[1:]))
    assert len(repeater.log) == hops - 1
    if node is None:
        assert states_equal(sim.amplitudes(payload), NAMED_STATES["-"])


def test_trials_register_no_repeater_pair(monkeypatch):
    # The repeater path holds its pairs as amplitude tuples: three-repeater
    # trials sharing a memo, as a campaign's do, honest and intercepted at
    # r2, never make or Bell-measure a registered pair, build no group
    # object (every qubit they register is lone), and count every pair,
    # swap and hop.
    def refuse(*args):
        raise AssertionError("a registered Bell pair or group on the repeater path")

    monkeypatch.setattr(Simulator, "make_bell_pair", refuse)
    monkeypatch.setattr(Simulator, "bell_measure", refuse)
    monkeypatch.setattr(qsim, "_Group", refuse)
    cfg = session_config(t=2, target=20, reverse_auth=True,
                         payload=PayloadDistribution.parse("haar"))
    memo: dict = {}
    for behavior, swaps, hops in ((Honest(), 3, 1), (InterceptResend("random_zx"), 2, 2)):
        record = run_trial(Topology.chain(3), behavior, cfg, seed=21, bell_memo=memo)
        transfers = record.data_qubits_delivered + record.auth_qubits_sent
        assert transfers > 0
        assert (record.bell_pairs_created, record.swap_corrections, record.teleports) == (
            4 * transfers, swaps * transfers, hops * transfers)


# -- trial determinism and bookkeeping -------------------------------------------------


def test_identical_seeds_identical_records_and_traces():
    cfg = session_config(t=2, target=25)
    t1, t2 = [], []
    r1 = run_trial(CHAIN, InterceptResend("random_zx"), cfg, seed=99, trace=t1)
    r2 = run_trial(CHAIN, InterceptResend("random_zx"), cfg, seed=99, trace=t2)
    assert r1 == r2
    assert t1 == t2
    r3 = run_trial(CHAIN, InterceptResend("random_zx"), cfg, seed=100)
    assert r3 != r1


@pytest.mark.parametrize("case", ["intercept_uniform4", "chain3_haar_reverse"])
def test_a_shared_bell_memo_changes_no_trial(case):
    # One memo handed to every trial, as a campaign hands it, gives each
    # trial the record, trace and intercept log of a private memo, and
    # never holds more than BELL_CACHE_MAX entries. No one-shot operand (a
    # lone state other than the NAMED_STATES tuples, here the haar
    # payloads) ever enters it.
    if case == "intercept_uniform4":
        topology, behavior = CHAIN, InterceptResend("random_zx")
        cfg = session_config(t=2, target=30)
    else:
        topology, behavior = Topology.chain(3), Honest()
        cfg = session_config(t=2, target=20, reverse_auth=True,
                             payload=PayloadDistribution.parse("haar"))
    memo: dict = {}
    sizes = []
    named = set(NAMED_STATES.values())
    for seed in range(50):
        runs = []
        for bell_memo in (memo, None):
            trace, log = [], []
            record = run_trial(topology, behavior, cfg, seed, trace=trace,
                               intercept_log=log, bell_memo=bell_memo)
            runs.append((record, trace, log))
        assert runs[0] == runs[1], seed
        sizes.append(len(memo))
        assert all(len(q_amps) == 4 or q_amps in named for q_amps, *_ in memo_by_value(memo))
    assert 0 < max(sizes) <= BELL_CACHE_MAX


def test_honest_baseline_never_detects():
    for i in range(200):
        t = 1 + i % 5
        record = run_trial(CHAIN, Honest(), session_config(t=t, target=30), seed=3000 + i)
        assert not record.detected
        assert record.completed
        assert record.data_qubits_delivered == 30


def test_conservation_honest():
    trace = []
    record = run_trial(CHAIN, Honest(), session_config(t=2, target=20), seed=4, trace=trace)
    transfers = record.data_qubits_delivered + record.auth_qubits_sent
    assert record.teleports == transfers
    assert record.bell_pairs_created == 2 * transfers  # one per edge per transfer
    assert record.swap_corrections == transfers  # one intermediate node
    teleport_records = [r for r in decoded(trace) if r.get("event") == "teleport"]
    assert len(teleport_records) == record.teleports
    assert all(len(r["bits"]) == 2 for r in teleport_records)
    verdicts = [r for r in decoded(trace) if r.get("event") == "verdict"]
    assert record.auth_qubits_sent == len(verdicts)


def test_conservation_under_interception():
    record = run_trial(CHAIN, InterceptResend("random_zx"), session_config(target=50), seed=5)
    transfers = record.data_qubits_delivered + record.auth_qubits_sent
    assert record.teleports == 2 * transfers  # re-sent at the interceptor
    assert record.bell_pairs_created == 2 * transfers
    assert record.swap_corrections == 0


def test_detected_record_invariants():
    hits = 0
    for i in range(30):
        record = run_trial(
            CHAIN, InterceptResend("random_zx"), session_config(t=3, target=60), seed=6000 + i
        )
        assert record.data_qubits_delivered <= record.data_qubit_target
        if record.detected:
            hits += 1
            assert record.rounds_to_detect >= 1
            assert not record.completed
            # the prover may race ahead through zero-length windows before
            # noticing the silence, so sent can exceed the detection round
            assert record.auth_qubits_sent >= record.rounds_to_detect
        else:
            assert record.rounds_to_detect is None
    assert hits > 0


def test_leakage_is_delivery_count_at_detection():
    # with a fixed key the schedule is known: windows of R=3 each (key 11
    # repeating under T=2), so leakage is a multiple of 3
    for i in range(10):
        record = run_trial(
            CHAIN,
            InterceptResend("random_zx"),
            session_config(t=2, target=90, key="11" * 8),
            seed=7000 + i,
        )
        if record.detected:
            assert record.data_qubits_delivered == 3 * record.rounds_to_detect


def test_responder_timeout_after_silent_termination():
    for i in range(40):
        trace = []
        record = run_trial(
            CHAIN, InterceptResend("random_zx"), session_config(target=80), seed=8000 + i,
            trace=trace,
        )
        if not record.detected:
            continue
        reasons = {
            r["role"]: r["reason"] for r in decoded(trace) if r.get("event") == "terminate"
        }
        assert reasons["initiator"] == "authentication failed"
        assert reasons["responder"] == "timeout"
        return
    pytest.fail("no detection in 40 interception trials")


def test_mitm_needs_an_interior_node():
    with pytest.raises(ValueError):
        run_trial(Topology.chain(0), InterceptResend("random_zx"), session_config(), seed=1)
    with pytest.raises(ValueError):
        run_trial(
            CHAIN,
            InterceptResend("random_zx"),
            session_config(),
            seed=1,
            malicious_node="bob",
        )


def test_zero_capacity_key_rejected():
    with pytest.raises(ValueError):
        run_trial(CHAIN, Honest(), session_config(key="0000"), seed=1)


def test_trial_with_malicious_node_choice():
    topo = Topology.chain(3)
    record = run_trial(
        topo,
        InterceptResend("random_zx"),
        session_config(t=1, target=10**9),
        seed=11,
        malicious_node="r3",
    )
    assert record.detected


def test_leaked_qubit_fails_the_trial(monkeypatch):
    # The first release of the trial is skipped, so one qubit outlives it:
    # run_trial raises instead of returning a record.
    inner = Simulator.release
    skipped = []

    def release_all_but_first(self, q):
        if skipped:
            inner(self, q)
        else:
            skipped.append(q)

    monkeypatch.setattr(Simulator, "release", release_all_but_first)
    with pytest.raises(SimulationError, match="^1 qubits outlived the trial$"):
        run_trial(CHAIN, Honest(), session_config(target=3, key_length=8), seed=1)
    assert len(skipped) == 1


#: Step-guard cases by id: (key, T, reverse auth, the guard's multiple of the
#: read rounds' step count, whether the responder is stuck, and completion
#: or the error). Each 1-qubit window of the sparse keys under reverse auth
#: takes all 4 steps the count allows beside its data's: it is reached
#: (test_sweep_bound_worst_case_is_nearly_reached).
STEP_GUARDS = {
    "01-T2-reverse-1.0x": ("01", 2, True, 1.0, False, True),
    "10-T1-reverse-1.0x": ("10", 1, True, 1.0, False, True),
    "1000000000000000-T1-1.0x": ("1" + "0" * 15, 1, False, 1.0, False, True),
    "0000000000000001-T4-reverse-1.0x": ("0" * 15 + "1", 4, True, 1.0, False, True),
    # only round 0, R = 2, is read: twice 2 data + 4 x 1 round + 2
    "stuck-responder": ("10110111", 2, False, 2, True, "trial exceeded 16 endpoint steps"),
}


@pytest.mark.parametrize("name", STEP_GUARDS)
def test_step_guard(monkeypatch, name):
    key, t, reverse, slack, stuck, end = STEP_GUARDS[name]
    monkeypatch.setattr(keyschedule.RoundSchedule, "slack", slack)
    if stuck:
        monkeypatch.setattr(protocol.Responder, "step", busy_forever)
    cfg = session_config(t=t, target=13, key=key, reverse_auth=reverse)
    if end is True:
        assert run_trial(CHAIN, Honest(), cfg, seed=3).completed
    else:
        with pytest.raises(SimulationError, match=f"^{end}$"):
            run_trial(CHAIN, Honest(), cfg, seed=3)


def test_sweep_bound_worst_case_is_nearly_reached(monkeypatch):
    # 1-qubit windows with reverse authentication take 4 steps per window
    # beside the data qubit's, which the guard's count assumes: at 0.9x of
    # it the session is stopped.
    monkeypatch.setattr(keyschedule.RoundSchedule, "slack", 0.9)
    cfg = session_config(t=2, target=13, key="01", reverse_auth=True)
    with pytest.raises(SimulationError, match=r"^trial exceeded [\d.]+ endpoint steps$"):
        run_trial(CHAIN, Honest(), cfg, seed=3)


def test_sweep_cap_guard(monkeypatch):
    # A guard pinned at 10 after each round read stops a 500-qubit session
    # and names the guard it exceeded.
    inner = keyschedule.RoundSchedule.window

    def window(self, index):
        r = inner(self, index)
        self.guard = 10
        return r

    monkeypatch.setattr(keyschedule.RoundSchedule, "window", window)
    with pytest.raises(SimulationError, match="^trial exceeded 10 endpoint steps$"):
        run_trial(CHAIN, Honest(), session_config(target=500), seed=2)


def test_a_round_past_the_honest_end_is_refused(monkeypatch):
    # An initiator opening a window where it would complete is refused it
    # before any draw: the world stream's next draw follows the honest run's.
    streams = []
    monkeypatch.setattr(netsim, "Draws", lambda seed: streams.append(Draws(seed)) or streams[-1])
    cfg = session_config(2, 4, "1101")  # windows R = 3 and 1 end on the target
    assert run_trial(CHAIN, Honest(), cfg, seed=11).completed
    monkeypatch.setattr(Initiator, "step", one_window_more)
    with pytest.raises(SimulationError, match="^round 3 is past the end of the session$"):
        run_trial(CHAIN, Honest(), cfg, seed=11)
    assert len(streams) == 2 and streams[0].random() == streams[1].random()


def counted_trial(topo, behavior, session, seed):
    """``run_trial``'s record, the role of each endpoint step, each key
    read, as (round index, ``keyschedule`` function name, or "block" for
    each round a block read), and the rounds the schedule opened."""
    steps, reads, schedules = [], [], []

    def counted(cls):
        return lambda self, arrival, _step=cls.step: steps.append(self.role) or _step(self, arrival)

    def read(name, _inner):
        return lambda key, cfg, index: reads.append((index, name)) or _inner(key, cfg, index)

    def block(key, cfg, start, size, short, _inner=keyschedule._block):
        rs, plans = _inner(key, cfg, start, size, short)
        reads.extend((i, "block") for i in range(start, start + len(rs)))
        return rs, plans

    def schedule(*args):
        schedules.append(RoundSchedule(*args))
        return schedules[-1]

    with patch.object(Initiator, "step", counted(Initiator)), \
            patch.object(Responder, "step", counted(Responder)), \
            patch.object(netsim, "RoundSchedule", schedule), \
            patch.multiple(keyschedule, next_r=read("next_r", keyschedule.next_r),
                           next_auth_pair=read("next_auth_pair", keyschedule.next_auth_pair),
                           _block=block):
        record = run_trial(topo, behavior, session, seed)
    return record, steps, reads, schedules[0].opened


def key_reads(rounds):
    """The reads of the first ``rounds`` rounds, each read once and in
    order: the first ``FIRST_BLOCK`` by ``next_r`` and ``next_auth_pair``,
    each later one by a block."""
    return [(i, name) for i in range(rounds) for name in (
        ("next_r", "next_auth_pair") if i < keyschedule.FIRST_BLOCK else ("block",))]


@pytest.mark.parametrize("behavior, reverse", product(["honest", "intercept_random"],
                                                      [False, True]))
def test_each_round_is_read_from_the_key_once(behavior, reverse):
    # Both endpoints open every round they reach, the responder at T = 1
    # running ahead through r = 0 windows without reverse auth, yet each
    # round is read from the key once, by next_r and next_auth_pair or by
    # a block: all of an honest session's rounds, and a prefix of them for
    # one cut short.
    for t, seed in product((1, 2, 3), range(4)):
        bits = KeyMaterial.random(64, make_rng(seed)).bits
        cfg = session_config(t, 30, "".join(map(str, bits)), reverse_auth=reverse)
        reads = counted_trial(CHAIN, parse_behavior(behavior), cfg, seed)[2]
        honest = len(honest_windows(bits, t, 30))
        rounds = honest if behavior == "honest" else len({i for i, _ in reads})
        assert reads == key_reads(rounds)
        assert 0 < rounds <= honest


@st.composite
def trial_cases(draw):
    behavior = draw(st.sampled_from(
        ["honest", "intercept_random", "intercept_z", "intercept_x"]))
    repeaters = draw(st.integers(0 if behavior == "honest" else 1, 4))
    t = draw(st.integers(1, 5))
    bits = draw(st.lists(st.integers(0, 1), min_size=max(t, 2), max_size=24))
    if not any(bits):
        bits[draw(st.integers(0, len(bits) - 1))] = 1
    session = SessionConfig(
        key=KeyMaterial(tuple(bits)),
        sched=ScheduleConfig(t, draw(st.integers(0, 1))),
        data_qubit_target=draw(st.integers(0, 20)),
        reverse_auth=draw(st.booleans()),
        payload=PayloadDistribution(draw(st.sampled_from(["uniform4", "haar"]))),
    )
    return Topology.chain(repeaters), parse_behavior(behavior), session, draw(
        st.integers(0, 2**64 - 1))


@given(trial_cases())
@settings(max_examples=200)
def test_random_trials_keep_invariants(case):
    # run_trial raises SimulationError if a qubit outlives the trial, the
    # session runs past its step guard or opens a round past its end.
    topo, behavior, session, seed = case
    record = run_trial(topo, behavior, session, seed)
    if behavior == Honest():
        assert not record.detected and record.completed
        assert record.data_qubits_intact == record.data_qubits_delivered
        assert record.data_qubits_delivered == session.data_qubit_target


@given(trial_cases())
@settings(max_examples=200)
def test_random_trials_keep_the_step_budget(case):
    # run_trial steps the endpoints at most transfers + 2 rounds + 2 times,
    # and at most the opened rounds' data + 4 rounds + 2, half the guard.
    # Each round is read once, and only the honest session's rounds are, so
    # the guard is at most twice the honest session's own count.
    record, steps, reads, opened = counted_trial(*case)
    session = case[2]
    target = session.data_qubit_target
    honest = honest_windows(session.key.bits, session.sched.transfer_length, target)
    rounds = honest[:opened]
    read = len({i for i, _ in reads})
    assert reads == key_reads(read) and opened <= read <= len(honest)
    transfers = record.data_qubits_delivered + record.auth_qubits_sent
    assert len(steps) <= transfers + 2 * len(rounds) + 2

    def count(rs):
        return min(sum(rs), target) + 4 * len(rs) + 2

    assert len(steps) <= count(rounds) <= count(honest)


def test_per_trial_objects_hold_no_instance_dict():
    # Every object made per trial or per transfer has fixed slots, which
    # every step, hop and swap reads: a field or class added without one
    # brings the instance dict back and fails here. The fabric is traced
    # and the repeater logs and draws, so their optional slots are set.
    key = KeyMaterial.random(8, make_rng(1))
    cfg = session_config(key="0110", payload=PayloadDistribution("fixed", "+"))
    schedule = RoundSchedule(key, cfg.sched, cfg.data_qubit_target)
    schedule.window(0)
    sim = Simulator()
    behavior = InterceptResend("random_zx")
    repeater = RepeaterState(behavior, "r1", 7, [])
    trace = []
    fabric = EntanglementFabric(sim, CHAIN, repeater, Draws(3), trace)
    sim.release(fabric.transfer(sim.prepare(0, Basis.Z), "forward"))
    assert trace and repeater.log and repeater.rng is not None
    objects = [
        sim, pair_group(sim, sim.make_bell_pair()[0]), Draws(1),
        key, qa.parse_key("0110"), cfg.sched, schedule, AuthPlan(0, 1),
        cfg.payload, cfg, SessionState(),
        Initiator(cfg, schedule, sim, Draws(1), []), Responder(cfg, schedule, sim, Draws(1), []),
        Honest(), behavior, repeater,
        CHAIN, run_trial(CHAIN, behavior, cfg, seed=1), fabric,
    ]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


# -- wire format ------------------------------------------------------------------------


def test_message_log_kinds_and_counts():
    # Every swap and every hop sends one classical message, the correction
    # bits of its teleport; the trace numbers them in order.
    sim = Simulator()
    repeater = RepeaterState(Honest(), None, 0)
    trace = []
    fabric = EntanglementFabric(sim, Topology.chain(2), repeater, make_rng(3), trace)
    fabric.provision()
    payload = sim.allocate_unit(NAMED_STATES["+"])
    fabric.transfer(payload, "forward")
    kinds = [r["event"] for r in decoded(trace)]
    assert kinds.count("swap") == 4  # 2 intermediates x 2 provisions
    assert kinds.count("teleport") == 1
    assert [r["seq"] for r in decoded(trace)] == list(range(5))
    assert all(len(r["bits"]) == 2 for r in decoded(trace))
    assert (fabric.swaps, fabric.teleports) == (4, 1)


def test_write_trace_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    argv = ["custom", "-T", "2", "--trials", "2", "--data-qubits", "5",
            "--adversary", "honest", "--key-length", "64", "--seed", "12",
            "--format", "csv", "--trace", str(path)]
    assert run_cli(argv)[0] == 0
    expected = []
    for i in range(2):
        trace = []
        run_trial(CHAIN, Honest(), session_config(target=5), trial_seed(12, 2, i), trace=trace)
        expected += [{"transfer_length": 2, "trial_index": i, **r} for r in decoded(trace)]
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == expected
