"""Session state machine tests: auth qubit preparation, the schedule-driven
send/verify loop, payload sourcing, and trace shape."""

import numpy as np
import pytest

import qauthsim as qa
from qauthsim.keyschedule import AuthPlan, ScheduleConfig
from qauthsim.protocol import (
    PayloadDistribution,
    SessionConfig,
    sample_payload,
)
from qauthsim.qsim import NAMED_STATES, Basis, Simulator, make_rng, states_equal

CHAIN = qa.Topology.chain(1)


def honest_config(t, target, key="1101", **kwargs):
    return SessionConfig(
        key=qa.parse_key(key) if key else None,
        sched=ScheduleConfig(t, 0),
        data_qubit_target=target,
        **kwargs,
    )


# -- auth qubit preparation ----------------------------------------------------


def test_prepare_minus_state():
    sim = Simulator()
    q = sim.prepare(1, Basis.X)
    assert states_equal(sim.amplitudes(q), NAMED_STATES["-"], tol=1e-12)


def test_prepare_zero_applies_no_gates():
    sim = Simulator()
    q = sim.prepare(0, Basis.Z)
    np.testing.assert_array_equal(sim.amplitudes(q), np.array([1, 0], dtype=complex))


def test_prepare_matches_expected_state_table():
    sim = Simulator()
    for enc in (0, 1):
        for base in (0, 1):
            plan = AuthPlan(enc, base)
            q = sim.prepare(plan.encoding_bit, plan.basis)
            assert states_equal(
                sim.amplitudes(q), NAMED_STATES[plan.expected_state], tol=1e-12
            )
            sim.release(q)


# -- golden trace of the worked example ------------------------------------------


def test_worked_example_trace():
    trace = []
    record = qa.run_trial(
        CHAIN, qa.Honest(), honest_config(2, 4), seed=11, trace=trace
    )
    assert record.completed and not record.detected
    assert record.data_qubits_delivered == 4
    assert record.auth_qubits_sent == 2

    windows = [(r["round"], r["r"]) for r in trace if r.get("event") == "window"]
    assert windows == [(1, 3), (2, 1)]
    preps = [r["state"] for r in trace if r.get("event") == "prepare_auth"]
    assert preps == ["-", "+"]
    verdicts = [
        (r["round"], r["passed"], r["basis"])
        for r in trace
        if r.get("event") == "verdict"
    ]
    assert verdicts == [(1, True, "X"), (2, True, "X")]

    # window i carries exactly R_i forward teleports before its verdict
    forward = 0
    counts = []
    for r in trace:
        if r.get("event") == "teleport" and r["from"] == "alice":
            forward += 1
        elif r.get("event") == "verdict":
            counts.append(forward)
            forward = 0
    assert counts == [3, 1]


def test_zero_target_completes_without_authentication():
    trace = []
    record = qa.run_trial(CHAIN, qa.Honest(), honest_config(2, 0), seed=3, trace=trace)
    assert record.completed
    assert record.data_qubits_delivered == 0
    assert record.auth_qubits_sent == 0
    assert not any(r.get("event") == "verdict" for r in trace)


def test_zero_window_authenticates_immediately():
    # key 0011 with T=2: first window R=0, so round 1 runs with no data.
    trace = []
    record = qa.run_trial(
        CHAIN, qa.Honest(), honest_config(2, 3, key="0011"), seed=4, trace=trace
    )
    assert record.completed
    events = [r["event"] for r in trace if r.get("event") in ("window", "verdict")]
    assert events[:2] == ["window", "verdict"]
    windows = [r["r"] for r in trace if r.get("event") == "window"]
    assert windows == [0, 3]


def test_honest_sessions_never_fail():
    for i in range(300):
        t = 1 + i % 5
        cfg = SessionConfig(
            key=None,
            sched=ScheduleConfig(t, i % 2),
            data_qubit_target=2**t,
            key_length=32,
        )
        record = qa.run_trial(CHAIN, qa.Honest(), cfg, seed=20_000 + i)
        assert not record.detected
        assert record.completed


def test_schedule_fidelity_against_key_windows():
    # fixed key: window values are predictable, and the trace must respect them
    key = "110100101101"
    cfg = honest_config(3, 20, key=key)
    trace = []
    record = qa.run_trial(CHAIN, qa.Honest(), cfg, seed=8, trace=trace)
    assert record.completed
    expected_windows = []
    bits = [int(c) for c in key]
    pos = 0
    total = 0
    while total < 20:
        value = 0
        for i in range(3):
            value = (value << 1) | bits[(pos + i) % len(bits)]
        pos = (pos + 3) % len(bits)
        if total + value > 20:
            break
        expected_windows.append(value)
        total += value
    got = [r["r"] for r in trace if r.get("event") == "window"]
    assert got[: len(expected_windows)] == expected_windows


# -- payload sourcing ------------------------------------------------------------


def test_fixed_payload_distribution():
    sim = Simulator()
    rng = make_rng(1)
    dist = PayloadDistribution.parse("fixed:0")
    for _ in range(20):
        q, truth = sample_payload(sim, dist, rng)
        np.testing.assert_array_equal(truth, NAMED_STATES["0"])
        assert states_equal(sim.amplitudes(q), NAMED_STATES["0"])
        sim.release(q)


def test_uniform4_payload_frequencies():
    sim = Simulator(max_qubits=16)
    rng = make_rng(2)
    counts = dict.fromkeys("01+-", 0)
    for _ in range(10_000):
        q, truth = sample_payload(sim, PayloadDistribution("uniform4"), rng)
        for label, vec in NAMED_STATES.items():
            if states_equal(truth, vec, tol=1e-12):
                counts[label] += 1
                break
        sim.release(q)
    for label in "01+-":
        assert abs(counts[label] / 10_000 - 0.25) < 0.02


def test_haar_payloads_are_normalized_and_varied():
    sim = Simulator(max_qubits=16)
    rng = make_rng(3)
    truths = []
    for _ in range(50):
        q, truth = sample_payload(sim, PayloadDistribution("haar"), rng)
        assert abs(np.linalg.norm(truth) - 1.0) < 1e-12
        truths.append(truth)
        sim.release(q)
    assert not states_equal(truths[0], truths[1])


def test_payload_distribution_validation():
    with pytest.raises(ValueError):
        PayloadDistribution("gaussian")
    with pytest.raises(ValueError):
        PayloadDistribution.parse("fixed:2")


def test_z_interceptor_corrupts_half_the_payloads():
    # With uniform4 payloads, a Z-measuring repeater passes Z eigenstates
    # untouched and collapses the X eigenstates, so about half the delivered
    # qubits differ from what was sent. The key below keeps every auth basis
    # Z and every auth value matching, so sessions run to completion.
    key = "10" * 8
    delivered = intact = 0
    for i in range(36):
        cfg = honest_config(2, 300, key=key)
        record = qa.run_trial(
            CHAIN, qa.InterceptResend("always_z"), cfg, seed=40_000 + i
        )
        assert record.completed and not record.detected
        delivered += record.data_qubits_delivered
        intact += record.data_qubits_intact
    assert delivered == 36 * 300
    assert abs(intact / delivered - 0.5) < 0.02


# -- failure handling -------------------------------------------------------------


def test_fail_fast_stops_data_flow():
    found = 0
    for i in range(20):
        trace = []
        cfg = honest_config(2, 150, key=None, key_length=64)
        record = qa.run_trial(
            CHAIN, qa.InterceptResend("random_zx"), cfg, seed=60_000 + i, trace=trace
        )
        if not record.detected:
            continue
        found += 1
        fail_at = next(
            i for i, r in enumerate(trace)
            if r.get("event") == "verdict" and not r["passed"]
        )
        tail = trace[fail_at + 1 :]
        assert not any(
            r.get("event") == "teleport" and r["from"] == "alice" for r in tail
        )
        assert any(
            r.get("event") == "terminate" and r["reason"] == "authentication failed"
            for r in tail
        ) or trace[fail_at + 1]["event"] == "terminate"
    assert found > 0


def test_wire_records_carry_no_role_metadata():
    trace = []
    qa.run_trial(CHAIN, qa.Honest(), honest_config(2, 6), seed=9, trace=trace)
    teleports = [r for r in trace if r.get("event") == "teleport"]
    assert teleports, "expected teleport records"
    shapes = {tuple(sorted(r)) for r in teleports}
    assert shapes == {("bits", "event", "from", "seq", "to")}
    swaps = [r for r in trace if r.get("event") == "swap"]
    assert {tuple(sorted(r)) for r in swaps} == {
        ("applied_at", "bits", "event", "node", "seq")
    }


# -- reverse authentication --------------------------------------------------------


def test_reverse_auth_doubles_auth_qubits():
    one_way = qa.run_trial(CHAIN, qa.Honest(), honest_config(2, 8), seed=12)
    trace = []
    both = qa.run_trial(
        CHAIN,
        qa.Honest(),
        honest_config(2, 8, reverse_auth=True),
        seed=12,
        trace=trace,
    )
    assert one_way.completed and both.completed
    rounds = sum(
        1 for r in trace if r.get("event") == "verdict" and r["role"] == "initiator"
    )
    assert one_way.auth_qubits_sent == rounds
    assert both.auth_qubits_sent == 2 * rounds
    # both sides issue one verdict per round
    responder_verdicts = [
        r for r in trace if r.get("event") == "verdict" and r["role"] == "responder"
    ]
    assert len(responder_verdicts) == rounds
    assert all(r["passed"] for r in responder_verdicts)


def test_reverse_auth_per_round_detection():
    # Two independent intercept chances per round: detection probability
    # 1 - (3/4)^2 = 7/16 per round (4 sigma at this sample size).
    rounds = detections = 0
    i = 0
    while rounds < 6000:
        cfg = SessionConfig(
            key=None,
            sched=ScheduleConfig(1, 0),
            data_qubit_target=10**9,
            reverse_auth=True,
            key_length=64,
        )
        record = qa.run_trial(
            CHAIN, qa.InterceptResend("random_zx"), cfg, seed=70_000 + i
        )
        assert record.detected
        rounds += record.rounds_to_detect
        detections += 1
        i += 1
    assert abs(detections / rounds - 7 / 16) < 0.025
