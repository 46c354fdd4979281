"""Session state machine tests: auth qubit preparation, the schedule-driven
send/verify loop, payload sourcing, and trace shape."""

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qauthsim as qa
from helpers import decoded, honest_windows, session_config
from qauthsim.keyschedule import AUTH_BASES, AuthPlan
from qauthsim.protocol import (
    Initiator,
    PayloadDistribution,
    Responder,
    _Endpoint,
    _fma_sq,
    sample_payload,
)
from qauthsim.qsim import (
    NAMED_STATES,
    Basis,
    Draws,
    Simulator,
    make_rng,
    states_equal,
)

CHAIN = qa.Topology.chain(1)
#: the worked example's key
KEY = "1101"


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
            q = sim.prepare(plan.encoding_bit, AUTH_BASES[plan.base_bit])
            assert states_equal(
                sim.amplitudes(q), NAMED_STATES[plan.expected_state], tol=1e-12
            )
            sim.release(q)


# -- golden trace of the worked example ------------------------------------------


def test_worked_example_trace():
    trace = []
    record = qa.run_trial(
        CHAIN, qa.Honest(), session_config(2, 4, KEY), seed=11, trace=trace
    )
    assert record.completed and not record.detected
    assert record.data_qubits_delivered == 4
    assert record.auth_qubits_sent == 2

    windows = [(r["round"], r["r"]) for r in decoded(trace) if r.get("event") == "window"]
    assert windows == [(1, 3), (2, 1)]
    preps = [r["state"] for r in decoded(trace) if r.get("event") == "prepare_auth"]
    assert preps == ["-", "+"]
    verdicts = [
        (r["round"], r["passed"], r["basis"])
        for r in decoded(trace)
        if r.get("event") == "verdict"
    ]
    assert verdicts == [(1, True, "X"), (2, True, "X")]

    # window i carries exactly R_i forward teleports before its verdict
    forward = 0
    counts = []
    for r in decoded(trace):
        if r.get("event") == "teleport" and r["from"] == "alice":
            forward += 1
        elif r.get("event") == "verdict":
            counts.append(forward)
            forward = 0
    assert counts == [3, 1]


def test_zero_target_completes_without_authentication():
    trace = []
    record = qa.run_trial(CHAIN, qa.Honest(), session_config(2, 0, KEY), seed=3, trace=trace)
    assert record.completed
    assert record.data_qubits_delivered == 0
    assert record.auth_qubits_sent == 0
    assert not any(r.get("event") == "verdict" for r in decoded(trace))


def test_zero_window_authenticates_immediately():
    # key 0011 with T=2: first window R=0, so round 1 runs with no data.
    trace = []
    record = qa.run_trial(
        CHAIN, qa.Honest(), session_config(2, 3, "0011"), seed=4, trace=trace
    )
    assert record.completed
    events = [r["event"] for r in decoded(trace) if r.get("event") in ("window", "verdict")]
    assert events[:2] == ["window", "verdict"]
    windows = [r["r"] for r in decoded(trace) if r.get("event") == "window"]
    assert windows == [0, 3]


def test_honest_sessions_never_fail():
    for i in range(300):
        t = 1 + i % 5
        cfg = session_config(t, 2**t, key_length=32, index=i % 2)
        record = qa.run_trial(CHAIN, qa.Honest(), cfg, seed=20_000 + i)
        assert not record.detected
        assert record.completed


def test_schedule_fidelity_against_key_windows():
    # fixed key: window values are predictable, and the trace must respect them
    key = "110100101101"
    trace = []
    record = qa.run_trial(CHAIN, qa.Honest(), session_config(3, 20, key), seed=8, trace=trace)
    assert record.completed
    got = [r["r"] for r in decoded(trace) if r.get("event") == "window"]
    assert got == honest_windows([int(c) for c in key], 3, 20)


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
    sim = Simulator()
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
    assert sim.live_count() == 0


def test_haar_payloads_are_normalized_and_varied():
    sim = Simulator()
    rng = make_rng(3)
    truths = []
    for _ in range(50):
        q, truth = sample_payload(sim, PayloadDistribution("haar"), rng)
        assert abs(np.linalg.norm(truth) - 1.0) < 1e-12
        truths.append(truth)
        sim.release(q)
    assert not states_equal(truths[0], truths[1])
    assert sim.live_count() == 0


def test_named_payloads_are_copied_from_the_table():
    # A named payload's amplitudes are its NAMED_STATES entry and its truth
    # tuple, exactly; uniform4 prepares the state its truth names.
    sim = Simulator()
    rng = Draws(4)
    for label in NAMED_STATES:
        q, truth = sample_payload(sim, PayloadDistribution("fixed", label), rng)
        assert sim.amplitudes(q) == truth == NAMED_STATES[label]
    for _ in range(40):
        q, truth = sample_payload(sim, PayloadDistribution("uniform4"), rng)
        assert truth in NAMED_STATES.values()
        assert sim.amplitudes(q) == truth


def test_payload_draws_equal_the_generator_stream():
    # One normal(size=4) per haar payload draws the values two size=2 calls
    # drew; uniform4 draws integers(0, 4). A Draws stream and a Generator of
    # one seed give the same payloads.
    for kind in ("haar", "uniform4"):
        sim = Simulator()
        draws, gen = Draws(11), make_rng(11)
        for _ in range(30):
            _, truth = sample_payload(sim, PayloadDistribution(kind), draws)
            _, again = sample_payload(sim, PayloadDistribution(kind), gen)
            assert truth == again
    gen = make_rng(11)
    v = gen.normal(size=2) + 1j * gen.normal(size=2)
    _, truth = sample_payload(Simulator(), PayloadDistribution("haar"), Draws(11))
    assert truth == tuple((v / np.linalg.norm(v)).tolist())


def exact_fma_sq(a, c):
    """``a * a + c`` rounded once, from exact rationals."""
    return float(Fraction(a) ** 2 + Fraction(c))


#: zero, and magnitudes whose square's rounding error a double holds exactly
fma_operands = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-100, 1e100),
                         st.floats(-1e100, -1e-100))


@given(fma_operands, st.floats(-1e200, 1e200))
@example(0.0, 0.0)
@example(-3.0, -9.0)
@example(1.0 + 2.0**-52, -(1.0 + 2.0**-51))  # the sum is the square's rounding error
def test_fma_sq_rounds_once(a, c):
    assert _fma_sq(a, c) == exact_fma_sq(a, c)


def test_haar_payload_equals_numpy_normalisation_bit_for_bit():
    # The haar truth is built from Python floats, scaled by the reciprocal
    # of its norm, each part's squared norm a * a + c rounded once: the real
    # parts' fma(g1, g1, g0 * g0), the imaginary parts' fma(g3, g3, g2 * g2).
    # Every real and imaginary part, sign of zero included, equals that
    # exact reference on any host, and numpy's v / |v| of the same draw on
    # a host whose two-term dot is that fma.
    sim = Simulator()
    draws, gen = Draws(12), make_rng(12)

    def parts(amps):
        return [(x.real.hex(), x.imag.hex()) for x in amps]

    for _ in range(10_000):
        q, truth = sample_payload(sim, PayloadDistribution("haar"), draws)
        sim.release(q)
        g = gen.normal(size=4)
        g0, g1, g2, g3 = g.tolist()
        s = 1.0 / math.sqrt(exact_fma_sq(g1, g0 * g0) + exact_fma_sq(g3, g2 * g2))
        assert parts(truth) == parts((complex(g0 * s, g2 * s), complex(g1 * s, g3 * s)))
        v = g[:2] + 1j * g[2:]
        assert parts(truth) == parts((v / np.linalg.norm(v)).tolist())


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
        cfg = session_config(2, 300, key)
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
        cfg = session_config(2, 150)
        record = qa.run_trial(
            CHAIN, qa.InterceptResend("random_zx"), cfg, seed=60_000 + i, trace=trace
        )
        if not record.detected:
            continue
        found += 1
        records = decoded(trace)
        fail_at = next(
            i for i, r in enumerate(records)
            if r.get("event") == "verdict" and not r["passed"]
        )
        tail = records[fail_at + 1 :]
        assert not any(
            r.get("event") == "teleport" and r["from"] == "alice" for r in tail
        )
        assert any(
            r.get("event") == "terminate" and r["reason"] == "authentication failed"
            for r in tail
        ) or records[fail_at + 1]["event"] == "terminate"
    assert found > 0


def test_wire_records_carry_no_role_metadata():
    trace = []
    qa.run_trial(CHAIN, qa.Honest(), session_config(2, 6, KEY), seed=9, trace=trace)
    teleports = [r for r in decoded(trace) if r.get("event") == "teleport"]
    assert teleports, "expected teleport records"
    shapes = {tuple(sorted(r)) for r in teleports}
    assert shapes == {("bits", "event", "from", "seq", "to")}
    swaps = [r for r in decoded(trace) if r.get("event") == "swap"]
    assert {tuple(sorted(r)) for r in swaps} == {
        ("applied_at", "bits", "event", "node", "seq")
    }


def test_untraced_trial_builds_no_trace_event(monkeypatch):
    # Endpoint events are built only for a trace: with trace=None, _emit is
    # never called, and the record equals that of a traced run of the same
    # seed. Reverse authentication under interception reaches every endpoint
    # event, failed verdicts on both sides and the timeout close-out.
    cfg = session_config(1, 12, reverse_auth=True)
    cases = [(behavior, seed) for behavior in (qa.Honest(), qa.InterceptResend("random_zx"))
             for seed in range(30)]
    traced = {}
    kinds = set()
    failed_roles = set()
    for behavior, seed in cases:
        trace = []
        record = qa.run_trial(CHAIN, behavior, cfg, seed, trace=trace)
        traced[behavior.name, seed] = record
        kinds |= {r["event"] for r in decoded(trace) if "role" in r}
        failed = [r for r in decoded(trace) if r.get("event") == "verdict" and not r["passed"]]
        assert record.rounds_to_detect == (failed[0]["round"] if failed else None)
        failed_roles |= {r["role"] for r in failed}
    assert kinds == {"window", "prepare_auth", "verdict", "terminate", "complete"}
    assert failed_roles == {"initiator", "responder"}

    def refuse(self, fields):
        raise AssertionError(f"trace event built without a trace: {fields}")

    monkeypatch.setattr(_Endpoint, "_emit", refuse)
    for behavior, seed in cases:
        assert qa.run_trial(CHAIN, behavior, cfg, seed) == traced[behavior.name, seed]


@pytest.mark.parametrize("cls", [Initiator, Responder])
def test_auth_event_texts_are_the_json_of_their_events(cls):
    # prepare_auth and verdict texts come from tables built at import: each
    # of the 4 plans' prepare_auth and the 8 (plan, outcome) verdicts is the
    # json.dumps text of its event's dict, the role first.
    trace, sim = [], Simulator()
    endpoint = cls(session_config(1, 4, KEY), None, sim, Draws(0), trace)
    for enc in (0, 1):
        for base, basis in enumerate(AUTH_BASES):
            plan = AuthPlan(enc, base)
            trace.clear()
            sim.release(endpoint._prove(plan))
            assert trace == [json.dumps({"role": cls.role, "event": "prepare_auth",
                                         "state": plan.expected_state})]
            endpoint.schedule = SimpleNamespace(plans=[None, plan])
            for measured in (0, 1):
                trace.clear()
                endpoint.state.round = 2
                passed = endpoint._verify(sim.prepare(measured, basis))
                assert passed == (measured == enc)
                assert trace[0] == json.dumps({
                    "role": cls.role, "event": "verdict", "round": 2, "passed": passed,
                    "measured": measured, "expected": enc, "basis": basis.value})
    assert sim.live_count() == 0


# -- reverse authentication --------------------------------------------------------


def test_reverse_auth_doubles_auth_qubits():
    one_way = qa.run_trial(CHAIN, qa.Honest(), session_config(2, 8, KEY), seed=12)
    trace = []
    both = qa.run_trial(
        CHAIN,
        qa.Honest(),
        session_config(2, 8, KEY, reverse_auth=True),
        seed=12,
        trace=trace,
    )
    assert one_way.completed and both.completed
    rounds = sum(
        1 for r in decoded(trace) if r.get("event") == "verdict" and r["role"] == "initiator"
    )
    assert one_way.auth_qubits_sent == rounds
    assert both.auth_qubits_sent == 2 * rounds
    # both sides issue one verdict per round
    responder_verdicts = [
        r for r in decoded(trace) if r.get("event") == "verdict" and r["role"] == "responder"
    ]
    assert len(responder_verdicts) == rounds
    assert all(r["passed"] for r in responder_verdicts)


def test_reverse_auth_per_round_detection():
    # Two independent intercept chances per round: detection probability
    # 1 - (3/4)^2 = 7/16 per round (4 sigma at this sample size).
    rounds = detections = 0
    i = 0
    while rounds < 6000:
        cfg = session_config(1, 10**9, reverse_auth=True)
        record = qa.run_trial(
            CHAIN, qa.InterceptResend("random_zx"), cfg, seed=70_000 + i
        )
        assert record.detected
        rounds += record.rounds_to_detect
        detections += 1
        i += 1
    assert abs(detections / rounds - 7 / 16) < 0.025
