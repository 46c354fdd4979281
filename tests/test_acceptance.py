"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The statistical criteria are checked against oracles that never touch the
simulator: plain integer walks over key bits reproduce the window schedule,
and the geometric detection law (miss 3/4 per round) enters through closed
forms, so the only oracle noise is key sampling.
"""

import functools

import numpy as np
import pytest

import qauthsim as qa
from qauthsim.experiments import (
    ExperimentConfig,
    analytic_detection,
    emit_campaign,
    run_experiment,
)
from qauthsim.keyschedule import ScheduleConfig, capacity
from qauthsim.protocol import SessionConfig
from helpers import assert_bell_pair
from qauthsim.qsim import Simulator, make_rng, states_equal

CHAIN = qa.Topology.chain(1)
MISS = 0.75  # per-round miss probability of a basis-measuring interceptor
ORACLE_KEYS = 20_000


# -- schedule oracle ------------------------------------------------------------


def window_value(bits, pos, t):
    value = 0
    for i in range(t):
        value = (value << 1) | bits[(pos + i) % len(bits)]
    return value


def auth_rounds(bits, t, target):
    """R value of every window the initiator fully transfers (and therefore
    authenticates) before the delivery target closes the session."""
    rounds = []
    pos = delivered = 0
    while delivered < target:
        r = window_value(bits, pos, t)
        pos = (pos + t) % len(bits)
        if delivered + r > target:
            break  # target reached mid-window: complete, no auth
        delivered += r
        rounds.append(r)
    return rounds


@functools.cache
def schedule_oracle(t, target, keys=ORACLE_KEYS, key_length=1024, seed=2718):
    """Exact-in-detection statistics under uniform keys.

    Returns (detection_rate, mean_rounds_to_detect, mean_leakage,
    mean_overhead): the geometric law is folded in analytically per key, so
    only key sampling is stochastic.
    """
    rng = np.random.default_rng(seed)
    p, q = 1.0 - MISS, MISS
    miss_sum = 0.0
    detect_weight = 0.0  # sum over keys of P(detect)
    rounds_weight = 0.0  # sum over keys of E[N * 1(N <= M)]
    leak_weight = 0.0  # sum over keys of E[prefix_R(N) * 1(N <= M)]
    overhead_sum = 0.0
    for _ in range(keys):
        bits = rng.integers(0, 2, size=key_length)
        rounds = auth_rounds(bits, t, target)
        m = len(rounds)
        qm = q**m
        miss_sum += qm
        detect_weight += 1.0 - qm
        rounds_weight += (1 - (m + 1) * q**m + m * q ** (m + 1)) / p
        prefix = 0
        for k, r in enumerate(rounds, start=1):
            prefix += r
            leak_weight += q ** (k - 1) * p * prefix
        overhead_sum += m / target
    return (
        1.0 - miss_sum / keys,
        rounds_weight / detect_weight,
        leak_weight / detect_weight,
        overhead_sum / keys,
    )


def ci_interval(row_mean, row_ci):
    return row_mean - row_ci, row_mean + row_ci


# -- shared campaigns -----------------------------------------------------------


@pytest.fixture(scope="module")
def mitm_campaign():
    cfg = ExperimentConfig(
        experiment="fig2_success",
        t_values=(1, 2, 3, 4, 5),
        trials=200,
        data_target=150,
        adversary="intercept_random",
        master_seed=2024,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def overhead_campaign():
    cfg = ExperimentConfig(
        experiment="fig5_overhead",
        t_values=(1, 2, 3, 4, 5),
        trials=200,
        data_target=100,
        adversary="honest",
        master_seed=2024,
    )
    return run_experiment(cfg)


def test_criterion_1_worked_example_golden_trace():
    trace = []
    cfg = SessionConfig(
        key=qa.parse_key("1101"),
        sched=ScheduleConfig(transfer_length=2, encoding_index=0),
        data_qubit_target=4,
    )
    assert cfg.sched.base_index == 1
    record = qa.run_trial(CHAIN, qa.Honest(), cfg, seed=1, trace=trace)
    assert record.completed and not record.detected
    windows = [(r["round"], r["r"]) for r in trace if r.get("event") == "window"]
    assert windows == [(1, 3), (2, 1)]
    states = [r["state"] for r in trace if r.get("event") == "prepare_auth"]
    assert states == ["-", "+"]
    verdicts = [
        (r["round"], r["passed"]) for r in trace if r.get("event") == "verdict"
    ]
    assert verdicts == [(1, True), (2, True)]
    print("ACCEPTANCE 1: PASS worked-example trace R=3,R=1 with |-> then |+>")


def test_criterion_2_capacity_formula():
    assert capacity(1024, 2) == 768
    assert capacity(1024, 3) == 1193
    # brute force over every key for small lengths
    from itertools import product

    for length in range(2, 9):
        for t in range(1, length + 1):
            windows = length // t
            total = sum(
                window_value(bits, k * t, t)
                for bits in product((0, 1), repeat=length)
                for k in range(windows)
            )
            # capacity is the floor of the exact mean over all 2^length keys
            assert capacity(length, t) == total // 2**length
    print("ACCEPTANCE 2: PASS capacity 768/1193 and exhaustive small-key equivalence")


def test_criterion_3_detection_rates(mitm_campaign):
    rates = {row.transfer_length: row.detection_rate for row in mitm_campaign.rows}
    assert rates[1] == 1.0
    assert rates[2] == 1.0
    assert rates[3] == 1.0
    assert rates[4] >= 0.97
    oracle_rate = schedule_oracle(5, 150)[0]
    assert abs(rates[5] - oracle_rate) <= 0.04
    # non-increasing in T (within the detection-rate CI)
    cis = {row.transfer_length: row.detection_rate_ci for row in mitm_campaign.rows}
    for t in (1, 2, 3, 4):
        assert rates[t + 1] <= rates[t] + cis[t] + cis[t + 1]
    print(
        "ACCEPTANCE 3: PASS detection rates "
        + " ".join(f"T{t}={rates[t]:.3f}" for t in (1, 2, 3, 4, 5))
        + f" (T5 oracle {oracle_rate:.3f})"
    )


def test_criterion_4_rounds_to_detect(mitm_campaign):
    for row in mitm_campaign.rows:
        assert row.mean_rounds is not None
        assert abs(row.mean_rounds - 4.0) <= 1.0
        oracle_rounds = schedule_oracle(row.transfer_length, 150)[1]
        low, high = ci_interval(row.mean_rounds, row.mean_rounds_ci)
        assert low <= oracle_rounds <= high, (
            f"T={row.transfer_length}: oracle {oracle_rounds:.3f} outside "
            f"[{low:.3f}, {high:.3f}]"
        )
    means = {r.transfer_length: r.mean_rounds for r in mitm_campaign.rows}
    print(
        "ACCEPTANCE 4: PASS mean rounds-to-detect "
        + " ".join(f"T{t}={m:.2f}" for t, m in means.items())
    )


def test_criterion_5_leakage(mitm_campaign):
    leaks = []
    for row in mitm_campaign.rows:
        assert row.mean_leakage is not None
        oracle_leak = schedule_oracle(row.transfer_length, 150)[2]
        low, high = ci_interval(row.mean_leakage, row.mean_leakage_ci)
        assert low <= oracle_leak <= high, (
            f"T={row.transfer_length}: oracle {oracle_leak:.2f} outside "
            f"[{low:.2f}, {high:.2f}]"
        )
        leaks.append(row.mean_leakage)
    assert all(a < b for a, b in zip(leaks, leaks[1:]))  # strictly increasing
    print(
        "ACCEPTANCE 5: PASS mean leakage increasing: "
        + " ".join(f"{v:.1f}" for v in leaks)
    )


def test_criterion_6_overhead(overhead_campaign):
    overheads = []
    for row in overhead_campaign.rows:
        assert row.overhead is not None
        oracle_overhead = schedule_oracle(row.transfer_length, 100)[3]
        low, high = ci_interval(row.overhead, row.overhead_ci)
        assert low <= oracle_overhead <= high, (
            f"T={row.transfer_length}: oracle {oracle_overhead:.4f} outside "
            f"[{low:.4f}, {high:.4f}]"
        )
        overheads.append(row.overhead)
    assert all(a > b for a, b in zip(overheads, overheads[1:]))  # decreasing
    # the reference percentages are emitted for comparison, never asserted
    table = emit_campaign(overhead_campaign, "table")
    assert "reference" in table
    print(
        "ACCEPTANCE 6: PASS overhead decreasing: "
        + " ".join(f"{100 * v:.1f}%" for v in overheads)
    )


def test_criterion_7_analytic_table():
    assert [analytic_detection(n)["two_state_collapse"] for n in (1, 2, 3, 4)] == [
        0.5,
        0.75,
        0.875,
        0.9375,
    ]
    assert round(analytic_detection(7)["two_state_collapse"], 3) == 0.992
    print("ACCEPTANCE 7: PASS analytic detection 0.5/0.75/0.875/0.9375 and 0.992")


def test_criterion_8a_honest_completeness():
    failures = 0
    for i in range(10_000):
        t = 1 + i % 5
        cfg = SessionConfig(
            key=None,
            sched=ScheduleConfig(t, i % 2),
            data_qubit_target=2**t,
            key_length=32,
        )
        record = qa.run_trial(CHAIN, qa.Honest(), cfg, seed=500_000 + i)
        failures += record.detected
    assert failures == 0
    print("ACCEPTANCE 8a: PASS zero authentication failures over 10,000 honest sessions")


@pytest.mark.parametrize("policy", ["random_zx", "always_z", "always_x"])
def test_criterion_8b_per_round_detection(policy):
    rounds = detections = 0
    i = 0
    while rounds < 10_000:
        cfg = SessionConfig(
            key=None,
            sched=ScheduleConfig(1, 0),
            data_qubit_target=10**9,
            key_length=64,
        )
        record = qa.run_trial(
            CHAIN, qa.InterceptResend(policy), cfg, seed=600_000 + i
        )
        assert record.detected
        rounds += record.rounds_to_detect
        detections += 1
        i += 1
    freq = detections / rounds
    assert abs(freq - 0.25) <= 0.02
    print(f"ACCEPTANCE 8b: PASS per-round detection {freq:.4f} under {policy}")


def test_criterion_8c_teleport_and_swap_fidelity():
    sim = Simulator()
    rng = make_rng(31)
    state_rng = np.random.default_rng(32)
    for hops in (1, 2, 3, 4, 5):  # up to 4 intermediate swaps
        for _ in range(100):
            v = state_rng.normal(size=2) + 1j * state_rng.normal(size=2)
            v /= np.linalg.norm(v)
            left, right = sim.make_bell_pair()
            for _ in range(hops - 1):
                a, b = sim.make_bell_pair()
                sim.teleport(right, a, b, rng)  # swap: the far half moves on
                right = b
            payload = sim.allocate_qubit(v)
            assert_bell_pair(sim, left, right)
            sim.teleport(payload, left, right, rng)
            assert states_equal(sim.amplitudes(right), v, tol=1e-9)
            sim.release(right)
    print("ACCEPTANCE 8c: PASS teleport and chained-swap fidelity at 1e-9")


def test_criterion_9_byte_identical_csv():
    cfg = ExperimentConfig(
        experiment="custom",
        t_values=(1, 2, 3, 4, 5),
        trials=10,
        data_target=30,
        adversary="intercept_random",
        master_seed=99,
        key_length=128,
    )
    first = emit_campaign(run_experiment(cfg), "csv").encode()
    second = emit_campaign(run_experiment(cfg), "csv").encode()
    assert first == second
    print("ACCEPTANCE 9: PASS byte-identical CSV for identical master seed")
