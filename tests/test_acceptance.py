"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The statistical criteria are checked against oracles that never touch the
simulator: a dynamic program, proven equal to a plain walk over every small
key, gives the window schedule's law under uniform keys exactly, and the
geometric detection law (miss 3/4 per round) enters in closed form, so the
oracles carry no sampling noise.
"""

import functools
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

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
from helpers import assert_bell_pair, window_value
from qauthsim.qsim import Simulator, make_rng, states_equal

CHAIN = qa.Topology.chain(1)
MISS = 0.75  # per-round miss probability of a basis-measuring interceptor
KEY_LENGTH = 1024  # the campaigns' key length


# -- schedule oracle ------------------------------------------------------------


def auth_rounds(bits, t, target):
    """R value of every window the initiator fully transfers (and therefore
    authenticates) before the delivery target closes the session, reading at
    most the key's floor(L/T) windows that do not wrap."""
    rounds = []
    delivered = 0
    while delivered < target and len(rounds) < len(bits) // t:
        r = window_value(bits, t, len(rounds))
        if delivered + r > target:
            break  # target reached mid-window: complete, no auth
        delivered += r
        rounds.append(r)
    return rounds


def schedule_dp(t, target, windows, one=1.0):
    """f[k][d] = P(M >= k, delivered after round k = d) for k <= windows, with
    M the authenticated rounds and R iid uniform on {0..2^T-1}: a live session
    (d < target) opens a window, which authenticates only if d + R <= target
    and otherwise completes the session. Exact when ``one`` is Fraction(1)."""
    size = 2**t
    zero = 0 * one
    f = [[one] + [zero] * target]
    for _ in range(windows):
        prev, cur = f[-1], [zero] * (target + 1)
        for d in range(target):
            if prev[d]:
                share = prev[d] / size
                for r in range(min(size, target + 1 - d)):
                    cur[d + r] += share
        f.append(cur)
    return f


@functools.cache
def schedule_model(t, target):
    """Exact statistics under uniform keys of length KEY_LENGTH.

    Returns (detection_rate, mean_rounds_to_detect, mean_leakage,
    mean_overhead, wrap): round k detects with probability MISS^(k-1)(1-MISS)
    given M >= k, and wrap is P(window floor(L/T)+1 is opened), the mass
    the no-wrap model leaves out.
    """
    f = schedule_dp(t, target, KEY_LENGTH // t)
    detect = rounds = leak = auth = 0.0
    for k in range(1, len(f)):
        alive = sum(f[k])  # P(M >= k)
        first = MISS ** (k - 1) * (1.0 - MISS)
        detect += first * alive
        rounds += first * alive * k
        leak += first * sum(d * x for d, x in enumerate(f[k]))
        auth += alive
    wrap = sum(f[-1][:target])
    return detect, rounds / detect, leak / detect, auth / target, wrap


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
    for length in range(2, 9):
        for t in range(1, length + 1):
            windows = length // t
            total = sum(
                window_value(bits, t, k)
                for bits in product((0, 1), repeat=length)
                for k in range(windows)
            )
            # capacity is the floor of the exact mean over all 2^length keys
            assert capacity(length, t) == total // 2**length
    print("ACCEPTANCE 2: PASS capacity 768/1193 and exhaustive small-key equivalence")


def test_schedule_model_equals_exhaustive_walk():
    # Over every key of length L, the number of keys with M >= k and D_k = d
    # in the capped walk is exactly 2^L f_k(d), for every k <= floor(L/T);
    # targets run past one window's maximum.
    for length in range(2, 13):
        keys = list(product((0, 1), repeat=length))
        for t in range(1, min(length, 4) + 1):
            windows = length // t
            for target in range(10):
                counts = Counter()  # keys by (k, D_k) for k <= M
                for bits in keys:
                    prefix = accumulate(auth_rounds(bits, t, target), initial=0)
                    counts.update(enumerate(prefix))
                f = schedule_dp(t, target, windows, one=Fraction(1))
                for k, row in enumerate(f):
                    for d, x in enumerate(row):
                        assert x * 2**length == counts[k, d], (length, t, target, k, d)


@pytest.mark.parametrize("t", [1, 2])
def test_schedule_model_meets_closed_forms(t):
    # Detection is near certain at target 150, so the rounds to detect are
    # geometric with mean 1/p = 4 and, by Wald's identity, the leakage is
    # E[R] / p = 2 (2^T - 1)
    _, rounds, leak, _, wrap = schedule_model(t, 150)
    assert wrap < 1e-12
    assert abs(rounds - 1 / (1 - MISS)) <= 1e-6
    assert abs(leak - 2 * (2**t - 1)) <= 1e-6


def test_criterion_3_detection_rates(mitm_campaign):
    rates = {row.transfer_length: row.detection_rate for row in mitm_campaign.rows}
    assert rates[1] == 1.0
    assert rates[2] == 1.0
    assert rates[3] == 1.0
    assert rates[4] >= 0.97
    oracle_rate, *_, wrap = schedule_model(5, 150)
    assert wrap < 1e-12
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
        _, oracle_rounds, _, _, wrap = schedule_model(row.transfer_length, 150)
        assert wrap < 1e-12
        assert abs(oracle_rounds - row.mean_rounds) <= row.mean_rounds_ci, (
            f"T={row.transfer_length}: oracle {oracle_rounds:.3f} outside "
            f"{row.mean_rounds:.3f} +- {row.mean_rounds_ci:.3f}"
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
        _, _, oracle_leak, _, wrap = schedule_model(row.transfer_length, 150)
        assert wrap < 1e-12
        assert abs(oracle_leak - row.mean_leakage) <= row.mean_leakage_ci, (
            f"T={row.transfer_length}: oracle {oracle_leak:.2f} outside "
            f"{row.mean_leakage:.2f} +- {row.mean_leakage_ci:.2f}"
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
        *_, oracle_overhead, wrap = schedule_model(row.transfer_length, 100)
        assert wrap < 1e-12
        assert abs(oracle_overhead - row.overhead) <= row.overhead_ci, (
            f"T={row.transfer_length}: oracle {oracle_overhead:.4f} outside "
            f"{row.overhead:.4f} +- {row.overhead_ci:.4f}"
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
        assert record.completed
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
