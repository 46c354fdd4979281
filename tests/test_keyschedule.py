"""Key schedule tests: window reads, auth plans, the round schedule, capacity.

The wrap-around reads are checked against a plain index-arithmetic oracle,
and capacity against exhaustive enumeration of all keys for small lengths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_capacity, key_from_bits, window_value
from qauthsim.keyschedule import (
    AUTH_BASES,
    AuthPlan,
    KeyMaterial,
    MAX_KEY_LENGTH,
    RoundSchedule,
    ScheduleConfig,
    capacity,
    honest_rounds,
    next_auth_pair,
    next_r,
    parse_key,
)
from qauthsim.qsim import SimulationError, make_rng


def test_worked_example_windows():
    key = parse_key("1101")
    cfg = ScheduleConfig(transfer_length=2, encoding_index=0)
    assert next_r(key, cfg, 0) == 3
    assert next_r(key, cfg, 1) == 1


def test_worked_example_auth_plans():
    # The pairs are (1, 1) and (0, 1): the encoding bit is bit e of each
    # pair and the base bit the other one.
    key = parse_key("1101")
    for e, second_plan, second_state in ((0, (0, 1), "+"), (1, (1, 0), "1")):
        cfg = ScheduleConfig(transfer_length=2, encoding_index=e)
        first = next_auth_pair(key, cfg, 0)
        assert (first.encoding_bit, first.base_bit) == (1, 1)
        assert first.expected_state == "-"
        second = next_auth_pair(key, cfg, 1)
        assert (second.encoding_bit, second.base_bit) == second_plan
        assert second.expected_state == second_state


def test_equal_pair_bits_ignore_index_order():
    key = parse_key("1101")
    for e in (0, 1):
        plan = next_auth_pair(key, ScheduleConfig(2, e), 0)
        assert plan.expected_state == "-"


def test_all_zero_window():
    key = parse_key("0000")
    assert next_r(key, ScheduleConfig(3), 0) == 0


def test_wraparound_windows_match_oracle():
    key = parse_key("101")
    cfg = ScheduleConfig(2)
    got = [next_r(key, cfg, i) for i in range(12)]
    assert got[:3] == [2, 3, 1]  # "10", "11" (wrapping), "01" (wrapping)
    assert got == [window_value(key.bits, 2, i) for i in range(12)]


def test_plan_table_covers_all_four_states():
    assert sorted(AuthPlan(e, b).expected_state for e in (0, 1) for b in (0, 1)) == [
        "+", "-", "0", "1"]
    assert AuthPlan(0, 0).expected_state == "0"
    assert AuthPlan(1, 0).expected_state == "1"
    assert AuthPlan(0, 1).expected_state == "+"
    assert AuthPlan(1, 1).expected_state == "-"
    assert AUTH_BASES[AuthPlan(1, 0).base_bit].value == "Z"
    assert AUTH_BASES[AuthPlan(1, 1).base_bit].value == "X"


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=64),
    t=st.integers(1, 16),
    rounds=st.integers(1, 40),
)
@settings(max_examples=200)
def test_window_sequence_matches_oracle(bits, t, rounds):
    key = key_from_bits(bits)
    cfg = ScheduleConfig(t)
    got = [next_r(key, cfg, i) for i in range(rounds)]
    assert got == [window_value(bits, t, i) for i in range(rounds)]
    assert all(0 <= r < 2**t for r in got)


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=32),
    t=st.integers(1, 8),
    e=st.integers(0, 1),
    order=st.lists(st.booleans(), min_size=1, max_size=60),
)
@settings(max_examples=200)
def test_cursors_are_independent(bits, t, e, order):
    # Two readers of one schedule, each opening its rounds in order and
    # interleaved arbitrarily, see the same rounds: each round's window is
    # the index oracle's, its plan the round's pair of key bits, and the
    # schedule opens each round once, whichever reader comes first.
    key = key_from_bits(bits)
    schedule = RoundSchedule(key, ScheduleConfig(t, e), target=10**9)
    cursors = [0, 0]
    for reader in order:
        i = cursors[reader]
        assert schedule.window(i) == window_value(bits, t, i)
        pair = (bits[2 * i % len(bits)], bits[(2 * i + 1) % len(bits)])
        assert schedule.plans[i] == AuthPlan(pair[e], pair[1 - e])
        cursors[reader] += 1
    assert schedule.opened == max(cursors) <= len(schedule.rs) == len(schedule.plans)


@st.composite
def sparse_or_dense_bits(draw):
    """A nonzero key of 2-48 bits: a few ones among zeros, a few zeros among
    ones, or uniform bits."""
    n = draw(st.integers(2, 48))
    kind = draw(st.sampled_from(["sparse", "dense", "uniform"]))
    if kind == "uniform":
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        few = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        bits = [int((i in few) == (kind == "sparse")) for i in range(n)]
    return bits if any(bits) else [1] + bits[1:]


@given(bits=sparse_or_dense_bits(), t=st.integers(1, 16), target=st.integers(0, 60))
@settings(max_examples=300)
def test_honest_rounds_counts_the_rounds_the_schedule_reads(bits, t, target):
    # The count is the number of rounds RoundSchedule.window reads before it
    # refuses the next one as past the honest end.
    key, cfg = key_from_bits(bits), ScheduleConfig(t)
    schedule = RoundSchedule(key, cfg, target)
    with pytest.raises(SimulationError, match="past the end of the session"):
        for i in range(10**6):
            schedule.window(i)
    assert honest_rounds(key, cfg, target) == len(schedule.rs)


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=64),
    t=st.integers(1, 16),
    e=st.integers(0, 1),
    target=st.integers(0, 200),
)
@settings(max_examples=300)
def test_blocks_read_what_next_r_and_next_auth_pair_give(bits, t, e, target):
    # Rounds from FIRST_BLOCK on are read in blocks that wrap the key, yet
    # each opened round has next_r's window and next_auth_pair's plan; no
    # round past the honest end is held, and it is refused; the guard
    # counts the rounds opened.
    bits[0] |= not any(bits)
    key, cfg = key_from_bits(bits), ScheduleConfig(t, e)
    schedule = RoundSchedule(key, cfg, target)
    end = honest_rounds(key, cfg, target)
    data = 0
    for i in range(end):
        assert schedule.window(i) == next_r(key, cfg, i)
        assert schedule.plans[i] is next_auth_pair(key, cfg, i)
        data += schedule.rs[i]
        assert schedule.guard == schedule.slack * (min(data, target) + 4 * (i + 1) + 2)
        assert len(schedule.rs) == len(schedule.plans) <= end
    with pytest.raises(SimulationError, match=f"^round {end + 1} is past the end of the session$"):
        schedule.window(end)
    assert len(schedule.rs) == end


def test_honest_rounds_of_an_all_zero_key_is_refused():
    assert honest_rounds(parse_key("00"), ScheduleConfig(1), 0) == 0
    with pytest.raises(ValueError, match="all-zero key"):
        honest_rounds(parse_key("0000"), ScheduleConfig(3), 1)


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=24),
    t=st.integers(1, 8),
)
@settings(max_examples=100)
def test_window_sequence_periodicity(bits, t):
    key = key_from_bits(bits)
    cfg = ScheduleConfig(t)
    period = math.lcm(len(bits), t) // t
    seq = [next_r(key, cfg, i) for i in range(3 * period)]
    assert seq[:period] == seq[period : 2 * period] == seq[2 * period :]


def test_determinism_of_schedule():
    key = KeyMaterial.random(64, __import__("numpy").random.default_rng(5))
    cfg = ScheduleConfig(3, encoding_index=1)

    def draw():
        schedule = RoundSchedule(key, cfg, target=10**9)
        return [schedule.window(i) for i in range(20)], schedule.plans

    assert draw() == draw()


# -- capacity -----------------------------------------------------------------


def test_capacity_reference_values():
    assert capacity(1024, 2) == 768
    assert capacity(1024, 3) == 1193
    assert capacity(1024, 1) == 512
    assert capacity(4, 4) == 7


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6, 7, 8])
def test_capacity_equals_exhaustive_mean(length):
    for t in range(1, length + 1):
        assert capacity(length, t) == exhaustive_capacity(length, t)


# -- key parsing / validation ---------------------------------------------------


def test_parse_key_binary():
    assert parse_key("1101").bits == bytes((1, 1, 0, 1))


def test_parse_key_hex_with_length():
    assert parse_key("0xd", bit_length=4).bits == bytes((1, 1, 0, 1))
    assert parse_key("0x0d", bit_length=6).bits == bytes((0, 0, 1, 1, 0, 1))


@given(data=st.data(), n=st.integers(2, 96))
@settings(max_examples=200)
def test_parse_key_hex_reads_bits_msb_first(data, n):
    value = data.draw(st.integers(0, (1 << n) - 1))
    expected = bytes((value >> (n - 1 - i)) & 1 for i in range(n))
    assert parse_key(hex(value), bit_length=n).bits == expected


@pytest.mark.parametrize("length", [2, 3, 17, 1024])
def test_a_drawn_key_is_the_generator_draw(length):
    # A drawn key skips the per-bit check, so it must be the draw itself:
    # the bits integers(0, 2) gives a twin generator, one byte each, read
    # back as Python ints 0 and 1, with both generators left in one state.
    for seed in range(6):
        rng, twin = make_rng(seed), make_rng(seed)
        key = KeyMaterial.random(length, rng)
        assert key.bits == bytes(twin.integers(0, 2, size=length).tolist())
        assert {type(b) for b in key.bits} == {int} and set(key.bits) <= {0, 1}
        assert key == KeyMaterial(key.bits) and len(key.bits) == length
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("length", [2, 5, 64, 1023])
def test_one_key_is_equal_and_hashes_equal_however_built(length):
    # Drawn, parsed from 0/1 text or from hex, or built from a tuple, a list
    # or an array of ints: one key, one hash, and its bits are bytes.
    for seed in range(4):
        drawn = KeyMaterial.random(length, make_rng(seed))
        text = "".join(map(str, drawn.bits))
        keys = [drawn, parse_key(text), parse_key(hex(int(text, 2)), bit_length=length),
                KeyMaterial(tuple(drawn.bits)), KeyMaterial([int(c) for c in text]),
                KeyMaterial(np.frombuffer(drawn.bits, np.uint8).astype(np.int64))]
        assert all(type(key.bits) is bytes for key in keys)
        assert len(set(keys)) == 1 and {hash(key) for key in keys} == {hash(drawn)}


def test_a_key_out_of_length_bounds_is_refused_before_any_draw():
    rng = make_rng(1)
    state = rng.bit_generator.state
    for length in (1, MAX_KEY_LENGTH + 1):
        with pytest.raises(ValueError, match="key length"):
            KeyMaterial.random(length, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="bit length"):
        parse_key("0x1", bit_length=MAX_KEY_LENGTH + 1)
    with pytest.raises(ValueError, match="key length"):
        parse_key("1" * (MAX_KEY_LENGTH + 1))


#: Refused key-schedule inputs, by the test that runs them: the call, its
#: arguments and the start of its ValueError message.
KEY_REFUSALS = {
    "capacity_validates_arguments": [
        (capacity, (2, 3), "key length must be >= transfer length"),
        (capacity, (8, 0), "transfer length must be >= 1"),
    ],
    "parse_key_rejects_bad_input": [
        (parse_key, ("0xd",), "hex keys need an explicit bit length"),
        (parse_key, ("0x1f", 4), "hex value does not fit in 4 bits"),
        (parse_key, ("12",), "key must be a 0/1 string or 0x-prefixed hex"),
        (parse_key, ("",), "key must be a 0/1 string or 0x-prefixed hex"),
    ],
    "key_material_validation": [
        (KeyMaterial, ((1,),), "key needs at least 2 bits"),
        (KeyMaterial, ((1, 2),), "key bits must be 0 or 1"),
    ],
    "keys_from_outside_keep_the_bit_check": [
        (KeyMaterial, ((0, 2),), "key bits must be 0 or 1"),
        (parse_key, ("012",), "key must be a 0/1 string or 0x-prefixed hex"),
    ],
    "schedule_config_validation": [
        (ScheduleConfig, (0,), r"transfer length must be in \[1, 16\]"),
        (ScheduleConfig, (17,), r"transfer length must be in \[1, 16\]"),
        (ScheduleConfig, (2, 2), "encoding index must be 0 or 1"),
    ],
}


def run_key_refusals(name):
    for call, args, message in KEY_REFUSALS[name]:
        with pytest.raises(ValueError, match="^" + message):
            call(*args)


def test_capacity_validates_arguments():
    run_key_refusals("capacity_validates_arguments")


def test_parse_key_rejects_bad_input():
    run_key_refusals("parse_key_rejects_bad_input")


def test_key_material_validation():
    run_key_refusals("key_material_validation")


def test_keys_from_outside_keep_the_bit_check():
    run_key_refusals("keys_from_outside_keep_the_bit_check")


def test_schedule_config_validation():
    run_key_refusals("schedule_config_validation")
