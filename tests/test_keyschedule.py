"""Key schedule tests: window arithmetic, auth-plan extraction, capacity.

The wrap-around reads are checked against a plain index-arithmetic oracle,
and capacity against exhaustive enumeration of all keys for small lengths.
"""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import key_from_bits, window_value
from qauthsim.keyschedule import (
    AUTH_STATE_TABLE,
    AuthPlan,
    KeyCursors,
    KeyMaterial,
    ScheduleConfig,
    capacity,
    next_auth_pair,
    next_r,
    parse_key,
)


def test_worked_example_windows():
    key = parse_key("1101")
    cfg = ScheduleConfig(transfer_length=2, encoding_index=0)
    cur = KeyCursors()
    assert next_r(key, cfg, cur) == 3
    assert next_r(key, cfg, cur) == 1


def test_worked_example_auth_plans():
    key = parse_key("1101")
    cfg = ScheduleConfig(transfer_length=2, encoding_index=0)
    assert cfg.base_index == 1
    cur = KeyCursors()
    first = next_auth_pair(key, cfg, cur)
    assert (first.encoding_bit, first.base_bit) == (1, 1)
    assert first.expected_state == "-"
    second = next_auth_pair(key, cfg, cur)
    assert (second.encoding_bit, second.base_bit) == (0, 1)
    assert second.expected_state == "+"


def test_equal_pair_bits_ignore_index_order():
    key = parse_key("1101")
    for e in (0, 1):
        plan = next_auth_pair(key, ScheduleConfig(2, e), KeyCursors())
        assert plan.expected_state == "-"


def test_all_zero_window():
    key = parse_key("0000")
    assert next_r(key, ScheduleConfig(3), KeyCursors()) == 0


def test_wraparound_windows_match_oracle():
    key = parse_key("101")
    cfg = ScheduleConfig(2)
    cur = KeyCursors()
    got = [next_r(key, cfg, cur) for _ in range(12)]
    assert got[:3] == [2, 3, 1]  # "10", "11" (wrapping), "01" (wrapping)
    assert got == [window_value(key.bits, 2, i) for i in range(12)]


def test_plan_table_covers_all_four_states():
    assert sorted(AUTH_STATE_TABLE.values()) == ["+", "-", "0", "1"]
    assert AuthPlan(0, 0).expected_state == "0"
    assert AuthPlan(1, 0).expected_state == "1"
    assert AuthPlan(0, 1).expected_state == "+"
    assert AuthPlan(1, 1).expected_state == "-"
    assert AuthPlan(1, 0).basis.value == "Z"
    assert AuthPlan(1, 1).basis.value == "X"


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=64),
    t=st.integers(1, 16),
    rounds=st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_window_sequence_matches_oracle(bits, t, rounds):
    key = key_from_bits(bits)
    cfg = ScheduleConfig(t)
    cur = KeyCursors()
    got = [next_r(key, cfg, cur) for _ in range(rounds)]
    assert got == [window_value(bits, t, i) for i in range(rounds)]
    assert all(0 <= r < 2**t for r in got)


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=32),
    t=st.integers(1, 8),
    order=st.lists(st.booleans(), min_size=1, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_cursors_are_independent(bits, t, order):
    # Interleaving pair draws arbitrarily never changes the R sequence, and
    # vice versa.
    key = key_from_bits(bits)
    cfg = ScheduleConfig(t)
    cur = KeyCursors()
    rs, plans = [], []
    for draw_r in order:
        if draw_r:
            rs.append(next_r(key, cfg, cur))
        else:
            plans.append(next_auth_pair(key, cfg, cur))
    pure_r = KeyCursors()
    assert rs == [next_r(key, cfg, pure_r) for _ in range(len(rs))]
    pure_p = KeyCursors()
    assert plans == [next_auth_pair(key, cfg, pure_p) for _ in range(len(plans))]


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=24),
    t=st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_window_sequence_periodicity(bits, t):
    key = key_from_bits(bits)
    cfg = ScheduleConfig(t)
    cur = KeyCursors()
    period = math.lcm(len(bits), t) // t
    seq = [next_r(key, cfg, cur) for _ in range(3 * period)]
    assert seq[:period] == seq[period : 2 * period] == seq[2 * period :]


def test_determinism_of_schedule():
    key = KeyMaterial.random(64, __import__("numpy").random.default_rng(5))
    cfg = ScheduleConfig(3, encoding_index=1)

    def draw():
        cur = KeyCursors()
        return (
            [next_r(key, cfg, cur) for _ in range(20)],
            [next_auth_pair(key, cfg, cur) for _ in range(20)],
        )

    assert draw() == draw()


# -- capacity -----------------------------------------------------------------


def test_capacity_reference_values():
    assert capacity(1024, 2) == 768
    assert capacity(1024, 3) == 1193
    assert capacity(1024, 1) == 512
    assert capacity(4, 4) == 7


def test_capacity_validates_arguments():
    with pytest.raises(ValueError):
        capacity(2, 3)
    with pytest.raises(ValueError):
        capacity(8, 0)


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6, 7, 8])
def test_capacity_equals_exhaustive_mean(length):
    # Enumerate every key of this length; the mean data-qubit count over one
    # full pass (floor(L/T) windows, no wrap) must floor to capacity().
    for t in range(1, length + 1):
        windows = length // t
        total = sum(
            window_value(bits, t, k)
            for bits in product((0, 1), repeat=length)
            for k in range(windows)
        )
        assert capacity(length, t) == total // 2**length


# -- key parsing / validation ---------------------------------------------------


def test_parse_key_binary():
    assert parse_key("1101").bits == (1, 1, 0, 1)


def test_parse_key_hex_with_length():
    assert parse_key("0xd", bit_length=4).bits == (1, 1, 0, 1)
    assert parse_key("0x0d", bit_length=6).bits == (0, 0, 1, 1, 0, 1)


def test_parse_key_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_key("0xd")  # hex needs a bit length
    with pytest.raises(ValueError):
        parse_key("0x1f", bit_length=4)  # does not fit
    with pytest.raises(ValueError):
        parse_key("12")
    with pytest.raises(ValueError):
        parse_key("")


def test_key_material_validation():
    with pytest.raises(ValueError):
        KeyMaterial((1,))
    with pytest.raises(ValueError):
        KeyMaterial((1, 2))


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(0)
    with pytest.raises(ValueError):
        ScheduleConfig(17)
    with pytest.raises(ValueError):
        ScheduleConfig(2, encoding_index=2)
    assert ScheduleConfig(2, encoding_index=1).base_index == 0
