"""Everything derived from the shared secret key: the key itself, each
round's transfer window (``next_r``) and authentication qubit
(``next_auth_pair``) as pure functions of the round index, the one
schedule per session that both endpoints read them through
(``RoundSchedule``) with the honest round count that bounds it
(``honest_rounds``), and the capacity formula.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .qsim import EIGENSTATE_LABELS, Basis, SimulationError

#: the basis of an auth qubit or payload by its base bit: the one spelling
#: of this mapping, in the order of ``EIGENSTATE_LABELS``
AUTH_BASES = (Basis.Z, Basis.X)

MAX_TRANSFER_LENGTH = 16
#: Longest key, in bits, that a key length, a hex key's bit count or a 0/1
#: key may give: a longer one is refused before anything is allocated.
MAX_KEY_LENGTH = 1 << 20
#: the most rounds a campaign may give one session of a fixed key at any T:
#: about 7 s a trial, and about 16 MB of ``RoundSchedule`` lists
MAX_FIXED_KEY_ROUNDS = 10**6


def _check_key_length(length: int, what: str) -> None:
    if not 2 <= length <= MAX_KEY_LENGTH:
        raise ValueError(f"{what} must be in [2, {MAX_KEY_LENGTH}], got {length}")


@dataclass(frozen=True, slots=True)
class KeyMaterial:
    """Immutable shared secret bit string: ``bits`` holds one byte, 0 or 1,
    per bit. Any sequence of 0/1 ints is taken and stored as ``bytes``, so
    equal keys compare and hash equal however they were built."""

    bits: bytes

    def __post_init__(self):
        try:  # iter: an array's items, never its buffer
            object.__setattr__(self, "bits", bits := bytes(iter(self.bits)))
        except (TypeError, ValueError):
            raise ValueError("key bits must be 0 or 1") from None
        if len(bits) < 2:
            raise ValueError("key needs at least 2 bits")
        if bits.translate(None, b"\0\1"):
            raise ValueError("key bits must be 0 or 1")

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "KeyMaterial":
        """``length`` bits of ``rng.integers(0, 2)``, as bytes. They are 0
        or 1 by construction, so only the length is checked, not every bit."""
        _check_key_length(length, "key length")
        key = object.__new__(cls)
        bits = rng.integers(0, 2, size=length).astype(np.uint8).tobytes()
        object.__setattr__(key, "bits", bits)
        return key


def parse_key(text: str, bit_length: int | None = None) -> KeyMaterial:
    """Parse a key from an ASCII '0'/'1' string, or from '0x...' hex with an
    explicit bit length."""
    text = text.strip()
    if text.lower().startswith("0x"):
        if bit_length is None:
            raise ValueError("hex keys need an explicit bit length")
        _check_key_length(bit_length, "hex key bit length")
        try:
            value = int(text, 16)
        except ValueError:
            raise ValueError(f"hex key {text!r} needs hex digits after 0x") from None
        if value >= (1 << bit_length):
            raise ValueError(f"hex value does not fit in {bit_length} bits")
        text = format(value, f"0{bit_length}b")
    elif not text or set(text) - {"0", "1"}:
        raise ValueError("key must be a 0/1 string or 0x-prefixed hex")
    _check_key_length(len(text), "key length")
    return KeyMaterial(text.encode().translate(bytes.maketrans(b"01", b"\0\1")))


@dataclass(frozen=True, slots=True)
class ScheduleConfig:
    """Session-constant schedule parameters.

    The encoding index (0 or 1) selects which bit of each key pair sets the
    auth qubit's initial value; the other bit sets its basis
    (``next_auth_pair``).
    """

    transfer_length: int
    encoding_index: int = 0

    def __post_init__(self):
        if not 1 <= self.transfer_length <= MAX_TRANSFER_LENGTH:
            raise ValueError(
                f"transfer length must be in [1, {MAX_TRANSFER_LENGTH}]"
            )
        if self.encoding_index not in (0, 1):
            raise ValueError("encoding index must be 0 or 1")


@dataclass(frozen=True, slots=True)
class AuthPlan:
    """One round's authentication qubit recipe: value bit plus basis bit."""

    encoding_bit: int
    base_bit: int

    @property
    def expected_state(self) -> str:
        return EIGENSTATE_LABELS[self.base_bit][self.encoding_bit]


#: The plans by encoding index e, then by a round's key bit pair as
#: 2 first + second: bit e of the pair is the encoding bit, the other the base bit.
_PLANS_BY_PAIR = tuple(tuple(AuthPlan(p >> 1 - e & 1, p >> e & 1) for p in range(4))
                       for e in (0, 1))
_PLAN_ARRAYS = tuple(np.array(plans, dtype=object) for plans in _PLANS_BY_PAIR)


def next_r(key: KeyMaterial, cfg: ScheduleConfig, index: int) -> int:
    """Round ``index``'s transfer window: the T key bits from bit index * T,
    MSB first, wrapping."""
    bits = key.bits
    n = len(bits)
    start = index * cfg.transfer_length
    value = 0
    for i in range(start, start + cfg.transfer_length):
        value = (value << 1) | bits[i % n]
    return value


def next_auth_pair(key: KeyMaterial, cfg: ScheduleConfig, index: int) -> AuthPlan:
    """Round ``index``'s AuthPlan, split from key bits 2 index and
    2 index + 1, wrapping."""
    bits = key.bits
    n = len(bits)
    c = 2 * index % n
    return _PLANS_BY_PAIR[cfg.encoding_index][bits[c] << 1 | bits[(c + 1) % n]]


#: the rounds read one at a time, by ``next_r`` and ``next_auth_pair``
FIRST_BLOCK = 8
#: the most rounds one block reads, which bounds its numpy arrays
MAX_BLOCK = 1 << 12
#: a T-bit window's bit weights, MSB first, by T
_WEIGHTS = [1 << np.arange(t - 1, -1, -1) for t in range(MAX_TRANSFER_LENGTH + 1)]


def _windows(key: KeyMaterial, t: int, start: int, count: int) -> np.ndarray:
    """``next_r`` of rounds ``start`` to ``start + count``, in one numpy pass."""
    n = len(key.bits)
    first = start * t % n
    bits = key.bits * ((first + count * t - 1) // n + 1)
    return np.frombuffer(bits, np.uint8, count * t, first).reshape(count, t) @ _WEIGHTS[t]


def _block(key: KeyMaterial, cfg: ScheduleConfig, start: int, size: int,
           short: int) -> tuple[list[int], list[AuthPlan]]:
    """The windows and plans of rounds ``start`` to ``start + size``, cut after
    the one whose window brings their data to ``short``. Pairs are T = 2 windows."""
    rs = _windows(key, cfg.transfer_length, start, size).tolist()
    rs = rs[:bisect_left(list(accumulate(rs)), short) + 1]
    pairs = _windows(key, 2, start, len(rs))
    return rs, _PLAN_ARRAYS[cfg.encoding_index][pairs].tolist()


class RoundSchedule:
    """One session's rounds, which both endpoints open in order with
    ``window(i)``: round i's window R is ``rs[i]``, its plan ``plans[i]``.
    The first ``FIRST_BLOCK`` are read as they open, later ones ahead in
    blocks of at most twice the rounds read, cut at the honest end; a round
    past it is refused. ``guard`` is ``slack`` times the most endpoint steps
    the rounds opened can take: per round its data qubits and four more
    (verify, open, prove, reverse verify), and two completions. A fixed
    key's trials may share the ``held`` lists ``rs`` and ``plans``."""

    slack = 2

    __slots__ = ("key", "cfg", "target", "rs", "plans", "opened", "reach", "guard")

    def __init__(self, key: KeyMaterial, cfg: ScheduleConfig, target: int,
                 held: tuple[list[int], list[AuthPlan]] | None = None):
        self.key = key
        self.cfg = cfg
        self.target = target
        self.rs, self.plans = ([], []) if held is None else held
        self.opened = 0  # the rounds opened
        self.reach = 0  # the data qubits of the windows opened
        self.guard = self.slack * 2

    def window(self, index: int) -> int:
        """Round ``index``'s window R, opening it on the first ask.
        Raises SimulationError for a round past the honest end."""
        rs = self.rs
        if index != self.opened:
            return rs[index]
        reach, target = self.reach, self.target
        if reach >= target:
            raise SimulationError(f"round {index + 1} is past the end of the session")
        if index == len(rs):  # every round read is open, so reach is theirs
            if index < FIRST_BLOCK:
                # module globals, so that a wrapper set on the module sees each read
                rs.append(next_r(self.key, self.cfg, index))
                self.plans.append(next_auth_pair(self.key, self.cfg, index))
            else:
                block = _block(self.key, self.cfg, index, min(2 * index, MAX_BLOCK), target - reach)
                rs += block[0]
                self.plans += block[1]
        self.opened = opened = index + 1
        self.reach = reach = reach + (r := rs[index])
        self.guard = self.slack * ((reach if reach < target else target) + 4 * opened + 2)
        return r


def honest_rounds(key: KeyMaterial, cfg: ScheduleConfig, target: int) -> int:
    """The rounds an honest session of ``target`` data qubits reads: those
    ``RoundSchedule.window`` opens before it refuses one. Round i's window
    starts at key bit i T mod L, so it depends only on i mod L, and whole
    passes of L rounds plus one partial walk give the count in O(L T).
    Raises ValueError for an all-zero key and a target above 0, which no
    count of rounds reaches."""
    if target <= 0:
        return 0
    n = len(key.bits)
    reach = np.cumsum(_windows(key, cfg.transfer_length, 0, n))
    if not reach[-1]:
        raise ValueError("all-zero key never schedules a data window")
    passes, rest = divmod(target - 1, int(reach[-1]))
    return passes * n + int(np.searchsorted(reach, rest + 1)) + 1


def capacity(key_length: int, transfer_length: int) -> int:
    """Average number of data qubits one full pass of the key supports.

    A pass yields floor(L/T) windows, each averaging (2^T - 1)/2 data qubits
    over uniform keys; the result is floored to a whole qubit count.
    """
    if transfer_length < 1:
        raise ValueError("transfer length must be >= 1")
    if key_length < transfer_length:
        raise ValueError("key length must be >= transfer length")
    windows = key_length // transfer_length
    return (2**transfer_length - 1) * windows // 2
