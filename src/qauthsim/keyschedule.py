"""Everything derived from the shared secret key: the key itself, each
round's transfer window (``next_r``) and authentication qubit
(``next_auth_pair``) as pure functions of the round index, the one
schedule per session that both endpoints read them through
(``RoundSchedule``), and the capacity formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import EIGENSTATE_LABELS, Basis, SimulationError

#: the basis of an auth qubit or payload by its base bit: the one spelling
#: of this mapping, in the order of ``EIGENSTATE_LABELS``
AUTH_BASES = (Basis.Z, Basis.X)

MAX_TRANSFER_LENGTH = 16
#: Longest key, in bits, that a key length, a hex key's bit count or a 0/1
#: key may give: a longer one is refused before anything is allocated.
MAX_KEY_LENGTH = 1 << 20


def _check_key_length(length: int, what: str) -> None:
    if not 2 <= length <= MAX_KEY_LENGTH:
        raise ValueError(f"{what} must be in [2, {MAX_KEY_LENGTH}], got {length}")


@dataclass(frozen=True, slots=True)
class KeyMaterial:
    """Immutable shared secret bit string."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 2:
            raise ValueError("key needs at least 2 bits")
        if not set(self.bits) <= {0, 1}:
            raise ValueError("key bits must be 0 or 1")

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "KeyMaterial":
        """``length`` bits of ``rng.integers(0, 2)``. They are 0 or 1 by
        construction, so only the length is checked, not every bit."""
        _check_key_length(length, "key length")
        key = object.__new__(cls)
        object.__setattr__(key, "bits", tuple(rng.integers(0, 2, size=length).tolist()))
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
        return KeyMaterial(tuple(map(int, format(value, f"0{bit_length}b"))))
    if not text or set(text) - {"0", "1"}:
        raise ValueError("key must be a 0/1 string or 0x-prefixed hex")
    _check_key_length(len(text), "key length")
    return KeyMaterial(tuple(int(c) for c in text))


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


#: The four plans, by [encoding_bit][base_bit]; every round shares them.
_AUTH_PLANS = tuple(tuple(AuthPlan(e, b) for b in (0, 1)) for e in (0, 1))


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
    pair = (bits[c], bits[(c + 1) % n])
    e = cfg.encoding_index
    return _AUTH_PLANS[pair[e]][pair[1 - e]]


class RoundSchedule:
    """One session's rounds, held by both endpoints: ``window(i)`` reads
    round i's window R into ``rs[i]`` and its plan into ``plans[i]`` the
    first time either endpoint opens round i, each opening them in order.
    It refuses a round whose earlier windows already hold the data target,
    which no session opens, honest or not. ``guard`` is ``slack`` times the
    most endpoint steps the rounds read can take: per round its data qubits
    and four more (verify, open, prove, reverse verify), and two completions.
    """

    slack = 2

    __slots__ = ("key", "cfg", "target", "rs", "plans", "reach", "guard")

    def __init__(self, key: KeyMaterial, cfg: ScheduleConfig, target: int):
        self.key = key
        self.cfg = cfg
        self.target = target
        self.rs: list[int] = []
        self.plans: list[AuthPlan] = []
        self.reach = 0  # the data qubits of the windows read
        self.guard = self.slack * 2

    def window(self, index: int) -> int:
        """Round ``index``'s window R, read with its plan on the first ask.
        Raises SimulationError for a round past the honest end."""
        rs = self.rs
        if index == len(rs):
            if self.reach >= self.target:
                raise SimulationError(f"round {index + 1} is past the end of the session")
            # module globals, so that a wrapper set on the module sees each read
            rs.append(r := next_r(self.key, self.cfg, index))
            self.plans.append(next_auth_pair(self.key, self.cfg, index))
            self.reach += r
            self.guard = self.slack * (min(self.reach, self.target) + 4 * len(rs) + 2)
        return rs[index]


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
