"""Minimal noiseless state-vector simulator for lone qubits and Bell pairs.

Qubits live in independent *groups* of at most two: a lone qubit, or one
pair, whose amplitudes are indexed most-significant-qubit-first in the
group's qubit order. The repeater path never needs more: each edge holds one
pair, a swap or hop Bell-measures one qubit against a half of another
pair, and an intercepted qubit is measured on its own. So there is no
two-qubit gate and no group merging, and every group keeps at most two
qubits by construction. Qubit handles are plain ints, the qubit's id in its
simulator.

Amplitudes are plain Python complex tuples: at 2 or 4 amplitudes scalar
arithmetic beats array dispatch by a wide margin, and numpy appears only in
the random streams. A tuple is immutable, so groups, ``NAMED_STATES`` and
the Bell memo share them instead of copying; an operation replaces a
group's tuple and never writes into one.

``bell_measure`` is the one Bell-measurement step, hops and swaps alike: a
teleport over one pair, its correction included, whose outcome table is
memoised per input (see ``_bell_table``). A repeater chain feeds it few
distinct inputs, so most calls are one memo read and two draws.

Every method that draws takes ``rng``, any object with ``random()``
returning a float in [0, 1): a numpy Generator, or a :class:`Draws` stream.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

NORM_TOL = 1e-9
#: Entries after which a Bell-measurement memo is emptied.
BELL_CACHE_MAX = 256

#: Words a :class:`Draws` stream reads in its first block after a sync; each
#: further block is twice the last, up to ``DRAWS_BLOCK_MAX``.
DRAWS_BLOCK_MIN = 8
DRAWS_BLOCK_MAX = 256

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_MASK64 = (1 << 64) - 1
_LOW32 = (1 << 32) - 1
_TWO_M53 = 2.0**-53


class SimulationError(Exception):
    """Base class for simulator failures."""


class DeadQubitError(SimulationError):
    """A released or consumed qubit handle was used."""


class Basis(Enum):
    Z = "Z"
    X = "X"


#: ``Basis.X`` as a global, which reads faster than the Enum member
_BASIS_X = Basis.X


#: A qubit handle: the int id of a live qubit in a :class:`Simulator`.
QubitRef = int


#: The eigenstates by label: "0" and "1" measure 0 and 1 in ``Basis.Z``,
#: "+" and "-" measure 0 and 1 in ``Basis.X``.
NAMED_STATES = {
    "0": (1 + 0j, 0j),
    "1": (0j, 1 + 0j),
    "+": (_SQRT2_INV + 0j, _SQRT2_INV + 0j),
    "-": (_SQRT2_INV + 0j, -_SQRT2_INV + 0j),
}

#: The label of the eigenstate that measures ``bit`` in ``basis`` is
#: ``EIGENSTATE_LABELS[basis is Basis.X][bit]``: the one spelling of this
#: mapping, which the key schedule's and the payload's tables derive from.
EIGENSTATE_LABELS = ("01", "+-")

#: ``NAMED_STATES`` entries in the layout of ``EIGENSTATE_LABELS``
_EIGENSTATES = tuple(
    tuple(NAMED_STATES[label] for label in labels) for labels in EIGENSTATE_LABELS
)

#: (|00> + |11>)/sqrt(2), the state of every fresh Bell pair
_PHI_PLUS = (_SQRT2_INV + 0j, 0j, 0j, _SQRT2_INV + 0j)

#: The Bell outcomes (m_a, m_b), indexed by 2 m_a + m_b
_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit child seed from (seed, index).

    Splitmix64-style: add a multiple of the golden-ratio increment, then run
    the avalanche finalizer. Identical inputs always give identical outputs.
    """
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic random stream: same seed, same outcome sequence."""
    return np.random.default_rng(seed & _MASK64)


class Draws:
    """The random stream of ``make_rng(seed)``, with scalar draws read from
    blocks of raw 64-bit words instead of one numpy call each.

    ``random()`` and ``integers(low, high)`` replay what the Generator
    computes from the same words, so a Draws stream and a Generator of one
    seed give the same values, in the same order, whatever the mix of
    calls:

    - ``random()`` is ``(w >> 11) * 2**-53`` of the next word;
    - ``integers(low, high)`` is numpy's 32-bit Lemire draw, rejection
      loop included, for ``high - low`` up to 2**32 (a wider range is
      refused). A 32-bit draw takes the low half of a fresh word and keeps
      the high half for the next one, as the PCG64 bit generator does; a
      ``random()`` or ``normal`` in between leaves the kept half alone.

    ``normal`` draws with the Generator itself, after moving the bit
    generator back over the words read but not used. The Generator's
    normal reads whole words only, and ``random_raw`` ignores the bit
    generator's own kept half, so the stream alone keeps its half. After a
    ``normal`` call, block reads start at ``DRAWS_BLOCK_MIN`` words again
    and double up to ``DRAWS_BLOCK_MAX``, so a stream that draws normals
    often reads few words it must move back over.
    """

    __slots__ = ("_gen", "_bits", "_words", "_block", "_has_half", "_half")

    def __init__(self, seed: int):
        self._gen = make_rng(seed)
        self._bits = self._gen.bit_generator
        self._words: list[int] = []  # unused words of the last block, next last
        self._block = DRAWS_BLOCK_MIN
        # the high half of the last split word, and whether it is unused
        self._has_half = False
        self._half = 0

    def _read(self) -> int:
        """Read the next block; return its first word."""
        block = self._block
        words = self._bits.random_raw(block).tolist()
        words.reverse()
        self._words = words
        self._block = min(2 * block, DRAWS_BLOCK_MAX)
        return words.pop()

    def random(self) -> float:
        try:
            word = self._words.pop()
        except IndexError:
            word = self._read()
        return (word >> 11) * _TWO_M53

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        try:
            word = self._words.pop()
        except IndexError:
            word = self._read()
        self._has_half = True
        self._half = word >> 32
        return word & _LOW32

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), drawn as ``Generator.integers`` draws it."""
        span = high - low
        if span == 1:
            return low  # numpy draws nothing for a one-value range
        if not 1 < span <= 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {span}")
        m = self._uint32() * span
        if (m & _LOW32) < span:
            threshold = ((1 << 32) - span) % span
            while (m & _LOW32) < threshold:
                m = self._uint32() * span
        return low + (m >> 32)

    def normal(self, size=None):
        """Standard normal values, drawn by the Generator from the first
        word this stream has not used."""
        if self._words:
            # PCG64 advances mod 2**128, so a negative step moves back
            self._bits.advance(-len(self._words))
            self._words = []
        self._block = DRAWS_BLOCK_MIN
        return self._gen.normal(size=size)


def states_equal(a, b, tol: float = NORM_TOL) -> bool:
    """Whether two normalized state vectors are equal up to global phase.

    Takes any 1-D sequences of amplitudes (lists, tuples, numpy vectors).
    """
    if len(a) != len(b):
        return False
    if len(a) == 2:  # one qubit: the same sum, spelled out
        a0, a1 = a
        b0, b1 = b
        overlap = a0.conjugate() * b0 + a1.conjugate() * b1
    else:
        overlap = sum(x.conjugate() * y for x, y in zip(a, b))
    return abs(abs(overlap) - 1.0) <= tol


class _Group:
    """The qubits of a lone qubit or a pair, and their amplitudes: a tuple
    that other groups and the Bell memo may share, so it is replaced, never
    written into."""

    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: list[int], amps: tuple[complex, ...]):
        self.qubits = qubits
        self.amps = amps


class Simulator:
    """Registry of live qubits and their entanglement groups.

    ``bell_memo`` is the Bell-measurement memo to fill and read: a dict that
    several simulators may share, since a table is a pure function of its
    key. Without one, the simulator keeps a private memo.
    """

    def __init__(self, bell_memo: dict | None = None):
        self._groups: dict[int, _Group] = {}  # qubit id -> its group (shared object)
        self._next_id = 0
        # (q's amps, q first, near's amps, near first) -> _bell_table(q's
        # halves, near's halves)
        self._bell_cache: dict[tuple, tuple] = {} if bell_memo is None else bell_memo

    # -- allocation / bookkeeping ------------------------------------------

    def allocate_qubit(self, state=None) -> QubitRef:
        """Allocate a fresh qubit, in |0> or in the given 2-amplitude state."""
        if state is None:
            amps = NAMED_STATES["0"]
        else:
            amps = list(map(complex, state))
            if len(amps) != 2:
                raise ValueError("single-qubit state needs exactly 2 amplitudes")
            norm = math.sqrt(abs(amps[0]) ** 2 + abs(amps[1]) ** 2)
            if not math.isfinite(norm) or norm < 1e-12:
                raise ValueError("state amplitudes must be finite and non-zero")
            amps = (amps[0] / norm, amps[1] / norm)
        return self.allocate_unit(amps)

    def allocate_unit(self, amps: tuple[complex, complex]) -> QubitRef:
        """A fresh qubit holding ``amps``, two amplitudes whose norm the
        caller vouches is 1, stored as Python complex values."""
        qid = self._next_id
        self._next_id = qid + 1
        a0, a1 = amps
        self._groups[qid] = _Group([qid], (complex(a0), complex(a1)))
        return qid

    def live_count(self) -> int:
        return len(self._groups)

    def release(self, q: QubitRef) -> None:
        """Discard a qubit. Only unentangled (singleton-group) qubits qualify."""
        group = self._groups.get(q)
        if group is None or len(group.qubits) != 1:
            self._lone(q)  # raises
        del self._groups[q]

    def amplitudes(self, q: QubitRef) -> tuple[complex, ...]:
        """Amplitudes of the group holding this qubit, as Python complex: the
        group's own tuple, which no later operation changes."""
        group = self._groups.get(q)
        if group is None:
            self._require(q)  # raises
        return group.amps

    def _require(self, q: QubitRef) -> _Group:
        group = self._groups.get(q)
        if group is None:
            raise DeadQubitError(f"qubit {q} is not live")
        return group

    def _lone(self, q: QubitRef) -> _Group:
        group = self._require(q)
        if len(group.qubits) != 1:
            raise SimulationError(f"qubit {q} is still entangled; Bell-measure it")
        return group

    # -- preparation and gates on a lone qubit ---------------------------------

    def prepare(self, bit: int, basis: Basis) -> QubitRef:
        """A fresh qubit in the eigenstate |0>, |1>, |+> or |-> that
        measures ``bit`` in ``basis``, holding its ``NAMED_STATES`` entry."""
        qid = self._next_id
        self._next_id = qid + 1
        self._groups[qid] = _Group([qid], _EIGENSTATES[basis is _BASIS_X][bit])
        return qid

    def apply_h(self, q: QubitRef) -> None:
        group = self._lone(q)
        a0, a1 = group.amps
        group.amps = ((a0 + a1) * _SQRT2_INV, (a0 - a1) * _SQRT2_INV)

    # -- measurement ---------------------------------------------------------

    def measure(self, q: QubitRef, basis: Basis, rng) -> int:
        """Born-rule measurement of an unentangled qubit. An X-basis
        measurement first rotates the qubit by H; the outcome is drawn from
        the weight of |1>. The qubit stays live, collapsed onto the
        ``NAMED_STATES`` eigenstate of the outcome in the requested basis,
        so an immediate re-measurement repeats the outcome.
        """
        group = self._groups.get(q)
        if group is None or len(group.qubits) != 1:
            self._lone(q)  # raises
        x = basis is _BASIS_X
        if x:
            self.apply_h(q)
        a = group.amps[1]
        outcome = int(rng.random() < a.real * a.real + a.imag * a.imag)
        group.amps = _EIGENSTATES[x][outcome]
        return outcome

    # -- entanglement primitives ---------------------------------------------

    def make_bell_pair(self) -> tuple[QubitRef, QubitRef]:
        """Two fresh qubits in (|00> + |11>)/sqrt(2), one shared group."""
        qid = self._next_id
        self._next_id = qid + 2
        # Same result as H on a then CNOT(a, b); built directly for speed.
        pair = _Group([qid, qid + 1], _PHI_PLUS)
        self._groups[qid] = self._groups[qid + 1] = pair
        return qid, qid + 1

    def bell_measure(self, q: QubitRef, near: QubitRef, rng) -> tuple[int, int]:
        """Teleport ``q`` over the pair (near, far): Bell-measure (q, near),
        consuming both, and leave q's state on far, near's partner, with
        X^(m_b) Z^(m_a) applied. Returns (m_a, m_b), the two correction bits
        a classical channel carries. With ``q`` the half of a neighbouring
        pair this is an entanglement swap: far ends up paired with q's old
        partner, which comes first in their group.

        One fused kernel with the outcome statistics and random draws of
        CNOT(q->near), H on q, then Z measurements of q and near. For every
        basis index r of the other qubits the four branches are

            c[m_a][m_b](r) = (amp[r, 0, m_b] + (-1)^m_a amp[r, 1, 1-m_b]) / sqrt(2)

        with amp[r, x, y] the amplitude at q = x and near = y, read from the
        two groups as they stand. m_a is drawn with P(m_a = 1), then m_b
        with P(m_b = 1 | m_a): exactly two ``rng.random()`` calls, against
        the same thresholds as the gate sequence. A ``near`` that is not
        half of a pair, dead qubits, q and near in one group, and operands
        whose joint norm has drifted are refused before any draw, with every
        group left as it was.

        The outcome table (``_bell_table``) is memoised, keyed on each
        operand group's amplitude tuple and whether the measured qubit is
        its first. It is a pure function of the key, so a hit returns what a
        miss computes and needs no norm check. Keys compare with ``==``, so
        0.0 and -0.0 share an entry: a hit may differ from a miss in the
        sign of a zero, which reaches no weight, draw or output. One memo
        may serve many simulators; it is emptied when it holds
        ``BELL_CACHE_MAX`` entries. The survivors' group takes the table's
        corrected tuple itself, so equal inputs and draws share one tuple.
        """
        if q == near:
            raise ValueError("Bell measurement needs two distinct qubits")
        groups = self._groups
        gq = groups.get(q)
        gn = groups.get(near)
        if gq is None or gn is None:
            raise DeadQubitError(f"qubit {near if gq else q} is not live")
        if gq is gn:
            raise SimulationError(f"qubits {q} and {near} share a group")
        qq, qn = gq.qubits, gn.qubits
        if len(qn) != 2:
            raise SimulationError(f"qubit {near} is not half of a pair")
        q_first = qq[0] == q
        near_first = qn[0] == near
        cache = self._bell_cache
        key = (gq.amps, q_first, gn.amps, near_first)
        table = cache.get(key)
        if table is None:
            table = _bell_table(_halves(gq.amps, q_first), _halves(gn.amps, near_first))
            if len(cache) >= BELL_CACHE_MAX:
                cache.clear()
            cache[key] = table
        pa1, pb1s, corrected = table
        m_a = rng.random() < pa1
        o = 2 * m_a + (rng.random() < pb1s[m_a])  # the outcome's index

        del groups[q], groups[near]
        # qq[q_first] is q's partner: index 1 when q is first, 0 when q is
        # second; likewise qn[near_first] is far
        if len(qq) == 2:
            partner = qq[q_first]
            gn.qubits = [partner, qn[near_first]]
            groups[partner] = gn
        else:
            gn.qubits = [qn[near_first]]
        gn.amps = corrected[o]
        return _OUTCOMES[o]


def _bell_table(xs: tuple, ys: tuple) -> tuple:
    """The Bell measurement of operands with amplitude pairs ``xs`` and
    ``ys``, for every outcome: ``(pa1, (pb1 | m_a = 0, pb1 | m_a = 1),
    corrected)``, the last indexed by 2 m_a + m_b. ``corrected`` holds each
    outcome's surviving branch, scaled, with X^(m_b) Z^(m_a) applied at its
    last qubit: within each amplitude pair (2k, 2k + 1) X swaps and then Z
    negates.

    For each index r of the remaining qubits (q's partner's bit, then far's
    bit) the unscaled branches (c00, c01, c10, c11) are summed into their
    weights times 2; the 1/sqrt(2) is folded into the scale. Half their sum
    is the input's squared norm: unless it is 1 within ``NORM_TOL`` (a NaN
    is not), ``SimulationError`` is raised, so a drifted input is refused
    before any draw and never enters the memo. Given that, every outcome's
    branch renormalised by 1/sqrt(2 pa pb) has norm 1 up to rounding. m_a
    is drawn against pa1, then m_b against pb1 given m_a; complementary
    outcomes use 1 - p, as sequential measurements do.

    ``rng.random() < p`` is false at p = 0 and true at p = 1, so a drawn
    outcome has pa > 0 and pb > 0. An outcome with pa * pb not positive is
    never drawn and stores ``()``.
    """
    branches = []
    w00 = w01 = w10 = w11 = 0.0
    for x0, x1 in xs:
        for y0, y1 in ys:
            u, p, q, v = x0 * y0, x0 * y1, x1 * y0, x1 * y1
            c = s, t, d, e = u + v, p + q, u - v, p - q
            w00 += s.real * s.real + s.imag * s.imag
            w01 += t.real * t.real + t.imag * t.imag
            w10 += d.real * d.real + d.imag * d.imag
            w11 += e.real * e.real + e.imag * e.imag
            branches.append(c)
    norm = 0.5 * (w00 + w01 + w10 + w11)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise SimulationError(f"state norm drifted to {norm!r}")
    pa1 = 0.5 * (w10 + w11)
    pb1s = []
    corrected = []
    for m_a in (0, 1):
        pa = pa1 if m_a else 1.0 - pa1
        pb1 = 0.5 * (w11 if m_a else w01) / pa if pa else math.nan
        pb1s.append(pb1)
        for m_b in (0, 1):
            pb = pb1 if m_b else 1.0 - pb1
            if pa * pb > 0:
                scale = _SQRT2_INV / math.sqrt(pa * pb)
                amps = [c[2 * m_a + m_b] * scale for c in branches]
                if m_b:
                    amps[0::2], amps[1::2] = amps[1::2], amps[0::2]
                if m_a:
                    amps[1::2] = [-x for x in amps[1::2]]
                corrected.append(tuple(amps))
            else:
                corrected.append(())
    return pa1, tuple(pb1s), tuple(corrected)


def _halves(amps: tuple, first: bool) -> tuple:
    """The (amp[q=0], amp[q=1]) pairs of a qubit q, one per index of q's
    partner, from the amplitudes of q's lone or pair group, where q is the
    pair's first qubit or (``first`` false) its second."""
    if len(amps) == 2:
        return ((amps[0], amps[1]),)
    if first:
        return ((amps[0], amps[2]), (amps[1], amps[3]))
    return ((amps[0], amps[1]), (amps[2], amps[3]))
