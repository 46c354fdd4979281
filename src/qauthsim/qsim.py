"""Minimal noiseless state-vector simulator for lone qubits and Bell pairs.

A qubit is lone, held as its own two amplitudes, or half of one pair (a
*group*), whose four amplitudes are indexed most-significant-qubit-first in
the group's qubit order. The repeater path never needs more: each edge holds
one pair, a swap or hop Bell-measures one qubit against a half of another
pair, and an intercepted qubit is measured on its own. So there is no
two-qubit gate and no merging, and nothing holds more than two qubits by
construction. Qubit handles are plain ints, the qubit's id in its simulator.

Amplitudes are plain Python complex tuples: at 2 or 4 amplitudes scalar
arithmetic beats array dispatch by a wide margin, and numpy appears only in
the random streams. A tuple is immutable, so qubits, ``NAMED_STATES`` and
the Bell memo share them instead of copying; an operation replaces a
qubit's or group's tuple and never writes into one.

``bell_step`` is the one Bell-measurement kernel, hops and swaps alike: a
pure function of two amplitude tuples, a corrected teleport. Inputs that
recur, pair halves and the lone ``NAMED_STATES`` tuples, have their outcome
table memoised (``_bell_table``) by the tuples' ids, so most calls are one
hash-free memo read and two draws; any other lone qubit, such as a Haar
payload, is one-shot. ``Simulator.bell_measure`` is the same step on
registered qubits. The repeater path (``netsim.EntanglementFabric``) calls
``bell_step`` on its pairs' tuples, so those pairs never enter the
registry, and ``Simulator.hop`` teleports a lone qubit over such a tuple in
place: the qubit keeps its handle from end to end of a transfer.

Every method that draws takes ``rng``, any object with ``random()``
returning a float in [0, 1): a numpy Generator, or a :class:`Draws` stream.
"""

from __future__ import annotations

import functools
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
PHI_PLUS = (_SQRT2_INV + 0j, 0j, 0j, _SQRT2_INV + 0j)

#: The states ``bell_step``'s canonical map starts with. The lone ones are
#: the only lone operands whose tables the memo keeps; any other is one-shot.
_CANON_SEED = {amps: amps for amps in (PHI_PLUS, *NAMED_STATES.values())}
#: State value -> the one object of that value that memo keys name
_canon = dict(_CANON_SEED)

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


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first ``n`` multipliers of a numpy ``SeedSequence`` hash, as a
    column: each is the last times ``mult`` mod 2**32, whatever the data."""
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult & _LOW32)
    return np.array(out, dtype=np.uint32)[:, None]


#: numpy's ``SeedSequence`` constants: the pool-mixing multipliers, the
#: state-output multipliers and the mix of two pool words
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hashmix(words: np.ndarray, k: int, n: int) -> np.ndarray:
    """``SeedSequence``'s hashmix as its k-th to (k + n - 1)-th calls, one
    row of ``words`` each (uint32 products wrap mod 2**32)."""
    words = words ^ _HASH_A[k:k + n]
    words *= _HASH_A[k + 1:k + n + 1]
    words ^= words >> _XSHIFT
    return words


def seed_state(seeds) -> np.ndarray:
    """Row i is ``np.random.SeedSequence(seeds[i]).generate_state(4,
    np.uint64)``, the words ``PCG64(seeds[i])`` is seeded with, for seeds in
    [0, 2**64): numpy's hash run on every seed at once.

    A seed is two 32-bit words, low first, in a pool of four (numpy pads a
    one-word seed with hashmix of 0, the same as a high word of 0). The
    hash multipliers depend on the call count alone, so each pool row, and
    each source's three mixes into the other rows, is one array operation.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds.astype(np.uint32)  # the low words
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hashmix(pool, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], 4 + 3 * src, 3) * _MIX_R
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    out = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]
    out *= _HASH_B[1:]
    out ^= out >> _XSHIFT
    # consecutive 32-bit words, low first, make each 64-bit word
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


#: Seeds already hashed, by masked seed: the one ``make_rng`` call of each
#: takes its entry. ``prehash_seeds`` replaces what is left.
_prehashed: dict = {}


@functools.cache
def _prehashed_seed_class():
    # numpy's ISeedSequence is imported here, at the first pre-hash, not
    # with qsim: a run that never pre-hashes does not pay for it.
    from numpy.random.bit_generator import ISeedSequence

    class PrehashedSeed(ISeedSequence):
        """Words from ``seed_state``, which PCG64 seeds itself with. Not a
        ``SeedSequence``: a Generator built on one cannot ``spawn``."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("a pre-hashed seed holds PCG64's 4 uint64 words only")
            return self.words

    return PrehashedSeed


def prehash_seeds(seeds) -> None:
    """Hash ``seeds`` in one pass (``seed_state``) for the ``make_rng``
    calls to come, dropping what the last call left unused. An entry only
    saves time: ``make_rng`` gives the same stream with it or without."""
    masked = [seed & _MASK64 for seed in seeds]
    _prehashed.clear()
    _prehashed.update(zip(masked, map(_prehashed_seed_class(), seed_state(masked))))


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic random stream: same seed, same outcome sequence.

    ``np.random.default_rng(seed mod 2**64)``, bit for bit. A seed that
    ``prehash_seeds`` hashed builds its PCG64 from those words and uses up
    the entry; any other is hashed by numpy itself. A pre-hashed
    Generator's ``bit_generator.seed_seq`` is not a ``SeedSequence``, so it
    cannot ``spawn``.
    """
    seed &= _MASK64
    hashed = _prehashed.pop(seed, None)
    if hashed is None:
        return np.random.default_rng(seed)
    return np.random.Generator(np.random.PCG64(hashed))


class Draws:
    """The random stream of ``make_rng(seed)``, with scalar draws read from
    blocks of raw 64-bit words instead of one numpy call each. It is built
    through ``make_rng``, so a seed that ``prehash_seeds`` hashed gives the
    same stream, and uses up its entry.

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
    """A pair's two qubits and four amplitudes: a tuple that lone qubits and
    the Bell memo may share, so it is replaced, never written into."""

    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: list[int], amps: tuple[complex, ...]):
        self.qubits = qubits
        self.amps = amps


class Simulator:
    """Registry of live qubits in two disjoint dicts: each lone qubit's id
    maps to its two amplitudes, and each pair half's id to its pair's
    ``_Group``, which both halves share. Only ``make_bell_pair`` and
    ``bell_measure`` write the pair dict; the lone-qubit methods succeed on
    the lone dict alone and read the pair dict only to choose a refusal.

    ``bell_memo`` is the ``bell_step`` memo for this simulator's qubits and
    its callers' tuples, by default a private dict; simulators may share
    one, since an entry is a pure function of the states its key names.
    """

    __slots__ = ("_lone", "_pairs", "_next_id", "bell_memo")

    def __init__(self, bell_memo: dict | None = None):
        self._lone: dict[int, tuple[complex, complex]] = {}  # lone qubit id -> its amplitudes
        self._pairs: dict[int, _Group] = {}  # pair half id -> its pair (shared object)
        self._next_id = 0
        self.bell_memo: dict[tuple, tuple] = {} if bell_memo is None else bell_memo

    # -- allocation / bookkeeping ------------------------------------------

    def allocate_unit(self, amps: tuple[complex, complex]) -> QubitRef:
        """A fresh qubit holding ``amps``, two amplitudes whose norm the
        caller vouches is 1, stored as Python complex values."""
        qid = self._next_id
        self._next_id = qid + 1
        a0, a1 = amps
        self._lone[qid] = (complex(a0), complex(a1))
        return qid

    def live_count(self) -> int:
        return len(self._lone) + len(self._pairs)

    def release(self, q: QubitRef) -> None:
        """Discard a qubit. Only a lone qubit qualifies."""
        try:
            del self._lone[q]
        except KeyError:
            raise self._refusal(q) from None

    def amplitudes(self, q: QubitRef) -> tuple[complex, ...]:
        """Amplitudes of a lone qubit, or of the pair holding a pair half,
        as Python complex: the registry's own tuple, which no later
        operation changes."""
        try:
            return self._lone[q]
        except KeyError:
            pair = self._pairs.get(q)
        if pair is None:
            raise DeadQubitError(f"qubit {q} is not live")
        return pair.amps

    def _refusal(self, q: QubitRef) -> SimulationError:
        """The error for a lone-qubit operation on ``q``, which is not lone."""
        if q in self._pairs:
            return SimulationError(f"qubit {q} is still entangled; Bell-measure it")
        return DeadQubitError(f"qubit {q} is not live")

    # -- preparation and gates on a lone qubit ---------------------------------

    def prepare(self, bit: int, basis: Basis) -> QubitRef:
        """A fresh qubit in the eigenstate |0>, |1>, |+> or |-> that
        measures ``bit`` in ``basis``, holding its ``NAMED_STATES`` entry."""
        qid = self._next_id
        self._next_id = qid + 1
        self._lone[qid] = _EIGENSTATES[basis is _BASIS_X][bit]
        return qid

    def apply_h(self, q: QubitRef) -> None:
        lone = self._lone
        try:
            a0, a1 = lone[q]
        except KeyError:
            raise self._refusal(q) from None
        lone[q] = ((a0 + a1) * _SQRT2_INV, (a0 - a1) * _SQRT2_INV)

    # -- measurement ---------------------------------------------------------

    def measure(self, q: QubitRef, basis: Basis, rng) -> int:
        """Born-rule measurement of an unentangled qubit. An X-basis
        measurement first rotates the qubit by H (``apply_h``, which refuses
        a qubit that is not lone); the outcome is drawn from the weight of
        |1>. The qubit stays live, collapsed onto the ``NAMED_STATES``
        eigenstate of the outcome in the requested basis, so an immediate
        re-measurement repeats the outcome.
        """
        x = basis is _BASIS_X
        if x:
            self.apply_h(q)
        lone = self._lone
        try:
            a = lone[q][1]
        except KeyError:
            raise self._refusal(q) from None
        outcome = int(rng.random() < a.real * a.real + a.imag * a.imag)
        lone[q] = _EIGENSTATES[x][outcome]
        return outcome

    # -- entanglement primitives ---------------------------------------------

    def hop(self, q: QubitRef, pair: tuple, forward: bool, rng) -> int:
        """Teleport lone ``q`` over a pair's four amplitudes, near half first
        when ``forward``: ``bell_step`` with ``bell_memo``, whose survivor
        becomes q's entry. Returns the outcome's index 2 m_a + m_b. A refusal
        (q not lone, or a drifted norm) comes before any draw, q untouched."""
        try:
            amps = self._lone[q]
        except KeyError:
            raise self._refusal(q) from None
        o, self._lone[q] = bell_step(self.bell_memo, amps, True, pair, forward, rng)
        return o

    def make_bell_pair(self) -> tuple[QubitRef, QubitRef]:
        """Two fresh qubits in (|00> + |11>)/sqrt(2), one shared group."""
        qid = self._next_id
        self._next_id = qid + 2
        # Same result as H on a then CNOT(a, b); built directly for speed.
        pair = _Group([qid, qid + 1], PHI_PLUS)
        self._pairs[qid] = self._pairs[qid + 1] = pair
        return qid, qid + 1

    def bell_measure(self, q: QubitRef, near: QubitRef, rng) -> tuple[int, int]:
        """Teleport ``q`` over the pair (near, far): Bell-measure (q, near),
        consuming both, and leave q's state on far, near's partner, with
        X^(m_b) Z^(m_a) applied. Returns (m_a, m_b), the two correction bits
        a classical channel carries; a lone ``q`` leaves far lone. With
        ``q`` the half of a neighbouring pair this is an entanglement swap:
        far ends up paired with q's old partner, first in their group.

        The registry bookkeeping around ``bell_step`` on the two operands'
        tuples and ``bell_memo``. A ``near`` that is not half of a pair,
        dead qubits, q and near in one group and (in ``bell_step``) a
        drifted joint norm are refused before any draw, registry untouched.
        """
        if q == near:
            raise ValueError("Bell measurement needs two distinct qubits")
        lone, pairs = self._lone, self._pairs
        gq = pairs.get(q)
        gn = pairs.get(near)
        if gq is None and q not in lone:
            raise DeadQubitError(f"qubit {q} is not live")
        if gn is None:
            if near in lone:
                raise SimulationError(f"qubit {near} is not half of a pair")
            raise DeadQubitError(f"qubit {near} is not live")
        if gq is gn:
            raise SimulationError(f"qubits {q} and {near} share a group")
        qn = gn.qubits
        near_first = qn[0] == near
        q_amps, q_first = (lone[q], True) if gq is None else (gq.amps, gq.qubits[0] == q)
        o, amps = bell_step(self.bell_memo, q_amps, q_first, gn.amps, near_first, rng)
        # q's partner is gq.qubits[q_first]: index 1 when q is first, 0 when
        # q is second; likewise far is qn[near_first]
        far = qn[near_first]
        del pairs[near]
        if gq is None:
            del lone[q], pairs[far]
            lone[far] = amps
        else:
            del pairs[q]
            partner = gq.qubits[q_first]
            gn.qubits = [partner, far]
            gn.amps = amps
            pairs[partner] = gn
        return _OUTCOMES[o]


def bell_step(memo: dict, q_amps: tuple, q_first: bool, near_amps: tuple,
              near_first: bool, rng) -> tuple[int, tuple]:
    """Teleport q over the pair (near, far) on amplitude tuples: ``q_amps``
    is lone q's two amplitudes or the four of q's pair (q first when
    ``q_first``), ``near_amps`` the four of near's pair (near first when
    ``near_first``). Returns the outcome's index 2 m_a + m_b and the
    survivor: the amplitudes of q's partner, if any, then far, with
    X^(m_b) Z^(m_a) applied at far.

    One fused kernel with the outcome statistics and random draws of
    CNOT(q->near), H on q, then Z measurements of q and near. For every
    basis index r of the other qubits the four branches are

        c[m_a][m_b](r) = (amp[r, 0, m_b] + (-1)^m_a amp[r, 1, 1-m_b]) / sqrt(2)

    with amp[r, x, y] the amplitude at q = x and near = y. m_a is drawn with
    P(m_a = 1), then m_b with P(m_b = 1 | m_a): exactly two ``rng.random()``
    calls, against the same thresholds as the gate sequence. Operands whose
    joint norm has drifted are refused with ``SimulationError`` before any
    draw, leaving ``memo`` as it was.

    The outcome table (``_bell_table``) is memoised in ``memo``, a pure
    function of the operands' values, so a hit returns what a miss computes
    and needs no norm check. Keys are the ids of the two tuples and the two
    flags, so a read hashes no amplitude; each entry holds its operands, so
    no id in a key is reused while it lives. A canonical map, which all
    memos share, makes equal states one object: it starts with ``PHI_PLUS``
    and the ``NAMED_STATES`` tuples and takes each new entry's operands and
    survivors. An id miss looks both operands up in it by value, so an
    equal copy is served its canonical states' entry; a table is built,
    from the operands at hand, only for values the memo has not met. As
    under ``==``, 0.0 and -0.0 are one state: this changes the sign of a
    zero only, never a weight, draw or output. The memo and the map are
    emptied together when the memo holds ``BELL_CACHE_MAX`` entries (or the
    map six times that). Equal inputs and draws share a survivor tuple.

    Only inputs that recur enter the memo: a pair-half q (a swap) and a
    lone q holding a ``NAMED_STATES`` tuple (auth qubits, named payloads,
    intercept resends). A miss on any other lone q, such as a Haar payload,
    is one-shot (``_bell_once``): the same norm check and draws and the
    drawn outcome's survivor, bit for bit, with no table built and the memo
    untouched.
    """
    entry = memo.get((id(q_amps), q_first, id(near_amps), near_first))
    if entry is None:
        if len(q_amps) == 2 and q_amps not in _CANON_SEED:
            return _bell_once(q_amps, near_amps, near_first, rng)
        canon = _canon  # a state missing from it is None, whose id keys no entry
        entry = memo.get((id(canon.get(q_amps)), q_first, id(canon.get(near_amps)), near_first))
        if entry is None:
            table = _bell_table(_halves(q_amps, q_first), _halves(near_amps, near_first))
            # an entry adds at most six states: only other memos fill the map first
            if len(memo) >= BELL_CACHE_MAX or len(canon) > 6 * BELL_CACHE_MAX:
                memo.clear()
                canon.clear()
                canon.update(_CANON_SEED)
            add = canon.setdefault
            cq, cn = add(q_amps, q_amps), add(near_amps, near_amps)
            entry = memo[id(cq), q_first, id(cn), near_first] = (
                *table[:2], tuple(s and add(s, s) for s in table[2]), (cq, cn))
    pa1, pb1s, corrected, _ = entry
    m_a = rng.random() < pa1
    o = 2 * m_a + (rng.random() < pb1s[m_a])  # the outcome's index
    return o, corrected[o]


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


def _bell_once(xs: tuple, near_amps: tuple, near_first: bool, rng) -> tuple:
    """``bell_step`` for a lone operand ``xs`` without a table: the drawn
    outcome only. ``_bell_table``'s expressions in its order (branch
    products, weights summed branch 0 then 1, the norm check before any
    draw, ``pa1``, ``pb1`` given m_a, the scale, X then Z), spelled out for
    two branches, so bits and survivor equal the table's to the last bit."""
    x0, x1 = xs
    a0, a1, a2, a3 = near_amps
    y0, y1, z0, z1 = (a0, a2, a1, a3) if near_first else near_amps
    u, p, q, v = x0 * y0, x0 * y1, x1 * y0, x1 * y1
    s0, t0, d0, e0 = u + v, p + q, u - v, p - q
    u, p, q, v = x0 * z0, x0 * z1, x1 * z0, x1 * z1
    s1, t1, d1, e1 = u + v, p + q, u - v, p - q
    w00 = (s0.real * s0.real + s0.imag * s0.imag) + (s1.real * s1.real + s1.imag * s1.imag)
    w01 = (t0.real * t0.real + t0.imag * t0.imag) + (t1.real * t1.real + t1.imag * t1.imag)
    w10 = (d0.real * d0.real + d0.imag * d0.imag) + (d1.real * d1.real + d1.imag * d1.imag)
    w11 = (e0.real * e0.real + e0.imag * e0.imag) + (e1.real * e1.real + e1.imag * e1.imag)
    norm = 0.5 * (w00 + w01 + w10 + w11)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise SimulationError(f"state norm drifted to {norm!r}")
    pa1 = 0.5 * (w10 + w11)
    if rng.random() < pa1:
        pb1 = 0.5 * w11 / pa1
        if rng.random() < pb1:
            scale = _SQRT2_INV / math.sqrt(pa1 * pb1)
            return 3, (e1 * scale, -(e0 * scale))
        scale = _SQRT2_INV / math.sqrt(pa1 * (1.0 - pb1))
        return 2, (d0 * scale, -(d1 * scale))
    pa = 1.0 - pa1
    pb1 = 0.5 * w01 / pa
    if rng.random() < pb1:
        scale = _SQRT2_INV / math.sqrt(pa * pb1)
        return 1, (t1 * scale, t0 * scale)
    scale = _SQRT2_INV / math.sqrt(pa * (1.0 - pb1))
    return 0, (s0 * scale, s1 * scale)


def _halves(amps: tuple, first: bool) -> tuple:
    """The (amp[q=0], amp[q=1]) pairs of a qubit q, one per index of q's
    partner, from the amplitudes of q's lone or pair group, where q is the
    pair's first qubit or (``first`` false) its second."""
    if len(amps) == 2:
        return ((amps[0], amps[1]),)
    if first:
        return ((amps[0], amps[2]), (amps[1], amps[3]))
    return ((amps[0], amps[1]), (amps[2], amps[3]))
