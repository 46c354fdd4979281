"""Minimal noiseless state-vector simulator for lone qubits and Bell pairs.

Qubits live in independent *groups* of at most two: a lone qubit, or one
pair, whose amplitudes are indexed most-significant-qubit-first in the
group's qubit order. The repeater path never needs more: each edge holds one
pair, a swap or hop Bell-measures one qubit of one group against one of
another, and an intercepted qubit is measured on its own. So there is no
two-qubit gate and no group merging; ``bell_measure`` refuses two qubits of
one group, and the gates X and H, ``measure`` and ``release`` refuse a qubit
that is still entangled. Every group keeps at most two qubits by
construction.

Amplitudes are plain Python complex lists: at 2 or 4 amplitudes scalar
arithmetic beats array dispatch by a wide margin. Numpy appears only at the
API edges (the named single-qubit states and the RNG); a state given as
Python complex never touches it.

``teleport`` is the one transport step: a Bell measurement plus the Pauli
correction at the far end. An entanglement swap is a teleport of one pair's
half over the next pair. The Bell measurement is one fused kernel: it reads
the two groups in place, forms the four Bell-outcome branches of the rest of
the state in one pass, draws the two outcomes, and keeps only the surviving
branch. It computes what CNOT, H and two Z measurements compute, with the
same two random draws, but builds neither the joint state of both groups
nor the intermediate states. ``teleport`` needs ``near`` and ``far`` to be
the two halves of one pair (it refuses anything else before any draw), so
``far`` is the surviving branch's last qubit, and the correction is written
straight into that branch's amplitudes.

Measurement in the X basis is realised as H, Z-measure, H: outcome 0 maps to
the |+> eigenstate and 1 to |->, and the qubit is left in that eigenstate so
an immediate re-measurement in the same basis repeats the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

NORM_TOL = 1e-9

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_MASK64 = (1 << 64) - 1


class SimulationError(Exception):
    """Base class for simulator failures."""


class DeadQubitError(SimulationError):
    """A released or consumed qubit handle was used."""


class CapacityError(SimulationError):
    """Qubit registry full."""


class Basis(Enum):
    Z = "Z"
    X = "X"


@dataclass(frozen=True)
class QubitRef:
    """Opaque handle to a live qubit in a :class:`Simulator` registry."""

    id: int


NAMED_STATES = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([_SQRT2_INV, _SQRT2_INV], dtype=complex),
    "-": np.array([_SQRT2_INV, -_SQRT2_INV], dtype=complex),
}


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


def states_equal(a, b, tol: float = NORM_TOL) -> bool:
    """Whether two normalized state vectors are equal up to global phase.

    Takes any 1-D sequences of amplitudes (lists, tuples, numpy vectors).
    """
    if len(a) != len(b):
        return False
    overlap = sum(x.conjugate() * y for x, y in zip(a, b))
    return abs(abs(overlap) - 1.0) <= tol


class _Group:
    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: list[int], amps: list[complex]):
        self.qubits = qubits
        self.amps = amps


class Simulator:
    """Registry of live qubits and their entanglement groups."""

    def __init__(self, max_qubits: int = 4096):
        self.max_qubits = max_qubits
        self._groups: dict[int, _Group] = {}  # qubit id -> its group (shared object)
        self._next_id = 0

    # -- allocation / bookkeeping ------------------------------------------

    def allocate_qubit(self, state=None) -> QubitRef:
        """Allocate a fresh qubit, in |0> or in the given 2-amplitude state."""
        if len(self._groups) >= self.max_qubits:
            raise CapacityError(f"registry full ({self.max_qubits} live qubits)")
        if state is None:
            amps = [1 + 0j, 0j]
        else:
            amps = list(map(complex, state))
            if len(amps) != 2:
                raise ValueError("single-qubit state needs exactly 2 amplitudes")
            norm = math.sqrt(abs(amps[0]) ** 2 + abs(amps[1]) ** 2)
            if not math.isfinite(norm) or norm < 1e-12:
                raise ValueError("state amplitudes must be finite and non-zero")
            amps = [amps[0] / norm, amps[1] / norm]
        qid = self._next_id
        self._next_id += 1
        self._groups[qid] = _Group([qid], amps)
        return QubitRef(qid)

    def live_count(self) -> int:
        return len(self._groups)

    def release(self, q: QubitRef) -> None:
        """Discard a qubit. Only unentangled (singleton-group) qubits qualify."""
        self._lone(q)
        del self._groups[q.id]

    def amplitudes(self, q: QubitRef) -> tuple[complex, ...]:
        """Amplitudes of the group holding this qubit, as Python complex."""
        return tuple(self._require(q).amps)

    def _require(self, q: QubitRef) -> _Group:
        group = self._groups.get(q.id)
        if group is None:
            raise DeadQubitError(f"qubit {q.id} is not live")
        return group

    def _lone(self, q: QubitRef) -> _Group:
        group = self._require(q)
        if len(group.qubits) != 1:
            raise SimulationError(f"qubit {q.id} is still entangled; Bell-measure it")
        return group

    # -- preparation and gates on a lone qubit ---------------------------------

    def prepare(self, bit: int, basis: Basis) -> QubitRef:
        """A fresh qubit in |bit>, then H for ``Basis.X``: the eigenstate
        |0>, |1>, |+> or |-> that measures ``bit`` in ``basis``."""
        q = self.allocate_qubit()
        if bit:
            self.apply_x(q)
        if basis is Basis.X:
            self.apply_h(q)
        return q

    def apply_x(self, q: QubitRef) -> None:
        amps = self._lone(q).amps
        amps[0], amps[1] = amps[1], amps[0]

    def apply_h(self, q: QubitRef) -> None:
        amps = self._lone(q).amps
        a0, a1 = amps
        amps[0] = (a0 + a1) * _SQRT2_INV
        amps[1] = (a0 - a1) * _SQRT2_INV

    # -- measurement ---------------------------------------------------------

    def measure(self, q: QubitRef, basis: Basis, rng: np.random.Generator) -> int:
        """Born-rule measurement of an unentangled qubit. Collapses it; the
        qubit stays live in the post-measurement eigenstate of the requested
        basis, so an immediate re-measurement repeats the outcome.
        """
        group = self._lone(q)
        if basis is Basis.X:
            self.apply_h(q)
        a = group.amps[1]
        outcome = int(rng.random() < a.real * a.real + a.imag * a.imag)
        group.amps = [0j, 1 + 0j] if outcome else [1 + 0j, 0j]
        if basis is Basis.X:
            self.apply_h(q)  # restore |+>/|-> so the outcome is repeatable
        return outcome

    # -- entanglement primitives ---------------------------------------------

    def make_bell_pair(self) -> tuple[QubitRef, QubitRef]:
        """Two fresh qubits in (|00> + |11>)/sqrt(2), one shared group."""
        if len(self._groups) + 2 > self.max_qubits:
            raise CapacityError(f"registry full ({self.max_qubits} live qubits)")
        qid = self._next_id
        self._next_id = qid + 2
        # Same result as H on a then CNOT(a, b); built directly for speed.
        pair = _Group([qid, qid + 1], [_SQRT2_INV + 0j, 0j, 0j, _SQRT2_INV + 0j])
        self._groups[qid] = self._groups[qid + 1] = pair
        return QubitRef(qid), QubitRef(qid + 1)

    def bell_measure(
        self, a: QubitRef, b: QubitRef, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Bell-basis measurement of (a, b). Returns (m_a, m_b); both qubits
        are consumed.

        One fused kernel with the outcome statistics, random draws and
        post-state of CNOT(a->b), H on a, then Z measurements of a and b.
        For every basis index r of the other qubits the four branches are

            c[m_a][m_b](r) = (amp[r, a=0, b=m_b] + (-1)^m_a amp[r, a=1, b=1-m_b]) / sqrt(2)

        read straight from the separate groups holding a and b, one or two
        qubits each. m_a is drawn with P(m_a = 1), then m_b with
        P(m_b = 1 | m_a): exactly two ``rng.random()`` calls, against the
        same thresholds as the gate sequence. The surviving branch,
        renormalised, becomes the group of the remaining qubits: a's
        partner, then b's partner, those that exist.
        """
        if a.id == b.id:
            raise ValueError("Bell measurement needs two distinct qubits")
        groups = self._groups
        ga = groups.get(a.id)
        gb = groups.get(b.id)
        if ga is None or gb is None:
            raise DeadQubitError(f"qubit {(b if ga else a).id} is not live")
        if ga is gb:
            raise SimulationError(f"qubits {a.id} and {b.id} share a group")
        xs, rest = _halves(ga, a.id)
        ys, b_rest = _halves(gb, b.id)
        rest += b_rest
        # For each index r of the remaining qubits (a's partner's bit, then
        # b's partner's bit), the unscaled branches (c00, c01, c10, c11) and
        # their weights times 2 (the 1/sqrt(2) is folded into the scale).
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

        pa1 = 0.5 * (w10 + w11)
        m_a = int(rng.random() < pa1)
        pa = pa1 if m_a else 1.0 - pa1
        pb1 = 0.5 * (w11 if m_a else w01) / pa
        m_b = int(rng.random() < pb1)
        pb = pb1 if m_b else 1.0 - pb1

        # The renormalised branch has norm w_sel * scale^2 = w_sel / (2 pa pb).
        # Complementary outcomes use 1 - p, as the sequential measurements
        # did, so this is 1 up to rounding only if the input was normalised.
        w_sel = (w11 if m_b else w10) if m_a else (w01 if m_b else w00)
        norm = 0.5 * w_sel / (pa * pb)
        if not math.isfinite(norm) or abs(norm - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm drifted to {norm!r}")

        del groups[a.id], groups[b.id]
        if rest:
            scale = _SQRT2_INV / math.sqrt(pa * pb)
            k = 2 * m_a + m_b
            group = _Group(rest, [c[k] * scale for c in branches])
            for qid in rest:
                groups[qid] = group
        return m_a, m_b

    def teleport(
        self, q: QubitRef, near: QubitRef, far: QubitRef, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Move the state of ``q`` onto ``far``, the other half of (near, far).

        Bell-measures (q, near), then applies X^(m_b) Z^(m_a) at ``far``;
        returns (m_a, m_b), the two correction bits a classical channel
        carries. With ``q`` the half of a neighbouring pair this is an
        entanglement swap: ``far`` ends up paired with q's old partner.
        ``near`` and ``far`` must be the two halves of one pair, in either
        order; otherwise ``SimulationError`` is raised before any draw.
        """
        pair = self._require(near).qubits
        if far.id == near.id or far.id not in pair:
            raise SimulationError(f"qubits {near.id} and {far.id} are not one pair")
        m_a, m_b = self.bell_measure(q, near, rng)
        # far is near's partner, so the survivor's last qubit (index bit 1):
        # X swaps and then Z negates within each amplitude pair (2k, 2k + 1).
        amps = self._groups[far.id].amps
        if m_b:
            amps[0], amps[1] = amps[1], amps[0]
        if m_a:
            amps[1] = -amps[1]
        if len(amps) == 4:
            if m_b:
                amps[2], amps[3] = amps[3], amps[2]
            if m_a:
                amps[3] = -amps[3]
        return m_a, m_b


def _halves(group: _Group, qid: int) -> tuple[tuple, list[int]]:
    """The (amp[qid=0], amp[qid=1]) pairs of qid's lone or pair group, one per
    index of qid's partner, and the partner's id if there is one. The last
    qubit of a group owns index bit 1."""
    amps, qubits = group.amps, group.qubits
    if len(qubits) == 1:
        return ((amps[0], amps[1]),), []
    if qubits[1] == qid:
        return ((amps[0], amps[1]), (amps[2], amps[3])), [qubits[0]]
    return ((amps[0], amps[2]), (amps[1], amps[3])), [qubits[1]]
