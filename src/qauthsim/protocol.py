"""The two endpoints of a session and the data qubits they send.

``Initiator`` sends data qubits (``sample_payload``) and verifies the
authentication qubits it receives; ``Responder`` receives data and proves
its identity, and verifies as well under reverse authentication. Each steps
once per scheduler turn of ``netsim.run_trial``. Both read the same key
through identical cursors, so windows and authentication plans line up
with nothing on the wire but teleported qubits. The phases of a round:

    initiator: COMPUTE_R -> DATA_TRANSFER -> AUTH_AWAIT [-> AUTH_PREPARE] -> COMPUTE_R ...
    responder: COMPUTE_R -> DATA_TRANSFER -> AUTH_PREPARE [-> AUTH_AWAIT] -> COMPUTE_R ...

The bracketed phase runs only under reverse authentication; TERMINATED and
COMPLETE are absorbing. A fully transferred window is always authenticated,
even one that ends on the delivery target. A failed verdict terminates the
verifier silently, and its peer times out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import keyschedule as ks
from .qsim import EIGENSTATE_LABELS, NAMED_STATES, Basis, QubitRef, Simulator


class Phase(Enum):
    COMPUTE_R = "compute_r"
    DATA_TRANSFER = "data_transfer"
    AUTH_PREPARE = "auth_prepare"
    AUTH_AWAIT = "auth_await"
    TERMINATED = "terminated"
    COMPLETE = "complete"


ABSORBING = (Phase.TERMINATED, Phase.COMPLETE)

# The members as module globals: on Python 3.11 ``Phase.X`` goes through the
# Enum class on every read, over ten times the cost of a global, and the
# endpoint steps read a phase on every scheduler turn.
_COMPUTE_R = Phase.COMPUTE_R
_DATA_TRANSFER = Phase.DATA_TRANSFER
_AUTH_PREPARE = Phase.AUTH_PREPARE
_AUTH_AWAIT = Phase.AUTH_AWAIT
_TERMINATED = Phase.TERMINATED
_COMPLETE = Phase.COMPLETE


@dataclass(frozen=True, slots=True)
class PayloadDistribution:
    """How the initiator picks data-qubit states.

    kind is one of "uniform4" (uniform over |0>,|1>,|+>,|->), "fixed"
    (always ``state``), or "haar" (random point on the Bloch sphere).
    """

    kind: str = "uniform4"
    state: str | None = None

    def __post_init__(self):
        if self.kind not in ("uniform4", "fixed", "haar"):
            raise ValueError(f"unknown payload distribution {self.kind!r}")
        if self.kind == "fixed" and self.state not in NAMED_STATES:
            raise ValueError("fixed distribution needs a state in 0/1/+/-")

    @classmethod
    def parse(cls, text: str) -> "PayloadDistribution":
        if text.startswith("fixed:"):
            return cls("fixed", text.split(":", 1)[1])
        return cls(text)


#: (bit, basis, truth) of the eigenstates "0", "1", "+" and "-", the
#: order in which a ``uniform4`` draw indexes them
_UNIFORM4 = tuple(
    (bit, basis, NAMED_STATES[label])
    for basis, labels in zip((Basis.Z, Basis.X), EIGENSTATE_LABELS)
    for bit, label in enumerate(labels)
)
#: the same entries by label, for a ``fixed`` payload
_FIXED = dict(zip("".join(EIGENSTATE_LABELS), _UNIFORM4))


def sample_payload(
    sim: Simulator, dist: PayloadDistribution, rng
) -> tuple[QubitRef, tuple[complex, complex]]:
    """Allocate one data qubit; returns (qubit, ground-truth amplitudes).

    ``rng`` is an endpoint's stream: a numpy Generator or a ``qsim.Draws``,
    with ``random()`` for its measurements and ``integers`` and ``normal``
    as the Generator has them for the payload draw.

    A ``uniform4`` payload takes one ``rng.integers(0, 4)``, a ``haar``
    payload one ``rng.normal(size=4)``: the real parts, then the imaginary
    parts. A named state is made by ``Simulator.prepare``, and its truth is
    its ``NAMED_STATES`` entry. A haar payload's qubit holds its truth
    tuple, which is unit norm by construction."""
    kind = dist.kind
    if kind == "uniform4":
        bit, basis, truth = _UNIFORM4[rng.integers(0, 4)]
    elif kind == "fixed":
        bit, basis, truth = _FIXED[dist.state]
    else:  # haar: a normalized complex gaussian pair
        g = rng.normal(size=4)
        # bit for bit numpy's v / norm(v), v = g[:2] + 1j * g[2:]: the same
        # norm, and numpy divides by multiplying with the reciprocal
        s = 1.0 / math.sqrt(float(g[:2].dot(g[:2])) + float(g[2:].dot(g[2:])))
        g0, g1, g2, g3 = g.tolist()
        truth = (complex(g0 * s, g2 * s), complex(g1 * s, g3 * s))
        return sim.allocate_unit(truth), truth
    return sim.prepare(bit, basis), truth


@dataclass(frozen=True, slots=True)
class SessionConfig:
    key: ks.KeyMaterial | None
    sched: ks.ScheduleConfig
    data_qubit_target: int
    reverse_auth: bool = False
    payload: PayloadDistribution = field(default_factory=PayloadDistribution)
    key_length: int = 1024  # a fresh key's length when key is None; checked always

    def __post_init__(self):
        if self.data_qubit_target < 0:
            raise ValueError("data qubit target must be >= 0")
        shortest = max(self.sched.transfer_length, 2)
        if self.key is not None and self.key.length < shortest:
            raise ValueError("key shorter than max(transfer length, 2)")
        if self.key_length < shortest:
            raise ValueError("key length shorter than max(transfer length, 2)")
        if self.key_length > ks.MAX_KEY_LENGTH:
            raise ValueError(
                f"key length must be <= {ks.MAX_KEY_LENGTH}, got {self.key_length}"
            )
        if self.data_qubit_target > 0 and self.key is not None and not any(self.key.bits):
            raise ValueError("all-zero key never schedules a data window")


@dataclass(slots=True)
class SessionState:
    phase: Phase = Phase.COMPUTE_R
    cursors: ks.KeyCursors = field(default_factory=ks.KeyCursors)
    qubits_delivered: int = 0  # data qubits sent (initiator) / received (responder)
    sent_count: int = 0  # progress within the current window
    current_r: int = 0


class _Endpoint:
    """State and helpers shared by both roles.

    Trace events are built only when ``trace`` is a list: every ``_emit``
    call sits behind a ``self.trace is not None`` test, so an untraced
    session builds no event. An event is the text of its JSON object, what
    ``json.dumps`` gives for it: its role, state, basis and reason come
    from fixed ASCII vocabularies and need no escaping.
    """

    role = ""
    #: phases in which a step consumes a delivered qubit; the scheduler
    #: holds arrivals until the endpoint is in one of them, since a peer
    #: that runs ahead through zero-length windows may send before we have
    #: advanced into the matching receive phase
    receive_phases: tuple[Phase, ...] = (Phase.AUTH_AWAIT,)

    __slots__ = ("config", "key", "sched", "sim", "rng", "trace", "state", "plan",
                 "failed_round", "auth_qubits_sent")

    def __init__(
        self,
        config: SessionConfig,
        key: ks.KeyMaterial,
        sim: Simulator,
        rng,
        trace: list | None = None,
    ):
        self.config = config
        self.key = key  # config.key, or the key drawn for this session
        self.sched = config.sched
        self.sim = sim
        self.rng = rng
        self.trace = trace
        self.state = SessionState()
        self.plan: ks.AuthPlan | None = None
        self.failed_round: int | None = None  # round of the failed verdict
        self.auth_qubits_sent = 0

    def _emit(self, fields: str) -> None:
        """Append the event whose JSON members after ``role`` are ``fields``."""
        self.trace.append(f'{{"role": "{self.role}", {fields}}}')

    def terminate(self, reason: str) -> None:
        self.state.phase = _TERMINATED
        if self.trace is not None:
            self._emit(f'"event": "terminate", "reason": "{reason}"')

    def _complete(self) -> None:
        self.state.phase = _COMPLETE
        if self.trace is not None:
            self._emit('"event": "complete"')

    def _open_window(self) -> bool:
        """COMPUTE_R: complete once the delivery target is met, otherwise
        read the next window R and enter DATA_TRANSFER. Returns whether a
        window opened."""
        st = self.state
        if st.qubits_delivered >= self.config.data_qubit_target:
            self._complete()
            return False
        st.current_r = ks.next_r(self.key, self.sched, st.cursors)
        st.sent_count = 0
        st.phase = _DATA_TRANSFER
        return True

    def _verify(self, qubit: QubitRef) -> bool:
        """Measure an incoming auth qubit against the current plan. On a
        mismatch, record the round and terminate. Returns whether it
        passed."""
        plan = self.plan
        basis = plan.basis
        measured = self.sim.measure(qubit, basis, self.rng)
        self.sim.release(qubit)
        passed = measured == plan.encoding_bit
        round_index = self.state.cursors.round_index
        if self.trace is not None:
            self._emit(f'"event": "verdict", "round": {round_index}, '
                       f'"passed": {"true" if passed else "false"}, '
                       f'"measured": {measured}, "expected": {plan.encoding_bit}, '
                       f'"basis": "{basis.value}"')
        if not passed:
            self.failed_round = round_index
            self.terminate("authentication failed")
        return passed

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        """Advance one scheduler turn, consuming ``arrival`` if given.

        Returns the qubit to teleport to the peer, if this turn sends one.
        No phase branch handles TERMINATED or COMPLETE, so a step in either
        does nothing.
        """
        raise NotImplementedError


class Initiator(_Endpoint):
    """Data sender and verifier of the peer's authentication qubits."""

    role = "initiator"
    __slots__ = ("payload_truth",)

    def __init__(self, config, key, sim, rng, trace=None):
        super().__init__(config, key, sim, rng, trace)
        #: the truth of the data qubit the last step sent; None after an auth send
        self.payload_truth: tuple[complex, complex] | None = None

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        st = self.state
        if st.phase is _COMPUTE_R:
            if not self._open_window():
                return None
            if self.trace is not None:
                self._emit(f'"event": "window", "round": {st.cursors.round_index + 1}, '
                           f'"r": {st.current_r}')
            # fall through to start sending this turn

        if st.phase is _DATA_TRANSFER:
            if st.sent_count == st.current_r:
                # A fully transferred window is always authenticated, even
                # when it ends exactly on the delivery target.
                self.plan = ks.next_auth_pair(self.key, self.sched, st.cursors)
                st.phase = _AUTH_AWAIT
                return None
            if st.qubits_delivered >= self.config.data_qubit_target:
                self._complete()
                return None
            qubit, truth = sample_payload(self.sim, self.config.payload, self.rng)
            self.payload_truth = truth
            st.sent_count += 1
            st.qubits_delivered += 1
            return qubit

        if st.phase is _AUTH_AWAIT:
            if arrival is None:
                return None
            if self._verify(arrival):
                reverse = self.config.reverse_auth
                st.phase = _AUTH_PREPARE if reverse else _COMPUTE_R
            return None

        if st.phase is _AUTH_PREPARE:
            # Reverse authentication: prove our own identity with the same
            # round's plan, then resume the schedule.
            qubit = self.sim.prepare(self.plan.encoding_bit, self.plan.basis)
            self.payload_truth = None
            self.auth_qubits_sent += 1
            if self.trace is not None:
                self._emit(f'"event": "prepare_auth", "state": "{self.plan.expected_state}"')
            st.phase = _COMPUTE_R
            return qubit

        return None


class Responder(_Endpoint):
    """Data receiver and prover; verifier too when reverse auth is on."""

    role = "responder"
    receive_phases = (Phase.DATA_TRANSFER, Phase.AUTH_AWAIT)
    __slots__ = ()

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        st = self.state
        if st.phase is _COMPUTE_R and not self._open_window():
            return None

        if st.phase is _DATA_TRANSFER:
            if st.sent_count == st.current_r:
                st.phase = _AUTH_PREPARE
                # prepare on this same turn
            elif arrival is not None:
                self.sim.release(arrival)
                st.sent_count += 1
                st.qubits_delivered += 1
                if st.sent_count == st.current_r:
                    st.phase = _AUTH_PREPARE
                elif st.qubits_delivered >= self.config.data_qubit_target:
                    self._complete()
                return None
            else:  # below the target, which only an arrival reaches
                return None

        if st.phase is _AUTH_PREPARE:
            plan = self.plan = ks.next_auth_pair(self.key, self.sched, st.cursors)
            qubit = self.sim.prepare(plan.encoding_bit, plan.basis)
            self.auth_qubits_sent += 1
            if self.trace is not None:
                self._emit(f'"event": "prepare_auth", "state": "{plan.expected_state}"')
            st.phase = _AUTH_AWAIT if self.config.reverse_auth else _COMPUTE_R
            return qubit

        if st.phase is _AUTH_AWAIT:
            if arrival is None:
                return None
            if self._verify(arrival):
                st.phase = _COMPUTE_R
            return None

        return None
