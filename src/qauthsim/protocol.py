"""The two endpoints of a session and the data qubits they send.

``Initiator`` sends data qubits (``sample_payload``) and verifies the
authentication qubits it receives; ``Responder`` receives data and proves
its identity, and verifies as well under reverse authentication. Each steps
only when it can move (``netsim.run_trial``). Both read each round's
window and authentication plan from one ``keyschedule.RoundSchedule`` by
the round's index, so they line up with nothing on the wire but teleported
qubits. The phases of a round:

    initiator: COMPUTE_R -> DATA_TRANSFER -> AUTH_AWAIT -> COMPUTE_R ...
    responder: COMPUTE_R -> DATA_TRANSFER -> AUTH_PREPARE [-> AUTH_AWAIT] -> COMPUTE_R ...

The bracketed phase runs only under reverse authentication, in which the
initiator's verifying step sends its own auth qubit. An endpoint waits for
its peer in AUTH_AWAIT, the responder in DATA_TRANSFER too; TERMINATED and
COMPLETE are absorbing. A fully transferred window is always authenticated,
even one that ends on the delivery target. A failed verdict terminates the
verifier silently, and its peer times out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import keyschedule as ks
from .keyschedule import AUTH_BASES
from .qsim import EIGENSTATE_LABELS, NAMED_STATES, QubitRef, Simulator


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
# endpoint steps read a phase on every step. A plan's basis is read from
# the tuple ``AUTH_BASES`` for the same reason.
_COMPUTE_R, _DATA_TRANSFER, _AUTH_PREPARE, _AUTH_AWAIT, _TERMINATED, _COMPLETE = Phase


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
    for basis, labels in zip(AUTH_BASES, EIGENSTATE_LABELS)
    for bit, label in enumerate(labels)
)
#: the same entries by label, for a ``fixed`` payload
_FIXED = dict(zip("".join(EIGENSTATE_LABELS), _UNIFORM4))
#: the members of a ``prepare_auth`` event by [base bit][encoding bit], and of
#: a ``verdict`` event after its round by [base bit][encoding bit][measured]
_PREPARE_TEXTS = tuple(tuple(f'"event": "prepare_auth", "state": "{label}"' for label in labels)
                       for labels in EIGENSTATE_LABELS)
_VERDICT_TEXTS = tuple(tuple(tuple(
    f', "passed": {"true" if m == e else "false"}, "measured": {m}, "expected": {e}, '
    f'"basis": "{basis.value}"' for m in (0, 1)) for e in (0, 1)) for basis in AUTH_BASES)


def _fma_sq(a: float, c: float) -> float:
    """``a * a + c`` rounded once, as a fused multiply-add gives it, for
    ``|a|`` from 1e-100 to 1e100: Dekker's split makes the square's error exact."""
    p, t = a * a, a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    lo = a - hi
    return math.fsum((p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo, c))


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
    tuple, unit norm by construction; ``_fma_sq`` rounds its squared norms
    in Python, so its bits never depend on a host's BLAS kernel."""
    kind = dist.kind
    if kind == "uniform4":
        bit, basis, truth = _UNIFORM4[rng.integers(0, 4)]
    elif kind == "fixed":
        bit, basis, truth = _FIXED[dist.state]
    else:  # haar: a normalized complex gaussian pair
        g0, g1, g2, g3 = rng.normal(size=4).tolist()
        # v / norm(v), v = (g0 + 1j g2, g1 + 1j g3): each part's squared norm
        # is fma(g1, g1, g0 * g0), what numpy's two-term dot gives with an FMA
        # kernel, and numpy divides by multiplying with the reciprocal
        s = 1.0 / math.sqrt(_fma_sq(g1, g0 * g0) + _fma_sq(g3, g2 * g2))
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
        if self.key is not None and len(self.key.bits) < shortest:
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
    round: int = 0  # rounds opened: the current round's number, from 1
    qubits_delivered: int = 0  # data qubits sent (initiator) / received (responder)
    sent_count: int = 0  # progress within the current window
    current_r: int = 0


class _Endpoint:
    """State and helpers shared by both roles.

    Trace events are built only when ``trace`` is a list: every ``_emit``
    call sits behind a ``self.trace is not None`` test, so an untraced
    session builds no event. An event is the text of its JSON object, what
    ``json.dumps`` gives for it: its role, state, basis and reason come
    from fixed ASCII vocabularies and need no escaping. Each role's
    ``_head`` (its events' text through ``role``), each ``prepare_auth``'s
    members and each ``verdict``'s members after its round are built at import.
    """

    role = ""

    __slots__ = ("config", "schedule", "target", "reverse", "sim", "rng", "trace",
                 "state", "failed_round", "auth_qubits_sent")

    def __init__(self, config: SessionConfig, schedule: ks.RoundSchedule, sim: Simulator,
                 rng, trace: list | None = None):
        self.config = config
        self.schedule = schedule  # the session's rounds, shared with the peer
        self.target = config.data_qubit_target
        self.reverse = config.reverse_auth
        self.sim = sim
        self.rng = rng
        self.trace = trace
        self.state = SessionState()
        self.failed_round: int | None = None  # round of the failed verdict
        self.auth_qubits_sent = 0

    def _emit(self, fields: str) -> None:
        """Append the event whose JSON members after ``role`` are ``fields``."""
        self.trace.append(f'{self._head}{fields}}}')

    def terminate(self, reason: str) -> None:
        self.state.phase = _TERMINATED
        if self.trace is not None:
            self._emit(f'"event": "terminate", "reason": "{reason}"')

    def _complete(self) -> None:
        self.state.phase = _COMPLETE
        if self.trace is not None:
            self._emit('"event": "complete"')

    def _next_window(self) -> int:
        """Read the next window R and enter DATA_TRANSFER; returns R."""
        st = self.state
        st.current_r = r = self.schedule.window(st.round)
        st.round += 1
        st.sent_count = 0
        st.phase = _DATA_TRANSFER
        return r

    def _prove(self, plan: ks.AuthPlan) -> QubitRef:
        """Prepare the auth qubit of ``plan``, to send to the peer."""
        qubit = self.sim.prepare(plan.encoding_bit, AUTH_BASES[plan.base_bit])
        self.auth_qubits_sent += 1
        if self.trace is not None:
            self._emit(_PREPARE_TEXTS[plan.base_bit][plan.encoding_bit])
        return qubit

    def _verify(self, qubit: QubitRef) -> bool:
        """Measure an incoming auth qubit against the current round's plan.
        On a mismatch, record the round and terminate. Returns whether it
        passed."""
        round_index = self.state.round
        plan = self.schedule.plans[round_index - 1]
        encoding_bit, base_bit = plan.encoding_bit, plan.base_bit
        measured = self.sim.measure(qubit, AUTH_BASES[base_bit], self.rng)
        self.sim.release(qubit)
        passed = measured == encoding_bit
        if self.trace is not None:
            self._emit(f'"event": "verdict", "round": {round_index}'
                       f'{_VERDICT_TEXTS[base_bit][encoding_bit][measured]}')
        if not passed:
            self.failed_round = round_index
            self.terminate("authentication failed")
        return passed

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        """Move, in AUTH_AWAIT on the peer's auth qubit ``arrival``; returns
        the qubit to teleport to the peer, if this step sends one."""
        raise NotImplementedError


class Initiator(_Endpoint):
    """Data sender and verifier of the peer's authentication qubits."""

    role = "initiator"
    _head = '{"role": "initiator", '
    __slots__ = ("payload_truth",)

    def __init__(self, config, schedule, sim, rng, trace=None):
        super().__init__(config, schedule, sim, rng, trace)
        #: the truth of the data qubit the last step sent; None after an auth send
        self.payload_truth: tuple[complex, complex] | None = None

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        st = self.state
        if st.phase is _AUTH_AWAIT:
            if not self._verify(arrival):
                return None
            st.phase = _COMPUTE_R
            if self.reverse:  # prove our own identity at once: the responder waits
                self.payload_truth = None
                return self._prove(self.schedule.plans[st.round - 1])
            # The responder waits for the next window's data unless the
            # target is met or the window is empty: open it and send at once.
            if st.qubits_delivered >= self.target or not self._next_window():
                return None
        elif st.phase is _COMPUTE_R:
            if st.qubits_delivered >= self.target:
                self._complete()
                return None
            self._next_window()

        # DATA_TRANSFER
        if st.sent_count == 0:  # the window's first step
            if self.trace is not None:
                self._emit(f'"event": "window", "round": {st.round}, "r": {st.current_r}')
            if st.current_r == 0:
                st.phase = _AUTH_AWAIT
                return None
        elif st.qubits_delivered >= self.target:
            self._complete()
            return None
        qubit, truth = sample_payload(self.sim, self.config.payload, self.rng)
        self.payload_truth = truth
        st.sent_count += 1
        st.qubits_delivered += 1
        if st.sent_count == st.current_r:
            # A fully transferred window is always authenticated, even when
            # it ends exactly on the delivery target.
            st.phase = _AUTH_AWAIT
        return qubit


class Responder(_Endpoint):
    """Data receiver and prover; verifier too when reverse auth is on."""

    role = "responder"
    _head = '{"role": "responder", '
    __slots__ = ()

    def receive(self, qubit: QubitRef) -> None:
        """Take the window's next data qubit, in DATA_TRANSFER. The window
        ends at its R-th qubit (AUTH_PREPARE) or, short of it, at the
        delivery target (COMPUTE_R, whose next step completes)."""
        self.sim.release(qubit)
        st = self.state
        st.sent_count += 1
        st.qubits_delivered += 1
        if st.sent_count == st.current_r:
            st.phase = _AUTH_PREPARE
        elif st.qubits_delivered >= self.target:
            st.phase = _COMPUTE_R

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        st = self.state
        if st.phase is _AUTH_AWAIT:
            if self._verify(arrival):
                st.phase = _COMPUTE_R
            return None
        if st.phase is _COMPUTE_R:
            if st.qubits_delivered >= self.target:
                self._complete()
                return None
            if self._next_window():
                return None  # wait for the window's data

        # AUTH_PREPARE, or an r = 0 window just opened
        qubit = self._prove(self.schedule.plans[st.round - 1])
        if self.reverse:
            st.phase = _AUTH_AWAIT
        elif st.qubits_delivered >= self.target:
            st.phase = _COMPUTE_R  # the next step completes
        elif not self._next_window():  # opened unseen; an r = 0 one's auth waits a turn
            st.phase = _AUTH_PREPARE
        return qubit
