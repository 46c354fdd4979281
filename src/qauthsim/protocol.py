"""Initiator and responder session state machines.

Both endpoints hold the same key material and advance identical cursors, so
data-window lengths and authentication plans line up without any metadata on
the wire: every transfer the repeater sees is just a teleported qubit plus
its two correction bits, whether it carries data or an authentication state.

The phase arc per round is:

    initiator: COMPUTE_R -> DATA_TRANSFER -> AUTH_AWAIT [-> AUTH_PREPARE] -> COMPUTE_R ...
    responder: COMPUTE_R -> DATA_TRANSFER -> AUTH_PREPARE [-> AUTH_AWAIT] -> COMPUTE_R ...

with the bracketed phase taken only under reverse authentication, the
verdict checked on the AUTH_AWAIT turn that receives the qubit, and
TERMINATED and COMPLETE absorbing. The initiator checks the delivery
target when recomputing R, but a window that has fully transferred is always
authenticated, even if it ends exactly on the target. On a failed verdict the
initiator terminates silently: no message crosses the channel, the peer is
left to time out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import keyschedule as ks
from .qsim import Basis, NAMED_STATES, QubitRef, Simulator


class Phase(Enum):
    COMPUTE_R = "compute_r"
    DATA_TRANSFER = "data_transfer"
    AUTH_PREPARE = "auth_prepare"
    AUTH_AWAIT = "auth_await"
    TERMINATED = "terminated"
    COMPLETE = "complete"


ABSORBING = (Phase.TERMINATED, Phase.COMPLETE)


@dataclass(frozen=True)
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


#: NAMED_STATES as tuples of Python complex, so data qubits skip numpy
_NAMED_TRUTH = {label: tuple(v.tolist()) for label, v in NAMED_STATES.items()}
_UNIFORM4 = tuple(_NAMED_TRUTH[label] for label in "01+-")


def sample_payload(
    sim: Simulator, dist: PayloadDistribution, rng: np.random.Generator
) -> tuple[QubitRef, tuple[complex, complex]]:
    """Allocate one data qubit; returns (qubit, ground-truth amplitudes)."""
    if dist.kind == "fixed":
        truth = _NAMED_TRUTH[dist.state]
    elif dist.kind == "uniform4":
        truth = _UNIFORM4[rng.integers(0, 4)]
    else:  # haar: normalized complex gaussian pair
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        truth = tuple((v / np.linalg.norm(v)).tolist())
    return sim.allocate_qubit(truth), truth


@dataclass(frozen=True)
class SessionConfig:
    key: ks.KeyMaterial | None
    sched: ks.ScheduleConfig
    data_qubit_target: int
    reverse_auth: bool = False
    payload: PayloadDistribution = field(default_factory=PayloadDistribution)
    key_length: int = 1024  # used when key is None and a fresh one is sampled

    def __post_init__(self):
        if self.data_qubit_target < 0:
            raise ValueError("data qubit target must be >= 0")
        if self.key is not None and self.key.length < max(self.sched.transfer_length, 2):
            raise ValueError("key shorter than max(transfer length, 2)")
        if self.key is None and self.key_length < max(self.sched.transfer_length, 2):
            raise ValueError("key length shorter than max(transfer length, 2)")


@dataclass(frozen=True)
class AuthVerdict:
    passed: bool
    round_index: int
    measured_bit: int
    expected_bit: int
    basis: Basis


@dataclass
class SessionState:
    phase: Phase = Phase.COMPUTE_R
    cursors: ks.KeyCursors = field(default_factory=ks.KeyCursors)
    qubits_delivered: int = 0  # data qubits sent (initiator) / received (responder)
    sent_count: int = 0  # progress within the current window
    current_r: int = 0


class _Endpoint:
    """State and helpers shared by both roles."""

    role = ""

    def __init__(
        self,
        config: SessionConfig,
        sim: Simulator,
        rng: np.random.Generator,
        trace: list | None = None,
    ):
        if config.key is None:
            raise ValueError("endpoint needs a resolved key")
        self.config = config
        self.key = config.key
        self.sched = config.sched
        self.sim = sim
        self.rng = rng
        self.trace = trace
        self.state = SessionState()
        self.plan: ks.AuthPlan | None = None
        self.verdicts: list[AuthVerdict] = []
        self.auth_qubits_sent = 0

    @property
    def absorbing(self) -> bool:
        return self.state.phase in ABSORBING

    @property
    def wants_qubit(self) -> bool:
        """Whether this endpoint is in a phase that consumes a delivery.

        The scheduler holds arrivals until this is true; a peer that runs
        ahead through zero-length windows may send before we have advanced
        into the matching receive phase.
        """
        return self.state.phase is Phase.AUTH_AWAIT

    def _emit(self, **record) -> None:
        if self.trace is not None:
            self.trace.append({"role": self.role, **record})

    def terminate(self, reason: str) -> None:
        self.state.phase = Phase.TERMINATED
        self._emit(event="terminate", reason=reason)

    def _complete(self) -> None:
        self.state.phase = Phase.COMPLETE
        self._emit(event="complete")

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
        st.phase = Phase.DATA_TRANSFER
        return True

    def _verify(self, qubit: QubitRef) -> AuthVerdict:
        """Measure an incoming auth qubit against the current plan."""
        measured = self.sim.measure(qubit, self.plan.basis, self.rng)
        self.sim.release(qubit)
        verdict = AuthVerdict(
            passed=measured == self.plan.encoding_bit,
            round_index=self.state.cursors.round_index,
            measured_bit=measured,
            expected_bit=self.plan.encoding_bit,
            basis=self.plan.basis,
        )
        self.verdicts.append(verdict)
        self._emit(
            event="verdict",
            round=verdict.round_index,
            passed=verdict.passed,
            measured=verdict.measured_bit,
            expected=verdict.expected_bit,
            basis=verdict.basis.value,
        )
        return verdict

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        """Advance one scheduler turn, consuming ``arrival`` if given.

        Returns the qubit to teleport to the peer, if this turn sends one.
        """
        raise NotImplementedError


class Initiator(_Endpoint):
    """Data sender and verifier of the peer's authentication qubits."""

    role = "initiator"

    def __init__(self, config, sim, rng, trace=None):
        super().__init__(config, sim, rng, trace)
        self.payload_truth: dict[int, tuple[complex, complex]] = {}

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        st = self.state
        if self.absorbing:
            return None

        if st.phase is Phase.COMPUTE_R:
            if not self._open_window():
                return None
            self._emit(event="window", round=st.cursors.round_index + 1, r=st.current_r)
            # fall through to start sending this turn

        if st.phase is Phase.DATA_TRANSFER:
            if st.sent_count == st.current_r:
                # A fully transferred window is always authenticated, even
                # when it ends exactly on the delivery target.
                self.plan = ks.next_auth_pair(self.key, self.sched, st.cursors)
                st.phase = Phase.AUTH_AWAIT
                return None
            if st.qubits_delivered >= self.config.data_qubit_target:
                self._complete()
                return None
            qubit, truth = sample_payload(self.sim, self.config.payload, self.rng)
            self.payload_truth[qubit.id] = truth
            st.sent_count += 1
            st.qubits_delivered += 1
            return qubit

        if st.phase is Phase.AUTH_AWAIT:
            if arrival is None:
                return None
            verdict = self._verify(arrival)
            if not verdict.passed:
                self.terminate("authentication failed")
                return None
            reverse = self.config.reverse_auth
            st.phase = Phase.AUTH_PREPARE if reverse else Phase.COMPUTE_R
            return None

        if st.phase is Phase.AUTH_PREPARE:
            # Reverse authentication: prove our own identity with the same
            # round's plan, then resume the schedule.
            qubit = self.sim.prepare(self.plan.encoding_bit, self.plan.basis)
            self.auth_qubits_sent += 1
            self._emit(event="prepare_auth", state=self.plan.expected_state)
            st.phase = Phase.COMPUTE_R
            return qubit

        return None


class Responder(_Endpoint):
    """Data receiver and prover; verifier too when reverse auth is on."""

    role = "responder"

    @property
    def wants_qubit(self) -> bool:
        return self.state.phase in (Phase.DATA_TRANSFER, Phase.AUTH_AWAIT)

    def step(self, arrival: QubitRef | None) -> QubitRef | None:
        st = self.state
        if self.absorbing:
            return None

        if st.phase is Phase.COMPUTE_R and not self._open_window():
            return None

        if st.phase is Phase.DATA_TRANSFER:
            if st.sent_count == st.current_r:
                st.phase = Phase.AUTH_PREPARE
                # prepare on this same turn
            elif arrival is not None:
                self.sim.release(arrival)
                st.sent_count += 1
                st.qubits_delivered += 1
                if st.sent_count == st.current_r:
                    st.phase = Phase.AUTH_PREPARE
                elif st.qubits_delivered >= self.config.data_qubit_target:
                    self._complete()
                return None
            else:
                if st.qubits_delivered >= self.config.data_qubit_target:
                    self._complete()
                return None

        if st.phase is Phase.AUTH_PREPARE:
            self.plan = ks.next_auth_pair(self.key, self.sched, st.cursors)
            qubit = self.sim.prepare(self.plan.encoding_bit, self.plan.basis)
            self.auth_qubits_sent += 1
            self._emit(event="prepare_auth", state=self.plan.expected_state)
            st.phase = Phase.AUTH_AWAIT if self.config.reverse_auth else Phase.COMPUTE_R
            return qubit

        if st.phase is Phase.AUTH_AWAIT:
            if arrival is None:
                return None
            verdict = self._verify(arrival)
            if not verdict.passed:
                self.terminate("authentication failed")
                return None
            st.phase = Phase.COMPUTE_R
            return None

        return None
