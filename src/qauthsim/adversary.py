"""Repeater behaviors: the transparent swapper and the intercept-resend MitM.

A malicious repeater simply keeps both halves of its adjacent entangled
pairs instead of swapping them out, which silently splits the end-to-end
channel into two segments that both terminate at the repeater. Every qubit
teleported across then lands on the repeater's own half, where it is measured
in a basis chosen by policy and re-sent as the collapsed eigenstate.

The behavior interface is deliberately blind: it receives qubits, a
direction tag, and its own random stream. No key material or data/auth role
information ever reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import Basis, QubitRef, Simulator, make_rng

BASIS_POLICIES = ("random_zx", "always_z", "always_x")


@dataclass(frozen=True)
class Honest:
    """Swap at every intermediate node; never touches transiting states."""

    @property
    def name(self) -> str:
        return "honest"


@dataclass(frozen=True)
class InterceptResend:
    """Retain both pair halves and measure-and-resend every transit qubit."""

    basis_policy: str = "random_zx"

    def __post_init__(self):
        if self.basis_policy not in BASIS_POLICIES:
            raise ValueError(f"basis policy must be one of {BASIS_POLICIES}")

    @property
    def name(self) -> str:
        return f"intercept_{self.basis_policy}"


Behavior = Honest | InterceptResend

#: the --adversary labels; a behavior's ``name`` (the output field) differs
BEHAVIOR_LABELS = {
    "honest": Honest(),
    "intercept_random": InterceptResend("random_zx"),
    "intercept_z": InterceptResend("always_z"),
    "intercept_x": InterceptResend("always_x"),
}


def parse_behavior(label: str) -> Behavior:
    try:
        return BEHAVIOR_LABELS[label]
    except KeyError:
        raise ValueError(
            f"unknown behavior {label!r}; expected one of {sorted(BEHAVIOR_LABELS)}"
        ) from None


class RepeaterState:
    """Per-trial adversary state: behavior, position, own RNG, intercept log."""

    def __init__(self, behavior: Behavior, node: str | None, seed: int):
        if isinstance(behavior, InterceptResend) and node is None:
            raise ValueError("intercept-resend behavior needs a repeater node")
        self.behavior = behavior
        self.node = node
        self.rng = make_rng(seed)
        # one JSON-ready record per intercepted qubit: seq, direction
        # ("forward" is initiator to responder, or "reverse"), basis, outcome
        self.log: list[dict] = []

    def swaps_at(self, node: str) -> bool:
        """Whether this node performs its entanglement swap honestly."""
        if isinstance(self.behavior, InterceptResend):
            return node != self.node
        return True

    def choose_basis(self) -> Basis:
        policy = self.behavior.basis_policy
        if policy == "always_z":
            return Basis.Z
        if policy == "always_x":
            return Basis.X
        return Basis.X if self.rng.integers(0, 2) else Basis.Z


def handle_arrival(
    state: RepeaterState,
    sim: Simulator,
    qubit: QubitRef,
    direction: str,
    world_rng: np.random.Generator,
) -> QubitRef:
    """Measure a qubit that landed on the repeater and return the resend.

    The basis comes from the repeater's own stream; the Born-rule collapse
    draws from the world stream. The forwarded qubit is a fresh preparation
    of the observed eigenstate.
    """
    basis = state.choose_basis()
    outcome = sim.measure(qubit, basis, world_rng)
    sim.release(qubit)
    state.log.append(
        {"seq": len(state.log), "direction": direction, "basis": basis.value,
         "outcome": outcome}
    )
    return sim.prepare(outcome, basis)

