"""Repeater behaviors: the transparent swapper and the intercept-resend MitM.

A malicious repeater keeps both halves of its adjacent pairs instead of
swapping them, which splits the channel into two segments that end at the
repeater. Every qubit teleported across lands on the repeater's own half,
where it is measured in a basis chosen by policy and resent collapsed.

A behavior gets each qubit, its direction and its own random stream, and
no key material. The direction still tells roles apart: in this repo's
reading (``PAPER.md`` holds only the abstract) the responder teleports its
auth qubit back against the data, so with reverse authentication off every
reverse transfer is an auth qubit. The fig2 detection result holds against
a repeater that measures every transiting qubit, as ``InterceptResend`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qsim import Basis, Draws, QubitRef, Simulator

BASIS_POLICIES = ("random_zx", "always_z", "always_x")

#: the two bases as globals, which read faster than the Enum members
_Z, _X = Basis.Z, Basis.X
#: the basis of every intercept under a fixed policy
_FIXED_BASES = {"always_z": _Z, "always_x": _X}


@dataclass(frozen=True, slots=True)
class Honest:
    """Swap at every intermediate node; never touches transiting states."""

    @property
    def name(self) -> str:
        return "honest"


@dataclass(frozen=True, slots=True)
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
    """Per-trial adversary state: behavior, position, basis policy resolved
    once, own random stream (a ``Draws`` of ``seed``, made only under
    ``random_zx``, the one policy that draws a basis; None otherwise), and
    the intercept log, if one is kept."""

    __slots__ = ("behavior", "node", "basis", "rng", "log")

    def __init__(
        self, behavior: Behavior, node: str | None, seed: int, log: list | None = None
    ):
        intercepts = isinstance(behavior, InterceptResend)
        if intercepts and node is None:
            raise ValueError("intercept-resend behavior needs a repeater node")
        self.behavior = behavior
        self.node = node
        # the basis of every intercept under always_z or always_x; None for
        # an honest repeater and under random_zx, which draws one each time
        self.basis = _FIXED_BASES.get(behavior.basis_policy) if intercepts else None
        self.rng = Draws(seed) if intercepts and self.basis is None else None
        # None, or one JSON object text per intercepted qubit: seq, direction
        # ("forward" is initiator to responder, or "reverse"), basis, outcome
        self.log = log

    def swaps_at(self, node: str) -> bool:
        """Whether this node performs its entanglement swap honestly."""
        if isinstance(self.behavior, InterceptResend):
            return node != self.node
        return True

    def choose_basis(self) -> Basis:
        basis = self.basis
        if basis is None:
            return _X if self.rng.integers(0, 2) else _Z
        return basis


def handle_arrival(
    state: RepeaterState,
    sim: Simulator,
    qubit: QubitRef,
    direction: str,
    world_rng,
) -> QubitRef:
    """Measure a qubit that landed on the repeater and return the resend.

    The basis comes from the repeater's own stream; the Born-rule collapse
    draws from the world stream, any object with ``random()``. The resend
    is the measured qubit itself, left in the observed eigenstate.
    """
    basis = state.choose_basis()
    outcome = sim.measure(qubit, basis, world_rng)
    log = state.log
    if log is not None:
        log.append(f'{{"seq": {len(log)}, "direction": "{direction}", '
                   f'"basis": "{basis.value}", "outcome": {outcome}}}')
    return qubit

