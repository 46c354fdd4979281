"""One trial, end to end: the repeater path (``Topology``), the Bell pairs,
swaps and hops that carry each qubit across it (``EntanglementFabric``),
and the loop that runs both endpoints to the end of a session
(``run_trial``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

from . import adversary as adv
from . import protocol as proto
from .keyschedule import KeyMaterial
from .qsim import (
    Draws,
    QubitRef,
    SimulationError,
    Simulator,
    derive_seed,
    make_rng,
    states_equal,
)


@dataclass(frozen=True)
class Topology:
    """Node graph plus the fixed initiator-to-responder path."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    path: tuple[str, ...]

    def __post_init__(self):
        if len(self.path) < 2:
            raise ValueError("path needs at least two nodes")
        if len(set(self.path)) != len(self.path):
            raise ValueError("path must not revisit a node")
        known = set(self.nodes)
        if not set(self.path) <= known:
            raise ValueError("path mentions unknown nodes")
        edge_set = {frozenset(e) for e in self.edges}
        for u, v in zip(self.path, self.path[1:]):
            if frozenset((u, v)) not in edge_set:
                raise ValueError(f"path hop ({u}, {v}) is not an edge")

    @property
    def intermediates(self) -> tuple[str, ...]:
        return self.path[1:-1]

    @classmethod
    def chain(cls, num_intermediates: int = 1) -> "Topology":
        """Line topology alice - r1 - ... - rm - bob."""
        if num_intermediates < 0:
            raise ValueError("need a non-negative intermediate count")
        middle = tuple(f"r{i + 1}" for i in range(num_intermediates))
        path = ("alice",) + middle + ("bob",)
        edges = tuple(zip(path, path[1:]))
        return cls(nodes=path, edges=edges, path=path)


TOPOLOGY_KEYS = ("nodes", "edges", "path")


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def topology_from_json(obj) -> Topology:
    """Topology from an object holding ``nodes`` and ``path`` (lists of
    node names) and ``edges`` (a list of node pairs), all three together.
    The empty object is the default 1-repeater chain."""
    if obj == {}:
        return Topology.chain(1)
    if not isinstance(obj, dict) or set(obj) != set(TOPOLOGY_KEYS):
        raise ValueError(
            "topology must be an object with the keys nodes, edges and path"
        )
    for key in ("nodes", "path"):
        if not _is_str_list(obj[key]):
            raise ValueError(f"topology {key} must be a list of node names")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
        _is_str_list(e) and len(e) == 2 for e in edges
    ):
        raise ValueError("topology edges must be a list of node-name pairs")
    return Topology(tuple(obj["nodes"]), tuple(map(tuple, edges)), tuple(obj["path"]))


class EntanglementFabric:
    """Provisioning of end-to-end entanglement plus correction-bit routing.

    Every swap and every hop is one ``Simulator.bell_measure``, whose two
    correction bits are the classical message of that step. The trace
    numbers those messages in order, swaps and teleports alike.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        repeater: adv.RepeaterState,
        rng_world,
        trace: list | None = None,
    ):
        self.sim = sim
        self.topology = topology
        self.repeater = repeater
        self.rng = rng_world
        self.trace = trace
        # per path node, whether it swaps: resolved once, read per transfer
        self._swap_at = tuple(map(repeater.swaps_at, topology.path))
        self.pairs_created = 0
        self.teleports = 0
        self.swaps = 0

    def provision(self) -> list[tuple[str, QubitRef, str, QubitRef]]:
        """Distribute one Bell pair per path edge and run the swap policy.

        Honest nodes swap immediately (corrections applied at the pair end
        farther from the initiator); a retaining node ends the current
        segment instead, so the result is one segment per stretch of the
        path between non-swapping boundaries, each a
        ``(left_node, left_q, right_node, right_q)`` tuple.
        """
        path = self.topology.path
        swap_at = self._swap_at
        sim = self.sim
        rng = self.rng
        trace = self.trace
        segments = []
        left_node, left_q, right_q = None, None, None
        for i in range(len(path) - 1):
            a, b = sim.make_bell_pair()
            if left_q is None:
                left_node, left_q, right_q = path[i], a, b
                continue
            node = path[i]
            if swap_at[i]:
                bits = sim.bell_measure(right_q, a, rng)
                self.swaps += 1
                if trace is not None:
                    trace.append(
                        {
                            "event": "swap",
                            "node": node,
                            "applied_at": path[i + 1],
                            "bits": list(bits),
                            "seq": self.swaps + self.teleports - 1,
                        }
                    )
                right_q = b
            else:
                segments.append((left_node, left_q, node, right_q))
                left_node, left_q, right_q = node, a, b
        segments.append((left_node, left_q, path[-1], right_q))
        self.pairs_created += len(path) - 1
        return segments

    def transfer(self, payload: QubitRef, direction: str) -> QubitRef:
        """Move one qubit end to end; returns the handle at the destination.

        Each segment costs one teleport from its near end to its far end. At
        a non-swapping boundary the qubit materializes on the repeater's own
        half and is handed to the behavior, whose resend continues over the
        next segment.
        """
        segments = self.provision()
        if direction == "reverse":
            hops = [(rn, rq, ln, lq) for ln, lq, rn, rq in reversed(segments)]
        elif direction == "forward":
            hops = segments
        else:
            raise ValueError("direction must be 'forward' or 'reverse'")

        sim = self.sim
        rng = self.rng
        trace = self.trace
        last = len(hops) - 1
        qubit = payload
        for i, (near_node, near_q, far_node, far_q) in enumerate(hops):
            bits = sim.bell_measure(qubit, near_q, rng)
            self.teleports += 1
            if trace is not None:
                trace.append(
                    {
                        "event": "teleport",
                        "from": near_node,
                        "to": far_node,
                        "bits": list(bits),
                        "seq": self.swaps + self.teleports - 1,
                    }
                )
            qubit = far_q
            if i < last:
                qubit = adv.handle_arrival(self.repeater, sim, qubit, direction, rng)
        return qubit


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    transfer_length: int
    behavior: str
    detected: bool
    rounds_to_detect: int | None
    data_qubits_delivered: int
    auth_qubits_sent: int
    data_qubit_target: int
    completed: bool
    data_qubits_intact: int
    bell_pairs_created: int
    teleports: int
    swap_corrections: int


def default_malicious_node(topology: Topology) -> str:
    mids = topology.intermediates
    if not mids:
        raise ValueError("intercept-resend needs at least one intermediate node")
    return mids[len(mids) // 2]


#: Scheduler sweeps one round takes beside its data sweeps, at most: the
#: responder's auth send, the initiator's verification and, with reverse
#: authentication, the second auth exchange (reached by 1-qubit windows).
SWEEPS_PER_ROUND = 4


def sweep_bound(data_target: int, key_length: int, transfer_length: int) -> int:
    """Scheduler sweeps after which a session is taken to be stuck.

    Data qubits cost at most one sweep each. The window cursor starts every
    gcd(L, T)-th key bit within one cycle of L / gcd(L, T) rounds, so each
    cycle reads every bit of the key and, the key being non-zero, delivers
    at least one data qubit: no session runs more than data_target full
    cycles plus the round that sees the target met. The bound is twice that
    worst case.
    """
    rounds = data_target * (key_length // math.gcd(key_length, transfer_length)) + 1
    return 2 * (data_target + SWEEPS_PER_ROUND * rounds)


def run_trial(
    topology: Topology,
    behavior: adv.Behavior,
    config: proto.SessionConfig,
    seed: int,
    *,
    malicious_node: str | None = None,
    trace: list | None = None,
    intercept_log: list | None = None,
    bell_memo: dict | None = None,
) -> TrialRecord:
    """Drive one session end to end and summarize it.

    The two endpoints step in a fixed round-robin sweep with FIFO inboxes;
    a sweep in which nothing moves closes the trial, which is how the
    responder's wait ends after the initiator terminates silently.
    Deterministic: the world, repeater, and key streams are all derived from
    ``seed``, so identical arguments give an identical record (and trace).
    The world and repeater streams, drawn one value at a time, are
    ``qsim.Draws`` (an honest repeater draws nothing and gets none); the key
    stream, one vectorised draw per key, is a numpy Generator.
    ``bell_memo`` is handed to the trial's ``Simulator``; the memo it holds
    changes no result, only how many Bell tables are built.
    Raises SimulationError when the session runs past ``sweep_bound``
    scheduler sweeps or a qubit outlives the trial.
    """
    rng_world = Draws(derive_seed(seed, 0))
    eve_seed = derive_seed(seed, 1)
    if config.key is None:
        # A fresh key is drawn until it is non-zero: an all-zero key never
        # schedules a data window. At 1024 bits the first draw always is.
        key_rng = make_rng(derive_seed(seed, 2))
        key = KeyMaterial.random(config.key_length, key_rng)
        while not any(key.bits):
            key = KeyMaterial.random(config.key_length, key_rng)
        config = replace(config, key=key)
    if config.data_qubit_target > 0 and not any(config.key.bits):
        raise ValueError("all-zero key never schedules a data window")
    bound = sweep_bound(
        config.data_qubit_target, config.key.length, config.sched.transfer_length
    )

    node = None
    if isinstance(behavior, adv.InterceptResend):
        node = malicious_node
        if node is None:
            node = default_malicious_node(topology)
        if node not in topology.intermediates:
            raise ValueError(f"malicious node {node!r} is not on the path interior")
    elif malicious_node is not None:
        raise ValueError("an honest repeater path has no malicious node")
    # a per-trial log, so that seq restarts at 0 in every trial
    log = None if intercept_log is None else []
    repeater = adv.RepeaterState(behavior, node, eve_seed, log)

    sim = Simulator(bell_memo)
    fabric = EntanglementFabric(sim, topology, repeater, rng_world, trace)
    alice = proto.Initiator(config, sim, rng_world, trace)
    bob = proto.Responder(config, sim, rng_world, trace)
    alice_inbox: deque[QubitRef] = deque()
    bob_inbox: deque[QubitRef] = deque()
    # per endpoint: (machine, its state, its inbox, its peer's inbox,
    # the direction of what it sends), in sweep order
    endpoints = (
        (alice, alice.state, alice_inbox, bob_inbox, "forward"),
        (bob, bob.state, bob_inbox, alice_inbox, "reverse"),
    )
    absorbing = proto.ABSORBING
    transfer = fabric.transfer
    amplitudes = sim.amplitudes
    payload_truth = alice.payload_truth

    data_delivered = 0
    data_intact = 0
    sweeps = 0
    while alice.state.phase not in absorbing or bob.state.phase not in absorbing:
        progressed = False
        for machine, state, inbox, peer_inbox, direction in endpoints:
            phase = state.phase
            if phase in absorbing:
                while inbox:  # a terminated endpoint ignores late arrivals
                    sim.release(inbox.popleft())
                continue
            arrival = (
                inbox.popleft() if inbox and phase in machine.receive_phases else None
            )
            sent = machine.step(arrival)
            # A step changes the endpoint's counters only when it sends,
            # changes phase or consumes an arrival.
            if sent is not None or arrival is not None or state.phase is not phase:
                progressed = True
            if sent is not None:
                arrived = transfer(sent, direction)
                truth = payload_truth.pop(sent, None)
                if truth is not None:
                    data_delivered += 1
                    if states_equal(amplitudes(arrived), truth):
                        data_intact += 1
                peer_inbox.append(arrived)
        if not progressed:
            # Nothing moved in a full sweep: a peer stopped talking. Close
            # out whoever is still waiting.
            for machine, state, *_ in endpoints:
                if state.phase not in absorbing:
                    machine.terminate("timeout")
            break
        sweeps += 1
        if sweeps > bound:
            raise SimulationError(f"trial exceeded {bound} scheduler sweeps")

    if sim.live_count():
        raise SimulationError(f"{sim.live_count()} qubits outlived the trial")
    if log is not None:
        intercept_log.extend(log)
    failed_round = alice.failed_round
    if failed_round is None:
        failed_round = bob.failed_round
    return TrialRecord(
        seed=seed,
        transfer_length=config.sched.transfer_length,
        behavior=behavior.name,
        detected=failed_round is not None,
        rounds_to_detect=failed_round,
        data_qubits_delivered=data_delivered,
        auth_qubits_sent=alice.auth_qubits_sent + bob.auth_qubits_sent,
        data_qubit_target=config.data_qubit_target,
        completed=alice.state.phase is proto.Phase.COMPLETE
        and bob.state.phase is proto.Phase.COMPLETE,
        data_qubits_intact=data_intact,
        bell_pairs_created=fabric.pairs_created,
        teleports=fabric.teleports,
        swap_corrections=fabric.swaps,
    )

