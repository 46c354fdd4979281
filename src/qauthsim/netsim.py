"""One trial, end to end: the repeater path (``Topology``), the Bell pairs,
swaps and hops that carry each qubit across it (``EntanglementFabric``),
and the direct exchange that runs both endpoints to the end of a session
(``run_trial``).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import product, repeat

from . import adversary as adv
from . import protocol as proto
from .keyschedule import KeyMaterial, RoundSchedule
from .qsim import (
    PHI_PLUS,
    Draws,
    QubitRef,
    SimulationError,
    Simulator,
    bell_step,
    derive_seed,
    make_rng,
    states_equal,
)


@dataclass(frozen=True, slots=True)
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
#: the refusal of an intercepting behavior on a path with no repeater
NO_INTERMEDIATE = "intercept-resend needs at least one intermediate node"


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


def _event_texts(fields: str) -> tuple[str, ...]:
    """By outcome index 2 m_a + m_b, an event's JSON text up to its seq value."""
    return tuple(f'{{"event": {fields}, "bits": [{m_a}, {m_b}], "seq": '
                 for m_a, m_b in product((0, 1), repeat=2))


class EntanglementFabric:
    """Provisioning of end-to-end entanglement plus correction-bit routing.

    Each pair on the path is an amplitude tuple, never registered qubits.
    Every swap and hop is one ``qsim.bell_step`` with the simulator's
    ``bell_memo``; its two correction bits are the step's classical message.
    The trace numbers those messages in order, swaps and teleports alike,
    each the JSON object text ``json.dumps`` gives for its event dict. Which
    nodes swap is fixed for the fabric's life, and so are the segments: a
    traced fabric builds each event's text once, up to its seq.
    """

    __slots__ = ("sim", "topology", "repeater", "rng", "trace", "_interior", "_hop_texts",
                 "_unswapped", "pairs_created", "teleports", "swaps")

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
        # the plan provision walks: per interior node, whether it swaps and its event texts
        path = topology.path
        interior = path[1:-1]
        swapping = tuple(map(repeater.swaps_at, interior))
        swap_texts = repeat(None)
        if trace is not None:
            names = {node: json.dumps(node) for node in path}
            swap_texts = [_event_texts(f'"swap", "node": {names[node]}, "applied_at": {names[at]}')
                          for node, at in zip(interior, path[2:])]
            # by forward: each segment's teleport texts, in the transfer's order
            stops = [names[node] for node, s in zip(path, (False, *swapping, False)) if not s]
            self._hop_texts = tuple(
                [_event_texts(f'"teleport", "from": {a}, "to": {b}') for a, b in zip(way, way[1:])]
                for way in (stops[::-1], stops))
        self._interior = tuple(zip(interior, swapping, swap_texts))
        # where no node swaps, every provision's segments are one fresh pair per edge
        self._unswapped = None if any(swapping) else list(zip(path, repeat(PHI_PLUS), path[1:]))
        self.pairs_created = 0
        self.teleports = 0
        self.swaps = 0

    def provision(self) -> list[tuple[str, tuple, str]]:
        """Distribute one Bell pair per path edge and run the swap policy.

        Each fresh pair is ``PHI_PLUS``. Honest nodes swap immediately
        (corrections applied at the pair end farther from the initiator); a
        retaining node ends the current segment instead, so the result is one
        segment per stretch of the path between non-swapping boundaries, each
        a ``(left_node, pair_amps, right_node)`` tuple, the left node's half
        first in ``pair_amps``. No qubit is registered. A fabric where no
        node swaps returns a copy of the list it built at construction.
        """
        path = self.topology.path
        if self._unswapped is not None:
            self.pairs_created += len(path) - 1
            return self._unswapped.copy()
        memo = self.sim.bell_memo
        rng = self.rng
        trace = self.trace
        segments = []
        swaps = self.swaps
        left_node, chain = path[0], PHI_PLUS
        for node, swapping, texts in self._interior:
            if swapping:
                o, chain = bell_step(memo, chain, False, PHI_PLUS, True, rng)
                if trace is not None:
                    trace.append(f'{texts[o]}{swaps + self.teleports}}}')
                swaps += 1
            else:
                segments.append((left_node, chain, node))
                left_node, chain = node, PHI_PLUS
        segments.append((left_node, chain, path[-1]))
        self.swaps = swaps
        self.pairs_created += len(path) - 1
        return segments

    def transfer(self, payload: QubitRef, direction: str) -> QubitRef:
        """Move one lone qubit end to end and return its handle, the
        payload's own; a bad ``direction`` or an entangled payload is refused
        before anything is provisioned. Each segment is one ``Simulator.hop``
        from its near end to its far end, in place: a hop refused for a
        drifted norm leaves the qubit as it was. At a non-swapping boundary
        the qubit lands on the repeater's half, and the behavior's resend
        goes on. A one-segment transfer, every honest one, is one hop."""
        forward = direction == "forward"
        if not forward and direction != "reverse":
            raise ValueError("direction must be 'forward' or 'reverse'")
        sim = self.sim
        if len(sim.amplitudes(payload)) != 2:
            raise SimulationError(f"qubit {payload} is entangled; transfer a lone qubit")
        segments = self.provision()
        rng = self.rng
        trace = self.trace
        if len(segments) == 1:  # no retaining repeater, as on every honest path
            o = sim.hop(payload, segments[0][1], forward, rng)
            if trace is not None:
                trace.append(f'{self._hop_texts[forward][0][o]}{self.swaps + self.teleports}}}')
            self.teleports += 1
            return payload
        if not forward:
            segments.reverse()
        for i, (_, pair, _) in enumerate(segments):
            if i:
                adv.handle_arrival(self.repeater, sim, payload, direction, rng)
            o = sim.hop(payload, pair, forward, rng)
            if trace is not None:
                trace.append(f'{self._hop_texts[forward][i][o]}{self.swaps + self.teleports}}}')
            self.teleports += 1
        return payload


@dataclass(frozen=True, slots=True)
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


def intercept_node(
    topology: Topology, behavior: adv.Behavior, node: str | None = None
) -> str | None:
    """The node at which ``behavior`` intercepts: ``node`` when given,
    otherwise the middle intermediate; None for an honest behavior. Raises
    ValueError for a node beside an honest behavior or off the path
    interior, and for an intercepting behavior on a direct path."""
    if not isinstance(behavior, adv.InterceptResend):
        if node is not None:
            raise ValueError("an honest repeater path has no malicious node")
        return None
    mids = topology.intermediates
    if not mids:
        raise ValueError(NO_INTERMEDIATE)
    if node is None:
        return mids[len(mids) // 2]
    if node not in mids:
        raise ValueError(f"malicious node {node!r} is not on the path interior")
    return node


def stream_seeds(
    seed: int, behavior: adv.Behavior, config: proto.SessionConfig
) -> tuple[int, int | None, int | None]:
    """The seeds of the numpy streams a trial of ``seed`` makes, each
    ``derive_seed(seed, index)``: the world's (index 0), the repeater's
    (index 1; None unless the behavior ``draws_bases``) and the key's
    (index 2; None when the session fixes the key). The one list of them,
    which ``run_trial`` and the pre-hash of ``experiments.run_experiment``
    both read."""
    return (derive_seed(seed, 0),
            derive_seed(seed, 1) if adv.draws_bases(behavior) else None,
            None if config.key is not None else derive_seed(seed, 2))


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

    A direct exchange: an endpoint steps only when it can move, and a sent
    qubit is transferred and handed to the peer at once, data through
    ``Responder.receive`` and an auth qubit as the peer's next step's
    argument. When neither can move, whoever still waits times out.
    Deterministic: the world, repeater, and key streams are all derived from
    ``seed`` (``stream_seeds``), so identical arguments give an identical
    record (and trace), whether or not their seeds were pre-hashed.
    The world and repeater streams, drawn one value at a time, are
    ``qsim.Draws`` (an honest repeater draws nothing and gets none); the key
    stream, one vectorised draw per key, is a numpy Generator.
    ``trace`` and ``intercept_log``, when given as lists, receive each event
    as the text of one JSON object, in ``json.dumps`` form at its defaults:
    ``json.loads`` of an entry gives the event's dict. ``bell_memo`` is
    handed to the trial's ``Simulator``; the memo it holds changes no result,
    only how many Bell tables are built.
    Both endpoints read the key's rounds from one ``keyschedule.RoundSchedule``.
    Raises ValueError when ``intercept_node`` refuses the malicious node,
    and SimulationError when the session outsteps the schedule's ``guard``,
    opens a round past its honest end, or a qubit outlives the trial.
    """
    world_seed, repeater_seed, key_seed = stream_seeds(seed, behavior, config)
    rng_world = Draws(world_seed)
    key = config.key
    if key is None:
        # A fresh key is drawn until it is non-zero: an all-zero key never
        # schedules a data window. At 1024 bits the first draw always is.
        key_rng = make_rng(key_seed)
        while key is None or not any(key.bits):
            key = KeyMaterial.random(config.key_length, key_rng)
    node = intercept_node(topology, behavior, malicious_node)
    # a per-trial log, so that seq restarts at 0 in every trial
    log = None if intercept_log is None else []
    repeater = adv.RepeaterState(behavior, node, repeater_seed, log)

    sim = Simulator(bell_memo)
    fabric = EntanglementFabric(sim, topology, repeater, rng_world, trace)
    schedule = RoundSchedule(key, config.sched, config.data_qubit_target)
    alice = proto.Initiator(config, schedule, sim, rng_world, trace)
    bob = proto.Responder(config, schedule, sim, rng_world, trace)
    a_state, a_step = alice.state, alice.step
    b_state, b_step, receive = bob.state, bob.step, bob.receive
    absorbing = proto.ABSORBING
    computing, sending, preparing, awaiting = (proto.Phase.COMPUTE_R, proto.Phase.DATA_TRANSFER,
                                               proto.Phase.AUTH_PREPARE, proto.Phase.AUTH_AWAIT)
    transfer, amplitudes, release = fabric.transfer, sim.amplitudes, sim.release

    # Each endpoint moves on its next turn, ta or tb, the initiator first at
    # equal turns: the initiator in COMPUTE_R, DATA_TRANSFER and, with an auth
    # qubit held for it, AUTH_AWAIT; the responder in COMPUTE_R, AUTH_PREPARE.
    held: deque[QubitRef] = deque()  # auth qubits the initiator has yet to verify
    ta = tb = steps = data_delivered = data_intact = 0
    while steps <= schedule.guard:
        pa, pb = a_state.phase, b_state.phase
        if (held if pa is awaiting else pa is sending or pa is computing) and (
                ta <= tb or pb is not computing and pb is not preparing):
            turn = ta
            ta += 1
            steps += 1
            sent = a_step(held.popleft() if pa is awaiting else None)
            if sent is None:
                continue
            arrived = transfer(sent, "forward")
            truth = alice.payload_truth
            if tb < turn:  # the responder moves right after, at the earliest
                tb = turn
            if truth is None:  # reverse authentication, which the responder awaits
                if pb is awaiting:
                    tb += 1
                    steps += 1
                    b_step(arrived)
                else:
                    release(arrived)
                continue
            if pb is computing:  # it opens this window now and takes data next turn
                tb += 1
                steps += 1
                b_step(None)
                pb = b_state.phase
            # While the responder waits for data, the initiator keeps the
            # turn: the rest of the window goes out at one turn a qubit.
            while True:
                data_delivered += 1
                amps = amplitudes(arrived)
                data_intact += amps is truth or states_equal(amps, truth)
                if pb is not sending:  # the responder's session is over
                    release(arrived)
                    break
                receive(arrived)
                tb += 1
                if a_state.phase is not sending or (pb := b_state.phase) is not sending:
                    break
                ta += 1
                steps += 1
                arrived = transfer(a_step(None), "forward")
                truth = alice.payload_truth
            if pb is computing:  # it completes on the turn it took the last qubit
                tb -= 1
        elif pb is computing or pb is preparing:
            tb += 1
            steps += 1
            sent = b_step(None)
            if sent is not None:  # an auth qubit, never data
                arrived = transfer(sent, "reverse")
                if pa in absorbing:
                    release(arrived)
                else:
                    if pa is awaiting and not held and ta < tb:  # it verifies next turn
                        ta = tb
                    held.append(arrived)
        else:  # neither can move: whoever still waits times out
            for machine in (alice, bob):
                if machine.state.phase not in absorbing:
                    machine.terminate("timeout")
            break
    else:
        raise SimulationError(f"trial exceeded {schedule.guard} endpoint steps")
    for qubit in held:
        release(qubit)

    if sim.live_count():
        raise SimulationError(f"{sim.live_count()} qubits outlived the trial")
    if log is not None:
        intercept_log.extend(log)
    failed_round = bob.failed_round if alice.failed_round is None else alice.failed_round
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

