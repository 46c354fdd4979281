"""Simulator-state checks, the key-window walk, parsers, and the session,
CLI and endpoint stand-ins shared by the tests."""

import contextlib
import io
import json
from itertools import product

import numpy as np

from qauthsim import protocol
from qauthsim.cli import main
from qauthsim.keyschedule import KeyMaterial, ScheduleConfig, parse_key
from qauthsim.qsim import NORM_TOL, PHI_PLUS, states_equal


# The simulator's layout, which only the helpers below read or write: a dict
# of lone qubits' amplitude tuples and a dict of pair halves' shared groups.


def group_of(sim, q):
    """Qubit ids of the group holding q, in index order: (q,) for a lone
    qubit, both halves for a pair half; () once q is gone."""
    if q in sim._lone:
        return (q,)
    group = sim._pairs.get(q)
    return tuple(group.qubits) if group else ()


def pair_group(sim, q):
    """The group object that pair half q shares with its partner."""
    return sim._pairs[q]


def load_group(sim, amps):
    """A lone qubit or a pair holding the given amplitudes, as a list of its
    qubit ids."""
    if len(amps) == 2:
        return [sim.allocate_unit(amps)]
    qubits = list(sim.make_bell_pair())
    sim._pairs[qubits[0]].amps = tuple(map(complex, amps))  # an arbitrary state
    return qubits


def memo_by_value(memo):
    """A Bell memo keyed as an ``==``-keyed memo would be: each entry's
    operand tuples and flags, mapped to its table. Each key must hold the
    ids of its entry's own operands, and no two entries equal values."""
    tables = {}
    for (iq, q_first, inear, near_first), (pa1, pb1s, corrected, (q, near)) in memo.items():
        assert (iq, inear) == (id(q), id(near))
        tables[q, q_first, near, near_first] = pa1, pb1s, corrected
    assert len(tables) == len(memo)
    return tables


def registry(sim):
    """A snapshot of every live qubit: the amplitudes of each lone qubit, and
    the (qubit ids, amplitudes) of each pair half's group."""
    pairs = {q: (tuple(g.qubits), g.amps) for q, g in sim._pairs.items()}
    return dict(sim._lone), pairs


def assert_registry(sim):
    """The lone and pair-half ids are disjoint, and live_count() counts
    both. Each pair half maps to a group that lists it among two distinct
    ids, each mapping back to that same group object. Each lone entry is a
    tuple of two complex amplitudes, and each group's a tuple of four, of
    norm 1."""
    lone, pairs = sim._lone, sim._pairs
    assert not lone.keys() & pairs.keys(), sorted(lone.keys() & pairs.keys())
    assert sim.live_count() == len(lone) + len(pairs)
    for qid, group in pairs.items():
        assert qid in group.qubits and len(set(group.qubits)) == len(group.qubits) == 2
        for other in group.qubits:
            assert pairs.get(other) is group, (qid, other)
    states = [(amps, 2) for amps in lone.values()] + [(g.amps, 4) for g in pairs.values()]
    for amps, size in states:
        assert type(amps) is tuple and len(amps) == size, amps
        assert all(type(x) is complex for x in amps), amps
        norm = sum(x.real * x.real + x.imag * x.imag for x in amps)
        assert abs(norm - 1.0) <= NORM_TOL, amps


def assert_bell_pair(sim, a, b):
    """Require that a and b form an isolated, maximally entangled pair: one
    two-qubit group whose one-qubit reduced state has purity 1/2."""
    members = group_of(sim, a)
    assert members == group_of(sim, b) and len(members) == 2, (
        f"qubits {a} and {b} are not an isolated entangled pair"
    )
    assert_maximally_entangled(sim.amplitudes(a))


def assert_maximally_entangled(amps):
    """Require that a pair's four amplitudes leave each of its qubits with a
    reduced state of purity 1/2 (the two purities of a pure pair agree)."""
    t = np.array(amps, dtype=complex).reshape(2, 2)
    rho = t @ t.conj().T
    purity = float(np.trace(rho @ rho).real)
    assert abs(purity - 0.5) <= 1e-9, (
        f"the pair is not maximally entangled (reduced purity {purity:.6f})"
    )


def decoded(entries) -> list[dict]:
    """The event dicts of trace or intercept-log entries (JSON object texts)."""
    return [json.loads(entry) for entry in entries]


def key_from_bits(bits) -> KeyMaterial:
    """A key from any iterable of 0/1 values or digits, e.g. "1101"."""
    return KeyMaterial(tuple(int(b) for b in bits))


def window_value(bits, t, index):
    """Value of the index-th R window: T wrapped key bits, MSB first."""
    value = 0
    for i in range(t):
        value = (value << 1) | bits[(index * t + i) % len(bits)]
    return value


def honest_windows(bits, t, target):
    """The windows R, in round order, of an honest session with this target:
    rounds until their data reach it, and none for a target of 0."""
    rs = []
    while sum(rs) < target:
        rs.append(window_value(bits, t, len(rs)))
    return rs


def exhaustive_capacity(length, t):
    """The mean data-qubit count of one pass over a key (floor(L/T) windows,
    no wrap), over every key of ``length`` bits, floored: what capacity()
    must give."""
    total = sum(
        window_value(bits, t, k)
        for bits in product((0, 1), repeat=length)
        for k in range(length // t)
    )
    return total // 2**length


def teleport(sim, rng, amps, hops=1):
    """Teleport a fresh qubit holding ``amps`` over a pair swapped end to end
    from ``hops`` adjacent pairs and checked to be a Bell pair with the
    magnitudes of ``PHI_PLUS``; the payload and the near half are gone
    after. Returns the qubit holding the state at the far end and the
    correction bits."""
    left, right = sim.make_bell_pair()
    for _ in range(hops - 1):
        a, b = sim.make_bell_pair()
        sim.bell_measure(right, a, rng)
        right = b
    payload = sim.allocate_unit(amps)
    assert_bell_pair(sim, left, right)
    assert np.allclose(np.abs(sim.amplitudes(left)), np.abs(PHI_PLUS), rtol=0, atol=1e-9)
    bits = sim.bell_measure(payload, left, rng)
    assert group_of(sim, payload) == group_of(sim, left) == ()
    assert set(bits) <= {0, 1}
    return right, bits


def assert_teleports_intact(sim, rng, state_rng, hops, count=100):
    """``teleport`` ``count`` random states from ``state_rng`` over chains of
    ``hops`` pairs: each arrives within 1e-9."""
    for _ in range(count):
        v = state_rng.normal(size=2) + 1j * state_rng.normal(size=2)
        v /= np.linalg.norm(v)
        far, _ = teleport(sim, rng, v, hops)
        assert states_equal(sim.amplitudes(far), v, tol=1e-9)
        sim.release(far)


def parse_campaign_csv(text: str) -> list[dict]:
    """Parse an emitted campaign CSV back into row dicts (round-trip check)."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for col, cell in zip(header, line.split(",")):
            if cell == "":
                row[col] = None
            else:
                try:
                    row[col] = int(cell)
                except ValueError:
                    row[col] = float(cell)
        rows.append(row)
    return rows


def session_config(t=2, target=20, key=None, key_length=64, index=0, **kwargs):
    """A session at transfer length t and encoding index ``index``: a fixed
    key (0/1 or hex text) or, without one, fresh keys of ``key_length`` bits."""
    return protocol.SessionConfig(
        key=parse_key(key) if key else None,
        sched=ScheduleConfig(t, index),
        data_qubit_target=target,
        key_length=key_length,
        **kwargs,
    )


def run_cli(argv):
    """``cli.main`` in-process: its exit code, stdout and stderr. It reads
    neither capsys nor capfd, which hypothesis does not reset per example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def busy_forever(self, arrival):
    """A stand-in ``Responder.step`` that always leaves the responder able to
    move (it flips between COMPUTE_R and AUTH_PREPARE) but never sends or
    completes: a session only the step guard can stop."""
    st = self.state
    st.phase = (protocol.Phase.AUTH_PREPARE if st.phase is protocol.Phase.COMPUTE_R
                else protocol.Phase.COMPUTE_R)


def one_window_more(self, arrival, _step=protocol.Initiator.step):
    """A stand-in ``Initiator.step`` that, where the initiator would complete
    on a met target, opens one window more: a round past the honest end."""
    if self.state.phase is protocol.Phase.COMPUTE_R and self.state.qubits_delivered >= self.target:
        self._next_window()
    return _step(self, arrival)
