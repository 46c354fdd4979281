"""Simulator-state checks, the key-window walk and parsers shared by the tests."""

import numpy as np

from qauthsim.keyschedule import KeyMaterial


def group_of(sim, q):
    """Qubit ids of the group holding q, in index order; () once q is gone."""
    group = sim._groups.get(q.id)  # test-only: the simulator's layout
    return tuple(group.qubits) if group else ()


def assert_bell_pair(sim, a, b):
    """Require that a and b form an isolated, maximally entangled pair: one
    two-qubit group whose one-qubit reduced state has purity 1/2."""
    members = group_of(sim, a)
    assert members == group_of(sim, b) and len(members) == 2, (
        f"qubits {a.id} and {b.id} are not an isolated entangled pair"
    )
    t = np.array(sim.amplitudes(a), dtype=complex).reshape(2, 2)
    if members[0] != a.id:
        t = t.T
    rho = t @ t.conj().T
    purity = float(np.trace(rho @ rho).real)
    assert abs(purity - 0.5) <= 1e-9, (
        f"qubits {a.id} and {b.id} are not maximally entangled"
        f" (reduced purity {purity:.6f})"
    )


def key_from_bits(bits) -> KeyMaterial:
    """A key from any iterable of 0/1 values or digits, e.g. "1101"."""
    return KeyMaterial(tuple(int(b) for b in bits))


def window_value(bits, t, index):
    """Value of the index-th R window: T wrapped key bits, MSB first."""
    value = 0
    for i in range(t):
        value = (value << 1) | bits[(index * t + i) % len(bits)]
    return value


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
