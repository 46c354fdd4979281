"""Checks on simulator state shared by the test modules."""

import numpy as np


def assert_bell_pair(sim, a, b):
    """Require that a and b form an isolated, maximally entangled pair: one
    two-qubit group whose one-qubit reduced state has purity 1/2."""
    members = sim.group_members(a)
    assert members == sim.group_members(b) and len(members) == 2, (
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
