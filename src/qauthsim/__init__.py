"""Deterministic simulator for entanglement-based identity authentication
over quantum repeater chains, with an intercept-resend man-in-the-middle
adversary and a Monte Carlo experiment harness.

The package exports the library API that the README lists; every other
name is imported from its own module."""

from .adversary import Honest, InterceptResend
from .keyschedule import ScheduleConfig, parse_key
from .netsim import Topology, run_trial
from .protocol import PayloadDistribution, SessionConfig
from .qsim import Draws, QubitRef, Simulator, make_rng

__version__ = "0.1.0"

__all__ = [
    "Draws",
    "Honest",
    "InterceptResend",
    "PayloadDistribution",
    "QubitRef",
    "ScheduleConfig",
    "SessionConfig",
    "Simulator",
    "Topology",
    "make_rng",
    "parse_key",
    "run_trial",
]
