"""Deterministic simulator for entanglement-based identity authentication
over quantum repeater chains, with an intercept-resend man-in-the-middle
adversary and a Monte Carlo experiment harness."""

from .adversary import Honest, InterceptResend, RepeaterState, parse_behavior
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    MetricsRow,
    analytic_detection,
    capacity_report,
    run_experiment,
)
from .keyschedule import (
    AuthPlan,
    KeyCursors,
    KeyMaterial,
    ScheduleConfig,
    capacity,
    next_auth_pair,
    next_r,
    parse_key,
)
from .netsim import Topology, TrialRecord, run_trial
from .protocol import (
    Initiator,
    PayloadDistribution,
    Phase,
    Responder,
    SessionConfig,
)
from .qsim import (
    Basis,
    Draws,
    QubitRef,
    Simulator,
    derive_seed,
    make_rng,
    states_equal,
)

__version__ = "0.1.0"

__all__ = [
    "AuthPlan",
    "Basis",
    "Draws",
    "ExperimentConfig",
    "ExperimentResult",
    "Honest",
    "Initiator",
    "InterceptResend",
    "KeyCursors",
    "KeyMaterial",
    "MetricsRow",
    "PayloadDistribution",
    "Phase",
    "QubitRef",
    "RepeaterState",
    "Responder",
    "ScheduleConfig",
    "SessionConfig",
    "Simulator",
    "Topology",
    "TrialRecord",
    "analytic_detection",
    "capacity",
    "capacity_report",
    "derive_seed",
    "make_rng",
    "next_auth_pair",
    "next_r",
    "parse_behavior",
    "parse_key",
    "run_experiment",
    "run_trial",
    "states_equal",
]
