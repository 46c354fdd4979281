"""The experiments: their table (``EXPERIMENT_SPECS``) and config, trial
campaigns with per-transfer-length metrics and 95% confidence half-widths,
the closed-form tables, and the CSV, JSON and table emitters. A fixed
master seed reproduces every output byte for byte.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

from . import adversary as adv
from . import netsim
from . import protocol as proto
from .keyschedule import MAX_KEY_LENGTH, ScheduleConfig, capacity, parse_key
from .qsim import derive_seed


class Experiment(NamedTuple):
    help: str
    defaults: dict  # config values set before --config and explicit flags
    #: the rows of a closed-form table, from the config; None runs trials
    table: Callable[[ExperimentConfig], list[dict]] | None = None


_MITM = {"adversary": "intercept_random", "data_target": 150}

#: Every experiment, by subcommand name, in the order the CLI lists them.
EXPERIMENT_SPECS = {
    "fig2_success": Experiment("detection success rate per transfer length", _MITM),
    "fig3_rounds": Experiment("mean authentication rounds needed to detect", _MITM),
    "fig4_leakage": Experiment("mean data qubits leaked before detection", _MITM),
    "fig5_overhead": Experiment(
        "auth/data qubit overhead of completed sessions",
        {"adversary": "honest", "data_target": 100},
    ),
    "custom": Experiment("fully flag-driven campaign", {}),
    "analytic": Experiment("closed-form detection probability table", {},
                           lambda cfg: analytic_table(cfg.analytic_rounds)),
    "capacity": Experiment("data-qubit capacity of one key pass", {},
                           lambda cfg: capacity_report(cfg.key_length, cfg.t_values)),
}

OUTPUT_FORMATS = ("csv", "json", "table")

#: the most rows ``analytic`` builds: every value past about 50 rounds
#: prints as 1, and each row costs time and memory before any is printed
MAX_ANALYTIC_ROUNDS = 1000

#: overhead percentages the paper reports for transfer lengths 1..5, emitted
#: for comparison only. They track auth/(auth+data), the authentication share
#: of all qubits sent (exactly E[M/(M+100)] = 66.6/39.9/22.1/11.5/5.8 % at
#: target 100 under uniform keys, M the authenticated rounds), not the
#: auth/data ratio reported as ``overhead``, so nothing is asserted against
#: them.
REFERENCE_OVERHEAD_PERCENT = {1: 64.0, 2: 37.0, 3: 20.0, 4: 10.0, 5: 4.0}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false is never a count or a seed.
    return isinstance(value, int) and not isinstance(value, bool)


#: value check and its description, by ExperimentConfig field annotation
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (
        lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
        "a list of integers",
    ),
}


def _check_field_type(name: str, annotation: str, value) -> None:
    if annotation.endswith(" | None"):
        if value is None:
            return
        annotation = annotation[: -len(" | None")]
    if annotation not in _FIELD_TYPES:
        return  # the topology, which the program builds itself
    ok, what = _FIELD_TYPES[annotation]
    if not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "custom"
    t_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    trials: int = 200
    data_target: int = 150
    adversary: str = "intercept_random"
    master_seed: int = 1
    output_format: str = "table"
    out: str | None = None
    key_length: int = 1024
    key: str | None = None
    key_bits: int | None = None
    encoding_index: int = 0
    reverse_auth: bool = False
    payload: str = "uniform4"
    topology: netsim.Topology = field(default_factory=lambda: netsim.Topology.chain(1))
    malicious_node: str | None = None
    analytic_rounds: int = 8

    def __post_init__(self):
        for f in fields(self):
            _check_field_type(f.name, f.type, getattr(self, f.name))
        if self.experiment not in EXPERIMENT_SPECS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.t_values:
            raise ConfigError("need at least one transfer length")
        if len(set(self.t_values)) != len(self.t_values):
            # each T is one row and one batch of trials; a repeat would emit
            # its row twice and, in JSON, keep only one batch of trials
            raise ConfigError(
                f"transfer lengths must not repeat, got {list(self.t_values)}"
            )
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            # trial seeds are mixed mod 2**64: two master seeds equal mod
            # 2**64 would run one campaign under two labels
            raise ConfigError(
                f"master seed must be in [0, 2**64), got {self.master_seed}"
            )
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"format must be one of {OUTPUT_FORMATS}")
        if self.analytic_rounds < 1:
            raise ConfigError("analytic rounds must be >= 1")
        if self.analytic_rounds > MAX_ANALYTIC_ROUNDS:
            raise ConfigError(f"analytic rounds must be <= {MAX_ANALYTIC_ROUNDS}, "
                              f"got {self.analytic_rounds}")
        if self.key_bits is not None and not (
            self.key and self.key.strip().lower().startswith("0x")
        ):
            raise ConfigError("key_bits is only for a 0x-prefixed hex key")
        if self.key_bits is not None and not 2 <= self.key_bits <= MAX_KEY_LENGTH:
            raise ConfigError(
                f"key_bits must be in [2, {MAX_KEY_LENGTH}], got {self.key_bits}"
            )
        try:
            self.campaign()  # for every experiment, tables included
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def campaign(self) -> tuple[adv.Behavior, str | None, dict[int, proto.SessionConfig]]:
        """The one path from this config to what a campaign runs: the
        behavior, the malicious node ``netsim.intercept_node`` resolves, and
        each transfer length's session, in order. Each value is checked by
        the library constructor or parser that takes it, whose ValueError
        this raises."""
        behavior = adv.parse_behavior(self.adversary)
        payload = proto.PayloadDistribution.parse(self.payload)
        node = netsim.intercept_node(self.topology, behavior, self.malicious_node)
        key = None if self.key is None else parse_key(self.key, self.key_bits)
        sessions = {
            t: proto.SessionConfig(
                key=key,
                sched=ScheduleConfig(t, self.encoding_index),
                data_qubit_target=self.data_target,
                reverse_auth=self.reverse_auth,
                payload=payload,
                key_length=self.key_length,
            )
            for t in self.t_values
        }
        return behavior, node, sessions


@dataclass(frozen=True)
class MetricsRow:
    transfer_length: int
    trials: int
    detection_rate: float
    detection_rate_ci: float
    mean_rounds: float | None
    mean_rounds_ci: float | None
    mean_leakage: float | None
    mean_leakage_ci: float | None
    overhead: float | None
    overhead_ci: float | None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: list[MetricsRow]
    records: dict[int, list[netsim.TrialRecord]]


def trial_seed(master_seed: int, transfer_length: int, index: int) -> int:
    """Per-trial world seed: splitmix over master seed, then T, then index."""
    return derive_seed(derive_seed(master_seed, transfer_length), index)


def _mean_ci(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = statistics.fmean(values)
    if len(values) == 1:
        return mean, 0.0
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean, half


def aggregate(transfer_length: int, records: list[netsim.TrialRecord]) -> MetricsRow:
    n = len(records)
    detected = [r for r in records if r.detected]
    rate = len(detected) / n
    rate_ci = 1.96 * math.sqrt(rate * (1.0 - rate) / n)
    rounds, rounds_ci = _mean_ci([float(r.rounds_to_detect) for r in detected])
    leakage, leakage_ci = _mean_ci([float(r.data_qubits_delivered) for r in detected])
    overhead, overhead_ci = _mean_ci(
        [
            r.auth_qubits_sent / r.data_qubits_delivered
            for r in records
            if r.completed and r.data_qubits_delivered > 0
        ]
    )
    return MetricsRow(
        transfer_length=transfer_length,
        trials=n,
        detection_rate=rate,
        detection_rate_ci=rate_ci,
        mean_rounds=rounds,
        mean_rounds_ci=rounds_ci,
        mean_leakage=leakage,
        mean_leakage_ci=leakage_ci,
        overhead=overhead,
        overhead_ci=overhead_ci,
    )


def run_experiment(
    cfg: ExperimentConfig,
    trace_sink: list | None = None,
    intercept_sink: list | None = None,
) -> ExperimentResult:
    """Run a trial campaign and aggregate per transfer length.

    What the trials run comes from ``cfg.campaign()``, which the config's
    constructor has already run, so a config error raises before any trial
    runs or any sink is written. Each sink, when given, receives one
    ``append`` per trial as the trial ends: a dict with ``transfer_length``,
    ``trial_index`` and that trial's ``records`` (trace) or ``events``
    (intercept log), each the JSON object text ``run_trial`` gives. Every
    trial of the campaign shares one Bell memo.
    """
    if EXPERIMENT_SPECS[cfg.experiment].table is not None:
        raise ConfigError(f"{cfg.experiment} is not a trial campaign")
    behavior, node, sessions = cfg.campaign()

    rows: list[MetricsRow] = []
    records: dict[int, list[netsim.TrialRecord]] = {}
    bell_memo: dict = {}
    for t, session in sessions.items():
        batch: list[netsim.TrialRecord] = []
        for i in range(cfg.trials):
            trace = [] if trace_sink is not None else None
            intercepts = [] if intercept_sink is not None else None
            record = netsim.run_trial(
                cfg.topology,
                behavior,
                session,
                trial_seed(cfg.master_seed, t, i),
                malicious_node=node,
                trace=trace,
                intercept_log=intercepts,
                bell_memo=bell_memo,
            )
            batch.append(record)
            if trace_sink is not None:
                trace_sink.append(
                    {"transfer_length": t, "trial_index": i, "records": trace}
                )
            if intercept_sink is not None:
                intercept_sink.append(
                    {"transfer_length": t, "trial_index": i, "events": intercepts}
                )
        records[t] = batch
        rows.append(aggregate(t, batch))
    return ExperimentResult(config=cfg, rows=rows, records=records)


# -- analytic models ----------------------------------------------------------


def analytic_detection(rounds: int) -> dict:
    """Detection probability after ``rounds`` authentication rounds.

    two_state_collapse: each round halves the miss probability (the model in
    which an interceptor flips a fair coin against the expected value).
    intercept_resend: miss probability (3/4) per round, which is what a
    basis-measuring interceptor actually achieves when the basis bit is
    uniform: detection needs both a wrong basis and a wrong collapse.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    return {
        "rounds": rounds,
        "two_state_collapse": 1.0 - 0.5**rounds,
        "intercept_resend": 1.0 - 0.75**rounds,
    }


def analytic_table(max_rounds: int) -> list[dict]:
    return [analytic_detection(n) for n in range(1, max_rounds + 1)]


def capacity_report(key_length: int, t_values) -> list[dict]:
    """Rounds supported and average data-qubit capacity per key pass."""
    return [
        {
            "transfer_length": t,
            "rounds_supported": key_length // t,
            "avg_data_qubits": capacity(key_length, t),
        }
        for t in t_values
    ]


# -- emitters ------------------------------------------------------------------

def format_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def campaign_row_dicts(result: ExperimentResult) -> list[dict]:
    """The MetricsRow fields in order, transfer_length named T, then the
    master seed: the campaign CSV columns."""
    seed = {"master_seed": result.config.master_seed}
    return [
        {"T" if k == "transfer_length" else k: v for k, v in asdict(row).items()} | seed
        for row in result.rows
    ]


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def rows_to_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)\n"
    header = list(rows[0])
    cells = [[str(col) for col in header]]
    for row in rows:
        cells.append([format_value(row[col]) for col in header])
    widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
    lines = []
    for j, line in enumerate(cells):
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def campaign_json(result: ExperimentResult) -> str:
    payload = {
        "config": asdict(result.config),
        "rows": campaign_row_dicts(result),
        "trials": {
            str(t): [asdict(r) for r in batch]
            for t, batch in result.records.items()
        },
    }
    if result.config.experiment == "fig5_overhead":
        payload["reference_overhead_percent"] = REFERENCE_OVERHEAD_PERCENT
    return json.dumps(payload, indent=2) + "\n"


def _overhead_reference_block(result: ExperimentResult) -> str:
    lines = ["", "reference overhead values (for comparison, not reproduced):"]
    for row in result.rows:
        ref = REFERENCE_OVERHEAD_PERCENT.get(row.transfer_length)
        if ref is None or row.overhead is None:
            continue
        lines.append(
            f"  T={row.transfer_length}: measured {100 * row.overhead:.1f}%"
            f"  reference {ref:.0f}%"
        )
    return "\n".join(lines) + "\n"


def emit_campaign(result: ExperimentResult, fmt: str) -> str:
    if fmt == "json":
        return campaign_json(result)
    text = emit_rows(campaign_row_dicts(result), fmt)
    if fmt == "table" and result.config.experiment == "fig5_overhead":
        text += _overhead_reference_block(result)
    return text


def emit_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        return rows_to_csv(rows)
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "table":
        return rows_to_table(rows)
    raise ConfigError(f"unknown output format {fmt!r}")
