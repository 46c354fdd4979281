"""Campaign aggregation, analytic tables, and emitter round trips."""

import json
import random

import numpy as np
import pytest

from helpers import parse_campaign_csv
from qauthsim import netsim, qsim
from qauthsim.experiments import (
    PREHASH_TRIALS,
    ConfigError,
    ExperimentConfig,
    aggregate,
    analytic_detection,
    analytic_table,
    campaign_row_dicts,
    capacity_report,
    emit_campaign,
    emit_rows,
    format_value,
    rows_to_csv,
    run_experiment,
    trial_seed,
)
from qauthsim.qsim import SimulationError


def small_campaign(**overrides) -> ExperimentConfig:
    settings = dict(
        experiment="custom",
        t_values=(1, 2),
        trials=15,
        data_target=20,
        adversary="intercept_random",
        master_seed=7,
        key_length=64,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


# -- analytic --------------------------------------------------------------------


def test_analytic_detection_values():
    assert analytic_detection(1)["two_state_collapse"] == 0.5
    assert analytic_detection(2)["two_state_collapse"] == 0.75
    assert analytic_detection(3)["two_state_collapse"] == 0.875
    assert analytic_detection(4)["two_state_collapse"] == 0.9375
    seventh = analytic_detection(7)
    assert seventh["two_state_collapse"] == 1 - 2**-7 == 0.9921875
    assert round(seventh["two_state_collapse"], 3) == 0.992
    assert seventh["intercept_resend"] == pytest.approx(1 - 0.75**7)
    assert seventh["intercept_resend"] == pytest.approx(0.8665, abs=5e-5)


def test_analytic_table_shape():
    table = analytic_table(4)
    assert [row["rounds"] for row in table] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        analytic_detection(0)


def test_capacity_report_values():
    report = capacity_report(1024, (2, 3))
    assert report[0] == {
        "transfer_length": 2,
        "rounds_supported": 512,
        "avg_data_qubits": 768,
    }
    assert report[1] == {
        "transfer_length": 3,
        "rounds_supported": 341,
        "avg_data_qubits": 1193,
    }
    assert capacity_report(4, (4,))[0]["avg_data_qubits"] == 7


# -- config validation --------------------------------------------------------------


def test_config_rejects_bad_values():
    # What a config file or flag can set is refused in tests/test_cli.py's
    # REFUSALS; the experiment name is the subcommand, which no file sets,
    # and run_experiment runs no table experiment.
    with pytest.raises(ConfigError, match="unknown experiment 'fig6'"):
        ExperimentConfig(experiment="fig6")
    with pytest.raises(ConfigError, match="analytic is not a trial campaign"):
        run_experiment(ExperimentConfig(experiment="analytic"))


def test_trial_seed_spread():
    seeds = {trial_seed(1, t, i) for t in (1, 2, 3) for i in range(100)}
    assert len(seeds) == 300
    assert trial_seed(1, 2, 3) == trial_seed(1, 2, 3)


# -- campaigns ------------------------------------------------------------------------


def test_run_experiment_structure_and_determinism():
    cfg = small_campaign()
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.rows == second.rows
    assert first.records == second.records
    assert [row.transfer_length for row in first.rows] == [1, 2]
    assert all(len(batch) == 15 for batch in first.records.values())
    assert all(row.trials == 15 for row in first.rows)


def test_aggregate_is_order_invariant():
    records = run_experiment(small_campaign()).records[2]
    row = aggregate(2, records)
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    assert aggregate(2, shuffled) == row


def test_aggregate_handles_no_detections():
    cfg = small_campaign(adversary="honest", t_values=(2,), trials=5)
    row = run_experiment(cfg).rows[0]
    assert row.detection_rate == 0.0
    assert row.mean_rounds is None and row.mean_leakage is None
    assert row.overhead is not None  # honest trials complete


def test_aggregate_overhead_only_over_completed():
    result = run_experiment(small_campaign(t_values=(1,), trials=20))
    completed = [r for r in result.records[1] if r.completed]
    row = result.rows[0]
    if not completed:
        assert row.overhead is None
    else:
        expected = sum(
            r.auth_qubits_sent / r.data_qubits_delivered for r in completed
        ) / len(completed)
        assert row.overhead == pytest.approx(expected)


def test_trace_and_intercept_sinks():
    traces, intercepts = [], []
    run_experiment(
        small_campaign(t_values=(2,), trials=3),
        trace_sink=traces,
        intercept_sink=intercepts,
    )
    assert [t["trial_index"] for t in traces] == [0, 1, 2]
    assert all(t["records"] for t in traces)
    assert all(e["events"] for e in intercepts)


def test_prehashed_chunks_give_the_records_of_lone_trials(monkeypatch):
    # One chunk plus three trials per T, all three streams per trial: every
    # stream comes from the pre-hash, and each record is that of run_trial
    # called alone with nothing pre-hashed.
    cfg = small_campaign(trials=PREHASH_TRIALS + 3, data_target=2, key_length=8)
    behavior, node, sessions = cfg.campaign()
    expected = {}
    for t, session in sessions.items():
        expected[t] = []
        for i in range(cfg.trials):
            qsim._prehashed.clear()
            expected[t].append(netsim.run_trial(cfg.topology, behavior, session,
                                                trial_seed(cfg.master_seed, t, i),
                                                malicious_node=node))

    def unhashed(seed):
        raise AssertionError(f"stream seed {seed} was not pre-hashed")

    monkeypatch.setattr(np.random, "default_rng", unhashed)
    assert run_experiment(cfg).records == expected
    assert not qsim._prehashed  # every entry was taken


def test_a_failed_trial_leaves_at_most_one_chunk_hashed(monkeypatch):
    run_trial = netsim.run_trial

    def fails_fifth(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise SimulationError("fifth trial")
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(netsim, "run_trial", fails_fifth)
    for seed in (7, 8):  # the second campaign's chunk replaces the first's
        calls = []
        with pytest.raises(SimulationError, match="fifth trial"):
            run_experiment(small_campaign(trials=PREHASH_TRIALS + 3, master_seed=seed))
        # of one chunk, three streams a trial: the four trials that ran took theirs
        assert len(qsim._prehashed) == 3 * (PREHASH_TRIALS - 4)


# -- emitters ---------------------------------------------------------------------------


def test_csv_columns_and_roundtrip():
    result = run_experiment(small_campaign())
    text = emit_campaign(result, "csv")
    lines = text.splitlines()
    assert lines[0] == (
        "T,trials,detection_rate,detection_rate_ci,mean_rounds,mean_rounds_ci,"
        "mean_leakage,mean_leakage_ci,overhead,overhead_ci,master_seed"
    )
    assert len(lines) == 3
    parsed = parse_campaign_csv(text)
    for parsed_row, row in zip(parsed, campaign_row_dicts(result)):
        for col in lines[0].split(","):
            expected = row[col]
            got = parsed_row[col]
            if expected is None:
                assert got is None
            else:
                assert float(got) == pytest.approx(float(expected), rel=1e-5)


def test_csv_is_byte_deterministic():
    cfg = small_campaign()
    a = emit_campaign(run_experiment(cfg), "csv")
    b = emit_campaign(run_experiment(cfg), "csv")
    assert a.encode() == b.encode()
    c = emit_campaign(run_experiment(small_campaign(master_seed=8)), "csv")
    assert a != c


def test_json_emission_carries_config_and_trials():
    result = run_experiment(small_campaign(t_values=(2,), trials=4))
    payload = json.loads(emit_campaign(result, "json"))
    assert payload["config"]["master_seed"] == 7
    assert payload["config"]["t_values"] == [2]
    assert len(payload["trials"]["2"]) == 4
    assert payload["rows"][0]["T"] == 2
    record = payload["trials"]["2"][0]
    assert {"seed", "detected", "data_qubits_delivered"} <= set(record)


def test_table_emission_renders_all_rows():
    result = run_experiment(small_campaign())
    text = emit_campaign(result, "table")
    lines = text.splitlines()
    assert "detection_rate" in lines[0]
    assert len(lines) == 4  # header, rule, two rows


def test_fig5_output_includes_reference_values():
    cfg = small_campaign(
        experiment="fig5_overhead", adversary="honest", t_values=(1,), trials=3,
        data_target=10,
    )
    result = run_experiment(cfg)
    table = emit_campaign(result, "table")
    assert "reference" in table
    payload = json.loads(emit_campaign(result, "json"))
    assert payload["reference_overhead_percent"]["1"] == 64.0


def test_emit_rows_formats():
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": None}]
    assert rows_to_csv(rows) == "a,b\n1,0.5\n2,\n"
    assert json.loads(emit_rows(rows, "json")) == rows
    assert "a" in emit_rows(rows, "table")
    with pytest.raises(ConfigError):
        emit_rows(rows, "yaml")


def test_format_value():
    assert format_value(None) == ""
    assert format_value(3) == "3"
    assert format_value(0.123456789) == "0.123457"
    assert format_value(True) == "true"
    assert format_value(1.0) == "1"
