"""Command-line surface: subcommands, option layering, outputs, exit codes."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qauthsim import cli, netsim, protocol, qsim
from qauthsim import experiments as exp
from qauthsim.cli import build_config, build_parser, load_config_file, main
from qauthsim.keyschedule import MAX_KEY_LENGTH


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analytic_table(capsys):
    code, out, _ = run(["analytic", "--rounds", "4", "--format", "table"], capsys)
    assert code == 0
    assert "two_state_collapse" in out
    assert "0.9375" in out


def test_analytic_csv(capsys):
    code, out, _ = run(["analytic", "--rounds", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rounds,two_state_collapse,intercept_resend"
    assert lines[1] == "1,0.5,0.25"


def test_capacity_report(capsys):
    code, out, _ = run(
        ["capacity", "--key-length", "1024", "-T", "2", "3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert "2,512,768" in out
    assert "3,341,1193" in out


def test_custom_campaign_to_file(tmp_path, capsys):
    out_path = tmp_path / "metrics.csv"
    code, out, _ = run(
        [
            "custom",
            "-T", "2",
            "--trials", "4",
            "--data-qubits", "10",
            "--adversary", "honest",
            "--seed", "3",
            "--key-length", "32",
            "--format", "csv",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("T,trials,")
    assert "\n2,4," in text


def test_custom_with_fixed_key_and_sinks(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    log_path = tmp_path / "eve.jsonl"
    code, out, _ = run(
        [
            "custom",
            "-T", "2",
            "--trials", "2",
            "--data-qubits", "8",
            "--key", "0xd", "--key-bits", "4",
            "--adversary", "intercept_z",
            "--seed", "5",
            "--format", "json",
            "--trace", str(trace_path),
            "--intercept-log", str(log_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["key"] == "0xd"
    trace_lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
    assert all({"transfer_length", "trial_index"} <= set(l) for l in trace_lines)
    assert any(l.get("event") == "teleport" for l in trace_lines)
    log_lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert all(l["basis"] == "Z" for l in log_lines)


def test_fig5_defaults(capsys):
    parser = build_parser()
    args = parser.parse_args(["fig5_overhead"])
    cfg = build_config(args)
    assert cfg.adversary == "honest"
    assert cfg.data_target == 100
    assert cfg.trials == 200


def test_fig2_defaults():
    parser = build_parser()
    cfg = build_config(parser.parse_args(["fig2_success"]))
    assert cfg.adversary == "intercept_random"
    assert cfg.data_target == 150
    assert cfg.t_values == (1, 2, 3, 4, 5)
    assert cfg.key_length == 1024


def test_config_file_layering(tmp_path):
    config = {
        "nodes": ["alice", "m", "bob"],
        "edges": [["alice", "m"], ["m", "bob"]],
        "path": ["alice", "m", "bob"],
        "adversary": "intercept_x",
        "t_values": [3],
        "trials": 9,
        "data_target": 33,
        "master_seed": 21,
        "key_length": 128,
        "malicious_node": "m",
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    parser = build_parser()
    args = parser.parse_args(
        ["custom", "--config", str(path), "--trials", "5"]  # flag wins
    )
    cfg = build_config(args)
    assert cfg.adversary == "intercept_x"
    assert cfg.t_values == (3,)
    assert cfg.trials == 5
    assert cfg.data_target == 33
    assert cfg.master_seed == 21
    assert cfg.topology.path == ("alice", "m", "bob")
    assert cfg.malicious_node == "m"


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"velocity": 3}))
    with pytest.raises(Exception):
        load_config_file(str(path))


def test_bad_flag_value_exits_2(capsys):
    code, _, err = run(["custom", "-T", "40", "--trials", "1"], capsys)
    assert code == 2
    assert "error" in err


def test_fixed_key_shorter_than_transfer_length_exits_2(tmp_path, capsys):
    # A campaign is checked at every T before its first trial, so the T=1
    # trials of "-T 1 5" never run and neither sink opens its file.
    trace_path, log_path = tmp_path / "trace.jsonl", tmp_path / "log.jsonl"
    for t_flags in (["5"], ["1", "5"]):
        code, _, err = run(
            ["custom", "--key", "1101", "-T", *t_flags, "--trials", "2",
             "--data-qubits", "10", "--trace", str(trace_path),
             "--intercept-log", str(log_path)],
            capsys,
        )
        assert code == 2
        assert "key" in err
        assert not trace_path.exists() and not log_path.exists()


@pytest.mark.parametrize(
    "setting",
    [{"trials": 2.5}, {"trials": "3"}, {"reverse_auth": "no"}, {"t_values": [1, "2"]},
     {"master_seed": True}, {"adversary": ["honest"]}, {"analytic_rounds": "8"},
     {"path": ["alice", "r1", "bob"]}, {"topology": 5},
     {"nodes": "ab", "edges": [["a", "b"]], "path": ["a", "b"]},
     {"topology": {"nodes": ["a", "b"], "edges": [["a"]], "path": ["a", "b"]}},
     {"nodes": ["a", "b"], "edges": [["a", "b"]], "path": ["a", "b"], "topology": {}},
     {"T": [3]},  # an old alias is an unknown key
     pytest.param('{"trials": 2, "trials": 3}', id="repeated_key"),
     {"adversary": "honest", "malicious_node": "zz"},  # no node intercepts
     {"key": "011010", "key_bits": 8}, {"key_bits": 8}],  # key_bits needs a hex key
)
def test_mistyped_config_value_exits_2(tmp_path, capsys, setting):
    path = tmp_path / "bad.json"
    path.write_text(setting if isinstance(setting, str) else json.dumps(setting))
    code, out, err = run(["custom", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "key_flags",
    [["--key", "0110", "--key-bits", "8"], ["--key-bits", "8"],
     ["--key", "0x1", "--key-bits", "-3"], {"key": "0x1", "key_bits": 1}],
)
def test_key_bits_without_hex_key_exits_2(tmp_path, capsys, key_flags):
    # --key-bits sizes a 0x hex key; beside a 0/1 key or no key it would be
    # dropped and another key length run than the one asked for. Below 2
    # bits, from a flag or a config file, it names no usable key length.
    if isinstance(key_flags, dict):
        path = tmp_path / "key.json"
        path.write_text(json.dumps(key_flags))
        key_flags = ["--config", str(path)]
    code, out, err = run(["custom", "-T", "1", "--trials", "1", *key_flags], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "key_bits" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [(["custom", "--key-length", str(MAX_KEY_LENGTH + 1)], "key length must be <="),
     (["capacity", "--key-length", str(MAX_KEY_LENGTH + 1)], "key length must be <="),
     (["custom", "--key", "0x1", "--key-bits", str(MAX_KEY_LENGTH + 1)], "key_bits"),
     (["custom", "--key", "0x", "--key-bits", "4"], "hex key '0x' needs hex digits"),
     (["custom", "--key", "0xZZ", "--key-bits", "8"], "hex key '0xZZ' needs hex digits")],
)
def test_oversized_or_malformed_key_exits_2(capsys, argv, message):
    # Refused with one line before any trial: an oversized length before
    # any key is drawn, a malformed hex key with a message of its own.
    code, out, err = run([*argv, "-T", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_config_refuses_an_oversized_key():
    # The bound is checked on the config, which allocates nothing, so a
    # length far past it is safe to give here.
    for setting in ({"key_length": 10**9}, {"key": "0x1", "key_bits": 10**9}):
        with pytest.raises(exp.ConfigError):
            exp.ExperimentConfig(**setting)
    assert exp.ExperimentConfig(key_length=MAX_KEY_LENGTH).key_length == MAX_KEY_LENGTH


@pytest.mark.parametrize(
    "t_flags",
    [["fig2_success", "-T", "1", "1", "--trials", "3", "--format", "csv"],
     ["fig2_success", "-T", "2", "1", "1", "--trials", "1", "--format", "json"],
     ["capacity", "-T", "3", "3"],
     {"t_values": [2, 1, 2]}],
)
def test_repeated_transfer_length_exits_2(tmp_path, capsys, t_flags):
    # A repeated T would print its row twice and, in JSON, keep one of its
    # two batches of trials under one key.
    if isinstance(t_flags, dict):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(t_flags))
        t_flags = ["custom", "--trials", "1", "--config", str(path)]
    code, out, err = run(t_flags, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: transfer lengths must not repeat")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "seed_flags",
    [["--seed", "-5"], ["--seed", str(2**64 + 5)], {"master_seed": -1},
     {"master_seed": 2**64}],
)
def test_master_seed_outside_64_bits_exits_2(tmp_path, capsys, seed_flags):
    # Trial seeds are mixed mod 2**64, so -5 and 2**64 - 5 (or 5 and
    # 2**64 + 5) would print the same rows under two master seeds.
    if isinstance(seed_flags, dict):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(seed_flags))
        seed_flags = ["--config", str(path)]
    code, out, err = run(
        ["custom", "-T", "1", "2", "--trials", "5", "--format", "csv", *seed_flags],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: master seed must be in [0, 2**64)")
    assert err.count("\n") == 1


def test_master_seed_range_ends_are_accepted(capsys):
    for seed in (0, 2**64 - 1):
        code, out, err = run(
            ["custom", "-T", "1", "--trials", "2", "--data-qubits", "4",
             "--format", "csv", "--seed", str(seed)],
            capsys,
        )
        assert code == 0 and err == ""
        assert out.splitlines()[1].endswith(f",{seed}")


def test_short_fresh_keys_are_redrawn_until_non_zero(capsys):
    # A 2-bit fresh key is all zero in a quarter of the draws; such a draw
    # is replaced from the trial's key stream instead of ending the
    # campaign. A fixed all-zero key still exits 2.
    code, out, err = run(
        ["custom", "--key-length", "2", "-T", "1", "--trials", "20", "--format", "csv"],
        capsys,
    )
    assert code == 0 and err == ""
    assert out.splitlines()[1].startswith("1,20,")
    code, out, err = run(["custom", "--key", "00", "-T", "1", "--trials", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: all-zero key never schedules a data window\n"


def test_stuck_session_exits_1_instead_of_hanging(monkeypatch, capsys):
    def busy_forever(self, arrival):
        # always progresses (changes phase), never completes
        st = self.state
        st.phase = (protocol.Phase.AUTH_PREPARE if st.phase is protocol.Phase.DATA_TRANSFER
                    else protocol.Phase.DATA_TRANSFER)
        return None

    monkeypatch.setattr(protocol.Responder, "step", busy_forever)
    code, out, err = run(
        ["custom", "-T", "1", "--trials", "1", "--data-qubits", "3",
         "--key-length", "8", "--adversary", "honest"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "sweeps" in err and err.count("\n") == 1


def test_leaked_qubit_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(qsim.Simulator, "release", lambda self, q: None)
    code, out, err = run(
        ["custom", "-T", "1", "--trials", "1", "--data-qubits", "3",
         "--key-length", "8", "--adversary", "honest"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "outlived the trial" in err
    assert err.count("\n") == 1


def test_trace_is_written_as_each_trial_ends(tmp_path, monkeypatch, capsys):
    trace_path = tmp_path / "trace.jsonl"
    seen = []
    inner = netsim.run_trial

    def run_trial(*args, **kwargs):
        lines = trace_path.read_text().splitlines() if trace_path.exists() else []
        seen.append({json.loads(line)["trial_index"] for line in lines})
        return inner(*args, **kwargs)

    monkeypatch.setattr(netsim, "run_trial", run_trial)
    code, _, _ = run(
        ["custom", "-T", "2", "--trials", "3", "--data-qubits", "4",
         "--adversary", "honest", "--key-length", "16", "--format", "csv",
         "--trace", str(trace_path)],
        capsys,
    )
    assert code == 0
    assert seen == [set(), {0}, {0, 1}]


def test_missing_config_file_exits_2(capsys):
    code, _, err = run(["custom", "--config", "/no/such/file.json"], capsys)
    assert code == 2


def test_unwritable_output_exits_1(tmp_path, capsys):
    code, _, err = run(
        [
            "analytic",
            "--rounds", "2",
            "--out", str(tmp_path / "missing" / "out.csv"),
        ],
        capsys,
    )
    assert code == 1


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["fig9_magic"])
    assert exc.value.code == 2


def test_determinism_across_invocations(tmp_path, capsys):
    argv = [
        "custom",
        "-T", "1", "2",
        "--trials", "6",
        "--data-qubits", "12",
        "--seed", "77",
        "--key-length", "32",
        "--format", "csv",
    ]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


SHARED_PATH_FLAGS = [("--trace", "--intercept-log"), ("--trace", "--out"),
                     ("--intercept-log", "--out")]


@pytest.mark.parametrize("first,second", SHARED_PATH_FLAGS)
def test_one_file_for_two_outputs_exits_2(tmp_path, monkeypatch, capsys, first, second):
    # The second spelling reaches the same file through a symlinked directory.
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "real")
    monkeypatch.setattr(netsim, "run_trial", None)  # no trial may start
    code, out, err = run(
        ["custom", "--adversary", "intercept_random", "-T", "1", "--trials", "2",
         "--data-qubits", "10", "--seed", "3",
         first, str(tmp_path / "real" / "f"), second, str(tmp_path / "link" / "f")],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {first} and {second} ") and err.count("\n") == 1
    assert list((tmp_path / "real").iterdir()) == []


def test_out_from_a_config_file_is_checked_too(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"out": str(tmp_path / "f")}))
    code, _, err = run(
        ["custom", "-T", "1", "--trials", "1", "--config", str(config),
         "--trace", str(tmp_path / "f")],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: --trace and --out ")
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("key", ["key", "malicious_node"])
def test_empty_key_or_malicious_node_exits_2(tmp_path, capsys, key, via_config):
    # An empty string is a value, not "unset": it must not run fresh keys or
    # intercept at the default node.
    trace = tmp_path / "trace.jsonl"
    argv = ["custom", "--adversary", "intercept_random", "-T", "1", "--trials", "2",
            "--data-qubits", "10", "--seed", "3", "--trace", str(trace)]
    if via_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: ""}))
        argv += ["--config", str(config)]
    else:
        argv += ["--" + key.replace("_", "-"), ""]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not trace.exists()  # no trial ended


# -- the JSONL sinks -----------------------------------------------------------

#: strings with quotes, backslashes, control and non-ASCII characters
json_text = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé€\U0001d11e'),
                              st.characters()), max_size=12)
json_values = st.one_of(json_text, st.booleans(), st.none(), st.integers(), st.floats(),
                        st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.lists(st.integers(), max_size=4))
#: trace records never carry the sink's own tags (checked below for run_trial)
sink_records = st.dictionaries(
    json_text.filter(lambda k: k not in ("transfer_length", "trial_index")),
    json_values, max_size=4,
)


@given(st.lists(st.tuples(st.integers(1, 16), st.integers(0, 10**6),
                          st.lists(sink_records, max_size=4)), max_size=3))
@settings(max_examples=100, deadline=None)
def test_sink_lines_equal_json_dumps(tmp_path_factory, trials):
    path = tmp_path_factory.getbasetemp() / "sink.jsonl"
    path.unlink(missing_ok=True)
    sink = cli._JsonlSink(str(path), "records")
    expected = ""
    for t, i, records in trials:
        sink.append({"transfer_length": t, "trial_index": i, "records": records})
        tags = {"transfer_length": t, "trial_index": i}
        expected += "".join(json.dumps({**tags, **r}) + "\n" for r in records)
    sink.close()
    assert path.exists() == bool(trials)  # opened at the first trial
    if trials:
        assert path.read_text(encoding="utf-8") == expected


def test_sink_encoder_without_the_c_accelerator_is_json_dumps(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert cli._make_encoder() is json.dumps


def test_trial_records_carry_no_sink_tag():
    # The sink writes its tags once and splices each record after them, which
    # is json.dumps({**tags, **record}) only while no record has a tag key.
    events = set()
    for adversary, payload in (("intercept_random", "haar"), ("honest", "uniform4")):
        trace, log = [], []
        cfg = exp.ExperimentConfig(
            t_values=(1, 2), trials=6, data_target=12, adversary=adversary,
            reverse_auth=True, payload=payload, topology=netsim.Topology.chain(3),
            key_length=32,
        )
        exp.run_experiment(cfg, trace_sink=trace, intercept_sink=log)
        records = [r for e in trace for r in e["records"]]
        records += [r for e in log for r in e["events"]]
        events |= {r.get("event") for r in records}
        assert not any(r.keys() & {"transfer_length", "trial_index"} for r in records)
    # every kind of record was seen, intercept-log entries (no "event") too
    assert events == {"window", "prepare_auth", "swap", "teleport", "verdict",
                      "complete", "terminate", None}
