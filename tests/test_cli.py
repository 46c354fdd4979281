"""Command-line surface: subcommands, option layering, outputs, exit codes."""

import json
import math
from collections import namedtuple
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qauthsim import cli, netsim, protocol, qsim
from qauthsim import experiments as exp
from qauthsim.adversary import BEHAVIOR_LABELS
from qauthsim.cli import build_config, build_parser
from qauthsim.keyschedule import MAX_KEY_LENGTH, RoundSchedule, ScheduleConfig, parse_key
from helpers import busy_forever, decoded, one_window_more, run_cli


def test_analytic_table():
    code, out, _ = run_cli(["analytic", "--rounds", "4", "--format", "table"])
    assert code == 0
    assert "two_state_collapse" in out
    assert "0.9375" in out


def test_analytic_csv():
    code, out, _ = run_cli(["analytic", "--rounds", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rounds,two_state_collapse,intercept_resend"
    assert lines[1] == "1,0.5,0.25"


def test_capacity_report():
    code, out, _ = run_cli(["capacity", "--key-length", "1024", "-T", "2", "3", "--format", "csv"])
    assert code == 0
    assert "2,512,768" in out
    assert "3,341,1193" in out


def test_custom_campaign_to_file(tmp_path):
    out_path = tmp_path / "metrics.csv"
    code, out, _ = run_cli(
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
        ]
    )
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("T,trials,")
    assert "\n2,4," in text


def test_custom_with_fixed_key_and_sinks(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    log_path = tmp_path / "eve.jsonl"
    code, out, _ = run_cli(
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
        ]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["key"] == "0xd"
    trace_lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
    assert all({"transfer_length", "trial_index"} <= set(l) for l in trace_lines)
    assert any(l.get("event") == "teleport" for l in trace_lines)
    log_lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert all(l["basis"] == "Z" for l in log_lines)


def test_fig5_defaults():
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


# -- refusals ------------------------------------------------------------------

#: One refused command line: its argv, the start of its one error line after
#: "error: ", a config-file object or text that --config names, if any, and a
#: test id where the generated one (argument name and index) will not do.
#: "{tmp}" in argv and config is the directory the row runs in.
Refusal = namedtuple("Refusal", "argv message config id", defaults=(None, None))
row_id = attrgetter("id")

#: a path with no intermediate node, where no repeater can intercept
DIRECT = {"topology": {"nodes": ["a", "b"], "edges": [["a", "b"]], "path": ["a", "b"]}}
#: a key that covers a transfer length of up to 4 only
KEY4 = {"key": "0110"}
TWO_HOPS = ["custom", "--adversary", "intercept_random", "-T", "1", "--trials", "2",
            "--data-qubits", "10", "--seed", "3"]
SHORT_KEY = "key shorter than max(transfer length, 2)"
MISSING_HEX = "hex key {!r} needs hex digits after 0x"

#: Every refused command line, by the test that runs it. Each is refused with
#: exit 2, no stdout, one stderr line, no trial started and no file written.
REFUSALS = {
    "bad_flag_value": [  # argparse's refusals, which print no usage block
        Refusal(["custom", "-T", "40", "--trials", "1"], "transfer length must be in [1, 16]"),
        Refusal(["custom", "--trials", "1e3"], "argument --trials: invalid int value: '1e3'"),
        Refusal(["custom", "-T"], "argument --transfer-length/-T: expected at least one"),
        Refusal(["fig2_success", "--payload", "haar"], "unrecognized arguments: --payload haar"),
        Refusal(["custom", "--reverse-auth", "x"], "unrecognized arguments: x"),
        Refusal(["custom", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    ],
    "unknown_subcommand": [
        Refusal(["fig9_magic"], "argument experiment: invalid choice: 'fig9_magic'"),
        Refusal([], "the following arguments are required: experiment"),
    ],
    "config_file_rejects_unknown_keys": [
        Refusal(["custom"], "unknown config key 'velocity'", {"velocity": 3}),
    ],
    "missing_config_file": [
        Refusal(["custom", "--config", "/no/such/file.json"], "reading config: "),
    ],
    # A campaign is checked at every T before its first trial, so the T=1
    # trials of "-T 1 5" never run and neither sink opens its file.
    "fixed_key_shorter_than_transfer_length": [
        Refusal(["custom", "--key", "1101", "-T", *t, "--trials", "2", "--data-qubits", "10",
                 "--trace", "{tmp}/trace.jsonl", "--intercept-log", "{tmp}/log.jsonl"], SHORT_KEY)
        for t in (["5"], ["1", "5"])
    ],
    "mistyped_config_value": [
        Refusal(["custom"], message, setting, "repeated_key" if isinstance(setting, str) else None)
        for setting, message in [
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"trials": "3"}, "trials must be an integer, got '3'"),
            ({"reverse_auth": "no"}, "reverse_auth must be true or false, got 'no'"),
            ({"t_values": [1, "2"]}, "t_values must be a list of integers"),
            ({"master_seed": True}, "master_seed must be an integer, got True"),
            ({"adversary": ["honest"]}, "adversary must be a string"),
            ({"analytic_rounds": "8"}, "analytic_rounds must be an integer"),
            ({"path": ["alice", "r1", "bob"]}, "topology must be an object with the keys"),
            ({"topology": 5}, "topology must be an object with the keys"),
            ({"nodes": "ab", "edges": [["a", "b"]], "path": ["a", "b"]},
             "topology nodes must be a list of node names"),
            ({"topology": {"nodes": ["a", "b"], "edges": [["a"]], "path": ["a", "b"]}},
             "topology edges must be a list of node-name pairs"),
            ({"nodes": ["a", "b"], "edges": [["a", "b"]], "path": ["a", "b"], "topology": {}},
             "give either topology or nodes, edges and path"),
            ({"T": [3]}, "unknown config key 'T'"),  # an old alias is an unknown key
            ('{"trials": 2, "trials": 3}', "config key 'trials' is given twice"),
            ({"adversary": "honest", "malicious_node": "zz"},  # no node intercepts
             "an honest repeater path has no malicious node"),
            ({"key": "011010", "key_bits": 8}, "key_bits is only for a 0x-prefixed hex key"),
            ({"key_bits": 8}, "key_bits is only for a 0x-prefixed hex key"),
            ({"t_values": []}, "need at least one transfer length"),
            ({"trials": 0}, "trials must be >= 1"),
            ({"output_format": "xml"}, "format must be one of"),
            ({"t_values": [17]}, "transfer length must be in [1, 16]"),
            ({"t_values": [5], "key_length": 3}, "key length shorter than max(transfer length"),
            ({"analytic_rounds": 0}, "analytic rounds must be >= 1"),
        ]
    ],
    # A table experiment refuses, in its config file, what the campaign
    # experiments refuse: a mistyped adversary, payload or key, a malicious
    # node off the path interior or beside an honest adversary, an
    # intercepting adversary (the default) on a path with no intermediate
    # node, an encoding index other than 0 or 1, an all-zero key, or a key
    # shorter than some transfer length.
    "table_experiments_check_the_campaign_labels": [
        Refusal(["custom"], message, setting) for setting, message in [
            ({"adversary": "bogus"}, "unknown behavior 'bogus'"),
            ({"payload": "nonsense"}, "unknown payload distribution 'nonsense'"),
            ({"payload": "fixed:2"}, "fixed distribution needs a state in 0/1/+/-"),
            ({"key": "01x"}, "key must be a 0/1 string or 0x-prefixed hex"),
            ({"key": "01x", "malicious_node": "zz"}, "malicious node 'zz' is not on the path"),
            ({"malicious_node": "zz"}, "malicious node 'zz' is not on the path interior"),
            ({"adversary": "honest", "malicious_node": "r1"},
             "an honest repeater path has no malicious node"),
            (DIRECT, netsim.NO_INTERMEDIATE),
            ({"encoding_index": 7}, "encoding index must be 0 or 1"),
            ({"key": "00"}, "all-zero key never schedules a data window"),
            (KEY4, SHORT_KEY),
        ]
    ],
    # --key-bits sizes a 0x hex key; beside a 0/1 key or no key it would be
    # dropped and another key length run than the one asked for. Below 2
    # bits, from a flag or a config file, it names no usable key length.
    "key_bits_without_hex_key": [
        Refusal(["custom", "-T", "1", "--trials", "1", *flags], message, config)
        for flags, config, message in [
            (["--key", "0110", "--key-bits", "8"], None, "key_bits is only for a 0x-prefixed"),
            (["--key-bits", "8"], None, "key_bits is only for a 0x-prefixed hex key"),
            (["--key", "0x1", "--key-bits", "-3"], None, "key_bits must be in [2, "),
            ([], {"key": "0x1", "key_bits": 1}, "key_bits must be in [2, "),
            (["--key", "0x1", "--key-bits", "1"], None, "key_bits must be in [2, "),
        ]
    ],
    # Refused with one line before any trial: an oversized length before any
    # key is drawn, a malformed hex key with a message of its own.
    "oversized_or_malformed_key": [
        Refusal([*argv, "-T", "1"], message, id=f"argv{i}-{old_id}")
        for i, (argv, message, old_id) in enumerate([
            (["custom", "--key-length", str(MAX_KEY_LENGTH + 1)],
             f"key length must be <= {MAX_KEY_LENGTH}", "key length must be <="),
            (["capacity", "--key-length", str(MAX_KEY_LENGTH + 1)],
             f"key length must be <= {MAX_KEY_LENGTH}", "key length must be <="),
            (["custom", "--key", "0x1", "--key-bits", str(MAX_KEY_LENGTH + 1)],
             f"key_bits must be in [2, {MAX_KEY_LENGTH}]", "key_bits"),
            (["custom", "--key", "0x", "--key-bits", "4"], MISSING_HEX.format("0x"),
             "hex key '0x' needs hex digits"),
            (["custom", "--key", "0xZZ", "--key-bits", "8"], MISSING_HEX.format("0xZZ"),
             "hex key '0xZZ' needs hex digits"),
        ])
    ],
    # Every analytic value past about 50 rounds prints as 1, and each row
    # costs time and memory before the first is printed.
    "oversized_analytic_table": [
        Refusal(["analytic", *flags], f"analytic rounds must be <= {cap}, got {cap + 1}",
                config, id=label)
        for cap in [exp.MAX_ANALYTIC_ROUNDS]
        for label, flags, config in [("flag", ["--rounds", str(cap + 1)], None),
                                     ("config_key", [], {"analytic_rounds": cap + 1})]
    ],
    # A repeated T would print its row twice and, in JSON, keep one of its
    # two batches of trials under one key.
    "repeated_transfer_length": [
        Refusal(argv, "transfer lengths must not repeat", config) for argv, config in [
            (["fig2_success", "-T", "1", "1", "--trials", "3", "--format", "csv"], None),
            (["fig2_success", "-T", "2", "1", "1", "--trials", "1", "--format", "json"], None),
            (["capacity", "-T", "3", "3"], None),
            (["custom", "--trials", "1"], {"t_values": [2, 1, 2]}),
        ]
    ],
    # Trial seeds are mixed mod 2**64, so -5 and 2**64 - 5 (or 5 and
    # 2**64 + 5) would print the same rows under two master seeds.
    "master_seed_outside_64_bits": [
        Refusal(["custom", "-T", "1", "2", "--trials", "5", "--format", "csv", *flags],
                "master seed must be in [0, 2**64)", config)
        for flags, config in [(["--seed", "-5"], None), (["--seed", str(2**64 + 5)], None),
                              ([], {"master_seed": -1}), ([], {"master_seed": 2**64}),
                              (["--seed", "-1"], None), (["--seed", str(2**64)], None)]
    ],
    # The second spelling reaches the same file through a symlinked directory.
    "one_file_for_two_outputs": [
        Refusal([*TWO_HOPS, first, "{tmp}/real/f", second, "{tmp}/link/f"],
                f"{first} and {second} name the same file", id=f"{first}-{second}")
        for first, second in [("--trace", "--intercept-log"), ("--trace", "--out"),
                              ("--intercept-log", "--out")]
    ],
    "out_from_a_config_file_is_checked_too": [
        Refusal(["custom", "-T", "1", "--trials", "1", "--trace", "{tmp}/f"],
                "--trace and --out name the same file", {"out": "{tmp}/f"}),
    ],
    # An empty string is a value, not "unset": it must not run fresh keys or
    # intercept at the default node.
    "empty_key_or_malicious_node": [
        Refusal([*TWO_HOPS, "--trace", "{tmp}/trace.jsonl",
                 *([] if via_config else ["--" + key.replace("_", "-"), ""])],
                message, {key: ""} if via_config else None, id=f"{key}-{via_config}")
        for key, message in [("key", "key must be a 0/1 string or 0x-prefixed hex"),
                             ("malicious_node", "malicious node '' is not on the path")]
        for via_config in (False, True)
    ],
    # An option given twice, under one spelling or two, is refused like a
    # config key given twice; argparse alone would keep the last value.
    "repeated_flag": [
        Refusal(["custom", "-T", "1", "-T", "2", "--trials", "1", "--data-qubits", "2",
                 "--format", "csv"], "--transfer-length/-T is given twice", id="T"),
        Refusal(["custom", "-T", "1", "--transfer-length", "2"],
                "--transfer-length/-T is given twice", id="T_and_transfer_length"),
        Refusal(["custom", "--trials", "3", "--trials", "4"], "--trials is given twice",
                id="trials"),
        Refusal(["custom", "--reverse-auth", "--reverse-auth"],
                "--reverse-auth is given twice", id="reverse_auth"),
        Refusal(["custom", "--out", "{tmp}/f", "--out", "{tmp}/g"], "--out is given twice",
                id="out"),
        Refusal(["custom", "--trials", "1", "--trials", "1"], "--trials is given twice",
                {"trials": 2}, id="same_value_over_a_config_value"),
        Refusal(["analytic", "--rounds", "2", "--rounds", "3"], "--rounds is given twice",
                id="rounds"),
        Refusal(["capacity", "--key-length", "8", "--key-length", "8"],
                "--key-length is given twice", id="capacity_key_length"),
    ],
}

#: Rows of REFUSALS that give one setting as a flag and as a config key, as
#: (flag row, config row) indices by group: each pair must be refused with
#: the same error line, whole.
TWO_SPELLINGS = {
    "key_bits_without_hex_key": [(4, 3)],
    "master_seed_outside_64_bits": [(4, 2), (5, 3)],
    "empty_key_or_malicious_node": [(0, 1), (2, 3)],
    "oversized_analytic_table": [(0, 1)],
}


def command(tmp, row):
    """The row's argv in ``tmp``, with its config, if any, written to a file
    that --config names. ``tmp`` gets ``real/`` and a symlink ``link`` to it:
    two spellings of one directory."""
    (tmp / "real").mkdir(exist_ok=True)
    if not (tmp / "link").exists():
        (tmp / "link").symlink_to(tmp / "real")
    argv = [arg.replace("{tmp}", str(tmp)) for arg in row.argv]
    if row.config is not None:
        text = row.config if isinstance(row.config, str) else json.dumps(row.config)
        path = tmp / "config.json"
        path.write_text(text.replace("{tmp}", str(tmp)))
        argv += ["--config", str(path)]
    return argv


def assert_refused(tmp, monkeypatch, row):
    """Run a REFUSALS row: exit 2, no stdout, one stderr line "error: "
    followed by the row's message, no trial started and no file written.
    Returns that line."""
    argv = command(tmp, row)
    files = sorted(tmp.rglob("*"))
    monkeypatch.setattr(netsim, "run_trial", None)  # no trial may start
    code, out, err = run_cli(argv)
    assert (code, out) == (2, ""), err
    assert err.startswith(f"error: {row.message}") and err.count("\n") == 1, err
    assert sorted(tmp.rglob("*")) == files
    return err


# Each test below runs its rows of REFUSALS through assert_refused.


def test_bad_flag_value_exits_2(tmp_path, monkeypatch):
    for row in REFUSALS["bad_flag_value"]:
        assert_refused(tmp_path, monkeypatch, row)


def test_unknown_subcommand_exits_2(tmp_path, monkeypatch):
    for row in REFUSALS["unknown_subcommand"]:
        assert_refused(tmp_path, monkeypatch, row)


def test_config_file_rejects_unknown_keys(tmp_path, monkeypatch):
    for row in REFUSALS["config_file_rejects_unknown_keys"]:
        assert_refused(tmp_path, monkeypatch, row)


def test_missing_config_file_exits_2(tmp_path, monkeypatch):
    for row in REFUSALS["missing_config_file"]:
        assert_refused(tmp_path, monkeypatch, row)


def test_fixed_key_shorter_than_transfer_length_exits_2(tmp_path, monkeypatch):
    for row in REFUSALS["fixed_key_shorter_than_transfer_length"]:
        assert_refused(tmp_path, monkeypatch, row)


def test_out_from_a_config_file_is_checked_too(tmp_path, monkeypatch):
    for row in REFUSALS["out_from_a_config_file_is_checked_too"]:
        assert_refused(tmp_path, monkeypatch, row)


@pytest.mark.parametrize("setting", REFUSALS["mistyped_config_value"], ids=row_id)
def test_mistyped_config_value_exits_2(tmp_path, monkeypatch, setting):
    assert_refused(tmp_path, monkeypatch, setting)


@pytest.mark.parametrize("key_flags", REFUSALS["key_bits_without_hex_key"], ids=row_id)
def test_key_bits_without_hex_key_exits_2(tmp_path, monkeypatch, key_flags):
    assert_refused(tmp_path, monkeypatch, key_flags)


@pytest.mark.parametrize("row", REFUSALS["oversized_or_malformed_key"], ids=row_id)
def test_oversized_or_malformed_key_exits_2(tmp_path, monkeypatch, row):
    assert_refused(tmp_path, monkeypatch, row)


@pytest.mark.parametrize("row", REFUSALS["oversized_analytic_table"], ids=row_id)
def test_oversized_analytic_table_exits_2(tmp_path, monkeypatch, row):
    assert_refused(tmp_path, monkeypatch, row)


@pytest.mark.parametrize("t_flags", REFUSALS["repeated_transfer_length"], ids=row_id)
def test_repeated_transfer_length_exits_2(tmp_path, monkeypatch, t_flags):
    assert_refused(tmp_path, monkeypatch, t_flags)


@pytest.mark.parametrize("seed_flags", REFUSALS["master_seed_outside_64_bits"], ids=row_id)
def test_master_seed_outside_64_bits_exits_2(tmp_path, monkeypatch, seed_flags):
    assert_refused(tmp_path, monkeypatch, seed_flags)


@pytest.mark.parametrize("row", REFUSALS["one_file_for_two_outputs"], ids=row_id)
def test_one_file_for_two_outputs_exits_2(tmp_path, monkeypatch, row):
    assert_refused(tmp_path, monkeypatch, row)


@pytest.mark.parametrize("row", REFUSALS["empty_key_or_malicious_node"], ids=row_id)
def test_empty_key_or_malicious_node_exits_2(tmp_path, monkeypatch, row):
    assert_refused(tmp_path, monkeypatch, row)


@pytest.mark.parametrize("row", REFUSALS["repeated_flag"], ids=row_id)
def test_repeated_flag_exits_2(tmp_path, monkeypatch, row):
    assert_refused(tmp_path, monkeypatch, row)


@pytest.mark.parametrize("group", TWO_SPELLINGS)
def test_a_flag_and_its_config_key_are_refused_with_one_line(tmp_path, monkeypatch, group):
    for pair in TWO_SPELLINGS[group]:
        flag, config = (REFUSALS[group][i] for i in pair)
        assert config.config is not None and flag.config is None, pair
        assert assert_refused(tmp_path, monkeypatch, flag) == assert_refused(
            tmp_path, monkeypatch, config), pair


@pytest.mark.parametrize("argv", [["analytic", "--rounds", "2"],
                                  ["capacity", "--key-length", "64", "-T", "2"]])
@pytest.mark.parametrize("setting", REFUSALS["table_experiments_check_the_campaign_labels"])
def test_table_experiments_check_the_campaign_labels(tmp_path, argv, setting):
    # Each row is refused by every campaign experiment with one error line,
    # and by the table experiments alike; valid ones change nothing.
    path = tmp_path / "f.json"
    path.write_text(json.dumps(setting.config))
    if setting.config is KEY4 and "-T" in argv:  # capacity at T = 2, which 4 bits cover
        assert run_cli([*argv, "--config", str(path)]) == run_cli(argv)
        return
    code, out, err = run_cli([*argv, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {setting.message}") and err.count("\n") == 1
    for campaign in ("custom", "fig2_success", "fig3_rounds", "fig4_leakage"):
        code, _, campaign_err = run_cli([campaign, "--config", str(path)])
        assert (code, campaign_err) == (2, err), campaign
    for valid in ({"adversary": "honest", "payload": "fixed:-"},
                  {"adversary": "intercept_x", "key": "01101", "malicious_node": "r1"},
                  {**DIRECT, "adversary": "honest"}):
        path.write_text(json.dumps(valid))
        assert run_cli([*argv, "--config", str(path)]) == run_cli(argv)
    # the direct path under an honest repeater runs a campaign too
    code, out, _ = run_cli(["custom", "-T", "1", "--trials", "1", "--data-qubits", "2",
                            "--config", str(path)])
    assert code == 0 and out


# -- flag fuzz -----------------------------------------------------------------

#: flag values: usual ones keep a campaign to milliseconds; oversized ones
#: appear only where they are refused before anything is allocated
T_VALUES = st.lists(st.sampled_from(["1", "2", "5", "16", "0", "17", "x"]), max_size=3)
FLAG_VALUES = {
    "-T": T_VALUES, "--transfer-length": T_VALUES,
    "--trials": st.sampled_from(["1", "2", "0", "-1", "1e3"]),
    "--data-qubits": st.sampled_from(["0", "2", "3", "-1"]),
    "--adversary": st.sampled_from([*sorted(BEHAVIOR_LABELS), "bogus"]),
    "--key-length": st.sampled_from(["2", "5", "16", "64", "0", "-1",
                                     str(MAX_KEY_LENGTH + 1), str(10**9)]),
    "--key": st.sampled_from(["0110", "1", "00", "", "0x", "0xd", "0xZZ", "012",
                              "1" * (MAX_KEY_LENGTH + 1)]),
    "--key-bits": st.sampled_from(["4", "8", "1", "-3", str(MAX_KEY_LENGTH + 1)]),
    "--malicious-node": st.sampled_from(["r1", "", "zz", "alice"]),
    "--encoding-index": st.sampled_from(["0", "1", "2"]),
    "--seed": st.sampled_from(["7", "0", str(2**64 - 1), "-1", str(2**64)]),
    "--format": st.sampled_from([*exp.OUTPUT_FORMATS, "xml"]),
    "--payload": st.sampled_from(["haar", "fixed:+", "fixed:2", "bogus"]),
    "--reverse-auth": st.just([]),
    "--rounds": st.sampled_from(["1", "3", "0", "-1"]),
    "--out": st.sampled_from(["{tmp}/real/a", "{tmp}/link/a", "{tmp}/b"]),
    "--trace": st.sampled_from(["{tmp}/real/a", "{tmp}/link/a", "{tmp}/c"]),
    "--intercept-log": st.sampled_from(["{tmp}/real/a", "{tmp}/d"]),
}


@st.composite
def flag_sets(draw):
    """A subcommand and up to five flags, any of them repeated or foreign to
    the subcommand. A campaign always gets a trial count and a data-qubit
    target of at most 3, so a flag set that is not refused runs in
    milliseconds."""
    name = draw(st.sampled_from(sorted(exp.EXPERIMENT_SPECS)))
    argv = [name]
    if exp.EXPERIMENT_SPECS[name].table is None:
        argv += ["--trials", draw(st.sampled_from(["1", "2"])),
                 "--data-qubits", draw(st.sampled_from(["2", "3"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=5)):
        value = draw(FLAG_VALUES[flag])
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return Refusal(argv, "")


def with_refusal_examples(test):
    for rows in REFUSALS.values():
        for row in rows:
            test = example(row)(test)
    return test


@given(flag_sets())
@with_refusal_examples
@settings(max_examples=60)
def test_fuzzed_flags_exit_0_or_2_with_one_error_line(tmp_path_factory, row):
    # In-process, nothing raises out of main: a flag set runs (exit 0) or is
    # refused (exit 2) with no stdout and one "error: " line.
    code, out, err = run_cli(command(tmp_path_factory.getbasetemp(), row))
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


# -- exit 1 and what a run writes ---------------------------------------------------


def test_config_refuses_an_oversized_key():
    # The bound is checked on the config, which allocates nothing, so a
    # length far past it is safe to give here.
    for setting in ({"key_length": 10**9}, {"key": "0x1", "key_bits": 10**9}):
        with pytest.raises(exp.ConfigError):
            exp.ExperimentConfig(**setting)
    assert exp.ExperimentConfig(key_length=MAX_KEY_LENGTH).key_length == MAX_KEY_LENGTH


def test_master_seed_range_ends_are_accepted():
    for seed in (0, 2**64 - 1):
        code, out, err = run_cli(
            ["custom", "-T", "1", "--trials", "2", "--data-qubits", "4",
             "--format", "csv", "--seed", str(seed)]
        )
        assert code == 0 and err == ""
        assert out.splitlines()[1].endswith(f",{seed}")


def test_short_fresh_keys_are_redrawn_until_non_zero():
    # A 2-bit fresh key is all zero in a quarter of the draws; such a draw
    # is replaced from the trial's key stream instead of ending the
    # campaign. A fixed all-zero key still exits 2.
    code, out, err = run_cli(
        ["custom", "--key-length", "2", "-T", "1", "--trials", "20", "--format", "csv"]
    )
    assert code == 0 and err == ""
    assert out.splitlines()[1].startswith("1,20,")
    code, out, err = run_cli(["custom", "--key", "00", "-T", "1", "--trials", "1"])
    assert code == 2 and out == ""
    assert err == "error: all-zero key never schedules a data window\n"


def exits_1(monkeypatch, owner, attr, stand_in, *argv):
    """The stderr of a 1-trial honest ``custom`` campaign with ``owner.attr``
    replaced by ``stand_in``, which exits 1 with no output, one line."""
    monkeypatch.setattr(owner, attr, stand_in)
    code, out, err = run_cli(["custom", "--trials", "1", "--adversary", "honest", *argv])
    assert (code, out) == (1, "") and err.count("\n") == 1
    return err


def test_stuck_session_exits_1_instead_of_hanging(monkeypatch):
    # the guard of the schedule's round 0, all it reads before the responder sticks
    err = exits_1(monkeypatch, protocol.Responder, "step", busy_forever,
                  "-T", "1", "--data-qubits", "3", "--key", "10110111")
    schedule = RoundSchedule(parse_key("10110111"), ScheduleConfig(1), 3)
    schedule.window(0)
    assert err == f"error: trial exceeded {schedule.guard} endpoint steps\n"


def test_a_round_past_the_end_exits_1(monkeypatch):
    err = exits_1(monkeypatch, protocol.Initiator, "step", one_window_more,
                  "-T", "2", "--data-qubits", "4", "--key", "1101")
    assert err == "error: round 3 is past the end of the session\n"


def test_leaked_qubit_exits_1(monkeypatch):
    err = exits_1(monkeypatch, qsim.Simulator, "release", lambda self, q: None,
                  "-T", "1", "--data-qubits", "3", "--key-length", "8")
    assert err.startswith("error: ") and "outlived the trial" in err


def test_trace_is_written_as_each_trial_ends(tmp_path, monkeypatch):
    trace_path = tmp_path / "trace.jsonl"
    seen = []
    inner = netsim.run_trial

    def run_trial(*args, **kwargs):
        lines = trace_path.read_text().splitlines() if trace_path.exists() else []
        seen.append({json.loads(line)["trial_index"] for line in lines})
        return inner(*args, **kwargs)

    monkeypatch.setattr(netsim, "run_trial", run_trial)
    code, _, _ = run_cli(
        ["custom", "-T", "2", "--trials", "3", "--data-qubits", "4",
         "--adversary", "honest", "--key-length", "16", "--format", "csv",
         "--trace", str(trace_path)]
    )
    assert code == 0
    assert seen == [set(), {0}, {0, 1}]


def test_unwritable_output_exits_1(tmp_path):
    code, _, err = run_cli(
        [
            "analytic",
            "--rounds", "2",
            "--out", str(tmp_path / "missing" / "out.csv"),
        ]
    )
    assert code == 1


def test_determinism_across_invocations():
    argv = [
        "custom",
        "-T", "1", "2",
        "--trials", "6",
        "--data-qubits", "12",
        "--seed", "77",
        "--key-length", "32",
        "--format", "csv",
    ]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


# -- the JSONL sinks -----------------------------------------------------------

#: strings with quotes, backslashes, control and non-ASCII characters
json_text = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé€\U0001d11e'),
                              st.characters()), max_size=12)
json_values = st.one_of(json_text, st.booleans(), st.none(), st.integers(), st.floats(),
                        st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.lists(st.integers(), max_size=4))
#: trace entries are non-empty JSON objects that never carry the sink's own
#: tags (checked below for run_trial), as json.dumps writes them
sink_entries = st.dictionaries(
    json_text.filter(lambda k: k not in ("transfer_length", "trial_index")),
    json_values, min_size=1, max_size=4,
).map(json.dumps)


@given(st.lists(st.tuples(st.integers(1, 16), st.integers(0, 10**6),
                          st.lists(sink_entries, max_size=4)), max_size=3))
@settings(max_examples=100)
def test_sink_lines_equal_json_dumps(tmp_path_factory, trials):
    path = tmp_path_factory.getbasetemp() / "sink.jsonl"
    path.unlink(missing_ok=True)
    sink = cli._JsonlSink(str(path), "records")
    expected = ""
    for t, i, entries in trials:
        sink.append({"transfer_length": t, "trial_index": i, "records": entries})
        tags = {"transfer_length": t, "trial_index": i}
        expected += "".join(json.dumps({**tags, **json.loads(e)}) + "\n" for e in entries)
    sink.close()
    assert path.exists() == bool(trials)  # opened at the first trial
    if trials:
        assert path.read_text(encoding="utf-8") == expected


class WriteLog(list):
    """A file stand-in that keeps each ``write`` as one item."""

    write = list.append

    def flush(self):
        pass


@pytest.mark.parametrize("entries", [0, 1, 255, 256, 257, 600])
def test_sink_blocks_equal_the_per_line_form(tmp_path, entries):
    # A trial's lines go out in blocks of at most BLOCK lines, one write
    # each, and the file reads byte for byte as one tagged line per entry.
    records = [json.dumps({"event": "e", "seq": k, "s": "é\n"[: k % 3]}) for k in range(entries)]
    trials = [{"transfer_length": t, "trial_index": i, "records": records}
              for t, i in ((1, 0), (16, 7))]
    lines = ["".join(f'{{"transfer_length": {trial["transfer_length"]}, '
                     f'"trial_index": {trial["trial_index"]}, {r[1:]}\n' for r in records)
             for trial in trials]
    path = tmp_path / "sink.jsonl"
    sink = cli._JsonlSink(str(path), "records")
    for trial in trials:
        sink.append(trial)
    sink.close()
    assert path.read_bytes() == "".join(lines).encode("utf-8")
    sink._fh = writes = WriteLog()
    sink.append(trials[1])
    assert len(writes) == -(-entries // cli._JsonlSink.BLOCK)
    assert all(w.count("\n") <= cli._JsonlSink.BLOCK for w in writes)
    assert "".join(writes) == lines[1]


def test_trial_records_carry_no_sink_tag():
    # The sink writes its tags once and splices each entry after them, which
    # is json.dumps({**tags, **json.loads(entry)}) only while no entry has a
    # tag key.
    events = set()
    for adversary, payload in (("intercept_random", "haar"), ("honest", "uniform4")):
        trace, log = [], []
        cfg = exp.ExperimentConfig(
            t_values=(1, 2), trials=6, data_target=12, adversary=adversary,
            reverse_auth=True, payload=payload, topology=netsim.Topology.chain(3),
            key_length=32,
        )
        exp.run_experiment(cfg, trace_sink=trace, intercept_sink=log)
        records = decoded(r for e in trace for r in e["records"])
        records += decoded(r for e in log for r in e["events"])
        events |= {r.get("event") for r in records}
        assert not any(r.keys() & {"transfer_length", "trial_index"} for r in records)
    # every kind of record was seen, intercept-log entries (no "event") too
    assert events == {"window", "prepare_auth", "swap", "teleport", "verdict",
                      "complete", "terminate", None}


#: a 3-repeater path whose names need JSON escapes: a quote, a backslash, a
#: control character and non-ASCII (the interceptor's)
ODD_PATH = ['a"lice', "r\\1", "ré€\U0001d11e", "r\x013", "bob"]


@pytest.mark.parametrize("adversary", ["intercept_random", "honest"])
def test_entries_are_canonical_json_and_lines_the_dict_form(tmp_path, adversary):
    # Every entry is the text json.dumps gives for its own dict, and every
    # written line is json.dumps of the tags and that dict together.
    config = tmp_path / "odd.json"
    config.write_text(json.dumps({"nodes": ODD_PATH, "path": ODD_PATH,
                                  "edges": [list(e) for e in zip(ODD_PATH, ODD_PATH[1:])]}))
    argv = ["custom", "--config", str(config), "--adversary", adversary, "-T", "1", "2",
            "--trials", "6", "--data-qubits", "12", "--key-length", "32",
            "--reverse-auth", "--seed", "4", "--format", "csv"]
    paths = {"records": tmp_path / "trace.jsonl", "events": tmp_path / "log.jsonl"}
    code, _, _ = run_cli([*argv, "--trace", str(paths["records"]),
                          "--intercept-log", str(paths["events"])])
    assert code == 0
    sinks = {"records": [], "events": []}
    exp.run_experiment(build_config(build_parser().parse_args(argv)),
                       trace_sink=sinks["records"], intercept_sink=sinks["events"])
    kinds, names = set(), set()
    for key, sink in sinks.items():
        expected = ""
        for trial in sink:
            tags = {"transfer_length": trial["transfer_length"],
                    "trial_index": trial["trial_index"]}
            for entry in trial[key]:
                record = json.loads(entry)
                assert json.dumps(record) == entry
                expected += json.dumps({**tags, **record}) + "\n"
                kinds.add(record.get("event"))
                names |= {record[k] for k in ("node", "applied_at", "from", "to")
                          if k in record}
        assert paths[key].read_text(encoding="utf-8") == expected
    assert names == set(ODD_PATH)
    if adversary == "honest":
        assert kinds == {"window", "prepare_auth", "swap", "teleport", "verdict", "complete"}
        assert not sinks["events"][0]["events"]
    else:  # failed verdicts, the silent close-out and the intercept log
        assert kinds >= {"window", "prepare_auth", "swap", "teleport", "verdict",
                         "terminate", None}


# -- config fuzz -------------------------------------------------------------------

#: wrong-typed values for any config key
junk = st.sampled_from([None, True, 1.5, "1", [], {}, [1, "2"]])
#: config-file values by key: (usual, refused or boundary) values. The usual
#: ones keep a campaign so small that it costs milliseconds, but together
#: they may still be refused (an all-zero key, a key shorter than some T);
#: a key length past 64 bits is always refused. ``trials`` and
#: ``data_target``, which alone size a campaign, are always set.
config_values = {
    "trials": (st.sampled_from([1, 2]), st.sampled_from([0, -1])),
    "data_target": (st.sampled_from([2, 0, 3]), st.just(-1)),
    "t_values": (st.one_of(st.lists(st.integers(1, 16), min_size=1, max_size=3, unique=True),
                           st.integers(1, 16)),
                 st.one_of(st.lists(st.integers(-1, 17), max_size=3), st.sampled_from([0, 17]))),
    "master_seed": (st.sampled_from([7, 0, 2**64 - 1]), st.sampled_from([-1, 2**64])),
    "output_format": (st.sampled_from(exp.OUTPUT_FORMATS), st.just("xml")),
    "out": (st.sampled_from([None, "", "fuzz.out"]), st.nothing()),
    "key_length": (st.sampled_from([64, 2, 5, 16]),
                   st.sampled_from([-1, 0, 1, MAX_KEY_LENGTH + 1, 10**9])),
    "key": (st.text("01", min_size=1, max_size=6),
            st.sampled_from(["", "0x", "0xd", "0xZZ", "012", "1" * (MAX_KEY_LENGTH + 1)])),
    "key_bits": (st.none(), st.sampled_from([-3, 1, 4, MAX_KEY_LENGTH + 1])),
    "encoding_index": (st.sampled_from([0, 1]), st.sampled_from([-1, 2, 7])),
    "reverse_auth": (st.booleans(), st.nothing()),
    "payload": (st.sampled_from(["uniform4", "haar", "fixed:+", "fixed:-"]),
                st.sampled_from(["fixed:2", "fixed:", "bogus"])),
    "adversary": (st.sampled_from(sorted(BEHAVIOR_LABELS)), st.sampled_from(["bogus", ""])),
    "malicious_node": (st.sampled_from([None, "r1"]),
                       st.one_of(st.sampled_from(["", "alice", "zz"]), json_text)),
    "analytic_rounds": (st.sampled_from([1, 3]), st.sampled_from([0, -1])),
}


@st.composite
def topologies(draw):
    """Topology keys: a chain through odd node names, flat or nested under
    ``topology``, sometimes with one key missing or given junk."""
    names = draw(st.lists(st.one_of(st.sampled_from(["r1", "m", "bob"]), json_text),
                          max_size=3, unique=True))
    path = ["alice", *names, "bob"]
    obj = {"nodes": path, "edges": [list(e) for e in zip(path, path[1:])], "path": path}
    bad = draw(st.sampled_from([None] * 6 + list(netsim.TOPOLOGY_KEYS)))
    if bad and draw(st.booleans()):
        del obj[bad]
    elif bad:
        obj[bad] = draw(junk)
    return {"topology": obj} if draw(st.booleans()) else obj


@st.composite
def config_files(draw):
    """A config-file object: usual values for some keys, then a refused,
    boundary or wrong-typed value for up to two, maybe a topology and,
    rarely, an unknown key."""
    keys = sorted(config_values)
    config = {key: draw(config_values[key][0]) for key in ("trials", "data_target")}
    for key in draw(st.sets(st.sampled_from(keys), max_size=6)):
        config[key] = draw(config_values[key][0])
    if "key" not in config and draw(st.booleans()):  # a hex key and its length
        config.update(key=draw(st.sampled_from(["0x1f", " 0X0"])),
                      key_bits=draw(st.sampled_from([5, 8])))
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        config[key] = draw(st.one_of(config_values[key][1], junk))
    if draw(st.booleans()):
        config.update(draw(topologies()))
    if draw(st.sampled_from([False] * 9 + [True])):
        config[draw(st.sampled_from(["T", "seed", "experiment", "trial"]))] = 1
    return config


def with_label_examples(test):
    """Each campaign-label refusal of REFUSALS as an example, in a campaign of
    one trial per T that delivers two data qubits."""
    for row in REFUSALS["table_experiments_check_the_campaign_labels"]:
        test = example({"trials": 1, "data_target": 2, **row.config})(test)
    return test


@given(config_files())
@with_label_examples
@settings(max_examples=50)
def test_fuzzed_config_files_are_refused_alike(tmp_path_factory, config):
    # Every experiment reads a config through the one validation of
    # ExperimentConfig, so each exits 0 or 2, a 2 with one error line, and
    # refuses exactly what custom refuses under that experiment's defaults.
    base = tmp_path_factory.getbasetemp()
    if isinstance(config.get("out"), str) and config["out"]:
        # every output file, junk names such as "1" too, stays in base
        config["out"] = str(base / config["out"])
    path, merged_path = base / "fuzz.json", base / "fuzz-merged.json"
    path.write_text(json.dumps(config))
    custom = {}  # custom's exit and stderr, by the settings it ran
    for name, spec in exp.EXPERIMENT_SPECS.items():
        merged = json.dumps({**spec.defaults, **config})
        if merged not in custom:
            merged_path.write_text(merged)
            code, out, err = run_cli(["custom", "--config", str(merged_path)])
            assert code in (0, 2), err
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            custom[merged] = code, err
        if name != "custom":
            code, _, err = run_cli([name, "--config", str(path)])
            assert (code, err) == custom[merged], name
