"""Pinned campaign outputs for fixed seeds.

Each command's emitted text, or the SHA-256 of it, was captured once and is
compared byte for byte, so a change to the simulator's kernels, the
scheduler or the emitters that alters any outcome, any random draw or any
formatting shows here. A change that alters the random-number stream on
purpose updates these values and says why.
"""

import hashlib
import json

import pytest
from helpers import run_cli

COMMON = ["-T", "1", "2", "3", "4", "5", "--seed", "7", "--key-length", "1024"]

FIG5_CSV = """\
T,trials,detection_rate,detection_rate_ci,mean_rounds,mean_rounds_ci,mean_leakage,mean_leakage_ci,overhead,overhead_ci,master_seed
1,20,0,0,,,,,2.06,0.058714,7
2,20,0,0,,,,,0.678,0.022284,7
3,20,0,0,,,,,0.282,0.0138301,7
4,20,0,0,,,,,0.1365,0.0110395,7
5,20,0,0,,,,,0.06,0.00725047,7
"""

FIG2_CSV = """\
T,trials,detection_rate,detection_rate_ci,mean_rounds,mean_rounds_ci,mean_leakage,mean_leakage_ci,overhead,overhead_ci,master_seed
1,60,1,0,4.21667,0.800291,2.25,0.567957,,,7
2,60,1,0,3.1,0.610456,4.66667,1.10312,,,7
3,60,1,0,4.88333,0.859147,16.9,3.22489,,,7
4,60,1,0,3.28333,0.619967,24.25,4.37566,,,7
5,60,0.883333,0.0812299,2.79245,0.562158,43.4528,9.05058,0.0561905,0.00481971,7
"""

MITM_CSV = """\
T,trials,detection_rate,detection_rate_ci,mean_rounds,mean_rounds_ci,mean_leakage,mean_leakage_ci,overhead,overhead_ci,master_seed
1,3,1,0,2,1.96,0.666667,1.30667,,,7
2,3,1,0,3.33333,3.63761,4.66667,7.27521,,,7
3,3,1,0,2,1.13161,3.33333,3.26667,,,7
4,3,1,0,3.33333,1.72856,28.6667,13.4053,,,7
5,3,1,0,4.33333,2.84781,75.3333,40.4276,,,7
"""

CHAIN3_JSON_SHA256 = "f5fcd75e4e201033d4f272f269898856d8037f379e18ae5861e6de5205b4bf2a"
CHAIN3_TRACE_SHA256 = "0074156a91479c11789a505b45f657078eff54d4d5f192a4f0c698b20d5fd89c"
MITM_TRACE_SHA256 = "e5e825827fee20cf378aac8943398e6f32a870b93794ede239caa4d86ddbe720"
MITM_INTERCEPT_SHA256 = "4e0dbaa742578cf2cfa12545131426de0a6dfad592f2a5a5cd4f1c9fc54460cf"

CHAIN3_MITM_CSV = """\
T,trials,detection_rate,detection_rate_ci,mean_rounds,mean_rounds_ci,mean_leakage,mean_leakage_ci,overhead,overhead_ci,master_seed
1,3,1,0,1,0,0.333333,0.653333,,,7
2,3,1,0,2.66667,1.72856,4.66667,1.72856,,,7
3,3,1,0,2,1.13161,5,1.13161,,,7
4,3,1,0,2.66667,3.26667,24.6667,15.4469,,,7
5,3,1,0,2,0,44.3333,7.27521,,,7
"""
CHAIN3_MITM_INTERCEPT_SHA256 = "bf6fe39ef5d99d6fcce662d9e013193f9b110369635d42d58c3680a3d69a4044"
CHAIN3_MITM_TRACE_SHA256 = "89a3bcf31e0c8aeef7ddd881653605f734dd1f3d6a59bac42a5d8f2db9cb6657"

FIXED_INTERCEPT_Z_CSV = """\
T,trials,detection_rate,detection_rate_ci,mean_rounds,mean_rounds_ci,mean_leakage,mean_leakage_ci,overhead,overhead_ci,master_seed
1,3,1,0,9.33333,9.88673,4,5.18567,,,7
2,3,1,0,5.33333,5.80695,6.66667,5.34776,,,7
3,3,1,0,3.66667,2.61333,11.3333,7.27521,,,7
4,3,1,0,3,3.92,22.3333,22.2421,,,7
5,3,0.666667,0.533444,2,1.96,32.5,28.42,0.0533333,0,7
"""
FIXED_INTERCEPT_Z_LOG_SHA256 = "d87754b774d9901c06c2821083799066c9a39a60f44e04acc120ae99e461b3af"

CHAIN3 = {
    "nodes": ["alice", "r1", "r2", "r3", "bob"],
    "edges": [["alice", "r1"], ["r1", "r2"], ["r2", "r3"], ["r3", "bob"]],
    "path": ["alice", "r1", "r2", "r3", "bob"],
}


#: honest paths whose every transfer crosses one segment, by whether a swap
#: joins it: no repeater, and one repeater that swaps once
ONE_SEGMENT = {
    "direct": {"nodes": ["alice", "bob"], "edges": [["alice", "bob"]], "path": ["alice", "bob"]},
    "chain1": {"nodes": ["alice", "r1", "bob"], "edges": [["alice", "r1"], ["r1", "bob"]],
               "path": ["alice", "r1", "bob"]},
}
ONE_SEGMENT_TRACE_SHA256 = {
    "direct": "f73948f613a1c65c0bcfa93cd9ab4c49c331cd0c4de061fab6d88a93e9a9b3a8",
    "chain1": "973817dcf28544ee8b74cd61f60448c9bcb2e44c27c765872d065e00cb0ec572",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> str:
    code, out, err = run_cli(argv + COMMON)
    assert (code, err) == (0, "")
    return out


def test_fig5_honest_csv():
    assert run(["fig5_overhead", "--trials", "20", "--format", "csv"]) == FIG5_CSV


def test_fig2_mitm_csv():
    assert run(["fig2_success", "--trials", "60", "--format", "csv"]) == FIG2_CSV


def test_three_repeater_haar_reverse_auth_json_and_trace(tmp_path):
    config = tmp_path / "chain3.json"
    config.write_text(json.dumps(CHAIN3))
    trace = tmp_path / "trace.jsonl"
    out = run(
        ["custom", "--config", str(config), "--adversary", "honest",
         "--payload", "haar", "--reverse-auth", "--trials", "4",
         "--format", "json", "--trace", str(trace)]
    )
    assert sha256(out.encode()) == CHAIN3_JSON_SHA256
    assert sha256(trace.read_bytes()) == CHAIN3_TRACE_SHA256


@pytest.mark.parametrize("path", sorted(ONE_SEGMENT))
def test_one_segment_haar_reverse_auth_trace(tmp_path, path):
    # Transfers in both directions over one segment, with no swap or one:
    # the teleport events of each direction and the swap event between them.
    config = tmp_path / "topology.json"
    config.write_text(json.dumps(ONE_SEGMENT[path]))
    trace = tmp_path / "trace.jsonl"
    run(["custom", "--config", str(config), "--adversary", "honest", "--payload", "haar",
         "--reverse-auth", "--trials", "4", "--format", "json", "--trace", str(trace)])
    assert sha256(trace.read_bytes()) == ONE_SEGMENT_TRACE_SHA256[path]


def test_mitm_trace_and_intercept_log(tmp_path):
    trace = tmp_path / "trace.jsonl"
    log = tmp_path / "eve.jsonl"
    out = run(
        ["custom", "--adversary", "intercept_random", "--trials", "3",
         "--format", "csv", "--trace", str(trace), "--intercept-log", str(log)]
    )
    assert out == MITM_CSV
    assert sha256(trace.read_bytes()) == MITM_TRACE_SHA256
    assert sha256(log.read_bytes()) == MITM_INTERCEPT_SHA256


def test_three_repeater_swap_and_intercept_csv_and_log(tmp_path):
    # r2 intercepts a qubit that arrives over pairs the swaps at r1 and r3
    # built, so this pins a Bell measurement of one pair against another
    # together with the interceptor's measurements. Its trace is the one
    # golden where a reverse transfer crosses two segments, with a swap on
    # each side of the interceptor.
    config = tmp_path / "chain3.json"
    config.write_text(json.dumps(CHAIN3))
    log = tmp_path / "eve.jsonl"
    trace = tmp_path / "trace.jsonl"
    out = run(
        ["custom", "--config", str(config), "--adversary", "intercept_random",
         "--malicious-node", "r2", "--payload", "haar", "--reverse-auth",
         "--trials", "3", "--format", "csv", "--intercept-log", str(log),
         "--trace", str(trace)]
    )
    assert out == CHAIN3_MITM_CSV
    assert sha256(log.read_bytes()) == CHAIN3_MITM_INTERCEPT_SHA256
    assert sha256(trace.read_bytes()) == CHAIN3_MITM_TRACE_SHA256


def test_fixed_payload_z_interceptor_encoding_index_1(tmp_path):
    # The fixed payload, the always-Z interceptor and encoding index 1 are
    # reached by no other value here.
    log = tmp_path / "eve.jsonl"
    out = run(
        ["custom", "--payload", "fixed:-", "--adversary", "intercept_z",
         "--encoding-index", "1", "--trials", "3", "--format", "csv",
         "--intercept-log", str(log)]
    )
    assert out == FIXED_INTERCEPT_Z_CSV
    assert sha256(log.read_bytes()) == FIXED_INTERCEPT_Z_LOG_SHA256


#: campaigns whose sessions end every way the scheduler orders: a delivery
#: target met mid-window in round 1 and in later rounds, with reverse
#: authentication off and on; a responder's failed reverse verdict followed
#: by the initiator's next window; r = 0 windows, through which the
#: responder runs ahead of the initiator; and a target of 0
END_OF_SESSION = [
    ["custom", "--adversary", "intercept_random", "--data-qubits", "3", "--trials", "8",
     "-T", "1", "2", "3"],
    ["custom", "--adversary", "intercept_random", "--data-qubits", "3", "--trials", "8",
     "-T", "1", "2", "3", "--reverse-auth"],
    ["custom", "--adversary", "honest", "--data-qubits", "5", "--trials", "3", "-T", "1", "2"],
    ["custom", "--adversary", "honest", "--data-qubits", "0", "--trials", "1", "-T", "1"],
]
END_OF_SESSION_TRACE_SHA256 = "92006cb948ee586f3e9b9ce71b2c3cf7279fc3f8c6e90b5e7a0682c528a8cf71"
END_OF_SESSION_INTERCEPT_SHA256 = "018f2c4e140cffd2a172926853e7b918b4eae919597e0578e2392527480456a6"


def test_end_of_session_event_order(tmp_path):
    traces, logs = b"", b""
    for argv in END_OF_SESSION:
        trace, log = tmp_path / "trace.jsonl", tmp_path / "eve.jsonl"
        code, _, err = run_cli(argv + ["--seed", "3", "--format", "csv", "--trace", str(trace),
                                      "--intercept-log", str(log)])
        assert (code, err) == (0, "")
        traces += trace.read_bytes()
        logs += log.read_bytes()
    assert sha256(traces) == END_OF_SESSION_TRACE_SHA256
    assert sha256(logs) == END_OF_SESSION_INTERCEPT_SHA256
