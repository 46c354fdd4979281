"""Campaign benchmark for qauthsim.

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Campaigns of the chosen workload run one
after another, each in its own worker process (worker.py), until S seconds
have passed; a campaign that has started always finishes. Campaign k gets
the master seed ``N * 1000 + k``. Every trial and every emitted row is
checked against oracle.py.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics. With --trace 1 the campaigns run in pairs on the same
master seed, the first untraced and the second with layer spans, and the
metrics are the per-layer figures plus the spans' overhead against the
untraced campaign of each pair. The line before it gives the raw
host-second figures beside the corrected ones; the full figures go to
campaignbench/results/. See README.md for workloads, metrics and the
host-speed correction.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
T_VALUES = [1, 2, 3, 4, 5]
KEY_LENGTH = 1024
TRACE_FILE = "campaignbench/results/trace.jsonl"
WORKER_TIMEOUT_S = 150
# p90 needs at least ten trials beyond it.
MIN_TRIALS = 100

# Trials per T are sized so that one campaign takes one to five seconds on
# the reference host of README.md.
WORKLOADS = {
    "honest_fig5": {
        "argv": ["fig5_overhead", "--adversary", "honest", "--data-qubits", "100",
                 "--format", "csv"],
        "trials_per_t": 20, "repeaters": 1, "intercept": False,
        "reverse_auth": False, "target": 100, "format": "csv",
    },
    "mitm_fig2": {
        "argv": ["fig2_success", "--adversary", "intercept_random",
                 "--malicious-node", "r1", "--data-qubits", "150", "--format", "csv"],
        "trials_per_t": 60, "repeaters": 1, "intercept": True,
        "reverse_auth": False, "target": 150, "format": "csv",
    },
    "honest_chain3_trace": {
        "argv": ["custom", "--config", "campaignbench/chain3.json", "--adversary", "honest",
                 "--data-qubits", "150", "--payload", "haar", "--reverse-auth",
                 "--format", "json", "--trace", TRACE_FILE],
        "trials_per_t": 10, "repeaters": 3, "intercept": False,
        "reverse_auth": True, "target": 150, "format": "json",
    },
}

# Layers by how per_layer() reports them: calls per trial, mean self time
# per call, mean self time per call in ms, and self time per campaign.
LAYER_CALLS = ["qsim.bell_measure", "qsim.measure", "qsim.apply_h", "qsim.make_bell_pair",
               "netsim.provision", "netsim.transfer", "adversary.handle_arrival",
               "protocol.step"]
LAYER_US = ["qsim.bell_measure", "qsim.measure", "qsim.apply_h", "qsim.make_bell_pair",
            "qsim.states_equal", "netsim.transfer", "netsim.provision", "netsim.run_trial",
            "keyschedule.key_random", "keyschedule.next_r", "keyschedule.next_auth_pair",
            "adversary.handle_arrival", "protocol.step", "protocol.sample_payload"]
LAYER_MS = ["experiments.aggregate", "experiments.emit_campaign"]
LAYER_SELF_MS = ["cli.main", "experiments.run_experiment"]


def campaign(name: str, master: int, spans: bool) -> dict:
    """Run one campaign in a fresh worker process and return its figures."""
    wl = WORKLOADS[name]
    trials = wl["trials_per_t"]
    spec = {
        "root": ROOT,
        "argv": wl["argv"] + ["--trials", str(trials), "--seed", str(master),
                              "-T", *map(str, T_VALUES), "--key-length", str(KEY_LENGTH)],
        "spans": spans,
        "spans_file": os.path.join(RESULTS, f"{name}.spans.npz"),
        "trace_file": TRACE_FILE if TRACE_FILE in wl["argv"] else None,
        "oracle": {
            "repeaters": wl["repeaters"], "intercept": wl["intercept"],
            "reverse_auth": wl["reverse_auth"], "target": wl["target"],
            "key_length": KEY_LENGTH, "master": master, "t_values": T_VALUES,
            "trials_per_t": trials, "format": wl["format"],
        },
    }
    attempted = trials * len(T_VALUES)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec), repr(t_spawn)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"trials": attempted, "failed": attempted,
                "failures": [f"worker killed after {WORKER_TIMEOUT_S} s"]}
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return {"trials": attempted, "failed": attempted,
                "failures": [f"worker exited with {proc.returncode}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(runs: list[dict], suffix: str) -> dict:
    """Run-level figures from host ("raw") or corrected ("cor") seconds."""
    seconds = sum(r[f"campaign_{suffix}_s"] for r in runs)
    trials = sum(r["trials"] for r in runs)
    transfers = sum(r["data_qubits"] + r["auth_qubits"] for r in runs)
    latency = [x for r in runs for x in r[f"trial_{suffix}_s"]]
    return {
        "trials_per_s": trials / seconds,
        "transfers_per_s": transfers / seconds,
        "trial_p50_ms": 1e3 * statistics.median(latency),
        "trial_p90_ms": 1e3 * statistics.quantiles(latency, n=10)[8],
        "setup_s": statistics.median(r[f"setup_{suffix}_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


E2E_UNITS = {"trials_per_s": "1/s", "transfers_per_s": "1/s", "trial_p50_ms": "ms",
             "trial_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer figures from the traced campaigns; ratios from all trials."""
    def total(layer, key):
        return sum(r["layers"][layer][key] for r in traced)

    trials = sum(r["trials"] for r in traced)
    out = {}
    for layer in LAYER_CALLS:
        out[f"{layer}.calls"] = (total(layer, "calls") / trials, "1/trial")
    for layer in LAYER_US:
        calls = total(layer, "calls")
        out[f"{layer}.us"] = (1e6 * total(layer, "self_s") / calls if calls else 0.0, "us")
    for layer in LAYER_MS:
        out[f"{layer}.ms"] = (1e3 * total(layer, "self_s") / total(layer, "calls"), "ms")
    for layer in LAYER_SELF_MS:
        out[f"{layer}.self_ms"] = (1e3 * total(layer, "self_s") / len(traced), "ms")
    every = plain + traced
    transfers = sum(r["data_qubits"] + r["auth_qubits"] for r in every)
    out["netsim.bell_pairs_per_transfer"] = (
        sum(r["bell_pairs"] for r in every) / transfers, "ratio")
    out["netsim.teleports_per_transfer"] = (
        sum(r["teleports"] for r in every) / transfers, "ratio")
    out["protocol.auth_per_data"] = (
        sum(r["auth_qubits"] for r in every) / sum(r["data_qubits"] for r in every), "ratio")
    out["protocol.step.useful_ratio"] = (
        sum(r["steps"]["useful"] for r in traced) / sum(r["steps"]["all"] for r in traced),
        "ratio")
    out["experiments.output_bytes"] = (statistics.fmean(r["output_bytes"] for r in every), "B")
    out["cli.trace_bytes"] = (statistics.fmean(r["trace_bytes"] for r in every), "B")
    overhead = (sum(r["campaign_cor_s"] for r in traced)
                / sum(r["campaign_cor_s"] for r in plain) - 1.0)
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def run_checks(name: str, plain: list[dict], traced: list[dict]) -> list[str]:
    """Checks over the whole run, after every campaign passed its own."""
    failures = []
    if WORKLOADS[name]["intercept"]:
        # Traced campaigns repeat their twins' seeds, so only the untraced
        # ones are independent draws.
        pooled = [sum(r["detection"][i] for r in plain) for i in range(3)]
        failure = oracle.detections_within_4_sigma(*pooled)
        if failure:
            failures.append(f"run: {failure}")
    for a, b in zip(plain, traced):
        if a["detection"] != b["detection"] or a["teleports"] != b["teleports"]:
            failures.append("run: a traced campaign differs from its untraced twin")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "qauthsim", "cli.py")):
        print(f"error: no qauthsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)

    start = time.perf_counter()
    plain, traced, index = [], [], 0
    while True:
        master = args.seed * 1000 + index
        plain.append(campaign(args.workload, master, spans=False))
        if args.trace:
            traced.append(campaign(args.workload, master, spans=True))
        index += 1
        done = sum(r["trials"] for r in plain)
        if time.perf_counter() - start >= args.seconds and done >= MIN_TRIALS:
            break

    every = plain + traced
    attempted = sum(r["trials"] for r in every)
    failed = sum(r["failed"] for r in every)
    failures = [f for r in every for f in r["failures"]]
    if not failures:
        failures += run_checks(args.workload, plain, traced)
        failed = attempted if failures else 0
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not failures
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "campaigns": len(every), "attempted": attempted, "failed": failed}
    metrics = {}
    if correct:
        raw, cor = end_to_end(plain, "raw"), end_to_end(plain, "cor")
        report.update(raw=raw, corrected=cor,
                      calibration_ms=1e3 * statistics.median(
                          c for r in plain for c in r["calibration_s"]))
        print("raw host seconds: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        if args.trace:
            layers = per_layer(plain, traced)
            report["layers"] = {k: v for k, (v, _) in layers.items()}
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        else:
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in cor.items()}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**report, "runs": every}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
