"""The benchmark's per-layer spans (``campaignbench --trace 1``) wrap
qauthsim functions through their module attributes. This runs the
benchmark's own hook installer on a 1-trial campaign and checks that every
wrapped layer is still reached, so a refactor that renames a layer or calls
it by another path fails here instead of silently zeroing a metric."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import worker
from qauthsim import cli, netsim, qsim

spans = worker.Spans()
steps = worker.install_spans(spans)
# the one Bell kernel, counted under both names a caller can reach it by
kernel = []
def bell_step(*args, _inner=qsim.bell_step):
    kernel.append(None)
    return _inner(*args)
qsim.bell_step = netsim.bell_step = bell_step
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(json.loads(sys.argv[3]))
print(json.dumps({"status": status, "calls": spans.calls, "steps": steps,
                  "bell_step": len(kernel)}))
"""


def spans_of(experiment, *argv):
    """Calls per wrapped layer, the step counts and the ``qsim.bell_step``
    calls of one 1-trial campaign at T = 1 run under the benchmark's hooks."""
    argv = [experiment, *argv, "-T", "1", "--trials", "1", "--seed", "5", "--format", "csv"]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "campaignbench"), str(ROOT / "src"),
         json.dumps(argv)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["status"] == 0
    return out


def test_benchmark_spans_reach_every_layer():
    # A MitM chain (two segments, no swaps) reaches every wrapped layer but
    # the registry's Bell kernels; an honest chain (one repeater that swaps)
    # those and the intercept too. The repeater path holds its pairs as
    # amplitude tuples, so it never makes a registered pair or calls
    # Simulator.bell_measure. On both, each transfer makes two Bell
    # measurements, two hops or a swap and a hop, and each is one call of
    # the one kernel, qsim.bell_step.
    honest = ["fig5_overhead", "--adversary", "honest"]
    registry = {"qsim.bell_measure", "qsim.make_bell_pair"}
    for argv, unreached in ((["fig2_success"], registry),
                            (honest, registry | {"adversary.handle_arrival"})):
        out = spans_of(*argv)
        calls = out["calls"]
        for layer in ("protocol.step", "netsim.provision", "keyschedule.next_r"):
            assert calls[layer] > 0, layer
        assert {name for name, n in calls.items() if n == 0} == unreached
        assert out["bell_step"] == 2 * calls["netsim.transfer"] > 0, argv
        assert 0 < out["steps"]["useful"] <= out["steps"]["all"]


def test_honest_transfers_pass_through_the_wrapped_kernel():
    # Three repeaters that swap: each transfer swaps three times and
    # teleports once over the joined pair, each one qsim.bell_step call, so
    # a fabric that bypasses the kernel fails here. No registered pair is
    # made.
    out = spans_of("custom", "--config", str(ROOT / "campaignbench" / "chain3.json"),
                   "--adversary", "honest")
    calls = out["calls"]
    assert calls["netsim.transfer"] > 0
    assert calls["qsim.make_bell_pair"] == calls["qsim.bell_measure"] == 0
    assert out["bell_step"] == 4 * calls["netsim.transfer"]


def test_every_workload_passes_its_own_oracle(monkeypatch):
    # Each benchmark workload, at 2 trials per T, runs in the benchmark's own
    # worker process and passes its oracle: the CSV columns, the JSON record
    # fields and the resources per transfer. A campaign that exits non-zero
    # or emits what the oracle rejects fails here, not first in a benchmark.
    # It runs once more with the layer spans every per-layer figure comes
    # from, which must name every layer the benchmark reports in us.
    monkeypatch.syspath_prepend(str(ROOT / "campaignbench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "campaignbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    os.makedirs(run.RESULTS, exist_ok=True)
    for name in run.WORKLOADS:
        monkeypatch.setitem(run.WORKLOADS[name], "trials_per_t", 2)
        for spans in (False, True):
            result = run.campaign(name, 5, spans=spans)
            assert (result["failed"], result["failures"]) == (0, []), (name, spans)
        assert set(run.LAYER_US) <= set(result["layers"]), name
