"""One campaign in one process: the workload process of the benchmark.

Usage (started by run.py, one at a time):

    python3 campaignbench/worker.py SPEC_JSON T_SPAWN

SPEC_JSON names the checkout root, the qauthsim argv, whether layer spans
are recorded, and what the oracle needs to know about the workload.
T_SPAWN is the parent's ``time.perf_counter()`` just before the spawn
(CLOCK_MONOTONIC, shared by all processes), so set-up time covers
interpreter start, imports, argument parsing and config resolution.

The worker imports qauthsim from the checkout's ``src/``, wraps its public
functions from outside (``src/`` is never edited), runs ``cli.main(argv)``
with standard output captured, checks every trial and every emitted row
with ``oracle``, and prints one JSON line for run.py.

Host-speed correction: before the first trial, before any trial that starts
CAL_PERIOD_S or more after the last calibration, and once after ``cli.main``
returns, the worker times CAL_REPS passes of a fixed loop that never touches
qauthsim and keeps their median L. The loop's own time is excluded from
every figure. A stretch of campaign time between two calibrations is
converted to corrected seconds as ``raw * CAL_REF_S / L``, with L the mean
of the two calibrations around it; CAL_REF_S is the loop's typical time on
the reference host, so corrected seconds read close to host seconds there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array

import numpy as np

import oracle

CAL_PERIOD_S = 0.08
CAL_REPS = 3
CAL_ITERS = 200
CAL_REF_S = 1.1e-3
_SQRT2_INV = 1.0 / math.sqrt(2.0)

clock = time.perf_counter


def calibration_loop(rng: np.random.Generator) -> float:
    """Fixed pure-Python and numpy-scalar work, shaped like the simulator's
    inner loops: complex butterflies over an 8-amplitude list, a norm sum,
    one scalar ``rng.random()`` and a dict update per iteration."""
    amps = [1 + 0j, 0j, 0j, 0j, 0j, 0j, 0j, _SQRT2_INV + 0j]
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(CAL_ITERS):
        w = 1 << (i % 3)
        for j in range(8):
            if not j & w:
                a0, a1 = amps[j], amps[j | w]
                amps[j] = (a0 + a1) * _SQRT2_INV
                amps[j | w] = (a0 - a1) * _SQRT2_INV
        p = sum(a.real * a.real + a.imag * a.imag for a in amps)
        acc += p if rng.random() < 0.5 else -p
        counts[i & 63] = counts.get(i & 63, 0) + 1
    return acc


class Calibration:
    """Calibration points along the campaign: (start, end, loop seconds)."""

    def __init__(self):
        self.rng = np.random.default_rng(12345)
        self.points: list[tuple[float, float, float]] = []

    def measure(self) -> None:
        t0 = clock()
        samples = []
        for _ in range(CAL_REPS):
            s = clock()
            calibration_loop(self.rng)
            samples.append(clock() - s)
        self.points.append((t0, clock(), statistics.median(samples)))

    def corrected(self, start: float, end: float) -> tuple[float, float]:
        """Host and corrected seconds of [start, end], calibrations excluded."""
        raw = cor = 0.0
        for k in range(len(self.points) - 1):
            lo = max(start, self.points[k][1])
            hi = min(end, self.points[k + 1][0])
            if hi > lo:
                raw += hi - lo
                loop_s = (self.points[k][2] + self.points[k + 1][2]) / 2.0
                cor += (hi - lo) * CAL_REF_S / loop_s
        return raw, cor


class Spans:
    """Layer spans kept in memory: name, start, end and causing span.

    Self time (a span minus its wrapped children) and call counts are summed
    as spans close; the spans themselves are written out by ``save``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[list] = []  # [span index, time in wrapped children]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def wrap(self, owner, attr: str, name: str, classmethod_=False) -> None:
        fn = getattr(owner, attr)
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self.self_s[name] = 0.0
            self.calls[name] = 0
        stack, self_s, calls = self.stack, self.self_s, self.calls
        span_names, starts, ends, parents = self.span_name, self.start, self.end, self.parent

        def timed(*args, **kwargs):
            t_in = clock()
            idx = len(starts)
            span_names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                self_s[name] += t1 - t0 - frame[1]
                calls[name] += 1
                if stack:
                    # The parent loses this span's bookkeeping too, so
                    # tracing cost stays out of every self time.
                    stack[-1][1] += clock() - t_in

        if classmethod_:
            setattr(owner, attr, classmethod(lambda cls, *a, **k: timed(*a, **k)))
        else:
            setattr(owner, attr, timed)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), span_name=np.frombuffer(self.span_name, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int32))


def install_spans(spans: Spans) -> dict:
    """Wrap every layer boundary the per-layer metrics name."""
    from qauthsim import adversary as adv, cli, experiments as exp, keyschedule as ks
    from qauthsim import netsim, protocol as proto, qsim

    for attr in ("make_bell_pair", "bell_measure", "measure", "apply_h"):
        spans.wrap(qsim.Simulator, attr, f"qsim.{attr}")
    spans.wrap(netsim, "states_equal", "qsim.states_equal")
    spans.wrap(ks.KeyMaterial, "random", "keyschedule.key_random", classmethod_=True)
    spans.wrap(ks, "next_r", "keyschedule.next_r")
    spans.wrap(ks, "next_auth_pair", "keyschedule.next_auth_pair")
    spans.wrap(proto, "sample_payload", "protocol.sample_payload")
    spans.wrap(adv, "handle_arrival", "adversary.handle_arrival")
    spans.wrap(netsim.EntanglementFabric, "provision", "netsim.provision")
    spans.wrap(netsim.EntanglementFabric, "transfer", "netsim.transfer")
    spans.wrap(netsim, "run_trial", "netsim.run_trial")
    spans.wrap(exp, "aggregate", "experiments.aggregate")
    spans.wrap(exp, "emit_campaign", "experiments.emit_campaign")
    spans.wrap(exp, "run_experiment", "experiments.run_experiment")
    spans.wrap(cli, "main", "cli.main")

    steps = {"all": 0, "useful": 0}
    for cls in (proto.Initiator, proto.Responder):
        def step(self, event, _step=cls.step):
            before = self.state.phase
            actions = _step(self, event)
            steps["all"] += 1
            if actions or self.state.phase is not before:
                steps["useful"] += 1
            return actions

        cls.step = step
        spans.wrap(cls, "step", "protocol.step")
    return steps


def main() -> int:
    spec = json.loads(sys.argv[1])
    t_spawn = float(sys.argv[2])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import qauthsim
    from qauthsim import cli, netsim

    if os.path.dirname(os.path.abspath(qauthsim.__file__)) != os.path.join(src, "qauthsim"):
        print(f"qauthsim imported from {qauthsim.__file__}, not {src}", file=sys.stderr)
        return 2

    spans = steps = None
    if spec["spans"]:
        spans = Spans()
        steps = install_spans(spans)

    cal = Calibration()
    trials: list[tuple] = []  # (T, index within T, seed, TrialRecord)
    per_t: dict[int, int] = {}
    trial_times: list[tuple[float, float]] = []  # host start and end of each trial
    first: list[float] = []
    inner_run_trial = netsim.run_trial

    def run_trial(topology, behavior, config, seed, **kwargs):
        now = clock()
        if not first:
            first.append(now)
        if not cal.points or now - cal.points[-1][1] >= CAL_PERIOD_S:
            cal.measure()
        t0 = clock()
        rec = inner_run_trial(topology, behavior, config, seed, **kwargs)
        t1 = clock()
        trial_times.append((t0, t1))
        t = config.sched.transfer_length
        per_t[t] = per_t.get(t, -1) + 1
        trials.append((t, per_t[t], seed, rec))
        if spans is not None and spans.stack:
            # Calibration and this bookkeeping belong to no layer.
            spans.stack[-1][1] += (t0 - now) + (clock() - t1)
        return rec

    netsim.run_trial = run_trial
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(spec["argv"])
    t_end = clock()
    cal.measure()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if status != 0 or not trials:
        print(f"qauthsim exited with {status} after {len(trials)} trials", file=sys.stderr)
        return 1
    records = [rec for *_, rec in trials]

    text = out.getvalue()
    trace_path = spec.get("trace_file")
    trace_bytes = 0
    if trace_path:
        trace_bytes = os.path.getsize(trace_path)
        os.remove(trace_path)
    campaign_raw, campaign_cor = cal.corrected(first[0], t_end)
    setup_raw = first[0] - t_spawn
    trial_s = [cal.corrected(t0, t1) for t0, t1 in trial_times]
    result = {
        "trials": len(records),
        "data_qubits": sum(r.data_qubits_delivered for r in records),
        "auth_qubits": sum(r.auth_qubits_sent for r in records),
        "bell_pairs": sum(r.bell_pairs_created for r in records),
        "teleports": sum(r.teleports for r in records),
        "campaign_raw_s": campaign_raw,
        "campaign_cor_s": campaign_cor,
        "setup_raw_s": setup_raw,
        # Set-up has no calibration of its own; the campaign's median stands in.
        "setup_cor_s": setup_raw * CAL_REF_S / statistics.median(p[2] for p in cal.points),
        "calibration_s": [p[2] for p in cal.points],
        "trial_raw_s": [raw for raw, _ in trial_s],
        "trial_cor_s": [cor for _, cor in trial_s],
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": len(text.encode()),
        "trace_bytes": trace_bytes,
    }
    if spans is not None:
        scale = campaign_cor / campaign_raw
        result["layers"] = {
            name: {"calls": spans.calls[name], "self_s": spans.self_s[name] * scale}
            for name in spans.names
        }
        result["steps"] = steps
        spans.save(spec["spans_file"])

    checker = oracle.Checker(spec["oracle"])
    checker.campaign(trials, text)
    result["detection"] = checker.detection
    result["failed"] = checker.failed(len(records))
    result["failures"] = checker.failures[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
