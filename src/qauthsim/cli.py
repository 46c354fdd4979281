"""Command-line harness.

One subcommand per experiment. Options layer as: per-experiment defaults,
then a JSON config file (--config), then explicit flags. Exit status is 0 on
success, 2 for configuration problems, 1 for I/O failures and for a trial
the simulator stops (a session stuck past its sweep bound).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import experiments as exp
from . import netsim
from .adversary import BEHAVIOR_LABELS
from .qsim import SimulationError

#: config-file keys, each also a flag's dest: every config field but the
#: experiment (the subcommand) and the topology (read from its own keys)
_CONFIG_KEYS = frozenset(
    f.name for f in fields(exp.ExperimentConfig) if f.name not in ("experiment", "topology")
)


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: json.load alone would keep the last of two equal keys."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise exp.ConfigError(f"config key {key!r} is given twice")
        out[key] = value
    return out


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise exp.ConfigError(f"reading config: {err}") from err
    if not isinstance(raw, dict):
        raise exp.ConfigError("config file must hold a JSON object")
    topology = {k: raw.pop(k) for k in netsim.TOPOLOGY_KEYS if k in raw}
    if "topology" in raw:
        if topology:
            raise exp.ConfigError("give either topology or nodes, edges and path")
        topology = raw.pop("topology")
    out: dict = {"topology": netsim.topology_from_json(topology)}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise exp.ConfigError(f"unknown config key {key!r}")
        if key == "t_values":
            value = tuple(value) if isinstance(value, list) else (value,)
        out[key] = value
    return out


def _add_campaign_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--transfer-length", "-T", type=int, nargs="+", metavar="T",
                     dest="t_values", help="transfer lengths to sweep (default 1 2 3 4 5)")
    sub.add_argument("--trials", type=int, help="trials per transfer length")
    sub.add_argument("--data-qubits", type=int, dest="data_target",
                     help="data qubits to deliver per trial")
    sub.add_argument("--adversary", choices=sorted(BEHAVIOR_LABELS),
                     help="repeater behavior")
    sub.add_argument("--key-length", type=int, help="fresh key length per trial")
    sub.add_argument("--key", help="fixed session key: 0/1 string or 0x-prefixed hex")
    sub.add_argument("--key-bits", type=int, help="bit length for a hex --key")
    sub.add_argument("--malicious-node", help="which path node intercepts")
    sub.add_argument("--encoding-index", type=int, choices=(0, 1),
                     help="which bit of each key pair encodes the auth value")


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    sub.add_argument("--format", choices=exp.OUTPUT_FORMATS, dest="output_format")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--config", help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qauthsim",
        description="Entanglement-based identity authentication: simulation "
        "campaigns and analytic tables.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    for name, spec in exp.EXPERIMENT_SPECS.items():
        p = sub.add_parser(name, help=spec.help)
        if spec.table is None:
            _add_campaign_options(p)
        if name == "analytic":
            p.add_argument("--rounds", type=int, dest="analytic_rounds",
                           help="table rows 1..N (default 8)")
        if name == "capacity":
            p.add_argument("--key-length", type=int,
                           help="key length in bits (default 1024)")
            p.add_argument("--transfer-length", "-T", type=int, nargs="+",
                           metavar="T", dest="t_values")
        if name == "custom":
            p.add_argument("--reverse-auth", action="store_true", default=None,
                           help="authenticate in both directions each round")
            p.add_argument("--payload", help="data-qubit distribution: "
                           "uniform4, haar, or fixed:<0|1|+|->")
            p.add_argument("--trace", help="write per-trial event traces (JSONL)")
            p.add_argument("--intercept-log", help="write intercepted-qubit log (JSONL)")
        _add_output_options(p)

    return parser


def build_config(args: argparse.Namespace) -> exp.ExperimentConfig:
    settings: dict = {"experiment": args.experiment}
    settings.update(exp.EXPERIMENT_SPECS[args.experiment].defaults)
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for key in _CONFIG_KEYS:  # every flag's dest is its config key
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = tuple(value) if key == "t_values" else value
    return exp.ExperimentConfig(**settings)


def dispatch(cfg: exp.ExperimentConfig, args: argparse.Namespace) -> str:
    table = exp.EXPERIMENT_SPECS[cfg.experiment].table
    if table is not None:
        return exp.emit_rows(table(cfg), cfg.output_format)
    trace_path = getattr(args, "trace", None)
    log_path = getattr(args, "intercept_log", None)
    _refuse_shared_paths({"--trace": trace_path, "--intercept-log": log_path,
                          "--out": cfg.out})
    trace_sink = _JsonlSink(trace_path, "records") if trace_path else None
    intercept_sink = _JsonlSink(log_path, "events") if log_path else None
    try:
        result = exp.run_experiment(
            cfg, trace_sink=trace_sink, intercept_sink=intercept_sink
        )
    finally:
        for sink in (trace_sink, intercept_sink):
            if sink is not None:
                sink.close()
    return exp.emit_campaign(result, cfg.output_format)


def _refuse_shared_paths(paths: dict) -> None:
    """Refuse two output options that name one file: each writer would
    truncate or interleave the other's lines."""
    seen: dict = {}
    for flag, path in paths.items():
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise exp.ConfigError(f"{seen[real]} and {flag} name the same file {path!r}")
            seen[real] = flag


def _make_encoder():
    """``json.dumps`` at its default settings as one callable, its C encoder
    built once: dumps builds it again on every call."""
    make = json.encoder.c_make_encoder
    if make is None:  # no C accelerator
        return json.dumps
    # the arguments JSONEncoder.iterencode passes at dumps's defaults, but no
    # circular check: its markers dict would be state shared by every call,
    # and no record holds itself
    encode = make(None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
                  None, ": ", ", ", False, False, True)
    return lambda obj: "".join(encode(obj, 0))


_encode_json = _make_encoder()


class _JsonlSink:
    """Campaign sink that writes and flushes each trial's records as JSON
    lines as soon as the trial ends, each tagged with its transfer length
    and trial index. A line is what ``json.dumps({**tags, **record})``
    gives: the tags are encoded once per trial and each record's encoding
    is spliced after them, since no record carries a tag key.

    The file is opened at the first trial, so a campaign that fails before
    it leaves no file behind.
    """

    def __init__(self, path: str, key: str):
        self.path = path
        self.key = key
        self._fh = None

    def append(self, entry: dict) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
        tags = _encode_json({"transfer_length": entry["transfer_length"],
                             "trial_index": entry["trial_index"]})
        empty = tags + "\n"
        head = tags[:-1] + ", "
        write = self._fh.write
        for record in entry[self.key]:
            write(head + _encode_json(record)[1:] + "\n" if record else empty)
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        text = dispatch(cfg, args)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ValueError as err:  # ConfigError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, SimulationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
