"""Correctness checks for a campaign, computed apart from qauthsim.

Nothing here imports qauthsim. The per-trial seeds, the session keys, the
key schedule and the aggregate rows are recomputed from their documented
definitions, and the program's trial records and emitted rows are compared
against them:

* per-trial seeds: splitmix64 over (master seed, T), then over the trial
  index; the session key is ``default_rng(splitmix(seed, 2)).integers(0, 2)``;
* the schedule walk: every round reads T key bits, most significant first,
  as the window length R; a window that is fully transferred, even an empty
  one, is authenticated, and a window cut short by the delivery target is
  not;
* intercept-resend at a single repeater: each authentication round is
  caught with probability 1/4, so a session with m rounds is caught with
  probability 1 - (3/4)^m;
* rows: the campaign README's definitions, with 95% normal-approximation
  half-widths and 6 significant digits.
"""

from __future__ import annotations

import json
import math

import numpy as np

MASK64 = (1 << 64) - 1
Z95 = 1.96


def splitmix(seed: int, index: int) -> int:
    """Child seed: golden-ratio increment times (index + 1), then the
    splitmix64 finalizer."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def trial_seed(master: int, t: int, index: int) -> int:
    return splitmix(splitmix(master, t), index)


def session_key(seed: int, length: int) -> list[int]:
    rng = np.random.default_rng(splitmix(seed, 2))
    return [int(b) for b in rng.integers(0, 2, size=length)]


def windows(key: list[int], t: int, target: int) -> list[int]:
    """Lengths of the authenticated windows of an undisturbed session."""
    if not any(key):
        raise ValueError("all-zero key")
    n, cursor, delivered, out = len(key), 0, 0, []
    while delivered < target:
        r = 0
        for i in range(t):
            r = (r << 1) | key[(cursor + i) % n]
        cursor = (cursor + t) % n
        if delivered + r > target:
            break
        delivered += r
        out.append(r)
    return out


class Checker:
    """Collects the failed checks of one campaign, one line each."""

    def __init__(self, spec: dict):
        """``spec`` is run.py's description of the campaign: repeaters,
        intercept, reverse_auth, target, key_length, master, t_values,
        trials_per_t and format."""
        self.spec = spec
        self.repeaters = spec["repeaters"]
        self.intercept = spec["intercept"]
        self.reverse_auth = spec["reverse_auth"]
        self.target = spec["target"]
        self.key_length = spec["key_length"]
        self.master = spec["master"]
        self.failures: list[str] = []
        self.failed_trials: set[tuple[int, int]] = set()
        self.campaign_failed = False
        # Detected trials, and the mean and variance of that count under
        # the 1 - (3/4)^m law; run.py pools them over a run's campaigns.
        self.detection = [0, 0.0, 0.0]

    def campaign(self, trials, text: str) -> None:
        """Check every (T, index, seed, record) of a campaign and its output."""
        by_t: dict[int, list] = {}
        for t, index, seed, rec in trials:
            self.trial(t, index, seed, rec)
            by_t.setdefault(t, []).append(rec)
        counts = [len(v) for v in by_t.values()]
        if list(by_t) != self.spec["t_values"] or set(counts) != {self.spec["trials_per_t"]}:
            self.fail("campaign", f"trials per T {dict(zip(by_t, counts))}")
        self.rows(text, self.spec["format"], by_t)

    def fail(self, where, message: str) -> None:
        """Record a failure of one trial (a (T, index) pair) or of the
        whole campaign (any other ``where``)."""
        self.failures.append(f"{where}: {message}")
        if isinstance(where, tuple):
            self.failed_trials.add(where)
        else:
            self.campaign_failed = True

    def failed(self, attempted: int) -> int:
        return attempted if self.campaign_failed else len(self.failed_trials)

    def trial(self, t: int, index: int, seed: int, rec) -> None:
        """Check one TrialRecord against the walk over its own key."""
        where = (t, index)
        if seed != trial_seed(self.master, t, index):
            self.fail(where, f"trial seed {seed} is not splitmix-derived")
        if rec.seed != seed or rec.transfer_length != t:
            self.fail(where, "record does not name its seed and T")
        win = windows(session_key(seed, self.key_length), t, self.target)
        m = len(win)
        transfers = rec.data_qubits_delivered + rec.auth_qubits_sent
        if self.intercept:
            if (rec.teleports, rec.bell_pairs_created, rec.swap_corrections) != (
                    2 * transfers, 2 * transfers, 0):
                self.fail(where, "MitM resources are not 2 teleports and "
                                 "2 pairs per transfer with no swaps")
            p = 1.0 - 0.75 ** m
            self.detection[1] += p
            self.detection[2] += p * (1.0 - p)
            if rec.detected:
                self.detection[0] += 1
                d = rec.rounds_to_detect
                # After the initiator falls silent the responder still
                # proves itself on the empty windows that follow round d.
                idle = 0
                while d is not None and d + idle < m and win[d + idle] == 0:
                    idle += 1
                if d is None or not 1 <= d <= m:
                    self.fail(where, f"detected at round {d} of {m}")
                elif rec.completed or (rec.data_qubits_delivered, rec.auth_qubits_sent) != (
                        sum(win[:d]), d + idle):
                    self.fail(where, f"detection at round {d} does not match "
                                     f"the walk (data {sum(win[:d])}, auth {d + idle})")
                return
        else:
            k = self.repeaters
            if (rec.teleports, rec.bell_pairs_created, rec.swap_corrections) != (
                    transfers, (k + 1) * transfers, k * transfers):
                self.fail(where, f"honest {k}-repeater resources do not match "
                                 f"{transfers} transfers")
            if rec.data_qubits_intact != rec.data_qubits_delivered:
                self.fail(where, "an honest transfer changed a data qubit")
        if rec.detected or not rec.completed or rec.rounds_to_detect is not None:
            self.fail(where, "session was detected or did not complete")
        if rec.data_qubits_delivered != self.target:
            self.fail(where, f"delivered {rec.data_qubits_delivered} of {self.target}")
        auth = m * (2 if self.reverse_auth else 1)
        if rec.auth_qubits_sent != auth:
            self.fail(where, f"{rec.auth_qubits_sent} auth qubits, walk gives {auth}")

    def rows(self, text: str, fmt: str, records: dict[int, list]) -> None:
        """Emitted rows must equal the recomputation from the records."""
        want = [expected_row(t, recs, self.master) for t, recs in records.items()]
        if fmt == "csv":
            lines = [ln for ln in text.splitlines() if ln]
            header = lines[0].split(",") if lines else []
            got = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        else:
            doc = json.loads(text)
            got = doc["rows"]
            trials = {int(t): batch for t, batch in doc["trials"].items()}
            for t, recs in records.items():
                if trials.get(t) != [_record_dict(r) for r in recs]:
                    self.fail("output", f"JSON trial records for T={t} differ")
        if len(got) != len(want):
            self.fail("output", f"{len(got)} rows emitted, {len(want)} expected")
            return
        for g, w in zip(got, want):
            if list(g) != list(w):
                self.fail("output", f"columns {list(g)}")
                return
            for col, value in w.items():
                if not same_at_6_digits(g[col], value):
                    self.fail("output", f"T={w['T']} {col}: {g[col]!r} != {value!r}")


def detections_within_4_sigma(detected: int, mean: float, var: float) -> str | None:
    """The detected count of independent trials against its expectation.

    Pooled over a whole run: one campaign expects only a handful of
    undetected trials, where the count's tail is far from normal.
    """
    sigma = math.sqrt(var)
    if abs(detected - mean) > 4.0 * sigma + 1e-9:
        return f"{detected} detections, expected {mean:.2f} +- 4*{sigma:.2f}"
    return None


_RECORD_FIELDS = (
    "seed", "transfer_length", "behavior", "detected", "rounds_to_detect",
    "data_qubits_delivered", "auth_qubits_sent", "data_qubit_target",
    "completed", "data_qubits_intact", "bell_pairs_created", "teleports",
    "swap_corrections",
)


def _record_dict(rec) -> dict:
    return {f: getattr(rec, f) for f in _RECORD_FIELDS}


def _mean_ci(values: list[float]):
    n = len(values)
    if n == 0:
        return None, None
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, Z95 * math.sqrt(var) / math.sqrt(n)


def expected_row(t: int, recs: list, master: int) -> dict:
    n = len(recs)
    det = [r for r in recs if r.detected]
    rate = len(det) / n
    rounds = _mean_ci([float(r.rounds_to_detect) for r in det])
    leak = _mean_ci([float(r.data_qubits_delivered) for r in det])
    over = _mean_ci([r.auth_qubits_sent / r.data_qubits_delivered
                     for r in recs if r.completed and r.data_qubits_delivered > 0])
    return {
        "T": t, "trials": n,
        "detection_rate": rate,
        "detection_rate_ci": Z95 * math.sqrt(rate * (1.0 - rate) / n),
        "mean_rounds": rounds[0], "mean_rounds_ci": rounds[1],
        "mean_leakage": leak[0], "mean_leakage_ci": leak[1],
        "overhead": over[0], "overhead_ci": over[1],
        "master_seed": master,
    }


def same_at_6_digits(cell, value) -> bool:
    """An emitted cell (CSV text or JSON number) against a recomputed value.

    Equal after rounding both to 6 significant digits; a one-unit difference
    in the sixth digit is allowed where the two sums round a tie apart.
    """
    if value is None:
        return cell in ("", None)
    if cell in ("", None):
        return False
    if isinstance(value, int):
        return int(cell) == value
    got = float(cell)
    if f"{got:.6g}" == f"{value:.6g}":
        return True
    exp = math.floor(math.log10(abs(value))) if value else 0
    return abs(got - value) <= 10.0 ** (exp - 5)
