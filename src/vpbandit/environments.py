"""Reward processes the learners face.

Three kinds: i.i.d. Bernoulli arms, replayed intrusion traces (either
ingested from a CAN-style CSV log or synthesized with the same burst
structure), and location-dependent payoff weights for the heterogeneous
game setting.
"""

import csv
import math
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter

import numpy as np

from .errors import (
    EmptyInputError,
    InputEncodingError,
    InvalidConfigError,
    RowParseError,
    SchemaError,
    ShapeError,
)

DEFAULT_ROUND_WINDOW = 0.25  # seconds per round when bucketing CAN logs
INGEST_CHUNK = 512  # CAN log rows per column pass; short-lived rows keep the GC cheap

#: Column mapping for the common car-hacking CSV layout. All names can be
#: remapped; ``injected_value`` is the flag value marking injected messages.
CAR_HACKING_COLUMNS = {
    "timestamp": "Timestamp",
    "identity": "CAN_ID",
    "flag": "Flag",
    "injected_value": "T",
}


@dataclass
class BernoulliEnv:
    """Independent Bernoulli reward per arm per round."""

    means: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        if np.any(self.means < 0) or np.any(self.means > 1):
            raise InvalidConfigError("Bernoulli means must lie in [0, 1]")

    @property
    def n_arms(self):
        return self.means.size

    @classmethod
    def harmonic(cls, n_arms=10, top=0.75):
        """The decaying-means instance: mean of arm k is top / k."""
        return cls(means=top / np.arange(1, n_arms + 1))


def bernoulli_rewards(env, rounds, rng):
    """Rewards of ``rounds`` rounds as a (rounds, N) 0/1 matrix.

    One independent draw per arm and round, from one ``rng.random`` block;
    row t holds the doubles that the t-th of ``rounds`` calls of
    ``rng.random(N)`` would give.
    """
    return (rng.random((rounds, env.n_arms)) < env.means).astype(float)


CSV_BLOCK = 256  # rows formatted per write by write_columns


def _column_text(block):
    """The CSV fields of one column block: bools as 1/0, floats at 17 digits."""
    if not isinstance(block, np.ndarray):
        return map(str, block)
    if block.dtype.kind == "b":
        block = block.view(np.uint8)
    return map("{:.17g}".format if block.dtype.kind == "f" else str, block.tolist())


def write_columns(f, columns, newline="\n"):
    """Write equal-length columns to the open text file ``f`` as CSV rows.

    A column is a 1-D array of bool, integer, float or str values, or a
    list of str.  Rows are formatted and written ``CSV_BLOCK`` at a time.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ShapeError(f"columns of different lengths {sorted(lengths)}")
    for lo in range(0, lengths.pop() if lengths else 0, CSV_BLOCK):
        fields = [_column_text(c[lo : lo + CSV_BLOCK]) for c in columns]
        f.write(newline.join(map(",".join, zip(*fields))) + newline)


@dataclass
class IntrusionTrace:
    """Binary attack indicators per round and arm, with arm identities."""

    indicators: np.ndarray  # (T, N) of 0/1
    arm_labels: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.indicators = np.asarray(self.indicators)
        if self.indicators.ndim != 2:
            raise InvalidConfigError("indicators must be a (rounds, arms) matrix")
        if len(self.arm_labels) != self.indicators.shape[1]:
            raise InvalidConfigError("arm_labels length must match indicator columns")
        if len(set(self.arm_labels)) != len(self.arm_labels):
            raise InvalidConfigError("arm_labels must be distinct")

    @property
    def n_rounds(self):
        return self.indicators.shape[0]

    @property
    def n_arms(self):
        return self.indicators.shape[1]

    def attack_density(self):
        """Fraction of rounds each arm is under attack."""
        return self.indicators.mean(axis=0)

    def save(self, matrix_path, sidecar_path):
        """Write the indicator matrix as CSV (CRLF line ends) plus a key=value sidecar."""
        with open(matrix_path, "w", newline="") as f:
            f.write(",".join(["round"] + [f"arm_{i}" for i in range(self.n_arms)]) + "\r\n")
            columns = [np.arange(self.n_rounds), *self.indicators.astype(np.int64).T]
            write_columns(f, columns, "\r\n")
        with open(sidecar_path, "w") as f:
            f.write(f"rounds={self.n_rounds}\n")
            f.write(f"arms={self.n_arms}\n")
            f.write("arm_labels=" + ";".join(str(s) for s in self.arm_labels) + "\n")
            for k in sorted(self.metadata):
                f.write(f"{k}={self.metadata[k]}\n")


def synthesize_intrusion_trace(
    n_arms,
    attacked,
    horizon,
    burst_length_range=(3.0, 5.0),
    round_window=DEFAULT_ROUND_WINDOW,
    n_bursts=300,
    rng=None,
):
    """Generate a trace with intermittent attack bursts on selected arms.

    Bursts (uniform length within ``burst_length_range`` seconds) are laid
    out per attacked arm with randomized gaps sized so roughly ``n_bursts``
    bursts in total fill the horizon.  ``n_bursts`` may also be a sequence
    with one count per attacked arm, for traces where one identity is hit
    much more often than another.  Only the attacked arms ever carry a
    nonzero indicator.
    """
    if not round_window > 0:
        raise InvalidConfigError(f"round_window must be positive, got {round_window!r}")
    attacked = sorted(int(k) for k in attacked)
    if not attacked:
        raise InvalidConfigError("attacked arm set must be nonempty")
    if attacked[0] < 0 or attacked[-1] >= n_arms:
        raise InvalidConfigError("attacked arms must be valid indices")
    lo, hi = burst_length_range
    if lo <= 0 or hi < lo:
        raise InvalidConfigError("burst length range must be positive and ordered")
    duration = horizon * round_window
    if np.isscalar(n_bursts):
        per_arm_counts = [max(1, int(n_bursts) // len(attacked))] * len(attacked)
    else:
        per_arm_counts = [int(c) for c in n_bursts]
        if len(per_arm_counts) != len(attacked) or min(per_arm_counts) < 1:
            raise InvalidConfigError("need one positive burst count per attacked arm")
    mean_burst = 0.5 * (lo + hi)
    indicators = np.zeros((horizon, n_arms), dtype=np.int8)
    for arm, per_arm in zip(attacked, per_arm_counts):
        mean_gap = max(0.0, duration - per_arm * mean_burst) / per_arm
        t = rng.uniform(0.0, 1.0) * mean_gap
        while t < duration:
            length = rng.uniform(lo, hi)
            first = int(t / round_window)
            last = min(horizon - 1, int((t + length) / round_window))
            indicators[first : last + 1, arm] = 1
            t += length + rng.uniform(0.5, 1.5) * mean_gap
    meta = {
        "source": "synthetic",
        "round_window_s": round_window,
        "burst_length_s": f"{lo}-{hi}",
        "attacked_arms": ";".join(str(a) for a in attacked),
    }
    return IntrusionTrace(
        indicators=indicators,
        arm_labels=[f"arm_{i}" for i in range(n_arms)],
        metadata=meta,
    )


def ingest_can_log(path, column_map=None, round_window=DEFAULT_ROUND_WINDOW):
    """Bucket a CAN-style CSV log into fixed-width rounds.

    The file must have a header row; ``column_map`` names the timestamp,
    identity, and flag columns plus the flag value marking injected rows.
    One arm per distinct identity (sorted lexicographically); a round's
    indicator is 1 iff it contains at least one injected row for that
    identity.  Blank lines are skipped.

    The file is read as UTF-8, after a byte-order mark if it starts with
    one, in chunks of ``INGEST_CHUNK`` rows, a column at a time.  A row that
    is short of a mapped column or whose timestamp is not a finite number
    raises ``RowParseError`` with the physical line on which the first such
    row starts; bytes that are not UTF-8 raise ``InputEncodingError``.
    """
    if not round_window > 0:
        raise InvalidConfigError(f"round_window must be positive, got {round_window!r}")
    cmap = dict(CAR_HACKING_COLUMNS)
    if column_map:
        cmap.update(column_map)
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise RowParseError(1, f"malformed CSV: {exc}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        # a repeated name maps to its last column, as in csv.DictReader
        where = {name: i for i, name in enumerate(header)}
        for key in ("timestamp", "identity", "flag"):
            if cmap[key] not in where:
                raise SchemaError(f"missing column {cmap[key]!r} (for {key})")
        i_ts, i_id, i_flag = (where[cmap[k]] for k in ("timestamp", "identity", "flag"))
        need = max(i_ts, i_id, i_flag) + 1
        is_injected = cmap["injected_value"].__eq__
        n_rows, lo, hi = 0, math.inf, -math.inf
        labels, hit_ts, hit_ids = set(), [], []
        while True:
            try:
                chunk = list(islice(reader, INGEST_CHUNK))
                rows = list(filter(None, chunk))  # a blank line reads as []
                ts = np.array(list(map(float, map(itemgetter(i_ts), rows))))
                good = not rows or (min(map(len, rows)) >= need and np.isfinite(ts).all())
            except (ValueError, IndexError, csv.Error):
                good = False
            if not good:
                _raise_first_bad_row(path, i_ts, need)
            if not chunk:
                break
            if not rows:
                continue
            n_rows += len(rows)
            lo, hi = min(lo, ts.min()), max(hi, ts.max())
            ids = list(map(itemgetter(i_id), rows))
            labels.update(ids)
            hit = list(map(is_injected, map(itemgetter(i_flag), rows)))
            hit_ts.append(ts[np.array(hit, dtype=bool)])
            hit_ids += compress(ids, hit)
    if not n_rows:
        raise EmptyInputError(f"{path} contains no data rows")
    t0 = float(lo)
    labels = sorted(labels)
    col = {ident: i for i, ident in enumerate(labels)}
    n_rounds = int((float(hi) - t0) / round_window) + 1
    indicators = np.zeros((n_rounds, len(labels)), dtype=np.int8)
    rounds = ((np.concatenate(hit_ts) - t0) / round_window).astype(np.intp)
    indicators[rounds, list(map(col.__getitem__, hit_ids))] = 1
    meta = {
        "source": str(path),
        "round_window_s": round_window,
        "n_rows": n_rows,
        "attack_density_mean": float(indicators.mean()),
    }
    return IntrusionTrace(indicators=indicators, arm_labels=labels, metadata=meta)


def _not_utf8(path, exc):
    # the decoder works on blocks of the file, so the line is not known
    return InputEncodingError(f"{path} is not UTF-8 text: {exc.reason}")


def _raise_first_bad_row(path, i_ts, need):
    """Re-read ``path`` row by row and raise ``RowParseError`` for its first bad row."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        next(reader)
        line = reader.line_num + 1  # the physical line the next row starts on
        try:
            for row in reader:
                if row:
                    if len(row) < need:
                        raise RowParseError(line, f"expected {need} fields, got {len(row)}")
                    raw = row[i_ts]
                    try:
                        ts = float(raw)
                    except ValueError:
                        raise RowParseError(line, f"unparseable timestamp {raw!r}") from None
                    if not math.isfinite(ts):
                        raise RowParseError(line, f"non-finite timestamp {raw!r}")
                line = reader.line_num + 1
        except csv.Error as exc:
            raise RowParseError(line, f"malformed CSV: {exc}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    raise RowParseError(line, f"{path} changed while it was read")


@dataclass
class PayoffProfile:
    """Location-dependent payoff weights, canonicalized to non-increasing order.

    ``order[k]`` maps the canonical position k back to the original arm index.
    """

    mu: np.ndarray
    order: np.ndarray = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if np.any(mu <= 0) or np.any(mu > 1):
            raise InvalidConfigError("payoffs must lie in (0, 1]")
        if self.order is None:
            self.order = np.argsort(-mu, kind="stable")
            mu = mu[self.order]
        self.mu = mu

    @property
    def n_arms(self):
        return self.mu.size

    @classmethod
    def homogeneous(cls, n_arms, value=1.0):
        return cls(mu=np.full(n_arms, float(value)))

