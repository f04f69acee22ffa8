"""Reward processes the learners face, and the package's file writers.

Three kinds: i.i.d. Bernoulli arms, replayed intrusion traces (either
ingested from a CAN-style CSV log or synthesized with the same burst
structure), and location-dependent payoff weights for the heterogeneous
game setting.

``write_csv`` (a header row, then ``write_columns``' rows) and ``write_pairs``
(one ``key=value`` line per item) write every CSV and key=value file of a
run: the CLI's CSVs and ``summary.txt``, and ``trace.csv`` and
``trace.meta`` from ``IntrusionTrace.save``.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFileError, InvalidConfigError, RowParseError

DEFAULT_ROUND_WINDOW = 0.25  # seconds per round when bucketing CAN logs
INGEST_BLOCK = 1 << 18  # bytes of CAN log per parse pass; a longer line grows its block
MAX_TRACE_CELLS = 1 << 26  # rounds × arms of an ingested trace: 64 MiB of int8 indicators

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
        if not np.all((0 <= self.means) & (self.means <= 1)):  # NaN fails too
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

# the field format of an array column by dtype kind: bools as 1/0, floats at 17 digits
_FIELD_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}


def write_columns(f, columns, newline="\n"):
    """Write equal-length columns to the open text file ``f`` as CSV rows.

    A column is a 1-D array of bool, integer, float or str values, or a
    list of str.  Each row is one ``%`` format, built once from the column
    kinds; rows are written ``CSV_BLOCK`` at a time.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise InvalidConfigError(f"columns of different lengths {sorted(lengths)}")
    formats = [
        _FIELD_FORMATS.get(c.dtype.kind, "%s") if isinstance(c, np.ndarray) else "%s"
        for c in columns
    ]
    row = ",".join(formats) + newline
    for lo in range(0, lengths.pop() if lengths else 0, CSV_BLOCK):
        blocks = (c[lo : lo + CSV_BLOCK] for c in columns)
        fields = [b.tolist() if isinstance(b, np.ndarray) else b for b in blocks]
        f.write("".join(map(row.__mod__, zip(*fields))))


def write_csv(path, header, columns, newline="\n"):
    """Write ``columns`` to ``path`` as CSV under a ``header`` row, each line ended by ``newline``.

    A field reads as the CLI's ``_fmt`` writes its value: bools as 1/0,
    integers in decimal, floats at 17 significant digits (``nan``, ``inf``,
    ``-0``), and text as it is.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + newline)
        write_columns(f, columns, newline)


def write_pairs(path, items, value):
    """Write one ``key=value`` line per (key, v) of ``items``, in order, with ``value(v)``."""
    with open(path, "w", newline="") as f:
        f.write("".join(f"{k}={value(v)}\n" for k, v in items))


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
        """Write the indicator matrix as CSV (CRLF line ends) plus a key=value sidecar
        (rounds, arms, arm labels joined by ``;``, then the metadata by key; values by ``str``).
        A label holding ``;``, ``\\r`` or ``\\n`` would not read back, so it raises
        ``InputFileError`` before either file is written."""
        labels = list(map(str, self.arm_labels))
        for label in labels:
            if ";" in label or "\r" in label or "\n" in label:
                raise InputFileError(f"arm label {label!r} holds ';' or a line break")
        header = ["round"] + [f"arm_{i}" for i in range(self.n_arms)]
        columns = [np.arange(self.n_rounds), *self.indicators.astype(np.int64).T]
        write_csv(matrix_path, header, columns, "\r\n")
        items = [("rounds", self.n_rounds), ("arms", self.n_arms), ("arm_labels", ";".join(labels))]
        write_pairs(sidecar_path, items + sorted(self.metadata.items()), str)


def synthesize_intrusion_trace(
    n_arms,
    attacked,
    horizon,
    burst_length_range=(3.0, 5.0),
    round_window=DEFAULT_ROUND_WINDOW,
    n_bursts=300,
    *,
    rng,
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
            # bounded before int(): at a tiny round_window the quotient is inf
            last = int(min(horizon - 1, (t + length) / round_window))
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
    one, by numpy passes over blocks of about ``INGEST_BLOCK`` bytes, so
    memory does not grow with the file; a field of a block is gathered as
    a (width, rows) byte matrix, one contiguous array per byte column.  A
    log that this byte parser declines (a quote, bytes that are not UTF-8,
    a bad row, or a row of over ``csv.field_size_limit()`` bytes) is read
    again by ``csv.reader``.  A row that is short of a mapped column, that
    holds an oversized field or whose timestamp is not a finite number
    raises ``RowParseError`` with the physical line on which the first such
    row starts; bytes that are not UTF-8 raise ``InputFileError``, and a
    trace of over ``MAX_TRACE_CELLS`` rounds × arms ``InvalidConfigError``.
    """
    if not round_window > 0:
        raise InvalidConfigError(f"round_window must be positive, got {round_window!r}")
    cmap = dict(CAR_HACKING_COLUMNS)
    if column_map:
        cmap.update(column_map)
    scan = _scan_bytes(path, cmap) or _scan_rows(path, cmap)
    return _bucket(path, round_window, *scan)


def _columns(reader, path, cmap):
    """Read the header row from ``reader``: the timestamp, identity and flag column indices."""
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
            raise InputFileError(f"missing column {cmap[key]!r} (for {key})")
    return [where[cmap[k]] for k in ("timestamp", "identity", "flag")]


# A scan of a log is (n_rows, first timestamp, last timestamp, identities,
# timestamps of injected rows as a list of arrays, their identities).


def _scan_rows(path, cmap):
    """Scan ``path`` with ``csv.reader``, one row at a time; raise at its first bad row."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        i_ts, i_id, i_flag = _columns(reader, path, cmap)
        need = max(i_ts, i_id, i_flag) + 1
        injected = cmap["injected_value"]
        n_rows, lo, hi = 0, math.inf, -math.inf
        labels, hit_ts, hit_ids = set(), [], []
        before = reader.line_num  # physical lines before the next row
        try:
            for row in reader:
                if row:  # a blank line reads as []
                    if len(row) < need:
                        raise RowParseError(before + 1, f"expected {need} fields, got {len(row)}")
                    raw = row[i_ts]
                    try:
                        ts = float(raw)
                    except ValueError:
                        raise RowParseError(before + 1, f"unparseable timestamp {raw!r}") from None
                    if not math.isfinite(ts):
                        raise RowParseError(before + 1, f"non-finite timestamp {raw!r}")
                    n_rows += 1
                    if ts < lo:
                        lo = ts
                    if ts > hi:
                        hi = ts
                    labels.add(row[i_id])
                    if row[i_flag] == injected:
                        hit_ts.append(ts)
                        hit_ids.append(row[i_id])
                before = reader.line_num
        except csv.Error as exc:
            raise RowParseError(before + 1, f"malformed CSV: {exc}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    return n_rows, lo, hi, labels, [np.array(hit_ts, dtype=float)], hit_ids


def _scan_bytes(path, cmap):
    """Scan ``path`` by numpy passes over blocks of bytes; None where it declines the log."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        columns = _columns(reader, path, cmap)
        header_lines = reader.line_num
    need = max(columns) + 1
    # a lone surrogate from a JSON config matches no field, as on the csv.reader path
    flag = np.frombuffer(cmap["injected_value"].encode("utf-8", "surrogatepass"), np.uint8)
    n_rows, lo, hi = 0, math.inf, -math.inf
    ids, hit_ts, hit_ids = {}, [], []
    with open(path, "rb") as f:
        for block in _blocks(f, header_lines):
            rows = None if b'"' in block else _parse_block(block, columns, need, flag, ids)
            if rows is None:
                return None
            ts, injected_ts, injected_ids = rows
            if ts.size:
                n_rows += ts.size
                lo, hi = min(lo, ts.min()), max(hi, ts.max())
                hit_ts.append(injected_ts)
                hit_ids += injected_ids.tolist()
    labels = [ident.decode() for ident in ids]
    return n_rows, lo, hi, labels, hit_ts, [labels[g] for g in hit_ids]


def _blocks(f, skip):
    """Blocks of whole lines of the binary file ``f``, after its byte-order mark and ``skip`` lines.

    A block is cut after the last line end of about ``INGEST_BLOCK`` bytes,
    never between the two bytes of ``\\r\\n``; a longer line grows its block.
    The file's last line may lack its line end.
    """
    carry = f.read(3)
    if carry == b"\xef\xbb\xbf":
        carry = b""
    while True:
        data = f.read(INGEST_BLOCK)
        if data:  # cut after the last line end, but not after a final \r: a \n may follow
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
            if not cut:
                carry += data
                continue
            block, carry = carry + memoryview(data)[:cut], data[cut:]
        else:
            block, carry = carry, None
        del data  # hold one copy of the block
        pos = 0
        while skip and pos < len(block):  # the header's physical lines
            lf = block.find(b"\n", pos)
            cr = block.find(b"\r", pos, len(block) if lf < 0 else lf)
            end = cr if 0 <= cr and cr + 1 != lf else lf if lf >= 0 else len(block) - 1
            pos, skip = end + 1, skip - 1
        if pos < len(block):
            yield block[pos:] if pos else block
        if carry is None:
            return


def _distinct(x):
    """The sorted distinct values of ``x``."""
    x = np.sort(x)
    new = np.ones(x.size, bool)
    new[1:] = x[1:] != x[:-1]
    return x[new]


def _groups(key):
    """(value, its rows) per distinct value of ``key``; rows ``slice(None)`` if all share one."""
    if key.size and (key == key[0]).all():
        return [(key[0].item(), slice(None))]
    return [(k, np.flatnonzero(key == k)) for k in _distinct(key).tolist()]


def _fields(a, lo, width):
    """The ``width`` bytes from each start in ``lo``, as raw ``V`` scalars: one copy per field."""
    return np.ndarray((a.size - width + 1,), f"V{width}", buffer=a, strides=(1,))[lo]


def _parse_block(block, columns, need, flag, ids):
    """The timestamps of the data rows in ``block``, and those and the ids of its injected rows.

    ``block`` holds whole lines with no quote character, so a comma always
    ends a field and ``\\r`` or ``\\n`` a row; the empty line inside
    ``\\r\\n`` is skipped with the blank ones.  ``ids`` maps identity bytes to
    ids and gains the new ones.  None if the block is not UTF-8 or holds a
    bad row or a row longer than ``csv.field_size_limit()`` bytes.
    """
    if not block.isascii():
        try:
            block.decode()
        except UnicodeDecodeError:
            return None
    a = np.frombuffer(block, np.uint8)
    # bounds: -1, then every comma and line end, then a.size if the file's
    # last line has no line end; field k of the row ending at bounds[e],
    # after the line end at bounds[s], spans bounds[s + k] + 1 to bounds[s + k + 1]
    sep = np.empty(a.size + 2, bool)
    np.equal(a, 44, out=sep[1:-1])
    sep[1:-1] |= a == 10
    sep[1:-1] |= a == 13
    sep[0], sep[-1] = True, block[-1] not in b"\r\n"
    bounds = np.flatnonzero(sep) - 1
    del sep
    e = np.append(np.flatnonzero(a[bounds[1:-1]] != 44) + 1, bounds.size - 1)
    s = np.concatenate(([0], e[:-1]))
    length = bounds[e] - bounds[s] - 1  # bytes in the row
    full = length > 0  # blank lines are skipped
    s, e = s[full], e[full]
    # csv counts the limit in characters, of which a row has at most as many as bytes
    if (e - s < need).any() or (length[full] > csv.field_size_limit()).any():
        return None
    stamps, idents, (lo, hi) = [(bounds[k:][s] + 1, bounds[k + 1 :][s]) for k in columns]
    ts = _decimals(block, a, *stamps)
    if ts is None or not np.isfinite(ts).all():
        return None
    hit = hi - lo == flag.size
    for j, byte in enumerate(flag.tolist()):  # clipped: a narrower field may end the block
        hit &= np.take(a, lo + j, mode="clip") == byte
    return ts, ts[hit], _identities(a, *idents, ids, hit)


def _decimals(block, a, lo, hi):
    """``float`` of each field ``block[lo:hi]``; None if one is not a number.

    A field of 1 to 19 digits and at most one point, whose digits read as
    an integer mantissa of at most 2**53, is mantissa / 10**k for k fraction
    digits: both are exact doubles, so the one rounding of the division is
    float()'s correctly rounded result (Clinger's fast path).  The fields of
    a width are gathered as a (width, rows) matrix, one contiguous array per
    byte column, and grouped by the position of their first point; a group's
    digit rows are joined pairwise.  Every other field goes through ``float``.
    """
    width, out, slow = hi - lo, np.empty(lo.size), np.ones(lo.size, bool)
    for w, rows in _groups(width):
        if not 1 <= w <= 20:  # no digit, or over 19 beside a point
            continue
        d = np.ascontiguousarray(_fields(a, lo[rows], w).view(np.uint8).reshape(-1, w).T)
        d -= 48  # a byte that is not a digit wraps to 10 or more, and the point to 254
        # w - j at a point in row j: the largest marks the first point, and none gives w
        point = w - ((d == 254) * np.arange(w, 0, -1, dtype=np.uint8)[:, None]).max(axis=0)
        val, bad = np.empty(point.size), np.ones(point.size, bool)
        for p, sub in _groups(point):
            digits = w - (p < w)
            if not 1 <= digits <= 19:
                continue
            pad = np.zeros(((1 << (digits - 1).bit_length()) - digits, d[0, sub].size), np.uint8)
            z = np.concatenate((pad, d[:p, sub], d[p + 1 :, sub]))  # a power of two of digit rows
            bad[sub] = z.max(axis=0) >= 10
            for scale, t in (10, "u1"), (100, "u2"), (10**4, "u4"), (10**8, "u8"), (10**16, "u8"):
                z = z[0::2].astype(t) * scale + z[1::2] if len(z) > 1 else z  # 2, 4, 8... digits
            val[sub] = z[0] / float(10 ** (digits - p if p < w else 0))
            bad[sub] |= z[0] > 2**53
        out[rows], slow[rows] = val, bad
    for r in np.flatnonzero(slow).tolist():
        try:
            out[r] = float(block[lo[r] : hi[r]].decode())
        except ValueError:
            return None
    return out


def _identities(a, lo, hi, ids, hit):
    """The id in ``ids`` of each field ``a[lo:hi]`` of a ``hit`` row.

    ``ids`` maps identity bytes to ids and gains those of every row.  Fields
    are told apart within each width: up to 8 bytes by a uint64 key with
    byte column j in bits 8j to 8j + 7, wider ones as raw ``V`` scalars.
    Both keep NUL bytes, which the ``S`` dtype would drop from the end.
    """
    width, out = hi - lo, np.empty(lo.size, np.intp)
    for w, rows in _groups(width):
        starts = lo[rows]
        if w > 8:
            keys = _fields(a, starts, w)
        else:
            keys = np.zeros(starts.size, np.uint64)
            for j in range(w):
                keys |= a[starts + j].astype(np.uint64) << (8 * j)
        distinct = _distinct(keys)
        raw = (distinct.astype("<u8") if w <= 8 else distinct).tobytes()
        new = [ids.setdefault(raw[i : i + w], len(ids)) for i in range(0, len(raw), keys.itemsize)]
        out[hit & (width == w)] = np.array(new)[distinct.searchsorted(keys[hit[rows]])]
    return out[hit]


def _bucket(path, round_window, n_rows, lo, hi, labels, hit_ts, hit_ids):
    """The trace of a scanned log: one arm per identity, one round per ``round_window`` s."""
    if not n_rows:
        raise InputFileError(f"{path} contains no data rows")
    t0 = float(lo)
    labels = sorted(labels)
    span = float(hi) - t0
    # n_rounds * len(labels) > MAX_TRACE_CELLS, tested before int() of a quotient that may be inf
    if not span / round_window < MAX_TRACE_CELLS // len(labels):
        raise InvalidConfigError(
            f"{path} spans {span:g} s: at round_window {round_window!r} its trace of "
            f"{len(labels)} arms would exceed {MAX_TRACE_CELLS} round-by-arm cells"
        )
    col = {ident: i for i, ident in enumerate(labels)}
    n_rounds = int(span / round_window) + 1
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
    return InputFileError(f"{path} is not UTF-8 text: {exc.reason}")


@dataclass
class PayoffProfile:
    """Location-dependent payoff weights: ``mu[i]`` is what location i is worth."""

    mu: np.ndarray

    def __post_init__(self):
        mu = self.mu = np.asarray(self.mu, dtype=float)
        if not np.all((0 < mu) & (mu <= 1)):  # NaN fails too
            raise InvalidConfigError("payoffs must lie in (0, 1]")
        with np.errstate(over="ignore"):  # the game value sums reciprocal payoffs
            if not np.isfinite(np.sum(1.0 / mu)):
                raise InvalidConfigError(f"payoffs' reciprocal sum overflows at {mu.min():.3g}")

    @property
    def n_arms(self):
        return self.mu.size

    @classmethod
    def homogeneous(cls, n_arms, value=1.0):
        return cls(mu=np.full(n_arms, float(value)))

