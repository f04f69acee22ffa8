"""Tests for reward processes: Bernoulli arms, intrusion traces, payoffs."""

import csv
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from vpbandit import environments
from vpbandit.environments import (
    BernoulliEnv,
    IntrusionTrace,
    PayoffProfile,
    bernoulli_rewards,
    ingest_can_log,
    synthesize_intrusion_trace,
)
from vpbandit.errors import (
    EmptyInputError,
    InputEncodingError,
    InvalidConfigError,
    RowParseError,
    SchemaError,
)
from vpbandit.game import play_round


class TestBernoulli:
    def test_degenerate_means(self):
        rng = np.random.default_rng(0)
        ones = bernoulli_rewards(BernoulliEnv(means=np.ones(4)), 3, rng)
        zeros = bernoulli_rewards(BernoulliEnv(means=np.zeros(4)), 3, rng)
        assert ones.tolist() == [[1.0] * 4] * 3
        assert zeros.tolist() == [[0.0] * 4] * 3

    def test_harmonic_means_match_empirically(self):
        env = BernoulliEnv.harmonic(10)
        np.testing.assert_allclose(env.means, 0.75 / np.arange(1, 11))
        rng = np.random.default_rng(1)
        draws = 100_000
        freq = bernoulli_rewards(env, draws, rng).sum(axis=0) / draws
        sigma = np.sqrt(env.means * (1 - env.means) / draws)
        assert np.all(np.abs(freq - env.means) <= 3 * sigma)

    def test_block_rows_are_the_per_round_draws(self):
        # the (rounds, N) block holds the doubles of one random(N) call per round
        env = BernoulliEnv.harmonic(6)
        r1, r2 = np.random.default_rng(2), np.random.default_rng(2)
        block = bernoulli_rewards(env, 50, r1)
        rows = [(r2.random(6) < env.means).astype(float) for _ in range(50)]
        assert block.tolist() == np.array(rows).tolist()
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_rejects_out_of_range_means(self):
        with pytest.raises(InvalidConfigError):
            BernoulliEnv(means=np.array([0.5, 1.2]))


class TestSyntheticTrace:
    def test_requires_attacked_arms(self):
        with pytest.raises(InvalidConfigError):
            synthesize_intrusion_trace(5, (), 100, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("window", [0.0, -0.25])
    def test_rejects_nonpositive_round_window(self, window):
        # no burst could land on a round of width <= 0
        with pytest.raises(InvalidConfigError, match="round_window"):
            synthesize_intrusion_trace(
                5, (1,), 100, round_window=window, rng=np.random.default_rng(0)
            )

    def test_saturated_trace_is_all_ones(self):
        tr = synthesize_intrusion_trace(
            3,
            attacked=(0, 1, 2),
            horizon=40,
            burst_length_range=(1000.0, 1000.0),
            n_bursts=(1, 1, 1),
            rng=np.random.default_rng(0),
        )
        assert np.all(tr.indicators == 1)

    def test_only_attacked_columns_are_nonzero(self):
        tr = synthesize_intrusion_trace(
            26, attacked=(3, 17), horizon=7000, rng=np.random.default_rng(2)
        )
        density = tr.attack_density()
        quiet = [i for i in range(26) if i not in (3, 17)]
        assert np.all(density[quiet] == 0.0)
        assert np.all(density[[3, 17]] > 0.0)

    def test_default_density_matches_generator_parameters(self):
        # expected per-arm coverage from the generator's own parameters:
        # 150 bursts of mean 4 s in 0.25 s rounds over a 1750 s horizon
        horizon, window = 7000, 0.25
        per_arm, mean_burst = 150, 4.0
        expected = per_arm * (mean_burst / window) / horizon  # = 0.343
        assert 0.05 <= expected <= 0.6
        tr = synthesize_intrusion_trace(
            26, attacked=(3, 17), horizon=horizon, rng=np.random.default_rng(3)
        )
        density = tr.attack_density()[[3, 17]]
        assert np.all(density >= 0.05) and np.all(density <= 0.6)
        # realized coverage tracks the computed expectation
        assert np.all(np.abs(density - expected) < 0.1)

    def test_per_arm_burst_counts(self):
        tr = synthesize_intrusion_trace(
            10,
            attacked=(1, 2),
            horizon=4000,
            n_bursts=(60, 10),
            rng=np.random.default_rng(4),
        )
        density = tr.attack_density()
        assert density[1] > 3 * density[2]

    def test_save_roundtrip(self, tmp_path):
        tr = synthesize_intrusion_trace(
            4, attacked=(1,), horizon=50, n_bursts=5, rng=np.random.default_rng(5)
        )
        mpath, spath = tmp_path / "trace.csv", tmp_path / "trace.meta"
        tr.save(mpath, spath)
        lines = mpath.read_text().splitlines()
        assert lines[0] == "round,arm_0,arm_1,arm_2,arm_3"
        assert len(lines) == 51
        meta = dict(line.split("=", 1) for line in spath.read_text().splitlines())
        assert meta["rounds"] == "50" and meta["arms"] == "4"


def _write_log(path, rows, header="Timestamp,CAN_ID,Flag"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestIngest:
    def test_single_injected_row(self, tmp_path):
        f = tmp_path / "log.csv"
        _write_log(
            f,
            [
                "0.00,idA,T",
                "0.10,idB,R",
                "0.30,idA,R",
                "0.40,idB,R",
            ],
        )
        tr = ingest_can_log(f)
        assert tr.arm_labels == ["idA", "idB"]
        assert tr.indicators[0].tolist() == [1, 0]
        assert tr.indicators[1:].sum() == 0

    def test_huge_window_collapses_to_one_round(self, tmp_path):
        f = tmp_path / "log.csv"
        _write_log(f, ["0.0,idA,T", "5.0,idB,T", "9.0,idA,R"])
        tr = ingest_can_log(f, round_window=100.0)
        assert tr.n_rounds == 1
        assert tr.indicators[0].tolist() == [1, 1]

    def test_car_hacking_style_file(self, tmp_path):
        # 26 identities; two of them carry injected rows
        rng = np.random.default_rng(6)
        ids = [f"{0x100 + k:04x}" for k in range(26)]
        attacked = {ids[5], ids[20]}
        rows = []
        t = 0.0
        for _ in range(2000):
            ident = ids[int(rng.integers(26))]
            flag = "T" if ident in attacked and rng.random() < 0.5 else "R"
            rows.append(f"{t:.4f},{ident},{flag}")
            t += 0.01
        f = tmp_path / "log.csv"
        _write_log(f, rows)
        tr = ingest_can_log(f)
        assert tr.n_arms == 26
        density = tr.attack_density()
        assert int(np.count_nonzero(density)) == 2
        # independent count: injected rows from the raw text, per identity
        raw = [ln for ln in f.read_text().splitlines()[1:] if ln.endswith(",T")]
        counted = {ln.split(",")[1] for ln in raw}
        flagged_arms = {tr.arm_labels[i] for i in np.flatnonzero(density)}
        assert flagged_arms == counted

    def test_schema_and_row_errors(self, tmp_path):
        f = tmp_path / "bad.csv"
        _write_log(f, ["0.0,idA,T"], header="time,id,flag")
        with pytest.raises(SchemaError):
            ingest_can_log(f)
        f2 = tmp_path / "badrow.csv"
        _write_log(f2, ["oops,idA,T"])
        with pytest.raises(RowParseError) as exc:
            ingest_can_log(f2)
        assert exc.value.line_number == 2
        f3 = tmp_path / "empty.csv"
        _write_log(f3, [])
        with pytest.raises(EmptyInputError):
            ingest_can_log(f3)

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["nan,idA,R", "0.1,idB,T"], 2),  # leading NaN used to crash the bucketing
            (["0.0,idA,R", "nan,idB,T", "0.2,idA,R"], 3),  # NaN used to be dropped silently
            (["0.0,idA,R", "inf,idB,R"], 3),
            (["-inf,idA,T", "0.0,idB,R"], 2),
        ],
    )
    def test_rejects_non_finite_timestamps(self, tmp_path, rows, line):
        f = tmp_path / "log.csv"
        _write_log(f, rows)
        with pytest.raises(RowParseError, match="non-finite timestamp") as exc:
            ingest_can_log(f)
        assert exc.value.line_number == line

    @pytest.mark.parametrize("last", ["0.1", "0.1,idB"])
    def test_short_row_fails_with_its_line(self, tmp_path, last):
        # a missing identity used to crash in sorted(); a missing flag read as not injected
        f = tmp_path / "log.csv"
        f.write_text(f"Timestamp,CAN_ID,Flag\n0.0,idA,T\n{last}\n")
        with pytest.raises(RowParseError, match="expected 3 fields") as exc:
            ingest_can_log(f)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            # two blank lines before the bad row: the file line, not the row count
            ("Timestamp,CAN_ID,Flag\n0.0,idA,T\n\n\noops,idB,R\n", 5),
            # a quoted identity that spans two lines
            ('Timestamp,CAN_ID,Flag\n0.0,"id\nA",T\n0.1,idB,R\noops,idB,R\n', 5),
            # CRLF line ends with a blank line
            ("Timestamp,CAN_ID,Flag\r\n0.0,idA,T\r\n\r\noops,idB,R\r\n", 4),
            # the bad row itself spans lines: its first line is reported
            ('Timestamp,CAN_ID,Flag\n0.0,idA,T\noops,"id\nB",R\n', 3),
        ],
    )
    def test_error_reports_the_physical_line(self, tmp_path, text, line):
        f = tmp_path / "log.csv"
        f.write_bytes(text.encode())
        with pytest.raises(RowParseError, match="unparseable timestamp 'oops'") as exc:
            ingest_can_log(f)
        assert exc.value.line_number == line

    def test_blank_lines_and_crlf_are_skipped(self, tmp_path):
        f = tmp_path / "log.csv"
        f.write_bytes(b"Timestamp,CAN_ID,Flag\r\n\r\n0.0,idA,T\r\n\r\n0.3,idB,T\r\n\r\n")
        tr = ingest_can_log(f)
        assert tr.arm_labels == ["idA", "idB"]
        assert tr.indicators.tolist() == [[1, 0], [0, 1]]
        assert tr.metadata["n_rows"] == 2

    def test_rejects_nonpositive_round_window(self, tmp_path):
        f = tmp_path / "log.csv"
        _write_log(f, ["0.0,idA,T", "0.3,idB,T"])
        for window in (0.0, -0.25):
            with pytest.raises(InvalidConfigError, match="round_window"):
                ingest_can_log(f, round_window=window)

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_fails_with_its_line(self, tmp_path, line):
        # csv.Error used to end the CLI with a traceback
        big = "x" * (csv.field_size_limit() + 1)
        lines = ["Timestamp,CAN_ID,Flag", "0.0,idA,T", "0.1,idB,R"]
        lines[line - 1] += big
        f = tmp_path / "log.csv"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(RowParseError, match="malformed CSV") as exc:
            ingest_can_log(f)
        assert exc.value.line_number == line

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet exports start UTF-8 with a BOM; the header used to read "\ufeffTimestamp"
        f = tmp_path / "log.csv"
        text = "Timestamp,CAN_ID,Flag\n0.0,idA,T\n0.3,idB,R\n0.6,idB,T\n"
        f.write_bytes(text.encode())
        plain = ingest_can_log(f)
        f.write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked = ingest_can_log(f)
        assert marked.arm_labels == plain.arm_labels == ["idA", "idB"]
        np.testing.assert_array_equal(marked.indicators, plain.indicators)
        assert marked.metadata == plain.metadata

    @pytest.mark.parametrize(
        "bad, message",
        [("0.1", "expected 3 fields"), ("oops,idB,R", "unparseable timestamp"),
         ("nan,idB,R", "non-finite timestamp")],
    )
    @pytest.mark.parametrize("line", [3, 700])
    def test_bad_row_after_a_byte_order_mark_reports_its_line(self, tmp_path, bad, message, line):
        rows = [f"{0.01 * k:.2f},idA,R" for k in range(800)]
        rows[line - 2] = bad
        f = tmp_path / "log.csv"
        f.write_bytes(b"\xef\xbb\xbf" + ("Timestamp,CAN_ID,Flag\n" + "\n".join(rows)).encode())
        with pytest.raises(RowParseError, match=message) as exc:
            ingest_can_log(f)
        assert exc.value.line_number == line

    def test_byte_order_mark_before_bytes_that_are_not_utf8(self, tmp_path):
        f = tmp_path / "log.csv"
        f.write_bytes(b"\xef\xbb\xbfTimestamp,CAN_ID,Flag\n0.0,id\xff,T\n")
        with pytest.raises(InputEncodingError, match="is not UTF-8"):
            ingest_can_log(f)


# A remapped layout: the flag first, an unused column, the timestamp last.
_REMAP = {"timestamp": "time", "identity": "ident", "flag": "kind", "injected_value": "ATTACK"}


def _remapped_log(path, n_rows, seed):
    """A log of ``n_rows`` rows in the remapped layout, with quoted fields."""
    rng = np.random.default_rng(seed)
    ids = ["0x1A", "0x2B", "ext,7", 'say "hi"', "0x3C"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["kind", "note", "ident", "time"])
        t = 100.0
        for k in range(n_rows):
            t += float(rng.uniform(0.0, 0.004))
            flag = "ATTACK" if rng.random() < 0.05 else "NORMAL"
            note = "two\nlines" if k % 997 == 0 else ""
            writer.writerow([flag, note, ids[int(rng.integers(len(ids)))], repr(t)])


def _ingest_oracle(path, round_window):
    """(labels, indicators, n_rows) from a row-by-row reading of a remapped log."""
    with open(path, newline="") as f:
        rows = [
            (float(r["time"]), r["ident"], r["kind"] == "ATTACK") for r in csv.DictReader(f)
        ]
    t0 = min(ts for ts, _, _ in rows)
    labels = sorted({ident for _, ident, _ in rows})
    n_rounds = int((max(ts for ts, _, _ in rows) - t0) / round_window) + 1
    indicators = np.zeros((n_rounds, len(labels)), dtype=np.int8)
    for ts, ident, injected in rows:
        if injected:
            indicators[int((ts - t0) / round_window), labels.index(ident)] = 1
    return labels, indicators, len(rows)


class TestIngestChunks:
    def test_matches_row_by_row_oracle(self, tmp_path):
        f = tmp_path / "log.csv"
        _remapped_log(f, 2 * environments.INGEST_CHUNK + 5000, seed=7)
        labels, indicators, n_rows = _ingest_oracle(f, 0.25)
        tr = ingest_can_log(f, column_map=_REMAP)
        assert tr.arm_labels == labels
        assert tr.n_rounds == indicators.shape[0]
        assert tr.metadata["n_rows"] == n_rows
        assert tr.metadata["attack_density_mean"] == float(indicators.mean())
        np.testing.assert_array_equal(tr.indicators, indicators)
        assert tr.indicators.sum() > 100

    @staticmethod
    def _log_with(tmp_path, bad):
        """A plain log with row ``index`` of ``bad`` replaced; data rows start on line 2."""
        rows = [f"{0.001 * k:.3f},id{k % 7},{'T' if k % 11 == 0 else 'R'}"
                for k in range(environments.INGEST_CHUNK + 50)]
        for index, row in bad.items():
            rows[index] = row
        f = tmp_path / "log.csv"
        _write_log(f, rows)
        return f

    @pytest.mark.parametrize(
        "row, message",
        [
            ("zz,id1,R", "unparseable timestamp"),
            ("nan,id1,R", "non-finite timestamp"),
            ("1.0,id1", "expected 3 fields"),
        ],
    )
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bad_row_at_a_chunk_boundary(self, tmp_path, row, message, offset):
        index = environments.INGEST_CHUNK + offset
        f = self._log_with(tmp_path, {index: row})
        with pytest.raises(RowParseError, match=message) as exc:
            ingest_can_log(f)
        assert exc.value.line_number == index + 2

    @pytest.mark.parametrize(
        "first, second",
        [
            ("nan,id1,R", "zz,id1,R"),
            ("inf,id1,R", "1.0"),
            ("1.0,id1", "zz,id1,R"),
            ("1.0,id1", "-inf,id1,R"),
            ("zz,id1,R", "1.0"),
        ],
    )
    def test_first_bad_row_in_file_order_is_reported(self, tmp_path, first, second):
        base = environments.INGEST_CHUNK + 3
        f = self._log_with(tmp_path, {base: first, base + 20: second})
        with pytest.raises(RowParseError) as exc:
            ingest_can_log(f)
        assert exc.value.line_number == base + 2


def test_save_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(8)
    for indicators in (rng.integers(0, 2, (700, 5)).astype(np.int8), np.zeros((3, 2)),
                       np.zeros((0, 4), dtype=np.int8), rng.random((10, 3)) < 0.5):
        tr = IntrusionTrace(indicators=indicators, arm_labels=list("abcde"[: indicators.shape[1]]))
        tr.save(tmp_path / "m.csv", tmp_path / "m.meta")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["round"] + [f"arm_{i}" for i in range(tr.n_arms)])
        for t in range(tr.n_rounds):
            writer.writerow([t] + [int(v) for v in tr.indicators[t]])
        assert (tmp_path / "m.csv").read_bytes() == expected.getvalue().encode()


def _round_payoffs(prof, arm, chosen):
    """(attacker, defender) payoffs of one round with both moves fixed."""
    chosen = np.asarray(chosen)
    attacker = SimpleNamespace(select=lambda rng: arm, update=lambda *a: None)
    defender = SimpleNamespace(play=lambda m, rng: (chosen, None, None), update=lambda *a: None)
    rng = np.random.default_rng(0)
    _, _, r, s = play_round(attacker, defender, chosen.size, prof, rng, rng)
    return r, s


class TestPayoffs:
    def test_homogeneous_identity(self):
        prof = PayoffProfile.homogeneous(4)
        assert _round_payoffs(prof, 2, [0, 1]) == (1.0, 0.0)

    def test_direct_product(self):
        prof = PayoffProfile(mu=np.full(3, 0.5))
        assert _round_payoffs(prof, 0, [1]) == (0.5, 0.0)

    def test_canonical_ordering(self):
        prof = PayoffProfile(mu=np.array([0.2, 0.9, 0.4]))
        np.testing.assert_allclose(prof.mu, [0.9, 0.4, 0.2])
        assert prof.order.tolist() == [1, 2, 0]

    def test_defender_scores_the_caught_location(self):
        # the defender scores the payoff of the one location it catches
        prof = PayoffProfile(mu=np.array([0.9, 0.4, 0.2]))
        assert _round_payoffs(prof, 1, [0, 1]) == (0.0, pytest.approx(0.4))
        assert _round_payoffs(prof, 2, [0, 1]) == (pytest.approx(0.2), 0.0)

    def test_rejects_nonpositive_payoffs(self):
        with pytest.raises(InvalidConfigError):
            PayoffProfile(mu=np.array([0.5, 0.0]))


class TestIntrusionTrace:
    def test_validates_shape_and_labels(self):
        with pytest.raises(InvalidConfigError):
            IntrusionTrace(indicators=np.zeros((4, 2)), arm_labels=["a"])
        with pytest.raises(InvalidConfigError):
            IntrusionTrace(indicators=np.zeros((4, 2)), arm_labels=["a", "a"])
