"""Tests for reward processes: Bernoulli arms, intrusion traces, payoffs."""

import csv
import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vpbandit import environments
from vpbandit.environments import (
    BernoulliEnv,
    IntrusionTrace,
    PayoffProfile,
    bernoulli_rewards,
    ingest_can_log,
    synthesize_intrusion_trace,
)
from vpbandit.errors import InputFileError, InvalidConfigError, RowParseError
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
        with pytest.raises(InvalidConfigError, match=r"Bernoulli means must lie in \[0, 1\]"):
            BernoulliEnv(means=np.array([0.5, 1.2]))


class TestSyntheticTrace:
    def test_requires_attacked_arms(self):
        with pytest.raises(InvalidConfigError, match="attacked arm set must be nonempty"):
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

    def test_subnormal_round_window_saturates_the_bursts(self):
        # (t + length) / 1e-320 is inf: the burst runs to the last round
        tr = synthesize_intrusion_trace(
            4, attacked=(1,), horizon=30, round_window=1e-320, rng=np.random.default_rng(0)
        )
        assert tr.indicators[:, 1].tolist() == [1] * 30
        assert not tr.indicators[:, [0, 2, 3]].any()

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
        with pytest.raises(InputFileError, match=r"missing column 'Timestamp' \(for timestamp\)"):
            ingest_can_log(f)
        f2 = tmp_path / "badrow.csv"
        _write_log(f2, ["oops,idA,T"])
        with pytest.raises(RowParseError) as exc:
            ingest_can_log(f2)
        assert exc.value.line_number == 2
        f3 = tmp_path / "empty.csv"
        _write_log(f3, [])
        with pytest.raises(InputFileError, match="empty.csv contains no data rows"):
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

    def test_flag_value_that_no_field_can_hold(self, tmp_path):
        # a lone surrogate can come from a JSON config; no UTF-8 field equals it
        f = tmp_path / "log.csv"
        _write_log(f, ["0.0,idA,T", "0.3,idB,R"])
        tr = ingest_can_log(f, column_map={"injected_value": "\ud800"})
        assert tr.arm_labels == ["idA", "idB"] and tr.indicators.sum() == 0

    def test_byte_order_mark_before_bytes_that_are_not_utf8(self, tmp_path):
        f = tmp_path / "log.csv"
        f.write_bytes(b"\xef\xbb\xbfTimestamp,CAN_ID,Flag\n0.0,id\xff,T\n")
        with pytest.raises(InputFileError, match="is not UTF-8"):
            ingest_can_log(f)

    @pytest.mark.parametrize("window", [0.25, 1e-300])
    def test_stray_timestamp_fails_before_the_trace_is_allocated(self, tmp_path, window):
        # 4e15 rounds used to end in a MemoryError for 7.11 PiB; at 1e-300 s the count is inf
        f = tmp_path / "log.csv"
        _write_log(f, ["0.0,idA,T", "1e15,idB,R"])
        with pytest.raises(InvalidConfigError, match=r"spans 1e\+15 s: at round_window"):
            ingest_can_log(f, round_window=window)

    def test_cell_bound_is_rounds_times_arms(self, tmp_path, monkeypatch):
        # rows 1.25 s apart in 0.25 s rounds: 6 rounds of 2 arms
        f = tmp_path / "log.csv"
        _write_log(f, ["0.0,idA,T", "1.25,idB,R"])
        monkeypatch.setattr(environments, "MAX_TRACE_CELLS", 12)
        assert ingest_can_log(f).indicators.shape == (6, 2)
        monkeypatch.setattr(environments, "MAX_TRACE_CELLS", 11)
        with pytest.raises(InvalidConfigError, match="2 arms would exceed 11 round-by-arm cells"):
            ingest_can_log(f)


# A remapped layout: the flag first, an unused column, the timestamp last.
_REMAP = {"timestamp": "time", "identity": "ident", "flag": "kind", "injected_value": "ATTACK"}


def _remapped_log(path, n_rows, seed, plain=0):
    """A log of ``n_rows`` rows in the remapped layout, with quoted fields after the first ``plain``."""
    rng = np.random.default_rng(seed)
    ids = ["0x1A", "0x2B", "ext,7", 'say "hi"', "0x3C"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["kind", "note", "ident", "time"])
        t = 100.0
        for k in range(n_rows):
            t += float(rng.uniform(0.0, 0.004))
            flag = "ATTACK" if rng.random() < 0.05 else "NORMAL"
            note = "two\nlines" if k % 997 == 0 and k >= plain else ""
            pool = ids if k >= plain else ids[:2] + ids[4:]
            ident = pool[int(rng.integers(len(pool)))]
            writer.writerow([flag, note, ident, repr(t)])


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


def _block_rows(path):
    """The data rows in each block of ``path`` as the byte parser cuts it (``\\n`` line ends)."""
    with open(path, "rb") as f:
        return [block.count(b"\n") for block in environments._blocks(f, 1)]


class TestIngestChunks:
    def test_matches_row_by_row_oracle(self, tmp_path):
        f = tmp_path / "log.csv"
        _remapped_log(f, 2 * environments.INGEST_BLOCK // 30 + 5000, seed=7)
        assert f.stat().st_size > 2 * environments.INGEST_BLOCK
        labels, indicators, n_rows = _ingest_oracle(f, 0.25)
        tr = ingest_can_log(f, column_map=_REMAP)
        assert tr.arm_labels == labels
        assert tr.n_rounds == indicators.shape[0]
        assert tr.metadata["n_rows"] == n_rows
        assert tr.metadata["attack_density_mean"] == float(indicators.mean())
        np.testing.assert_array_equal(tr.indicators, indicators)
        assert tr.indicators.sum() > 100

    def test_first_quote_after_the_first_block_restarts_the_ingest(self, tmp_path):
        f = tmp_path / "log.csv"
        plain = environments.INGEST_BLOCK // 20
        _remapped_log(f, plain + 3000, seed=8, plain=plain)
        assert b'"' not in f.read_bytes()[: environments.INGEST_BLOCK + 3]
        labels, indicators, n_rows = _ingest_oracle(f, 0.25)
        tr = ingest_can_log(f, column_map=_REMAP)
        assert tr.arm_labels == labels and "ext,7" in labels
        assert tr.metadata["n_rows"] == n_rows
        np.testing.assert_array_equal(tr.indicators, indicators)

    @staticmethod
    def _log_with(tmp_path, bad):
        """A plain log with row ``index`` of ``bad`` replaced; data rows start on line 2.

        A bad row with an ``id1`` field is padded there to the length of the
        row it replaces, so the blocks are cut where they are without it.
        """
        rows = [f"{0.001 * k:.3f},id{k % 7},{'T' if k % 11 == 0 else 'R'}"
                for k in range(environments.INGEST_BLOCK // 8)]
        for index, row in bad.items():
            rows[index] = row.replace("id1", "id1" + "x" * (len(rows[index]) - len(row)))
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
        # offset -1: the last row of the first block; 0: the first row of the next
        boundary = _block_rows(self._log_with(tmp_path, {}))[0]
        index = boundary + offset
        f = self._log_with(tmp_path, {index: row})
        assert _block_rows(f)[0] == boundary
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
        base = _block_rows(self._log_with(tmp_path, {}))[0] + 3
        f = self._log_with(tmp_path, {base: first, base + 20: second})
        with pytest.raises(RowParseError) as exc:
            ingest_can_log(f)
        assert exc.value.line_number == base + 2

    @pytest.mark.parametrize("bad", [None, "zz,id1,R"])
    def test_crlf_split_by_every_cut(self, tmp_path, monkeypatch, bad):
        # block sizes from 5 to 40 bytes put some cut between every \r and its \n
        rows = [f"{0.01 * k:.2f},id{k % 3},{'T' if k % 4 == 0 else 'R'}" for k in range(60)]
        if bad:
            rows[37] = bad
        f = tmp_path / "log.csv"
        f.write_bytes(("\r\n".join(["Timestamp,CAN_ID,Flag"] + rows) + "\r\n").encode())
        cmap = dict(environments.CAR_HACKING_COLUMNS)
        expected = _outcome(f, environments._scan_rows, cmap)
        for size in range(5, 41):
            monkeypatch.setattr(environments, "INGEST_BLOCK", size)
            with open(f, "rb") as fh:
                blocks = list(environments._blocks(fh, 1))
            assert all(not b.startswith(b"\n") for b in blocks[1:])
            assert (environments._scan_bytes(f, cmap) is None) == bool(bad)
            assert _outcome(f, environments._scan_bytes, cmap) == expected
        if bad:
            assert expected == (39, "line 39: unparseable timestamp 'zz'")

    @pytest.mark.parametrize("bad_after", [False, True])
    def test_line_longer_than_a_block(self, tmp_path, bad_after):
        limit = csv.field_size_limit()
        wide = "x" * limit  # as long as a field may be
        rows = [f"{0.1 * k:.1f},id{k % 2},{'T' if k % 3 == 0 else 'R'},,," for k in range(40)]
        rows[5] = f"0.5,idW,T,{wide},{wide},{wide}"
        if bad_after:
            rows[30] = "0.1,id1"
        f = tmp_path / "log.csv"
        _write_log(f, rows, header="Timestamp,CAN_ID,Flag,a,b,c")
        assert len(rows[5]) > environments.INGEST_BLOCK
        cmap = dict(environments.CAR_HACKING_COLUMNS)
        assert environments._scan_bytes(f, cmap) is None  # a row of over `limit` bytes
        outcome = _outcome(f, environments._scan_bytes, cmap)
        assert outcome == _outcome(f, environments._scan_rows, cmap)
        if bad_after:
            assert outcome == (32, "line 32: expected 3 fields, got 2")
        else:
            assert "idW" in outcome[0]

    @pytest.mark.parametrize(
        "header, names",
        [
            ("Timestamp,CAN_ID,Flag\r", {}),
            ('"Time\rstamp",CAN_ID,Flag\n', {"timestamp": "Time\rstamp"}),
            ('"Time\r\nstamp",CAN_ID,"Fl\nag"\r\n', {"timestamp": "Time\r\nstamp", "flag": "Fl\nag"}),
        ],
    )
    @pytest.mark.parametrize("end", ["\r", "\n"])
    def test_header_lines_are_skipped_at_every_cut(self, tmp_path, monkeypatch, header, names, end):
        # the data rows start after the header's physical lines, however they end
        rows = [f"{0.01 * k:.2f},id{k % 3},{'T' if k % 4 == 0 else 'R'}" for k in range(30)]
        f = tmp_path / "log.csv"
        f.write_bytes((header + end.join(rows) + end).encode())
        cmap = {**environments.CAR_HACKING_COLUMNS, **names}
        expected = _outcome(f, environments._scan_rows, cmap)
        assert expected[3]["n_rows"] == 30
        for size in range(5, 41):
            monkeypatch.setattr(environments, "INGEST_BLOCK", size)
            assert environments._scan_bytes(f, cmap) is not None
            assert _outcome(f, environments._scan_bytes, cmap) == expected

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        # a whole-file read holds several bytes per byte of the log at once
        def peak(n_blocks):
            rows, size, k = [], 0, 0
            while size < n_blocks * environments.INGEST_BLOCK:
                rows.append(f"{0.001 * k:.3f},{k % 26:04x},{'T' if k % 5000 == 0 else 'R'}")
                size += len(rows[-1]) + 1
                k += 1
            f = tmp_path / f"log{n_blocks}.csv"
            _write_log(f, rows)
            del rows
            ingest_can_log(f)  # warm up
            tracemalloc.start()
            try:
                ingest_can_log(f)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2), peak(8)
        assert large < small + environments.INGEST_BLOCK // 4, (small, large)


def _outcome(path, scan, cmap, round_window=0.25):
    """(labels, indicator bytes, shape, metadata) of a scan, or (line, message) of its error.

    A log that ``scan`` declines is read by the row loop, as ``ingest_can_log`` does.
    """
    try:
        result = scan(path, cmap) or environments._scan_rows(path, cmap)
        tr = environments._bucket(path, round_window, *result)
    except RowParseError as exc:
        return exc.line_number, str(exc)
    assert tr.indicators.dtype == np.int8
    return tr.arm_labels, tr.indicators.tobytes(), tr.indicators.shape, tr.metadata


# Timestamp forms float() reads: exponents, underscores, signs, spaces,
# leading zeros, non-ASCII digits, and mantissas on both sides of 2**53.
_STAMP_FORMS = [
    "{t:.6f}", "{t!r}", "{t:e}", "{t:.3E}", "{t:_.4f}", "+{t:.2f}", " {t:.5f}", "{t:.1f} ",
    "\t{t:.3f}", "000{t:.4f}", "{t:.0f}.", "{t:.0f}", "{t:.17f}", "{t:.20f}",
]
_STAMP_SPECIALS = [
    "900.7199254740992", "900.7199254740993", "900.7199254740991", "900.71992547409920",
    "0900.7199254740993", "900.71992547409930", "٩٠٠.٥", "9_0_0.25", "901.0000000000000000001",
]
# identities: non-ASCII, wider than 8 bytes, NUL bytes (also at the end), empty
_IDENTITIES = ["0x1A", "7FF", "", "ünï", "日本語", "0x18FEF100ext", "a" * 9, "id", "id\x00",
               "\x00id", "id\x00\x00", "wider than eight\x00"]


def _fuzzed_log(path, seed, n_rows, bad=None):
    """A quote-free log with mixed line ends, blank lines and extra columns; returns the column map.

    ``bad`` replaces the timestamp of one row (or, for ``"short"``, cuts the row short).
    """
    rng = np.random.default_rng(seed)
    names = {"timestamp": "t", "identity": "ident", "flag": "kind"}
    header = ["bus", "t", "note", "kind", "ident", "extra"]
    order = rng.permutation(len(header))
    header = [header[i] for i in order]
    ends = ["\n", "\r\n", "\r"]
    where = int(rng.integers(n_rows))
    lines = [",".join(header)]
    t = 900.0
    for k in range(n_rows):
        t += float(rng.uniform(0.0, 0.05))
        form = int(rng.integers(len(_STAMP_FORMS) + 3))
        stamp = (_STAMP_FORMS[form].format(t=t) if form < len(_STAMP_FORMS)
                 else _STAMP_SPECIALS[int(rng.integers(len(_STAMP_SPECIALS)))])
        fields = {
            "bus": str(int(rng.integers(3))), "t": stamp, "note": ["", "n", "日"][k % 3],
            "kind": ["ATT", "ok", "", "ATTT", "att"][int(rng.integers(5))],
            "ident": _IDENTITIES[int(rng.integers(len(_IDENTITIES)))], "extra": "",
        }
        row = [fields[h] for h in header]
        if k == where and bad is not None:
            if bad == "short":
                row = row[: max(header.index(h) for h in names.values())]
            else:
                row[header.index("t")] = bad
        line = ",".join(row)
        if rng.random() < 0.1 and k != where:
            line += ",spare"
        lines.append(line)
        if rng.random() < 0.05:
            lines.append("")  # a blank line
    text = "".join(line + ends[int(rng.integers(3))] for line in lines)
    if rng.random() < 0.5:
        text = text.rstrip("\r\n")  # the last line without its end
    path.write_bytes(text.encode())
    return {**names, "injected_value": "ATT"}


class TestIngestPathsAgree:
    """Ingest's rule against the ``csv.reader`` row loop on logs without quotes."""

    @pytest.mark.parametrize("block", [7, 64, 1000, None])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_trace(self, tmp_path, monkeypatch, block, seed):
        if block:
            monkeypatch.setattr(environments, "INGEST_BLOCK", block)
        f = tmp_path / "log.csv"
        cmap = _fuzzed_log(f, seed, 600)
        expected = _outcome(f, environments._scan_rows, cmap)
        assert not isinstance(expected[0], int)  # not an error
        assert environments._scan_bytes(f, cmap) is not None
        assert _outcome(f, environments._scan_bytes, cmap) == expected
        labels = expected[0]
        assert {"id", "id\x00", "id\x00\x00", "", "日本語", "wider than eight\x00"} <= set(labels)

    @pytest.mark.parametrize(
        "bad", ["short", "abc", "", "1.2.3", "0x10", "- 1", "inf", "nan", "-inf", "1e999"]
    )
    @pytest.mark.parametrize("block", [64, None])
    def test_same_error(self, tmp_path, monkeypatch, bad, block):
        if block:
            monkeypatch.setattr(environments, "INGEST_BLOCK", block)
        f = tmp_path / "log.csv"
        cmap = _fuzzed_log(f, 4, 300, bad=bad)
        expected = _outcome(f, environments._scan_rows, cmap)
        assert isinstance(expected[0], int)
        assert environments._scan_bytes(f, cmap) is None
        assert _outcome(f, environments._scan_bytes, cmap) == expected

    @pytest.mark.parametrize("block", [7, 64, None])
    def test_plain_logs_stay_on_the_byte_path(self, tmp_path, monkeypatch, block):
        if block:
            monkeypatch.setattr(environments, "INGEST_BLOCK", block)
        # shaped like the benchmark's: epoch timestamps in microseconds, four-hex-digit identities
        rng = np.random.default_rng(5)
        stamps = 1_478_198_376_000_000 + np.cumsum(rng.integers(0, 2000, 3000))
        rows = [f"{s // 1_000_000}.{s % 1_000_000:06d},{int(rng.integers(0x800)):04x},"
                f"{'T' if rng.random() < 0.05 else 'R'}" for s in stamps.tolist()]
        f = tmp_path / "log.csv"
        _write_log(f, rows)
        cmap = dict(environments.CAR_HACKING_COLUMNS)
        scan = environments._scan_bytes(f, cmap)
        assert scan is not None and scan[0] == 3000
        assert _outcome(f, environments._scan_bytes, cmap) == _outcome(
            f, environments._scan_rows, cmap
        )
        # a row of exactly `limit` bytes stays; one byte more goes to the row loop
        old = csv.field_size_limit(max(map(len, rows)))
        try:
            assert environments._scan_bytes(f, cmap) is not None
            rows[7] += "0"
            _write_log(f, rows)
            assert environments._scan_bytes(f, cmap) is None
        finally:
            csv.field_size_limit(old)

    @pytest.mark.parametrize("block", [64, None])
    def test_field_limit_counts_characters(self, tmp_path, monkeypatch, block):
        if block:
            monkeypatch.setattr(environments, "INGEST_BLOCK", block)
        old = csv.field_size_limit(40)
        try:
            f = tmp_path / "log.csv"
            cmap = dict(environments.CAR_HACKING_COLUMNS)
            rows = [f"{0.1 * k:.1f},id{k % 2},T," + "é" * 40 for k in range(20)]  # 80 bytes
            _write_log(f, rows, header="Timestamp,CAN_ID,Flag,note")
            fine = _outcome(f, environments._scan_bytes, cmap)
            assert fine == _outcome(f, environments._scan_rows, cmap)
            assert fine[3]["n_rows"] == 20
            rows[12] += "é"
            _write_log(f, rows, header="Timestamp,CAN_ID,Flag,note")
            too_long = _outcome(f, environments._scan_bytes, cmap)
            assert too_long == _outcome(f, environments._scan_rows, cmap)
            assert too_long[0] == 14 and "field larger than field limit" in too_long[1]
        finally:
            csv.field_size_limit(old)


def test_decimal_kernel_matches_float_bit_for_bit():
    rng = np.random.default_rng(53)
    n = 200_000
    digits = (rng.integers(0, 10, (n, 30)) + 48).astype(np.uint8)
    int_len = rng.integers(0, 13, n).tolist()
    frac_len = rng.integers(0, 19, n).tolist()
    form = rng.integers(0, 4, n).tolist()  # point inside, none, trailing, leading zeros
    texts = []
    rows = [digits[j].tobytes().decode() for j in range(n)]
    for row, i, k, kind in zip(rows, int_len, frac_len, form):
        whole, frac = row[:i], row[i : i + k]
        if kind == 1 or not frac:
            texts.append(whole + frac or "0")
        elif kind == 2:
            texts.append((whole or "7") + ".")
        elif kind == 3:
            texts.append("000" + whole + "." + frac)
        else:
            texts.append(whole + "." + frac)
    two53 = str(2**53)
    for m in (two53, str(2**53 + 1), str(2**53 - 1), str(2**53 + 2), "1" + "0" * 18):
        texts += [m[:p] + "." + m[p:] for p in range(len(m) + 1)] + [m, "0" + m, m + ".0"]
    texts += ["." + "9" * 18, "0." + "0" * 17 + "1", "9" * 19, "9" * 20, "1" * 19 + ".5"]
    block = ("\n".join(texts) + "\n").encode()
    a = np.frombuffer(block, np.uint8)
    hi = np.flatnonzero(a == 10)
    lo = np.concatenate(([0], hi[:-1] + 1))
    got = environments._decimals(block, a, lo, hi)
    want = np.array([float(t) for t in texts])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # most fields take the fast path: at most 19 digits, a mantissa of at most 2**53
    fast = sum(len(d) <= 19 and int(d) <= 2**53 for d in (t.replace(".", "") for t in texts))
    assert fast > n // 2


_STRAY = " +-eE_x/:٣"  # bytes float() reads (signs, spaces, exponents, underscores) and others


@st.composite
def _decimal_field(draw, digits):
    """A timestamp-like field of ``digits``.

    Its point is leading, trailing, inner, doubled or absent; or a stray
    byte is put among the digits; or the field is empty.
    """
    digits = draw(digits)
    cut = draw(st.integers(0, len(digits)))
    shape = draw(st.sampled_from(["none", "leading", "trailing", "inner", "two", "stray", "empty"]))
    if shape == "two":
        again = draw(st.integers(cut, len(digits)))
        return digits[:cut] + "." + digits[cut:again] + "." + digits[again:]
    if shape == "stray":
        return digits[:cut] + draw(st.sampled_from(_STRAY)) + digits[cut:]
    point = {"none": None, "leading": 0, "trailing": len(digits), "inner": cut, "empty": 0}[shape]
    text = digits if point is None else digits[:point] + "." + digits[point:]
    return "" if shape == "empty" else text


@st.composite
def _decimal_fields(draw):
    """Fields of a few digit counts, so that one width holds several point positions.

    The special digit strings straddle the fast path's bounds: a mantissa of
    2**53, and 19 digits (2**64 has 20).
    """
    counts = st.sampled_from(draw(st.lists(st.integers(1, 21), min_size=1, max_size=3)))
    digits = st.one_of(
        counts.flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n)),
        st.sampled_from([str(2**53 - 1), str(2**53), str(2**53 + 1), "9" * 19, "0" * 19,
                         str(2**64)]),
    )
    return draw(st.lists(_decimal_field(digits), min_size=1, max_size=40))


def _float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


# the log file is rewritten by each example, so sharing tmp_path between them is safe
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    fields=_decimal_fields(),
    ends=st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=40, max_size=40),
)
def test_mixed_shape_blocks_match_float(tmp_path, fields, ends):
    # one block of the kernel's input, then a log with these timestamps
    ends = ends[: len(fields)]
    block = "".join(t + end for t, end in zip(fields, ends)).encode()
    sizes = [len(t.encode()) for t in fields]
    lo = np.cumsum([0] + [n + len(end) for n, end in zip(sizes, ends)])[:-1]
    hi = lo + sizes
    a = np.frombuffer(block, np.uint8)
    want = [_float_or_none(t) for t in fields]
    assert (environments._decimals(block, a, lo, hi) is None) == (None in want)
    ok = [k for k, value in enumerate(want) if value is not None]  # read together, among the rest
    got = environments._decimals(block, a, lo[ok], hi[ok])
    want_ok = np.array([want[k] for k in ok])
    np.testing.assert_array_equal(got.view(np.int64), want_ok.view(np.int64))
    for k, value in enumerate(want):  # it declines a field exactly where float() raises
        one = environments._decimals(block, a, lo[k : k + 1], hi[k : k + 1])
        assert (one is None) == (value is None)
        if value is not None:
            assert one.view(np.int64)[0] == np.float64(value).view(np.int64)

    f = tmp_path / "log.csv"
    rows = [f"{t},id{k % 3},{'T' if k % 4 == 0 else 'R'}" for k, t in enumerate(fields)]
    f.write_bytes(("Timestamp,CAN_ID,Flag\n" + "".join(map(str.__add__, rows, ends))).encode())
    cmap = dict(environments.CAR_HACKING_COLUMNS)
    parsed = None not in want and all(map(math.isfinite, want))
    assert (environments._scan_bytes(f, cmap) is not None) == parsed
    window = 4 * max(abs(v) for v in want) + 1 if parsed else 0.25  # a trace of few rounds
    expected = _outcome(f, environments._scan_rows, cmap, window)
    assert _outcome(f, environments._scan_bytes, cmap, window) == expected


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_benchmark_shaped_log_stays_on_the_fast_path(tmp_path, monkeypatch, end):
    # epoch timestamps in microseconds and four-hex-digit identities, over several blocks
    rng = np.random.default_rng(17)
    n_rows = 3 * environments.INGEST_BLOCK // 24
    stamps = 1_478_198_376_000_000 + np.cumsum(rng.integers(0, 2000, n_rows))
    rows = [f"{s // 1_000_000}.{s % 1_000_000:06d},{int(rng.integers(0x800)):04x},"
            f"{'T' if rng.random() < 0.05 else 'R'}" for s in stamps.tolist()]
    f = tmp_path / "log.csv"
    f.write_bytes(end.join(["Timestamp,CAN_ID,Flag"] + rows + [""]).encode())
    assert len(_block_rows(f)) >= 3
    cmap = dict(environments.CAR_HACKING_COLUMNS)
    expected = _outcome(f, environments._scan_rows, cmap)
    parsed = []  # fields that reach the per-field float() loop

    def spy(x=0.0):
        if isinstance(x, str):
            parsed.append(x)
        return float(x)

    monkeypatch.setattr(environments, "float", spy, raising=False)
    monkeypatch.setattr(environments, "_scan_rows", lambda *args: pytest.fail("csv.reader path"))
    assert _outcome(f, environments._scan_bytes, cmap) == expected
    assert expected[3]["n_rows"] == n_rows
    assert parsed == []


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
    defender = SimpleNamespace(play=lambda m, u: (chosen, None), update=lambda *a: None)
    rng = np.random.default_rng(0)
    _, _, r, s = play_round(attacker, defender, chosen.size, prof.mu.tolist(), rng, 0.5)
    return r, s


class TestPayoffs:
    def test_homogeneous_identity(self):
        prof = PayoffProfile.homogeneous(4)
        assert _round_payoffs(prof, 2, [0, 1]) == (1.0, 0.0)

    def test_direct_product(self):
        prof = PayoffProfile(mu=np.full(3, 0.5))
        assert _round_payoffs(prof, 0, [1]) == (0.5, 0.0)

    def test_defender_scores_the_caught_location(self):
        # the defender scores the payoff of the one location it catches
        prof = PayoffProfile(mu=np.array([0.9, 0.4, 0.2]))
        assert _round_payoffs(prof, 1, [0, 1]) == (0.0, pytest.approx(0.4))
        assert _round_payoffs(prof, 2, [0, 1]) == (pytest.approx(0.2), 0.0)

    def test_rejects_nonpositive_payoffs(self):
        with pytest.raises(InvalidConfigError, match=r"payoffs must lie in \(0, 1\]"):
            PayoffProfile(mu=np.array([0.5, 0.0]))

    @pytest.mark.parametrize("mu", [[0.5, 1e-320], [1e-307] * 1000])
    def test_rejects_payoffs_whose_reciprocal_sum_overflows(self, mu):
        # one reciprocal overflows, or a thousand finite ones sum past the
        # largest double; the game value needs their partial sums
        with pytest.raises(InvalidConfigError, match="reciprocal sum"):
            PayoffProfile(mu=np.array(mu))


class TestIntrusionTrace:
    def test_validates_shape_and_labels(self):
        with pytest.raises(InvalidConfigError, match="arm_labels length must match"):
            IntrusionTrace(indicators=np.zeros((4, 2)), arm_labels=["a"])
        with pytest.raises(InvalidConfigError, match="arm_labels must be distinct"):
            IntrusionTrace(indicators=np.zeros((4, 2)), arm_labels=["a", "a"])
