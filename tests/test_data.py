import json
import math
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from feedlab import data as data_module
from feedlab.data import (
    DataFormatError,
    CATEGORIES,
    FEATURE_NAMES,
    FeatureMatrix,
    Impressions,
    Post,
    RatingRecord,
    aggregate_ratings,
    dataset_violations,
    from_fields,
    load_impressions,
    load_posts,
    load_ratings,
    save_dataset,
    save_impressions,
    save_posts,
    save_ratings,
)
from feedlab.pipeline import ExclusionRules, run_pipeline
from feedlab.sim import SimConfig, simulate_session
from conftest import as_table, make_impression, rows_of
from oracles import brute_force_cell_means, percent_format_impressions


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRatings:
    def test_well_formed_rows(self, tmp_path):
        p = write(
            tmp_path / "r.csv",
            "rater_id,post_id,feature,value\n"
            "r1,post_01,truth,4.0\n"
            "r2,post_01,truth,2.0\n"
            "r1,post_02,sharing,5\n",
        )
        records, errors = load_ratings(p)
        assert len(records) == 3
        assert not errors
        assert records[0] == RatingRecord("r1", "post_01", "truth", 4.0)

    def test_unknown_feature_rejected_with_line(self, tmp_path):
        p = write(
            tmp_path / "r.csv",
            "rater_id,post_id,feature,value\nr1,post_01,credibility,4.0\n",
        )
        records, errors = load_ratings(p)
        assert records == []
        assert len(errors) == 1
        assert errors[0].line == 2
        assert "credibility" in errors[0].message

    def test_non_numeric_value_rejected(self, tmp_path):
        p = write(
            tmp_path / "r.csv",
            "rater_id,post_id,feature,value\nr1,post_01,truth,high\nr2,post_01,truth,3.0\n",
        )
        records, errors = load_ratings(p)
        assert len(records) == 1
        assert errors[0].line == 2

    def test_ragged_row_and_blank_line_rejected_with_line(self, tmp_path):
        p = write(
            tmp_path / "r.csv",
            "rater_id,post_id,feature,value\n"
            "r1,post_01,truth,4.0\n"
            "r1,post_01,truth\n"
            "\n"
            "r2,post_01,truth,2.0,extra\n"
            "r2,post_02,truth,3.0\n",
        )
        records, errors = load_ratings(p)
        assert [r.post_id for r in records] == ["post_01", "post_02"]
        assert [e.line for e in errors] == [3, 4, 5]

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_rejected(self, tmp_path, raw):
        p = write(
            tmp_path / "r.csv",
            f"rater_id,post_id,feature,value\nr1,post_01,truth,{raw}\nr2,post_01,truth,3.0\n",
        )
        records, errors = load_ratings(p)
        assert records == [RatingRecord("r2", "post_01", "truth", 3.0)]
        assert [e.line for e in errors] == [2]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ratings(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "r.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError):
            load_ratings(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "r.csv", "")
        with pytest.raises(DataFormatError):
            load_ratings(p)


class TestAggregateRatings:
    def _full_records(self, post_id, value):
        return [RatingRecord("r1", post_id, f, value) for f in FEATURE_NAMES]

    def test_mean_of_two(self):
        records = self._full_records("a", 2.0) + [
            RatingRecord("r2", "a", f, 4.0) for f in FEATURE_NAMES
        ]
        matrix = aggregate_ratings(records)
        assert matrix.post_ids == ("a",)
        assert np.all(matrix.values == 3.0)

    def test_single_rating_identity(self):
        matrix = aggregate_ratings(self._full_records("a", 5.0))
        assert np.all(matrix.values == 5.0)

    def test_incomplete_post_dropped_with_warning(self):
        records = self._full_records("a", 3.0) + [RatingRecord("r1", "b", "truth", 2.0)]
        with pytest.warns(UserWarning, match="incomplete"):
            matrix = aggregate_ratings(records)
        assert matrix.post_ids == ("a",)

    def test_empty_input_warns(self):
        with pytest.warns(UserWarning, match="empty"):
            matrix = aggregate_ratings([])
        assert matrix.n_posts == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        posts = [f"post_{i}" for i in range(4)]
        records = []
        for _ in range(100):
            records.append(
                RatingRecord(
                    f"r{rng.integers(20)}",
                    posts[rng.integers(4)],
                    FEATURE_NAMES[rng.integers(8)],
                    float(rng.normal(3, 1)),
                )
            )
        # ensure full coverage so nothing is dropped
        for p in posts:
            records += [RatingRecord("rx", p, f, 1.0) for f in FEATURE_NAMES]
        matrix = aggregate_ratings(records)
        oracle = brute_force_cell_means(records)
        for i, pid in enumerate(matrix.post_ids):
            for j, f in enumerate(matrix.feature_names):
                assert matrix.values[i, j] == pytest.approx(oracle[(pid, f)], abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        records = [
            RatingRecord(f"r{k}", "a", f, float(rng.normal()))
            for f in FEATURE_NAMES
            for k in range(3)
        ]
        base = aggregate_ratings(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        again = aggregate_ratings(shuffled)
        assert base.post_ids == again.post_ids
        assert np.array_equal(base.values, again.values)


PLAIN_HEADER = "participant_id,post_id,position,dwell_raw,shared,liked"
ADJUSTED_HEADER = PLAIN_HEADER + ",dwell_adjusted"

# file text -> (the loaded table's columns in field order, the RowError
# (line, message) list), as the row-by-row loader returned them; except that a
# plain file with no valid rows has no dwell_adjusted column (None), like a
# table built from no rows, while an adjusted file with no rows has an empty one
LOADER_CASES = {
    "crlf": (
        PLAIN_HEADER + "\r\np1,post_01,1,2.5,0,1\r\np2,post_02,2,3.25,1,0\r\n",
        [["p1", "p2"], ["post_01", "post_02"], [1, 2], [2.5, 3.25], [False, True], [True, False], None],
        [],
    ),
    "no_trailing_newline": (
        PLAIN_HEADER + "\np1,post_01,1,2.5,0,1\np1,post_02,2,3.0,1,1",
        [["p1", "p1"], ["post_01", "post_02"], [1, 2], [2.5, 3.0], [False, True], [True, True], None],
        [],
    ),
    "blank_line": (
        PLAIN_HEADER + "\np1,post_01,1,2.5,0,1\n\np1,post_02,2,3.0,1,1\n",
        [["p1", "p1"], ["post_01", "post_02"], [1, 2], [2.5, 3.0], [False, True], [True, True], None],
        [(3, "expected 6 fields, got 0")],
    ),
    "ragged_row": (
        PLAIN_HEADER + "\np1,post_01,1,2.5,0\np1,post_02,2,3.0,1,1\np1,post_03,3,1.0,0,0,9\n",
        [["p1"], ["post_02"], [2], [3.0], [True], [True], None],
        [(2, "expected 6 fields, got 5"), (4, "expected 6 fields, got 7")],
    ),
    "quoted_ids": (
        PLAIN_HEADER + '\n"p,1","post ""a""",1,2.5,0,0\np2,post_02,2,1.5,1,0\n',
        [["p,1", "p2"], ['post "a"', "post_02"], [1, 2], [2.5, 1.5], [False, True], [False, False], None],
        [],
    ),
    "quoted_newline_counts_records": (
        PLAIN_HEADER + '\n"p\n1",post_01,1,2.5,0,0\np2,post_02,x,1.5,1,0\n',
        [["p\n1"], ["post_01"], [1], [2.5], [False], [False], None],
        [(3, "invalid literal for int() with base 10: 'x'")],
    ),
    "bool_cells": (
        PLAIN_HEADER + "\np1,post_01,1,2.5, 1,0\np1,post_02,2,2.5,0,2\np1,post_03,3,2.5,1,1\n",
        [["p1"], ["post_03"], [3], [2.5], [True], [True], None],
        [(2, "expected 0/1 boolean, got ' 1'"), (3, "expected 0/1 boolean, got '2'")],
    ),
    "numeric_cells": (
        PLAIN_HEADER + "\np1,post_01,1_0,2.5,0,0\np1,post_02,2, 2.5 ,0,0\np1,post_03, 3 ,1e1,0,1\n",
        [["p1"] * 3, ["post_01", "post_02", "post_03"], [10, 2, 3], [2.5, 2.5, 10.0],
         [False, False, False], [False, False, True], None],
        [],
    ),
    "non_finite_dwell": (
        ADJUSTED_HEADER + "\np1,post_01,1,nan,0,0,2.0\np1,post_02,2,2.5,0,0,inf\n"
        "p1,post_03,3,-inf,0,0,NaN\np1,post_04,4,2.5,0,0,2.5\n",
        [["p1"], ["post_04"], [4], [2.5], [False], [False], [2.5]],
        [(2, "non-finite dwell_raw"), (3, "non-finite dwell_adjusted"),
         (4, "non-finite dwell_raw and dwell_adjusted")],
    ),
    "position_outside_int64": (
        # 19 and 20 digits send the file to the csv module; int64 holds the first two
        PLAIN_HEADER + "\np1,post_01,9223372036854775807,2.5,0,0\np2,post_01,-9223372036854775808,2.5,0,0\n"
        "p3,post_01,9223372036854775808,2.5,0,0\np4,post_01,-99999999999999999999,2.5,0,0\n",
        [["p1", "p2"], ["post_01", "post_01"], [2**63 - 1, -(2**63)], [2.5, 2.5], [False, False],
         [False, False], None],
        [(4, "position '9223372036854775808' is outside the int64 range"),
         (5, "position '-99999999999999999999' is outside the int64 range")],
    ),
    "every_row_rejected": (
        PLAIN_HEADER + "\np1,post_01,one,2.5,0,0\n",
        [[], [], [], [], [], [], None],
        [(2, "invalid literal for int() with base 10: 'one'")],
    ),
    "header_only_plain": (PLAIN_HEADER + "\n", [[], [], [], [], [], [], None], []),
    "header_only_adjusted": (ADJUSTED_HEADER + "\n", [[], [], [], [], [], [], []], []),
}


class TestImpressionsIO:
    def test_load_plain(self, tmp_path):
        p = write(
            tmp_path / "i.csv",
            "participant_id,post_id,position,dwell_raw,shared,liked\n"
            "p1,post_01,1,2.500000,0,0\n"
            "p1,post_02,2,3.000000,1,1\n",
        )
        records, errors = load_impressions(p)
        assert not errors
        assert records.action_count.tolist() == [0, 2]

    def test_malformed_rows_reported(self, tmp_path):
        p = write(
            tmp_path / "i.csv",
            "participant_id,post_id,position,dwell_raw,shared,liked\n"
            "p1,post_01,one,2.5,0,0\n"
            "p1,post_02,2,2.5,yes,0\n"
            "p1,post_03,3,2.5,0,0\n",
        )
        records, errors = load_impressions(p)
        assert len(records) == 1
        assert [e.line for e in errors] == [2, 3]

    def test_non_finite_dwell_rejected(self, tmp_path):
        p = write(
            tmp_path / "i.csv",
            "participant_id,post_id,position,dwell_raw,shared,liked,dwell_adjusted\n"
            "p1,post_01,1,nan,0,0,2.0\n"
            "p1,post_02,2,2.5,0,0,inf\n"
            "p1,post_03,3,2.5,0,0,2.5\n",
        )
        records, errors = load_impressions(p)
        assert len(records) == 1
        assert [e.line for e in errors] == [2, 3]
        assert "dwell_raw" in errors[0].message
        assert "dwell_adjusted" in errors[1].message

    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_loader_cases_pinned(self, tmp_path, case):
        text, expected_columns, expected_errors = LOADER_CASES[case]
        path = tmp_path / "i.csv"
        path.write_bytes(text.encode("utf-8"))
        table, errors = load_impressions(path)
        assert [(e.line, e.message) for e in errors] == expected_errors
        columns = table._columns()
        assert [None if c is None else c.tolist() for c in columns] == expected_columns
        dtypes = (str, str, np.int64, float, bool, bool, float)
        for column, expected, dtype in zip(columns, expected_columns, dtypes):
            if column is not None:
                assert column.dtype == np.array(expected, dtype=dtype).dtype

    def test_roundtrip_bytes_plain_and_adjusted(self, tmp_path):
        imps = as_table([
            make_impression("p1", "post_01", 1, 2.5, 0),
            make_impression("p1", "post_02", 2, 1.234567, 2),
        ])
        path = tmp_path / "i.csv"
        save_impressions(path, imps)
        first = path.read_bytes()
        loaded, _ = load_impressions(path)
        save_impressions(path, loaded)
        assert path.read_bytes() == first

        adjusted = as_table([
            make_impression("p1", "post_01", 1, 2.5, 0, adjusted=2.5),
            make_impression("p1", "post_02", 2, 1.9, 1, adjusted=0.7),
        ])
        path2 = tmp_path / "c.csv"
        save_impressions(path2, adjusted)
        first2 = path2.read_bytes()
        loaded2, _ = load_impressions(path2)
        assert loaded2.dwell_adjusted[0] == 2.5
        save_impressions(path2, loaded2)
        assert path2.read_bytes() == first2

        # an id that needs CSV quoting sends the file through the csv module
        quoted = as_table([
            make_impression('p,"1"\nx', "post_01", 1, 2.5, 1),
            make_impression("p2", "post_02", 1, 1.5, 0),
        ])
        path3 = tmp_path / "q.csv"
        save_impressions(path3, quoted)
        first3 = path3.read_bytes()
        assert b'"p,""1""\nx"' in first3
        loaded3, errors3 = load_impressions(path3)
        assert not errors3
        assert loaded3 == quoted
        save_impressions(path3, loaded3)
        assert path3.read_bytes() == first3

    def test_carriage_return_ids_round_trip(self, tmp_path):
        # a bare CR must be quoted as a LF is, or the loader splits the row there
        table = as_table([
            make_impression("c\rd", "post\r", 1, 2.5, 1),
            make_impression("p2", "a,b\r\n", 1, 1.5, 0),
        ])
        path = tmp_path / "cr.csv"
        save_impressions(path, table)
        first = path.read_bytes()
        assert first.split(b"\n", 1)[1].startswith(b'"c\rd","post\r",1,')
        loaded, errors = load_impressions(path)
        assert not errors
        assert loaded == table
        save_impressions(path, loaded)
        assert path.read_bytes() == first

        ratings = [
            RatingRecord("r\r1", "post\r", "truth", 4.0),
            RatingRecord("r2", "x", "sharing", 2.5),
        ]
        rpath = tmp_path / "ratings.csv"
        save_ratings(rpath, ratings)
        assert b'"r\r1","post\r",truth,4.0\n' in rpath.read_bytes()
        loaded_ratings, errors = load_ratings(rpath)
        assert not errors
        assert loaded_ratings == ratings


TABLE_COLUMNS = [f.name for f in fields(Impressions)]

# id stems that share prefixes up to and past the first 8 bytes, which the byte
# reader ranks as integers; tails that keep an id canonical, and tails that make
# the csv module quote it
ID_STEMS = ("", "a", "ab", "abcdefg", "abcdefgh", "abcdefghi", "abcdefghijkl", "abcdefghijklm")
ID_TAILS = ("", "x", "7", ".", " ", "\t", "é", "日", "😀", "z" * 30)
QUOTED_TAILS = (",", '"', "\r")


def random_table(rng, n_rows, adjusted, odd):
    """A table of ``n_rows`` rows whose ids are 0-40 bytes; each id, position and
    dwell is, with probability ``odd``, one that save_impressions writes in
    another form than the canonical one (a quoted id, a negative or 19-digit
    position, a dwell of NaN, inf or more than 15 digits)."""
    def an_id():
        text = str(rng.choice(ID_STEMS)) + "".join(rng.choice(ID_TAILS, rng.integers(0, 3)))
        if rng.random() < odd:
            text += str(rng.choice(QUOTED_TAILS))
        return text.encode()[:40].decode(errors="ignore")

    def a_dwell():
        if rng.random() < odd:
            return float(rng.choice([math.nan, math.inf, 1e300, 10.0 ** rng.uniform(-323, 300)]))
        return float(rng.choice([0.0, 5e-324, rng.uniform(0, 60), 10.0 ** rng.uniform(-8, 8.9)]))

    def a_position():
        return rng.choice([-3, 10**18 + 1]) if rng.random() < odd else rng.choice([0, 7, 120, 10**17])

    values = [np.array([a_position() for _ in range(n_rows)], np.int64)]
    values += [np.array([a_dwell() for _ in range(n_rows)])]
    values += [rng.random(n_rows) < 0.5, rng.random(n_rows) < 0.5]
    if adjusted:
        values.append(np.array([a_dwell() for _ in range(n_rows)]))
    return Impressions._from_ids(
        [an_id() for _ in range(n_rows)], [an_id() for _ in range(n_rows)], *values
    )


def outcome(load, path):
    """What ``load(path)`` gives: each table column's dtype and bytes with the
    (line, message) of each RowError, or the exception's type and message."""
    try:
        table, errors = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    columns = [getattr(table, k) for k in TABLE_COLUMNS]
    cells = [None if c is None else (c.dtype.str, c.tobytes()) for c in columns]
    return cells, [(e.line, e.message) for e in errors]


# cells outside the canonical form of at least one value column
NON_CANONICAL = (" 3", "+3", "1_0", "007", "3.0", "1e1", ".5", "5.", "-0.5",
                 "1234567890.123456", " 1", "1.2.3", ".")


def mutate(data, rng, cell):
    """A file's bytes (with no quoted id) with one value cell replaced by ``cell``."""
    head, *lines = data.decode().split("\n")
    row = int(rng.integers(len(lines) - 1))
    fields = lines[row].split(",")
    fields[-1 - int(rng.integers(len(fields) - 2))] = cell
    lines[row] = ",".join(fields)
    return "\n".join([head, *lines]).encode()


class TestImpressionsCodec:
    def test_differential_against_csv_reader(self, tmp_path):
        # every file, canonical or not, loads as the csv-module reader reads it
        rng = np.random.default_rng(20261019)
        path = tmp_path / "i.csv"
        read_from_bytes = 0
        for trial in range(240):
            odd = (0.0, 0.05, 0.3)[trial % 3]
            table = random_table(rng, int(rng.integers(0, 8)), bool(trial % 2), odd)
            save_impressions(path, table)
            data = path.read_bytes()
            read_from_bytes += data_module._canonical_impressions(data) is not None
            variants = [data]
            if len(table) and b'"' not in data:
                variants.append(mutate(data, rng, NON_CANONICAL[trial % len(NON_CANONICAL)]))
            if len(table):
                # an invalid UTF-8 byte in the first id, a misspelt header, and the
                # last row split in two, which keeps the count of separators
                variants += [data.replace(b"\n", b"\n\xff", 1), data.replace(b"liked", b"like", 1)]
                cut = data.rindex(b",")
                variants.append(data[:cut] + b"\n" + data[cut + 1:])
            for variant in variants:
                path.write_bytes(variant)
                expected = outcome(data_module._csv_impressions, path)
                assert outcome(load_impressions, path) == expected, (trial, variant)
            # a file that loads without errors is saved again as it was
            path.write_bytes(data)
            loaded, errors = load_impressions(path)
            if not errors:
                save_impressions(path, loaded)
                assert path.read_bytes() == data
        # the fuzz reaches both readers
        assert 40 < read_from_bytes < 200

    @given(st.lists(
        st.integers(2, 15).flatmap(lambda n: st.integers(1, n - 1).flatmap(
            lambda k: st.tuples(st.text("0123456789", min_size=k, max_size=k),
                                st.text("0123456789", min_size=n - k, max_size=n - k)))),
        min_size=1, max_size=12,
    ))
    @example([("0", "1"), ("9007199254740", "99"), ("0", "00000000000001"), ("99999999999999", "9")])
    def test_dwell_division_equals_float(self, cells):
        # mantissa / 10**frac is float(cell) to the bit for cells of at most 15 digits
        text = ",".join(f"{a}.{b}" for a, b in cells)
        start, end = (np.array(b) for b in zip(*(m.span() for m in re.finditer(r"[^,]+", text))))
        buf = np.frombuffer(text.encode() + bytes(8), np.uint8)
        dwell = data_module._canonical_dwell(buf, start, end)
        expected = np.array([float(f"{a}.{b}") for a, b in cells])
        assert dwell is not None and dwell.tobytes() == expected.tobytes()

    def test_saved_files_are_read_from_bytes(self, tmp_path, monkeypatch):
        # a silent fall back to the csv-module reader would fail here
        def no_csv_reader(path):
            raise AssertionError(f"{path} was read by the csv module")

        monkeypatch.setattr(data_module, "_csv_impressions", no_csv_reader)
        rng = np.random.default_rng(5)
        simulated, _ = simulate_session(SimConfig(participants=6, feed_length=20, news_per_feed=10))
        # long ids with equal first 8 bytes, and with equal tails after different first bytes
        odd = ["p", "日本😀", "péché", "a" * 41, "b" * 5000, "a" * 40 + "x", "ctl\x01\x1f\t",
               "c" + "z" * 500, "d" + "z" * 500]
        n = 40
        values = np.arange(n), rng.uniform(0, 1e6, n), rng.random(n) < 0.5, rng.random(n) < 0.5
        odd_table = Impressions._from_ids((odd * 5)[:n], (odd * 5)[n - 1::-1], *values)
        tables = [simulated, replace(simulated, dwell_adjusted=simulated.dwell_raw / 3), odd_table,
                  replace(odd_table, dwell_adjusted=values[1][::-1].copy())]
        path = tmp_path / "i.csv"
        for table in tables:
            save_impressions(path, table)
            first = path.read_bytes()
            loaded, errors = load_impressions(path)
            assert not errors and len(loaded) == len(table)
            assert loaded.participant_id.tolist() == table.participant_id.tolist()
            assert loaded.post_id.tolist() == table.post_id.tolist()
            save_impressions(path, loaded)
            assert path.read_bytes() == first


# ids for the canonical reader's sort of id bytes: 0, 7, 8, 9, 16 and 17 bytes,
# each a byte prefix of the next; ids sharing their first 8 or 16 bytes, some then
# going on with a byte below the "," after a cell; 2-, 3- and 4-byte UTF-8
# characters, alone, across a word boundary, and after ASCII bytes they sort above
# ("~", DEL); the short ones fit one 8-byte word
SHORT_EDGE_IDS = ("", "a" * 7, "a" * 8, "a", "ab", "~", "\x7f", "é", "ÿ", "Ā", "€", "\ufffd",
                  "😀", "aé", "a€", "a😀", "abcdefg", "abcdefgh", "abcdefg~", "abcdeé", "\t x.")
LONG_EDGE_IDS = SHORT_EDGE_IDS + (
    "a" * 9, "a" * 16, "a" * 17, "abcdefgh~", "abcdefgh x", "abcdefghé", "abcdefgh€x", "abcdefgh😀",
    "abcdefgé", "abcdefghijklmno😀", "abcdefghijklmnop", "abcdefghijklmnopq", "abcdefghijklmnop\t",
    "abcdefghijklmnop~", "abcdefghijklmnopé", "abcdefghijklmnop😀", "abcdefghijklmnopé" + "z" * 39,
    "z" * 56 + "a", "z" * 56 + "b",  # the longest, 57 bytes, differ in their 8th word only
)


def edge_table(rng, ids, n_rows, adjusted):
    """``n_rows`` rows whose participant and post ids are drawn from ``ids``, with
    dwells of 6 decimals, which a save and a load keep exactly."""
    pick = np.array(ids, dtype=object)
    values = [rng.integers(0, 200, n_rows), rng.integers(0, 6 * 10**7, n_rows) / 1e6,
              rng.random(n_rows) < 0.5, rng.random(n_rows) < 0.5]
    if adjusted:
        values.append(rng.integers(0, 6 * 10**7, n_rows) / 1e6)
    drawn = (pick[rng.integers(len(ids), size=n_rows)].tolist() for _ in range(2))
    return Impressions._from_ids(*drawn, *values)


class TestIdCoder:
    @pytest.mark.parametrize("ids", [SHORT_EDGE_IDS, LONG_EDGE_IDS], ids=["one_word", "many_words"])
    def test_edge_ids_against_csv_reader(self, tmp_path, ids):
        lengths = {len(i.encode()) for i in ids}
        assert max(lengths) <= 8 if ids is SHORT_EDGE_IDS else {0, 7, 8, 9, 16, 17} <= lengths
        rng = np.random.default_rng(33)
        path = tmp_path / "i.csv"
        for adjusted in (False, True):
            table = edge_table(rng, ids, 1200, adjusted)
            # the vocabulary is in code-point order, so ASCII comes before any other
            for vocab in (table.participant_vocab, table.post_vocab):
                assert vocab.tolist() == sorted(ids)
            save_impressions(path, table)
            data = path.read_bytes()
            from_bytes = data_module._canonical_impressions(data)
            reference, errors = data_module._csv_impressions(path)
            assert from_bytes is not None and not errors
            for loaded in (from_bytes, reference):
                assert loaded == table
                for key in ("participant", "post"):
                    vocab, code = (getattr(loaded, f"{key}_{k}") for k in ("vocab", "code"))
                    assert vocab.tolist() == getattr(table, f"{key}_vocab").tolist()
                    assert code.dtype == np.int32
                    assert np.array_equal(code, getattr(table, f"{key}_code"))
            save_impressions(path, from_bytes)
            assert path.read_bytes() == data

    def test_ids_over_the_csv_field_limit_are_read_from_bytes(self, tmp_path, monkeypatch):
        # one 140000-byte id, and two 20000-byte ids equal but for their last byte, among
        # 600 rows of short ids: the csv module rejects a cell this long, and only the
        # long cells' further words are read. The columns are compared coded, as
        # decoding them would make 600 cells of 140000 characters.
        rng = np.random.default_rng(9)
        short = edge_table(rng, ("p1", "p2", "p3", "y" * 9), 600, False)
        long = np.array(["x" * 140000, "y" * 19999 + "a", "y" * 19999 + "b"])
        vocab = np.union1d(long, short.participant_vocab)
        code = np.searchsorted(vocab, short.participant_vocab)[short.participant_code]
        code[123] = np.searchsorted(vocab, long[0])
        code[::100] = np.searchsorted(vocab, long[[1, 2] * 3])
        table = replace(short, participant_vocab=vocab, participant_code=code.astype(np.int32))
        path = tmp_path / "i.csv"
        save_impressions(path, table)
        data = path.read_bytes()
        assert outcome(data_module._csv_impressions, path)[0] is DataFormatError
        monkeypatch.setattr(data_module, "_csv_impressions", lambda p: pytest.fail(f"{p} read by csv"))
        loaded, errors = load_impressions(path)
        assert not errors
        for name in TABLE_COLUMNS:
            a, b = getattr(loaded, name), getattr(table, name)
            assert a is b is None if name == "dwell_adjusted" else np.array_equal(a, b)
        save_impressions(path, loaded)
        assert path.read_bytes() == data

    @pytest.mark.parametrize("rows", ["one_row", "every_row"])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"])
    def test_invalid_utf8_in_long_id_as_csv_reader(self, tmp_path, rows, bad):
        # after the 8th byte (and after the 16th) of a long id: a stray, a truncated,
        # a surrogate and an overlong sequence; the first 8 bytes equal a valid id's
        rng = np.random.default_rng(7)
        ids = ("abcdefghij", "abcdefghijklmnopqr", "post")
        path = tmp_path / "i.csv"
        save_impressions(path, edge_table(rng, ids, 400, False))
        data = path.read_bytes()
        for good in (b"abcdefghij,", b"abcdefghijklmnopqr,"):
            broken = good[:-2] + bad + good[-2:]
            variant = data.replace(good, broken, 1 if rows == "one_row" else -1)
            assert variant.count(broken) == (1 if rows == "one_row" else data.count(good)) > 0
            path.write_bytes(variant)
            assert data_module._canonical_impressions(variant) is None
            expected = outcome(data_module._csv_impressions, path)
            assert expected[0] is UnicodeDecodeError
            assert outcome(load_impressions, path) == expected


# ids of 0-40 bytes: the canonical stems and tails above, characters the csv
# module quotes, an inner NUL, and the characters whose UTF-8 bytes come closest
# to the writer's 0xFF pad (C3 BF, EF BF BF, F4 8F BF BF)
WRITER_ID_TAILS = ID_TAILS + QUOTED_TAILS + ("\n", "\0x", "a\0\0b", "ÿ", "\uffff", "\U0010ffff")
WRITER_INTEGERS = (-3, -1, 0, 1, 7, 120, 10**17, 10**18 + 1, -(2**63), 2**63 - 1)
WRITER_DWELLS = (-0.0, -1e-9, 5e-324, 122.0703125, 2.0**23, np.nextafter(2.0**23, 0),
                 np.nextafter(2.0**23, np.inf), 1e300, math.nan, math.inf, -math.inf, 0.5e-6)


def writer_table(rng, n_rows, adjusted):
    """A table for the writer: ids, positions, bools or integers and dwells drawn
    from the edge cases above and from plain values, rounding ties among them."""
    def an_id():
        text = str(rng.choice(ID_STEMS)) + "".join(rng.choice(WRITER_ID_TAILS, rng.integers(0, 4)))
        return text.encode()[:40].decode(errors="ignore").rstrip("\0")

    def dwells():
        plain = np.where(rng.random(n_rows) < 0.5, rng.uniform(-60, 60, n_rows),
                         10.0 ** rng.uniform(-8, 8.9, n_rows))
        ties = rng.integers(0, 10**12, n_rows) / 1e6 + 5e-7  # k/1e6 + 5e-7, at or near a tie
        odd = np.array(WRITER_DWELLS)[rng.integers(len(WRITER_DWELLS), size=n_rows)]
        return np.choose(rng.integers(3, size=n_rows), [plain, ties, odd])

    def integers(kind):
        if kind == "bool":
            return rng.random(n_rows) < 0.5
        if kind == "uint":
            return np.array([0, 1, 2**63, 2**64 - 1], np.uint64)[rng.integers(4, size=n_rows)]
        return np.array(WRITER_INTEGERS, np.int64)[rng.integers(len(WRITER_INTEGERS), size=n_rows)]

    kinds = rng.choice(["bool", "int", "uint"], 2)
    values = [integers("int"), dwells(), integers(kinds[0]), integers(kinds[1])]
    if adjusted:
        values.append(dwells())
    return Impressions._from_ids([an_id() for _ in range(n_rows)], [an_id() for _ in range(n_rows)], *values)


class TestImpressionsWriter:
    def test_differential_against_percent_format(self, tmp_path, monkeypatch):
        # the byte-matrix writer writes what one % format over every cell writes
        rng = np.random.default_rng(20261020)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        sizes = [int(rng.integers(0, 8)) for _ in range(60)] + [5000, 5000]
        for trial, n_rows in enumerate(sizes):
            table = writer_table(rng, n_rows, bool(trial % 2))
            save_impressions(new, table)
            percent_format_impressions(old, table)
            assert new.read_bytes() == old.read_bytes(), trial
            if n_rows == 5000:
                # blocks of a few rows each write the same file
                monkeypatch.setattr(data_module, "_BLOCK_BYTES", 4096)
                save_impressions(new, table)
                monkeypatch.undo()
                assert new.read_bytes() == old.read_bytes(), trial

    @given(st.lists(st.one_of(
        st.floats(),
        st.floats(-(2.0**24), 2.0**24),
        st.integers(-(10**13), 10**13).map(lambda k: (k + 0.5) / 1e6),
    ), min_size=1, max_size=20))
    @example([-0.0, -1e-9, 5e-324, 122.0703125, 2.0**23, 1e300, math.nan, math.inf, -math.inf])
    def test_dwell_cells_equal_percent_format(self, values):
        matrix = data_module._dwell_cells(np.array(values))
        pad = bytes([data_module._PAD])
        cells = [matrix[:, i].tobytes().translate(None, pad).decode() for i in range(len(values))]
        assert cells == ["%.6f" % v for v in values]

    def test_walkthrough_dwells_are_written_without_fallback(self, tmp_path, monkeypatch):
        # a silent slide onto the per-cell path would fail here
        def no_fallback(values):
            raise AssertionError(f"{len(values)} dwell cells were formatted one at a time")

        simulated, _ = simulate_session(SimConfig(participants=600, feed_length=120, seed=5))
        cleaned = run_pipeline(simulated, ExclusionRules()).impressions
        monkeypatch.setattr(data_module, "_percent_dwell", no_fallback)
        save_impressions(tmp_path / "impressions.csv", simulated)
        save_impressions(tmp_path / "cleaned.csv", cleaned)
        loaded, errors = load_impressions(tmp_path / "cleaned.csv")
        assert not errors and len(loaded) == len(cleaned)


class TestImpressionsTable:
    def test_from_rows_round_trips_rows(self):
        rows = [
            make_impression("p1", "post_01", 1, 2.5, 0, adjusted=2.5),
            make_impression("p2", "post_02", 2, 1.9, 2, adjusted=0.7),
        ]
        table = as_table(rows)
        assert rows_of(table) == rows
        assert table.action_count.tolist() == [0, 2]
        plain = as_table([make_impression("p1", "post_01", 1, 2.5, 1)])
        assert plain.dwell_adjusted is None

    def test_of_rejects_mixed_adjusted(self):
        # rows must all carry dwell_adjusted or all lack it
        rows = [
            make_impression("p1", "post_01", 1, 2.5, 0, adjusted=2.5),
            make_impression("p1", "post_02", 2, 2.5, 0),
        ]
        with pytest.raises(ValueError, match="mixed"):
            as_table(rows)

    @pytest.mark.parametrize("key", ["participant", "post"])
    def test_id_ending_in_nul_rejected(self, key):
        # a numpy str array drops trailing NULs, so "z\0" would become "z"
        ids = {"participant": "p1", "post": "post_01", key: "z\x00"}
        rows = [
            make_impression("z", "z", 1, 2.5, 0),
            make_impression(ids["participant"], ids["post"], 2, 2.5, 0),
        ]
        with pytest.raises(ValueError, match=rf"{key} id 'z\\x00'"):
            as_table(rows)

    def test_int_and_mask_indexing_and_equality(self):
        rows = [make_impression("p1", f"post_{i}", i, float(i), i % 3) for i in range(1, 6)]
        table = as_table(rows)
        # a table has no row objects: an int index and iteration are errors
        for key in (0, np.int64(-1), np.int32(2)):
            with pytest.raises(TypeError, match="no row objects.*slice, a boolean mask"):
                table[key]
        with pytest.raises(TypeError, match="not iterable"):
            list(table)
        mask = table.dwell_raw > 2.5
        assert table[mask] == as_table(rows[2:])
        assert rows_of(table[1:3]) == rows[1:3]
        assert table[np.array([4, 0])] == as_table([rows[4], rows[0]])
        assert table == as_table(rows)
        assert table != as_table(rows[:4])
        assert table != as_table([make_impression("p1", "post_1", 1, 1.0, 2)] + rows[1:])
        assert table != replace(table, dwell_adjusted=table.dwell_raw)

    def test_ids_are_codes_into_sorted_vocabularies(self):
        rows = [make_impression(pid, post, i, 1.0) for i, (pid, post) in
                enumerate([("p9", "b"), ("p10", "a"), ("p9", "c"), ("P1", "a")], start=1)]
        table = as_table(rows)
        assert table.participant_vocab.tolist() == ["P1", "p10", "p9"]
        assert table.participant_code.tolist() == [2, 1, 2, 0]
        assert table.participant_code.dtype == np.int32 and table.post_code.dtype == np.int32
        assert table.post_id.tolist() == ["b", "a", "c", "a"]
        assert table.groups("post")[2].tolist() == [2, 1, 1]
        with pytest.raises(ValueError, match="sorted and distinct"):
            replace(table, post_vocab=table.post_vocab[::-1])

    @pytest.mark.parametrize(
        "column", ["participant_code", "post_code", "dwell_raw", "dwell_adjusted"]
    )
    def test_columns_of_different_lengths_rejected(self, column):
        table = as_table([make_impression("p1", "a", i, 1.0, adjusted=1.0) for i in (1, 2)])
        with pytest.raises(ValueError, match="impression columns differ in length"):
            replace(table, **{column: getattr(table, column)[:1]})

    def test_equal_rows_with_different_vocabularies_compare_equal(self):
        rows = [make_impression("p2", "b", 1, 1.0), make_impression("p3", "a", 2, 2.0, 1)]
        extra = [make_impression("p1", "c", 1, 3.0), make_impression("p4", "0", 1, 4.0)]
        small = as_table(rows)
        selected = as_table(extra[:1] + rows + extra[1:])[1:3]
        assert selected.participant_vocab.tolist() == ["p1", "p2", "p3", "p4"]
        assert selected.participant_code.tolist() != small.participant_code.tolist()
        assert selected == small and small == selected
        assert rows_of(selected) == rows
        # the same codes into another vocabulary are other rows
        assert replace(small, participant_vocab=np.array(["q2", "q3"])) != small

    def test_selection_decodes_its_rows(self):
        rows = [make_impression(f"p{i % 4}", f"post_{i % 7}", i, float(i)) for i in range(1, 30)]
        table = as_table(rows)
        mask = table.dwell_raw % 4 != 2  # every row of p2
        picked = [r for r, m in zip(rows, mask) if m]
        assert table[mask].participant_id.tolist() == [r[0] for r in picked]
        assert table[mask].post_id.tolist() == [r[1] for r in picked]
        assert rows_of(table[np.array([5, 2])]) == [rows[5], rows[2]]
        assert table[mask].groups("participant")[0].tolist() == ["p0", "p1", "p3"]


class TestPostsIO:
    def test_roundtrip_with_quoting(self, tmp_path):
        posts = [
            Post("a", 'Said "no", twice', "src, inc", "opinion"),
            Post("b", "plain", "src", "mundane"),
        ]
        path = tmp_path / "p.csv"
        save_posts(path, posts)
        first = path.read_bytes()
        loaded, errors = load_posts(path)
        assert not errors
        assert loaded == posts
        save_posts(path, loaded)
        assert path.read_bytes() == first

    def test_unknown_category_rejected(self, tmp_path):
        p = write(
            tmp_path / "p.csv",
            "post_id,headline,source,category\na,h,s,satire\n",
        )
        posts, errors = load_posts(p)
        assert posts == []
        assert "satire" in errors[0].message

    def test_ragged_row_rejected_with_line(self, tmp_path):
        p = write(
            tmp_path / "p.csv",
            "post_id,headline,source,category\na,h,s\nb,h,s,opinion\nc,h,s,mundane,x\n",
        )
        posts, errors = load_posts(p)
        assert posts == [Post("b", "h", "s", "opinion")]
        assert [(e.line, e.message) for e in errors] == [
            (2, "expected 4 fields, got 3"), (4, "expected 4 fields, got 5"),
        ]


class TestValidation:
    def _feed(self, pid, n, posts):
        return as_table(
            make_impression(pid, posts[i % len(posts)].post_id, i + 1, 2.0)
            for i in range(n)
        )

    def test_valid_feed_of_120(self, tiny_posts):
        imps = self._feed("p1", 120, tiny_posts)
        assert len(imps) == 120
        assert dataset_violations(tiny_posts, imps) == []

    def test_position_gap(self, tiny_posts):
        imps = as_table(
            make_impression("p1", tiny_posts[0].post_id, pos, 2.0) for pos in (1, 2, 4)
        )
        violations = dataset_violations(tiny_posts, imps)
        assert [v.kind for v in violations] == ["position_gap"]

    def test_negative_dwell(self, tiny_posts):
        imps = as_table([make_impression("p1", tiny_posts[0].post_id, 1, -0.5)])
        violations = dataset_violations(tiny_posts, imps)
        assert any(v.kind == "negative_dwell" for v in violations)

    def test_dangling_post(self, tiny_posts):
        imps = as_table([make_impression("p1", "ghost", 1, 2.0)])
        violations = dataset_violations(tiny_posts, imps)
        assert any(v.kind == "dangling_post" for v in violations)

    def test_duplicate_post(self, tiny_posts):
        imps = self._feed("p1", 3, tiny_posts)
        violations = dataset_violations([*tiny_posts, tiny_posts[1]], imps)
        assert [(v.kind, v.message) for v in violations] == [
            ("duplicate_post", f"duplicate post_id {tiny_posts[1].post_id!r}")
        ]

    def test_duplicate_position(self, tiny_posts):
        imps = as_table([
            make_impression("p1", tiny_posts[0].post_id, 1, 2.0),
            make_impression("p1", tiny_posts[1].post_id, 1, 2.0),
        ])
        violations = dataset_violations(tiny_posts, imps)
        assert any(v.kind == "duplicate_position" for v in violations)


def features_of(posts, names=FEATURE_NAMES):
    """One feature row per post, each the same values, cut to ``names``."""
    row = (-0.0, 1e-07, 1e22, 2.123456789012345, 0, 1, 2, 3)[: len(names)]
    values = np.tile(np.array(row, dtype=float), (len(posts), 1))
    return FeatureMatrix(tuple(p.post_id for p in posts), tuple(names), values)


class TestDatasetJson:
    def test_roundtrip_bytes(self, tmp_path, tiny_posts):
        imps = as_table([make_impression("p1", tiny_posts[0].post_id, 1, 2.0)])
        provenance = {"sources": {"r.csv": "0" * 64}, "ingested_at": "2024-01-01T00:00:00+00:00"}
        features = features_of(tiny_posts)
        assert dataset_violations(tiny_posts, imps) == []
        path = tmp_path / "dataset.json"
        save_dataset(path, tiny_posts, features, provenance)
        first = path.read_bytes()
        # the file holds the posts, each with its feature row, and the provenance;
        # the impressions are impressions.csv's
        payload = json.loads(first)
        rows = [d.pop("features") for d in payload["posts"]]
        posts = [from_fields(Post, d, path, "the post") for d in payload["posts"]]
        assert posts == tiny_posts
        assert rows == [dict(zip(FEATURE_NAMES, r)) for r in features.values.tolist()]
        assert payload["provenance"] == provenance
        loaded = FeatureMatrix(
            tuple(p.post_id for p in posts), FEATURE_NAMES, [list(r.values()) for r in rows]
        )
        save_dataset(path, posts, loaded, payload["provenance"])
        assert path.read_bytes() == first

    ODD_IDS = ("péché", "日本😀", 'say "hi"', "back\\slash", "ctl\x00\x1f\t\n\x7f", "p,1")

    @pytest.mark.parametrize("n_rows", [0, 1, 7])
    @pytest.mark.parametrize("with_features", [False, True])
    def test_rows_match_json_dumps(self, tmp_path, n_rows, with_features):
        # the rows are the posts, one object each, with a features object of
        # the table's columns (empty for a table of no columns)
        odd = self.ODD_IDS
        posts = tuple(
            Post(odd[i % len(odd)], odd[-1 - i % len(odd)], odd[(i + 2) % len(odd)],
                 CATEGORIES[i % len(CATEGORIES)])
            for i in range(n_rows)
        )
        features = features_of(posts, FEATURE_NAMES if with_features else ())
        provenance = {"sources": {odd[0]: odd[1]}, "impressions_sha256": "00", "seed": n_rows}
        path = tmp_path / "dataset.json"
        save_dataset(path, posts, features, provenance)
        payload = {
            "posts": [
                {**asdict(p), "features": dict(zip(features.feature_names, row))}
                for p, row in zip(posts, features.values.tolist())
            ],
            "provenance": provenance,
        }
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize(
        "ids",
        [
            ("post_02", "post_01", "post_03", "post_04", "post_05"),
            ("post_01", "post_02", "post_03", "post_04"),
            ("post_01", "post_02", "post_03", "post_04", "post_99"),
        ],
        ids=["reordered", "missing", "renamed"],
    )
    def test_posts_and_rows_must_match(self, tmp_path, tiny_posts, ids):
        rows = FeatureMatrix(ids, FEATURE_NAMES, np.ones((len(ids), len(FEATURE_NAMES))))
        path = tmp_path / "dataset.json"
        with pytest.raises(ValueError, match="not the same ids in the same order"):
            save_dataset(path, tiny_posts, rows, {})
        assert not path.exists()


class TestDomainTypes:
    def test_rating_rejects_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature"):
            RatingRecord("r", "p", "novelty", 1.0)

    def test_action_count_range(self):
        table = as_table(make_impression(position=a + 1, actions=a) for a in (0, 1, 2))
        assert table.action_count.tolist() == [0, 1, 2]

    def test_feature_matrix_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            FeatureMatrix(("a",), FEATURE_NAMES, np.zeros((2, 8)))

    def test_feature_matrix_rejects_nan(self):
        vals = np.zeros((1, 8))
        vals[0, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix(("a",), FEATURE_NAMES, vals)
