import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feedlab.data import (
    DataFormatError,
    Dataset,
    DatasetValidationError,
    FEATURE_NAMES,
    FeatureMatrix,
    ImpressionRecord,
    Impressions,
    Post,
    RatingRecord,
    aggregate_ratings,
    dataset_violations,
    load_dataset,
    load_impressions,
    load_posts,
    load_ratings,
    make_provenance,
    ratings_per_post_per_feature,
    save_dataset,
    save_impressions,
    save_posts,
    save_ratings,
    validate_dataset,
)
from conftest import make_impression
from oracles import brute_force_cell_means


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

    def test_mean_ratings_per_cell(self):
        records = [
            RatingRecord("r1", "a", "truth", 1.0),
            RatingRecord("r2", "a", "truth", 2.0),
            RatingRecord("r1", "a", "sharing", 1.0),
        ]
        assert ratings_per_post_per_feature(records) == pytest.approx(1.5)


PLAIN_HEADER = "participant_id,post_id,position,dwell_raw,shared,liked"
ADJUSTED_HEADER = PLAIN_HEADER + ",dwell_adjusted"

# file text -> (the loaded table's columns in field order, the RowError
# (line, message) list), as the row-by-row loader returned them; except that a
# plain file with no valid rows has no dwell_adjusted column (None), like
# Impressions.of([]), while an adjusted file with no rows has an empty one
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
        assert records[1].action_count == 2
        assert records[1].engaged

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
        imps = [
            make_impression("p1", "post_01", 1, 2.5, 0),
            make_impression("p1", "post_02", 2, 1.234567, 2),
        ]
        path = tmp_path / "i.csv"
        save_impressions(path, imps)
        first = path.read_bytes()
        loaded, _ = load_impressions(path)
        save_impressions(path, loaded)
        assert path.read_bytes() == first

        adjusted = [
            make_impression("p1", "post_01", 1, 2.5, 0, adjusted=2.5),
            make_impression("p1", "post_02", 2, 1.9, 1, adjusted=0.7),
        ]
        path2 = tmp_path / "c.csv"
        save_impressions(path2, adjusted)
        first2 = path2.read_bytes()
        loaded2, _ = load_impressions(path2)
        assert loaded2[0].dwell_adjusted == 2.5
        save_impressions(path2, loaded2)
        assert path2.read_bytes() == first2

        # an id that needs CSV quoting sends the file through the csv module
        quoted = Impressions.of([
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

    def test_mixed_adjusted_flags_rejected(self, tmp_path):
        imps = [
            make_impression("p1", "post_01", 1, 2.5, 0, adjusted=2.5),
            make_impression("p1", "post_02", 2, 2.5, 0),
        ]
        with pytest.raises(ValueError, match="mixed"):
            save_impressions(tmp_path / "x.csv", imps)


class TestImpressionsTable:
    def test_of_round_trips_records(self):
        rows = [
            make_impression("p1", "post_01", 1, 2.5, 0, adjusted=2.5),
            make_impression("p2", "post_02", 2, 1.9, 2, adjusted=0.7),
        ]
        table = Impressions.of(rows)
        assert Impressions.of(table) is table
        assert list(table) == rows
        assert table.action_count.tolist() == [0, 2]
        plain = Impressions.of([make_impression("p1", "post_01", 1, 2.5, 1)])
        assert plain.dwell_adjusted is None

    def test_of_rejects_mixed_adjusted(self):
        rows = [
            make_impression("p1", "post_01", 1, 2.5, 0, adjusted=2.5),
            make_impression("p1", "post_02", 2, 2.5, 0),
        ]
        with pytest.raises(ValueError, match="mixed"):
            Impressions.of(rows)

    def test_int_and_mask_indexing_and_equality(self):
        rows = [make_impression("p1", f"post_{i}", i, float(i), i % 3) for i in range(1, 6)]
        table = Impressions.of(rows)
        assert table[0] == rows[0]
        assert table[-1] == rows[-1]
        assert isinstance(table[1].position, int) and isinstance(table[1].shared, bool)
        mask = table.dwell_raw > 2.5
        assert list(table[mask]) == rows[2:]
        assert table[np.array([4, 0])] == Impressions.of([rows[4], rows[0]])
        assert table == Impressions.of(rows)
        assert table != Impressions.of(rows[:4])
        assert table != Impressions.of([make_impression("p1", "post_1", 1, 1.0, 2)] + rows[1:])
        assert table != replace(table, dwell_adjusted=table.dwell_raw)

    def test_ids_are_codes_into_sorted_vocabularies(self):
        rows = [make_impression(pid, post, i, 1.0) for i, (pid, post) in
                enumerate([("p9", "b"), ("p10", "a"), ("p9", "c"), ("P1", "a")], start=1)]
        table = Impressions.of(rows)
        assert table.participant_vocab.tolist() == ["P1", "p10", "p9"]
        assert table.participant_code.tolist() == [2, 1, 2, 0]
        assert table.participant_code.dtype == np.int32 and table.post_code.dtype == np.int32
        assert table.post_id.tolist() == ["b", "a", "c", "a"]
        assert table.groups("post")[2].tolist() == [2, 1, 1]
        with pytest.raises(ValueError, match="sorted and distinct"):
            replace(table, post_vocab=table.post_vocab[::-1])

    def test_equal_rows_with_different_vocabularies_compare_equal(self):
        rows = [make_impression("p2", "b", 1, 1.0), make_impression("p3", "a", 2, 2.0, 1)]
        extra = [make_impression("p1", "c", 1, 3.0), make_impression("p4", "0", 1, 4.0)]
        small = Impressions.of(rows)
        selected = Impressions.of(extra[:1] + rows + extra[1:])[1:3]
        assert selected.participant_vocab.tolist() == ["p1", "p2", "p3", "p4"]
        assert selected.participant_code.tolist() != small.participant_code.tolist()
        assert selected == small and small == selected
        assert list(selected) == rows and selected[1] == rows[1]
        # the same codes into another vocabulary are other rows
        assert replace(small, participant_vocab=np.array(["q2", "q3"])) != small

    def test_selection_decodes_its_rows(self):
        rows = [make_impression(f"p{i % 4}", f"post_{i % 7}", i, float(i)) for i in range(1, 30)]
        table = Impressions.of(rows)
        mask = table.dwell_raw % 4 != 2  # every row of p2
        picked = [r for r, m in zip(rows, mask) if m]
        assert table[mask].participant_id.tolist() == [r.participant_id for r in picked]
        assert table[mask].post_id.tolist() == [r.post_id for r in picked]
        assert table[np.array([5, 2])][0] == rows[5]
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


class TestValidation:
    def _feed(self, pid, n, posts):
        return [
            make_impression(pid, posts[i % len(posts)].post_id, i + 1, 2.0)
            for i in range(n)
        ]

    def test_valid_feed_of_120(self, tiny_posts):
        imps = self._feed("p1", 120, tiny_posts)
        ds = validate_dataset(tiny_posts, imps)
        assert len(ds.impressions) == 120

    def test_position_gap(self, tiny_posts):
        imps = [
            make_impression("p1", tiny_posts[0].post_id, pos, 2.0) for pos in (1, 2, 4)
        ]
        violations = dataset_violations(tiny_posts, imps)
        assert any(v.kind == "position_gap" for v in violations)
        with pytest.raises(DatasetValidationError):
            validate_dataset(tiny_posts, imps)

    def test_negative_dwell(self, tiny_posts):
        imps = [make_impression("p1", tiny_posts[0].post_id, 1, -0.5)]
        violations = dataset_violations(tiny_posts, imps)
        assert any(v.kind == "negative_dwell" for v in violations)

    def test_dangling_post(self, tiny_posts):
        imps = [make_impression("p1", "ghost", 1, 2.0)]
        violations = dataset_violations(tiny_posts, imps)
        assert any(v.kind == "dangling_post" for v in violations)

    def test_duplicate_position(self, tiny_posts):
        imps = [
            make_impression("p1", tiny_posts[0].post_id, 1, 2.0),
            make_impression("p1", tiny_posts[1].post_id, 1, 2.0),
        ]
        violations = dataset_violations(tiny_posts, imps)
        assert any(v.kind == "duplicate_position" for v in violations)


class TestDatasetJson:
    def test_roundtrip_bytes(self, tmp_path, tiny_posts):
        ratings_path = write(tmp_path / "r.csv", "rater_id,post_id,feature,value\n")
        imps = [make_impression("p1", tiny_posts[0].post_id, 1, 2.0)]
        ds = validate_dataset(tiny_posts, imps, make_provenance([ratings_path]))
        path = tmp_path / "dataset.json"
        save_dataset(path, ds)
        first = path.read_bytes()
        loaded = load_dataset(path)
        assert loaded.posts == ds.posts
        assert loaded.impressions == ds.impressions
        save_dataset(path, loaded)
        assert path.read_bytes() == first

    ODD_IDS = ("péché", "日本😀", 'say "hi"', "back\\slash", "ctl\x00\x1f\t\n\x7f", "p,1")
    ODD_DWELLS = (math.nan, math.inf, -math.inf, -0.0, 1e-07, 1e22, 2.123456789012345)

    @pytest.mark.parametrize("n_rows", [0, 1, 7])
    @pytest.mark.parametrize("adjusted", [False, True])
    def test_rows_match_json_dumps(self, tmp_path, tiny_posts, n_rows, adjusted):
        records = [
            make_impression(
                self.ODD_IDS[i % len(self.ODD_IDS)], self.ODD_IDS[-1 - i % len(self.ODD_IDS)],
                i + 1, self.ODD_DWELLS[i], i % 3,
                adjusted=self.ODD_DWELLS[-1 - i] if adjusted else None,
            )
            for i in range(n_rows)
        ]
        tables = [Impressions.of(records)]
        if not records:  # an empty table with and without a dwell_adjusted column
            tables.append(replace(tables[0], dwell_adjusted=None if adjusted else np.empty(0)))
        provenance = {"sources": {"r.csv": "00"}, "ingested_at": "now"}
        for table in tables:
            path = tmp_path / "dataset.json"
            save_dataset(path, Dataset(tuple(tiny_posts), table, provenance))
            rows = [{k: v for k, v in asdict(r).items() if v is not None} for r in records]
            payload = {
                "impressions": rows,
                "posts": [{k: v for k, v in asdict(p).items() if v is not None} for p in tiny_posts],
                "provenance": provenance,
            }
            expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert path.read_text(encoding="utf-8") == expected


class TestDomainTypes:
    def test_post_requires_all_features(self):
        with pytest.raises(ValueError, match="8 canonical"):
            Post("a", "h", "s", "opinion", features={"truth": 1.0})

    def test_post_rejects_non_finite_feature(self):
        feats = {f: 1.0 for f in FEATURE_NAMES}
        feats["truth"] = math.inf
        with pytest.raises(ValueError, match="finite"):
            Post("a", "h", "s", "opinion", features=feats)

    def test_rating_rejects_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature"):
            RatingRecord("r", "p", "novelty", 1.0)

    def test_action_count_range(self):
        assert make_impression(actions=0).action_count == 0
        assert make_impression(actions=1).action_count == 1
        assert make_impression(actions=2).action_count == 2
        assert not make_impression(actions=0).engaged
        assert make_impression(actions=1).engaged

    def test_feature_matrix_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            FeatureMatrix(("a",), FEATURE_NAMES, np.zeros((2, 8)))

    def test_feature_matrix_rejects_nan(self):
        vals = np.zeros((1, 8))
        vals[0, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix(("a",), FEATURE_NAMES, vals)
