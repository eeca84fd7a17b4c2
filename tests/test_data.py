import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feedlab.data import (
    DataFormatError,
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
