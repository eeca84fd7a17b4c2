"""Domain types, CSV ingestion, rating aggregation, and dataset persistence.

Interchange formats (all CSV with a header row, LF line endings):

    ratings.csv      rater_id,post_id,feature,value
    posts.csv        post_id,headline,source,category
    impressions.csv  participant_id,post_id,position,dwell_raw,shared,liked
                     (booleans as 0/1; dwell in seconds with 6 decimals;
                      cleaned files carry an extra dwell_adjusted column)
    dataset.json     posts + impressions + provenance digests

Loaders collect malformed rows into an error report instead of aborting;
semantic checks (referential integrity, position contiguity, dwell sign)
live in :func:`validate_dataset`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

FEATURE_NAMES: tuple[str, ...] = (
    "familiarity",
    "favorability",
    "impactful",
    "informative",
    "provocative",
    "sharing",
    "surprising",
    "truth",
)

CATEGORIES: tuple[str, ...] = ("true_news", "false_news", "opinion", "mundane")

NEWS_CATEGORIES: tuple[str, ...] = ("true_news", "false_news")

DWELL_DECIMALS = 6


class DataFormatError(ValueError):
    """A file does not match its expected schema (missing/renamed columns)."""


class DatasetValidationError(ValueError):
    """Semantic dataset invariants are violated; carries the violation list."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        preview = "; ".join(v.message for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"{len(violations)} dataset violation(s): {preview}{more}")


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class RowError:
    """One rejected input row: line number (1-based, header = line 1) and reason."""

    line: int
    message: str


@dataclass(frozen=True)
class Post:
    """One content item; ``features`` holds the 8 mean ratings once attached."""

    post_id: str
    headline: str
    source: str
    category: str
    features: dict[str, float] | None = None

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r} for post {self.post_id!r}")
        if self.features is not None:
            if tuple(sorted(self.features)) != FEATURE_NAMES:
                raise ValueError(
                    f"post {self.post_id!r} must have exactly the 8 canonical features"
                )
            for name, value in self.features.items():
                if not math.isfinite(value):
                    raise ValueError(f"post {self.post_id!r} feature {name!r} is not finite")


@dataclass(frozen=True)
class RatingRecord:
    rater_id: str
    post_id: str
    feature: str
    value: float

    def __post_init__(self):
        if self.feature not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {self.feature!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"rating value for {self.post_id!r}/{self.feature!r} is not finite")


@dataclass(frozen=True)
class ImpressionRecord:
    """One participant x post exposure.

    ``dwell_raw`` is observed on-screen time in seconds; ``dwell_adjusted``
    is populated by the dwell pipeline after motor-time subtraction.
    """

    participant_id: str
    post_id: str
    position: int
    dwell_raw: float
    shared: bool
    liked: bool
    dwell_adjusted: float | None = None

    @property
    def action_count(self) -> int:
        return int(self.shared) + int(self.liked)

    @property
    def engaged(self) -> bool:
        return self.action_count >= 1


@dataclass(frozen=True)
class FeatureMatrix:
    """Posts x features numeric table with no missing cells."""

    post_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.post_ids), len(self.feature_names)):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{len(self.post_ids)} posts x {len(self.feature_names)} features"
            )
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("feature matrix contains non-finite cells")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_posts(self) -> int:
        return len(self.post_ids)


@dataclass(frozen=True)
class Dataset:
    posts: tuple[Post, ...]
    impressions: tuple[ImpressionRecord, ...]
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# CSV loading


def _open_rows(path: str | Path, expected_header: list[str]) -> list[list[str]]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != expected_header:
        raise DataFormatError(
            f"{path}: expected header {','.join(expected_header)!r}, "
            f"got {','.join(rows[0]) if rows else '<empty file>'!r}"
        )
    return rows[1:]


def load_ratings(path: str | Path) -> tuple[list[RatingRecord], list[RowError]]:
    """Parse ratings.csv; malformed rows are reported, not fatal."""
    rows = _open_rows(path, ["rater_id", "post_id", "feature", "value"])
    records: list[RatingRecord] = []
    errors: list[RowError] = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 4:
            errors.append(RowError(lineno, f"expected 4 fields, got {len(row)}"))
            continue
        rater_id, post_id, feature, raw_value = row
        if feature not in FEATURE_NAMES:
            errors.append(RowError(lineno, f"unknown feature {feature!r}"))
            continue
        try:
            value = float(raw_value)
        except ValueError:
            errors.append(RowError(lineno, f"non-numeric value {raw_value!r}"))
            continue
        if not math.isfinite(value):
            errors.append(RowError(lineno, f"non-finite value {raw_value!r}"))
            continue
        records.append(RatingRecord(rater_id, post_id, feature, value))
    return records, errors


def load_posts(path: str | Path) -> tuple[list[Post], list[RowError]]:
    rows = _open_rows(path, ["post_id", "headline", "source", "category"])
    posts: list[Post] = []
    errors: list[RowError] = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 4:
            errors.append(RowError(lineno, f"expected 4 fields, got {len(row)}"))
            continue
        post_id, headline, source, category = row
        if category not in CATEGORIES:
            errors.append(RowError(lineno, f"unknown category {category!r}"))
            continue
        posts.append(Post(post_id, headline, source, category))
    return posts, errors


_IMPRESSION_HEADER = ["participant_id", "post_id", "position", "dwell_raw", "shared", "liked"]


def _parse_bool(raw: str) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise ValueError(f"expected 0/1 boolean, got {raw!r}")


def load_impressions(path: str | Path) -> tuple[list[ImpressionRecord], list[RowError]]:
    """Parse impressions.csv (plain or cleaned with dwell_adjusted)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] not in (_IMPRESSION_HEADER, _IMPRESSION_HEADER + ["dwell_adjusted"]):
        raise DataFormatError(
            f"{path}: expected header {','.join(_IMPRESSION_HEADER)!r}"
            " (optionally + dwell_adjusted),"
            f" got {','.join(rows[0]) if rows else '<empty file>'!r}"
        )
    has_adjusted = len(rows[0]) == 7
    width = 7 if has_adjusted else 6
    records: list[ImpressionRecord] = []
    errors: list[RowError] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            errors.append(RowError(lineno, f"expected {width} fields, got {len(row)}"))
            continue
        try:
            records.append(
                ImpressionRecord(
                    participant_id=row[0],
                    post_id=row[1],
                    position=int(row[2]),
                    dwell_raw=float(row[3]),
                    shared=_parse_bool(row[4]),
                    liked=_parse_bool(row[5]),
                    dwell_adjusted=float(row[6]) if has_adjusted else None,
                )
            )
        except ValueError as exc:
            errors.append(RowError(lineno, str(exc)))
    return records, errors


# ---------------------------------------------------------------------------
# CSV writing (canonical forms; load(save(x)) is byte-stable)


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def save_ratings(path: str | Path, records: list[RatingRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _writer(fh)
        w.writerow(["rater_id", "post_id", "feature", "value"])
        for r in records:
            w.writerow([r.rater_id, r.post_id, r.feature, repr(r.value)])


def save_posts(path: str | Path, posts: list[Post]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _writer(fh)
        w.writerow(["post_id", "headline", "source", "category"])
        for p in posts:
            w.writerow([p.post_id, p.headline, p.source, p.category])


def save_impressions(path: str | Path, impressions: list[ImpressionRecord]) -> None:
    """Write impressions.csv; emits dwell_adjusted iff every record carries it."""
    adjusted = [i.dwell_adjusted is not None for i in impressions]
    if any(adjusted) and not all(adjusted):
        raise ValueError("mixed adjusted/unadjusted impressions cannot be saved together")
    include_adjusted = bool(impressions) and all(adjusted)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _writer(fh)
        header = list(_IMPRESSION_HEADER) + (["dwell_adjusted"] if include_adjusted else [])
        w.writerow(header)
        for i in impressions:
            row = [
                i.participant_id,
                i.post_id,
                str(i.position),
                f"{i.dwell_raw:.{DWELL_DECIMALS}f}",
                str(int(i.shared)),
                str(int(i.liked)),
            ]
            if include_adjusted:
                row.append(f"{i.dwell_adjusted:.{DWELL_DECIMALS}f}")
            w.writerow(row)


# ---------------------------------------------------------------------------
# Aggregation


def aggregate_ratings(records: list[RatingRecord]) -> FeatureMatrix:
    """Mean rating per (post, feature); posts missing any feature are dropped.

    Dropping (rather than imputing) keeps downstream component analysis free
    of fabricated values.
    """
    if not records:
        warnings.warn("aggregate_ratings: empty input, returning empty matrix")
        return FeatureMatrix((), FEATURE_NAMES, np.empty((0, len(FEATURE_NAMES))))
    cells: dict[str, dict[str, list[float]]] = {}
    for r in records:
        cells.setdefault(r.post_id, {}).setdefault(r.feature, []).append(r.value)
    kept: list[str] = []
    dropped: list[str] = []
    for post_id in sorted(cells):
        if len(cells[post_id]) == len(FEATURE_NAMES):
            kept.append(post_id)
        else:
            dropped.append(post_id)
    if dropped:
        warnings.warn(
            f"aggregate_ratings: dropped {len(dropped)} post(s) with incomplete "
            f"feature coverage: {', '.join(dropped[:10])}"
            + ("..." if len(dropped) > 10 else "")
        )
    # sum each cell in sorted order so the mean is invariant to row order
    values = np.array(
        [
            [math.fsum(sorted(cells[p][f])) / len(cells[p][f]) for f in FEATURE_NAMES]
            for p in kept
        ],
        dtype=float,
    ).reshape(len(kept), len(FEATURE_NAMES))
    return FeatureMatrix(tuple(kept), FEATURE_NAMES, values)


def ratings_per_post_per_feature(records: list[RatingRecord]) -> float:
    """Mean number of ratings behind each (post, feature) cell."""
    counts: dict[tuple[str, str], int] = {}
    for r in records:
        key = (r.post_id, r.feature)
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return 0.0
    return sum(counts.values()) / len(counts)


# ---------------------------------------------------------------------------
# Validation


def dataset_violations(
    posts: list[Post], impressions: list[ImpressionRecord]
) -> list[Violation]:
    violations: list[Violation] = []
    known = {p.post_id for p in posts}
    seen_posts: set[str] = set()
    for p in posts:
        if p.post_id in seen_posts:
            violations.append(Violation("duplicate_post", f"duplicate post_id {p.post_id!r}"))
        seen_posts.add(p.post_id)

    by_participant: dict[str, list[ImpressionRecord]] = {}
    for imp in impressions:
        by_participant.setdefault(imp.participant_id, []).append(imp)
        if imp.post_id not in known:
            violations.append(
                Violation(
                    "dangling_post",
                    f"impression references unknown post {imp.post_id!r} "
                    f"(participant {imp.participant_id!r})",
                )
            )
        if imp.dwell_raw < 0:
            violations.append(
                Violation(
                    "negative_dwell",
                    f"negative dwell {imp.dwell_raw} for participant "
                    f"{imp.participant_id!r} position {imp.position}",
                )
            )

    for pid in sorted(by_participant):
        positions = sorted(i.position for i in by_participant[pid])
        n = len(positions)
        if len(set(positions)) != n:
            dupes = sorted({p for p in positions if positions.count(p) > 1})
            violations.append(
                Violation(
                    "duplicate_position",
                    f"participant {pid!r} has duplicated position(s) {dupes}",
                )
            )
        elif positions != list(range(1, n + 1)):
            violations.append(
                Violation(
                    "position_gap",
                    f"participant {pid!r} positions are not contiguous 1..{n}",
                )
            )
    return violations


def validate_dataset(
    posts: list[Post],
    impressions: list[ImpressionRecord],
    provenance: dict | None = None,
) -> Dataset:
    """Check referential integrity, position contiguity, and dwell sign.

    Raises :class:`DatasetValidationError` carrying the full violation list.
    """
    violations = dataset_violations(posts, impressions)
    if violations:
        raise DatasetValidationError(violations)
    return Dataset(tuple(posts), tuple(impressions), provenance or {})


# ---------------------------------------------------------------------------
# Dataset persistence


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def make_provenance(source_paths: list[str | Path]) -> dict:
    return {
        "sources": {str(Path(p).name): file_digest(p) for p in source_paths},
        "ingested_at": datetime.now(timezone.utc).isoformat(),
    }


def _post_to_dict(p: Post) -> dict:
    d = {
        "post_id": p.post_id,
        "headline": p.headline,
        "source": p.source,
        "category": p.category,
    }
    if p.features is not None:
        d["features"] = {k: p.features[k] for k in FEATURE_NAMES}
    return d


def _impression_to_dict(i: ImpressionRecord) -> dict:
    d = {
        "participant_id": i.participant_id,
        "post_id": i.post_id,
        "position": i.position,
        "dwell_raw": i.dwell_raw,
        "shared": i.shared,
        "liked": i.liked,
    }
    if i.dwell_adjusted is not None:
        d["dwell_adjusted"] = i.dwell_adjusted
    return d


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    payload = {
        "provenance": dataset.provenance,
        "posts": [_post_to_dict(p) for p in dataset.posts],
        "impressions": [_impression_to_dict(i) for i in dataset.impressions],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_dataset(path: str | Path) -> Dataset:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    posts = [
        Post(
            post_id=d["post_id"],
            headline=d["headline"],
            source=d["source"],
            category=d["category"],
            features=d.get("features"),
        )
        for d in payload["posts"]
    ]
    impressions = [
        ImpressionRecord(
            participant_id=d["participant_id"],
            post_id=d["post_id"],
            position=d["position"],
            dwell_raw=d["dwell_raw"],
            shared=d["shared"],
            liked=d["liked"],
            dwell_adjusted=d.get("dwell_adjusted"),
        )
        for d in payload["impressions"]
    ]
    return Dataset(tuple(posts), tuple(impressions), payload.get("provenance", {}))
