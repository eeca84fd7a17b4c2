"""Domain types, CSV ingestion, rating aggregation, and dataset persistence.

Interchange formats (all CSV with a header row, LF line endings):

    ratings.csv      rater_id,post_id,feature,value
    posts.csv        post_id,headline,source,category
    impressions.csv  participant_id,post_id,position,dwell_raw,shared,liked
                     (booleans as 0/1; dwell in seconds with 6 decimals;
                      cleaned files carry an extra dwell_adjusted column)
    dataset.json     posts + impressions + provenance digests

In memory, impressions are one columnar :class:`Impressions` table (one
array per field); :class:`ImpressionRecord` is its row type, produced by
indexing or iterating the table. Every function that takes impressions also
accepts an iterable of records and converts it once with
:meth:`Impressions.of`.

Loaders collect malformed rows into an error report instead of aborting;
semantic checks (referential integrity, position contiguity, dwell sign)
live in :func:`validate_dataset`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import warnings
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

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


@dataclass(frozen=True, eq=False)
class Impressions:
    """Columnar impression table: one array per :class:`ImpressionRecord` field.

    ``participant_id`` and ``post_id`` are str arrays; ``dwell_adjusted`` is
    None until the dwell pipeline sets it. An int index or iteration yields
    :class:`ImpressionRecord` rows; a slice, boolean mask or index array
    selects rows as a new table. ``==`` compares rows.
    """

    participant_id: np.ndarray
    post_id: np.ndarray
    position: np.ndarray
    dwell_raw: np.ndarray
    shared: np.ndarray
    liked: np.ndarray
    dwell_adjusted: np.ndarray | None = None

    def __post_init__(self):
        if len({len(c) for c in self._columns() if c is not None}) != 1:
            raise ValueError("impression columns differ in length")

    @classmethod
    def of(cls, impressions: Iterable[ImpressionRecord]) -> Impressions:
        """The table itself, or the records converted to one table.

        Records must all carry ``dwell_adjusted`` or all lack it.
        """
        if isinstance(impressions, cls):
            return impressions
        return cls._from_rows(list(map(_record_values, impressions)))

    @classmethod
    def _from_rows(cls, rows: list[tuple]) -> Impressions:
        """Build the columns from one tuple per row, in field order."""
        columns = list(zip(*rows)) if rows else [()] * 7
        n_adjusted = sum(v is not None for v in columns[6])
        if 0 < n_adjusted < len(rows):
            raise ValueError("mixed adjusted/unadjusted impressions cannot form one table")
        dtypes = (str, str, np.int64, float, bool, bool, float)
        if n_adjusted < len(rows):
            columns[6] = None
        return cls(*(c if c is None else np.array(c, dtype=t) for c, t in zip(columns, dtypes)))

    def _columns(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def _column_lists(self) -> dict[str, list]:
        """Each column that is set, as a list; equal str cells share one object."""
        return {
            f.name: _str_list(c) if c.dtype.kind == "U" else c.tolist()
            for f, c in zip(fields(self), self._columns())
            if c is not None
        }

    @property
    def action_count(self) -> np.ndarray:
        return self.shared.astype(np.int64) + self.liked.astype(np.int64)

    def __len__(self) -> int:
        return len(self.participant_id)

    def __getitem__(self, key):
        cells = (None if c is None else c[key] for c in self._columns())
        if isinstance(key, (int, np.integer)):
            return ImpressionRecord(*(None if v is None else v.item() for v in cells))
        return Impressions(*cells)

    def __iter__(self):
        return (ImpressionRecord(*row) for row in zip(*self._column_lists().values()))

    def __eq__(self, other):
        return isinstance(other, Impressions) and all(
            a is b if a is None or b is None else np.array_equal(a, b)
            for a, b in zip(self._columns(), other._columns())
        )


_record_values = operator.attrgetter(*(f.name for f in fields(ImpressionRecord)))


def _str_list(column: np.ndarray) -> list[str]:
    """A str column as a list holding one shared str object per distinct value."""
    names, codes = np.unique(column, return_inverse=True)
    names = names.tolist()
    return [names[i] for i in codes.tolist()]


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
    impressions: Impressions
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# CSV loading


def _open_rows(path: str | Path, *headers: list[str]) -> tuple[list[str], list[list[str]]]:
    """The header and data rows of a CSV file whose header is one of ``headers``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] not in headers:
        raise DataFormatError(
            f"{path}: expected header {' or '.join(repr(','.join(h)) for h in headers)}, "
            f"got {','.join(rows[0]) if rows else '<empty file>'!r}"
        )
    return rows[0], rows[1:]


def load_ratings(path: str | Path) -> tuple[list[RatingRecord], list[RowError]]:
    """Parse ratings.csv; malformed rows are reported, not fatal."""
    _, rows = _open_rows(path, ["rater_id", "post_id", "feature", "value"])
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
    _, rows = _open_rows(path, ["post_id", "headline", "source", "category"])
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


def load_impressions(path: str | Path) -> tuple[Impressions, list[RowError]]:
    """Parse impressions.csv (plain or cleaned with dwell_adjusted)."""
    header, rows = _open_rows(path, _IMPRESSION_HEADER, _IMPRESSION_HEADER + ["dwell_adjusted"])
    width = len(header)
    has_adjusted = width == 7
    parsed: list[tuple] = []
    errors: list[RowError] = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            errors.append(RowError(lineno, f"expected {width} fields, got {len(row)}"))
            continue
        try:
            values = (
                row[0], row[1], int(row[2]), float(row[3]),
                _parse_bool(row[4]), _parse_bool(row[5]),
                float(row[6]) if has_adjusted else None,
            )
        except ValueError as exc:
            errors.append(RowError(lineno, str(exc)))
            continue
        dwells = {"dwell_raw": values[3], "dwell_adjusted": values[6]}
        non_finite = [k for k, v in dwells.items() if v is not None and not math.isfinite(v)]
        if non_finite:
            errors.append(RowError(lineno, f"non-finite {' and '.join(non_finite)}"))
            continue
        parsed.append(values)
    return Impressions._from_rows(parsed), errors


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


def save_impressions(path: str | Path, impressions: Iterable[ImpressionRecord]) -> None:
    """Write impressions.csv; emits dwell_adjusted iff the rows carry it."""
    imps = Impressions.of(impressions)
    # the table's field names are the file's column names, in file order; an
    # empty table writes the plain header
    columns = imps._column_lists() if len(imps) else dict.fromkeys(_IMPRESSION_HEADER, [])
    dwell_text = f"{{:.{DWELL_DECIMALS}f}}".format
    for name, fmt in (("dwell_raw", dwell_text), ("shared", int), ("liked", int),
                      ("dwell_adjusted", dwell_text)):
        if name in columns:
            columns[name] = list(map(fmt, columns[name]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _writer(fh)
        w.writerow(list(columns))
        w.writerows(zip(*columns.values()))


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
    posts: list[Post], impressions: Iterable[ImpressionRecord]
) -> list[Violation]:
    imps = Impressions.of(impressions)
    violations: list[Violation] = []
    flag = lambda kind, message: violations.append(Violation(kind, message))
    known = {p.post_id for p in posts}
    seen_posts: set[str] = set()
    for p in posts:
        if p.post_id in seen_posts:
            flag("duplicate_post", f"duplicate post_id {p.post_id!r}")
        seen_posts.add(p.post_id)

    dangling = ~np.isin(imps.post_id, np.array(list(known), dtype=str))
    for pid, post in zip(imps.participant_id[dangling].tolist(), imps.post_id[dangling].tolist()):
        flag("dangling_post", f"impression references unknown post {post!r} (participant {pid!r})")
    negative = imps.dwell_raw < 0
    for pid, pos, dwell in zip(
        *(c[negative].tolist() for c in (imps.participant_id, imps.position, imps.dwell_raw))
    ):
        flag("negative_dwell", f"negative dwell {dwell} for participant {pid!r} position {pos}")

    pids, group = np.unique(imps.participant_id, return_inverse=True)
    order = np.lexsort((imps.position, group))
    ends = np.cumsum(np.bincount(group, minlength=len(pids)))[:-1]
    for pid, positions in zip(pids.tolist(), np.split(imps.position[order], ends)):
        repeated = positions[1:][positions[1:] == positions[:-1]]
        n = len(positions)
        if repeated.size:
            dupes = np.unique(repeated).tolist()
            flag("duplicate_position", f"participant {pid!r} has duplicated position(s) {dupes}")
        elif not np.array_equal(positions, np.arange(1, n + 1)):
            flag("position_gap", f"participant {pid!r} positions are not contiguous 1..{n}")
    return violations


def validate_dataset(
    posts: list[Post],
    impressions: Iterable[ImpressionRecord],
    provenance: dict | None = None,
) -> Dataset:
    """Check referential integrity, position contiguity, and dwell sign.

    Raises :class:`DatasetValidationError` carrying the full violation list.
    """
    imps = Impressions.of(impressions)
    violations = dataset_violations(posts, imps)
    if violations:
        raise DatasetValidationError(violations)
    return Dataset(tuple(posts), imps, provenance or {})


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


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    columns = dataset.impressions._column_lists()
    payload = {
        "provenance": dataset.provenance,
        "posts": [_post_to_dict(p) for p in dataset.posts],
        "impressions": [dict(zip(columns, row)) for row in zip(*columns.values())],
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
    impressions = Impressions._from_rows(
        [
            (
                d["participant_id"], d["post_id"], d["position"], d["dwell_raw"],
                d["shared"], d["liked"], d.get("dwell_adjusted"),
            )
            for d in payload["impressions"]
        ]
    )
    return Dataset(tuple(posts), impressions, payload.get("provenance", {}))
