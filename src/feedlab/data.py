"""Domain types, CSV ingestion, rating aggregation, and the artifact formats.

Interchange formats (all CSV with a header row, LF line endings; the column
names are the record's field names):

    ratings.csv      rater_id,post_id,feature,value
    posts.csv        post_id,headline,source,category
    impressions.csv  participant_id,post_id,position,dwell_raw,shared,liked
                     (booleans as 0/1; dwell in seconds with 6 decimals;
                      cleaned files carry an extra dwell_adjusted column)
    dataset.json     posts + impressions + provenance digests

Every artifact of every module is written by one of two writers:
:func:`write_json` writes canonical JSON (sorted keys, 2-space indent,
trailing newline; a dataclass as its fields, a numpy array as a list, an
:class:`Impressions` field as one object per row), and :func:`write_csv`
writes UTF-8 CSV with LF line endings (:func:`save_impressions` writes the
same bytes column-wise). A ``save_*`` function writes its dataclass; the
matching ``load_*`` builds it from the file's fields (:func:`from_fields` for JSON).

Two CSV readers read them back. ``_open_columns`` reads impressions.csv
column-wise: a file without quotes or carriage returns is split in one
``str.split`` and each column is converted in one pass; any other file goes
through the csv module. ``_open_rows`` reads every other CSV file (ratings,
posts, scores) row by row with the csv module. :func:`load_impressions`
walks the rows one by one only to report errors, when a column fails to
convert.

In memory, impressions are one columnar :class:`Impressions` table (one
array per field, the ids as int32 codes into sorted vocabularies);
:class:`ImpressionRecord` is its row type, produced by indexing or iterating
the table. Every function that takes impressions also accepts an iterable of
records and converts it once with :meth:`Impressions.of`.

Loaders collect malformed rows into an error report instead of aborting;
semantic checks (referential integrity, position contiguity, dwell sign)
live in :func:`validate_dataset`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
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


@dataclass(frozen=True, eq=False, kw_only=True)
class Impressions:
    """Columnar impression table: one array per :class:`ImpressionRecord` field.

    An id column is held as int32 codes (``participant_code``, ``post_code``)
    into a vocabulary of distinct ids (``participant_vocab``, ``post_vocab``)
    sorted as ``np.unique`` sorts them; the ``participant_id`` and ``post_id``
    properties decode them to str arrays. A selection keeps the vocabulary,
    so it may hold ids with no rows; :meth:`groups` leaves those out.
    ``dwell_adjusted`` is None until the dwell pipeline sets it. An int index
    or iteration yields :class:`ImpressionRecord` rows; a slice, boolean mask
    or index array selects rows as a new table. ``==`` compares rows.
    """

    participant_vocab: np.ndarray
    participant_code: np.ndarray
    post_vocab: np.ndarray
    post_code: np.ndarray
    position: np.ndarray
    dwell_raw: np.ndarray
    shared: np.ndarray
    liked: np.ndarray
    dwell_adjusted: np.ndarray | None = None

    def __post_init__(self):
        rows = (self.participant_code, self.post_code, *self._values())
        if len({len(c) for c in rows if c is not None}) != 1:
            raise ValueError("impression columns differ in length")
        if any(np.any(v[1:] <= v[:-1]) for v in (self.participant_vocab, self.post_vocab)):
            raise ValueError("an id vocabulary must be sorted and distinct")

    @classmethod
    def of(cls, impressions: Iterable[ImpressionRecord]) -> Impressions:
        """The table itself, or the records converted to one table.

        Records must all carry ``dwell_adjusted`` or all lack it; an empty
        table lacks it.
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
        dtypes = (np.int64, float, bool, bool, float)[: 5 if n_adjusted else 4]
        return cls._from_ids(*columns[:2], *map(np.array, columns[2:], dtypes))

    @classmethod
    def _from_ids(cls, participant_id, post_id, *values: np.ndarray) -> Impressions:
        """The table of two id sequences, each coded in one pass, and the other columns;
        only the distinct ids are sorted, so a vocabulary is what ``np.unique`` gives."""
        coded = {}
        for key, ids in (("participant", participant_id), ("post", post_id)):
            distinct = dict.fromkeys(ids)
            vocab, rank = np.unique(np.array(list(distinct), dtype=str), return_inverse=True)
            code = dict(zip(distinct, rank.tolist())).__getitem__
            coded[f"{key}_vocab"] = vocab
            coded[f"{key}_code"] = np.fromiter(map(code, ids), np.int32, len(ids))
        return cls(**coded, **dict(zip(_VALUE_FIELDS, values)))

    def _values(self) -> tuple:
        """The record's columns after the two ids, in field order."""
        return tuple(getattr(self, k) for k in _VALUE_FIELDS)

    def _columns(self) -> tuple:
        """The columns in record field order, ids decoded."""
        return (self.participant_id, self.post_id, *self._values())

    @property
    def participant_id(self) -> np.ndarray:
        return self.participant_vocab[self.participant_code]

    @property
    def post_id(self) -> np.ndarray:
        return self.post_vocab[self.post_code]

    @property
    def action_count(self) -> np.ndarray:
        return self.shared.astype(np.int64) + self.liked.astype(np.int64)

    def groups(self, key: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows grouped by ``key`` id, ``"participant"`` or ``"post"``: the ids with rows,
        each row's group and each group's size, as ``np.unique(ids, return_inverse=True,
        return_counts=True)`` gives them, but counted on the codes."""
        vocab, codes = getattr(self, f"{key}_vocab"), getattr(self, f"{key}_code")
        counts = np.bincount(codes, minlength=len(vocab))
        present = counts > 0
        return vocab[present], (np.cumsum(present) - 1)[codes], counts[present]

    def _id_cells(self, key: str, encode=None) -> list[str]:
        """Id column ``key`` as a list, each distinct id encoded once by ``encode``."""
        names = getattr(self, f"{key}_vocab").tolist()
        names = list(map(encode, names)) if encode else names
        return list(map(names.__getitem__, getattr(self, f"{key}_code").tolist()))

    def __len__(self) -> int:
        return len(self.position)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return next(iter(self[np.array([key])]))
        values = {k: c[key] for k, c in zip(_VALUE_FIELDS, self._values()) if c is not None}
        codes = {"participant_code": self.participant_code[key], "post_code": self.post_code[key]}
        return replace(self, **codes, **values)

    def __iter__(self):
        values = (c.tolist() for c in self._values() if c is not None)
        return map(ImpressionRecord, self._id_cells("participant"), self._id_cells("post"), *values)

    def __eq__(self, other):
        return isinstance(other, Impressions) and all(
            a is b if a is None or b is None else np.array_equal(a, b)
            for a, b in zip(self._columns(), other._columns())
        )


_record_values = operator.attrgetter(*(f.name for f in fields(ImpressionRecord)))

# the record's fields after the two ids, which Impressions holds as they are
_VALUE_FIELDS = tuple(f.name for f in fields(ImpressionRecord))[2:]

# each CSV file's columns are its record's fields, the optional ones left out
_RATINGS_HEADER = [f.name for f in fields(RatingRecord)]
_POSTS_HEADER = [f.name for f in fields(Post)][:-1]
_IMPRESSION_HEADER = [f.name for f in fields(ImpressionRecord)][:-1]


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
# Artifact formats: the two writers, the CSV reader and the JSON-object reader


def _jsonable(obj):
    """JSON form of a dataclass (its fields, None ones left out) or a numpy array."""
    if is_dataclass(obj):
        return {f.name: v for f in fields(obj) if (v := getattr(obj, f.name)) is not None}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_rows(table: Impressions) -> str:
    """``table`` as the indented JSON list of one object per row that
    ``json.dumps(..., indent=2, sort_keys=True)`` writes for a top-level key.

    The C encoder writes every cell (it runs only without an indent): a
    numeric or bool column as one list, each vocabulary id once. The rows are
    one fixed template whose texts are interleaved with those cells.
    """
    n = len(table)
    if not n:
        return "[]"
    cells = {}
    for name in sorted(f.name for f in fields(ImpressionRecord)):
        if name.endswith("_id"):
            cells[name] = table._id_cells(name.removesuffix("_id"), encode_basestring_ascii)
        elif (column := getattr(table, name)) is not None:
            cells[name] = json.dumps(column.tolist())[1:-1].split(", ")
    # the template's text before each cell; a row's first one closes the row before
    keys = [f"      {json.dumps(name)}: " for name in cells]
    texts = ["\n    },\n    {\n" + keys[0], *(",\n" + key for key in keys[1:])]
    k = len(texts)
    chunks = [""] * (2 * k * n)
    for j, (text, column) in enumerate(zip(texts, cells.values())):
        chunks[2 * j::2 * k] = [text] * n
        chunks[2 * j + 1::2 * k] = column
    chunks[0] = "[\n    {\n" + keys[0]
    return "".join(chunks) + "\n    }\n  ]"


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as canonical JSON: sorted keys, 2-space indent, trailing newline.

    An :class:`Impressions` table that is a field of the payload is written as
    one object per row.
    """
    # the encoder passes every chunk of a hook's result through one more
    # generator, which costs ~10% on dataset.json; convert the top level here
    payload = _jsonable(payload) if is_dataclass(payload) else payload
    tables = {}
    if isinstance(payload, dict):
        tables = {k: v for k, v in payload.items() if isinstance(v, Impressions)}
        payload = {**payload, **dict.fromkeys(tables, [])}
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(tables):  # in file order; each table is written as it is joined
            # a top-level key is the only line indented by exactly two spaces
            head, text = text.split(f"\n  {json.dumps(key)}: []", 1)
            fh.write(f"{head}\n  {json.dumps(key)}: ")
            fh.write(_json_rows(tables[key]))
        fh.write(text + "\n")


def from_fields(cls, payload: dict, **decoded):
    """Build dataclass ``cls`` from a file's JSON object, ``decoded`` replacing the
    fields that need converting; a missing or unknown field is a :class:`DataFormatError`.
    """
    try:
        return cls(**dict(payload, **decoded))
    except TypeError as exc:
        raise DataFormatError(f"not a {cls.__name__}: {exc}") from None


def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Write a header row and ``rows`` as UTF-8 CSV with LF line endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text with its line endings as they are."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def _check_header(path: str | Path, rows: list[list[str]], headers) -> list[str]:
    """``rows[0]``, if it is one of ``headers`` (any header when there are none)."""
    if not rows or (headers and rows[0] not in headers):
        expected = " or ".join(repr(",".join(h)) for h in headers) or "row"
        raise DataFormatError(
            f"{path}: expected header {expected}, "
            f"got {','.join(rows[0]) if rows else '<empty file>'!r}"
        )
    return rows[0]


def _open_rows(path: str | Path, *headers: list[str]) -> tuple[list[str], list[list[str]]]:
    """The header and data rows of a CSV file whose header is one of ``headers``.

    With no ``headers`` any header is accepted and the caller checks it.
    """
    rows = list(csv.reader(io.StringIO(_read_text(path), newline="")))
    return _check_header(path, rows, headers), rows[1:]


def _open_columns(
    path: str | Path, *headers: list[str]
) -> tuple[list[str], list[list[str]] | None]:
    """The header and data columns of a CSV file whose header is one of ``headers``;
    the columns are None when a row's field count is not the header's.

    A file with no quote, no carriage return and no line longer than the csv
    module's field limit is split by ``str.split`` in one pass, which is how
    the csv module would split it; any other file is read by the csv module.
    """
    text = _read_text(path)
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final line break ends the last row
    if '"' in text or "\r" in text or max(map(len, lines), default=0) > csv.field_size_limit():
        header, rows = _open_rows(path, *headers)
        if any(len(row) != len(header) for row in rows):
            return header, None
        return header, [list(c) for c in zip(*rows)] or [[] for _ in header]
    header = _check_header(path, [line.split(",") for line in lines[:1]], headers)
    width = len(header)
    if set(map(str.count, lines[1:], itertools.repeat(","))) - {width - 1}:
        return header, None
    cells = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
    return header, [cells[i::width] for i in range(width)]


# ---------------------------------------------------------------------------
# CSV loading


def load_ratings(path: str | Path) -> tuple[list[RatingRecord], list[RowError]]:
    """Parse ratings.csv; malformed rows are reported, not fatal."""
    _, rows = _open_rows(path, _RATINGS_HEADER)
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
    _, rows = _open_rows(path, _POSTS_HEADER)
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


def _parse_bool(raw: str) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise ValueError(f"expected 0/1 boolean, got {raw!r}")


def _bool_column(cells: list[str]) -> np.ndarray:
    if not set(cells) <= {"0", "1"}:
        raise ValueError("expected 0/1 booleans")
    return np.fromiter(map("1".__eq__, cells), bool, len(cells))


def _dwell_column(cells: list[str]) -> np.ndarray:
    dwell = np.fromiter(map(float, cells), float, len(cells))
    if not np.isfinite(dwell).all():
        raise ValueError("non-finite dwell")
    return dwell


# one converter per impressions.csv column after the two ids, in file order
_IMPRESSION_PARSERS = (
    lambda cells: np.fromiter(map(int, cells), np.int64, len(cells)),
    _dwell_column,
    _bool_column,
    _bool_column,
    _dwell_column,
)


def _impression_table(columns: list[list[str]]) -> Impressions:
    """The table of impressions.csv's data columns, each converted in one pass.

    Raises ValueError when a cell does not parse or a dwell is not finite. A
    plain file's table has no dwell_adjusted, even when it has no rows.
    """
    values = (parse(c) for parse, c in zip(_IMPRESSION_PARSERS, columns[2:]))
    return Impressions._from_ids(*columns[:2], *values)


def load_impressions(path: str | Path) -> tuple[Impressions, list[RowError]]:
    """Parse impressions.csv (plain or cleaned with dwell_adjusted).

    Each column is converted in one pass. Only when that fails (a ragged row,
    a cell that does not parse, a non-finite dwell) does the row-by-row check
    below run: it reports each bad row, and the table leaves those rows out.
    """
    headers = (_IMPRESSION_HEADER, _IMPRESSION_HEADER + ["dwell_adjusted"])
    header, columns = _open_columns(path, *headers)
    if columns is not None:
        try:
            return _impression_table(columns), []
        except (ValueError, OverflowError):
            pass
    _, rows = _open_rows(path, header)
    width = len(header)
    kept: list[list[str]] = []
    errors: list[RowError] = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            errors.append(RowError(lineno, f"expected {width} fields, got {len(row)}"))
            continue
        try:
            int(row[2])
            dwells = {"dwell_raw": float(row[3])}
            _parse_bool(row[4])
            _parse_bool(row[5])
            if width == 7:
                dwells["dwell_adjusted"] = float(row[6])
        except ValueError as exc:
            errors.append(RowError(lineno, str(exc)))
            continue
        non_finite = [k for k, v in dwells.items() if not math.isfinite(v)]
        if non_finite:
            errors.append(RowError(lineno, f"non-finite {' and '.join(non_finite)}"))
            continue
        kept.append(row)
    return _impression_table([list(c) for c in zip(*kept)] or [[]] * width), errors


# ---------------------------------------------------------------------------
# CSV writing (canonical forms; load(save(x)) is byte-stable)


def save_ratings(path: str | Path, records: list[RatingRecord]) -> None:
    write_csv(path, _RATINGS_HEADER, map(operator.attrgetter(*_RATINGS_HEADER), records))


def save_posts(path: str | Path, posts: list[Post]) -> None:
    write_csv(path, _POSTS_HEADER, map(operator.attrgetter(*_POSTS_HEADER), posts))


def _csv_field(value: str) -> str:
    """``value`` as the csv module writes it inside a row, quoted only if it must be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def save_impressions(path: str | Path, impressions: Iterable[ImpressionRecord]) -> None:
    """Write impressions.csv; emits dwell_adjusted iff the rows carry it.

    The file is what :func:`write_csv` writes, built column by column: each
    distinct id is quoted once, as the csv module quotes it, and each line is
    joined from the formatted cells. An empty table writes the plain header.
    """
    imps = Impressions.of(impressions)
    dwell, flag = f"{{:.{DWELL_DECIMALS}f}}".format, ("0", "1").__getitem__
    values = [c for c in imps._values() if c is not None][: 5 if len(imps) else 4]
    columns = [imps._id_cells("participant", _csv_field), imps._id_cells("post", _csv_field)]
    columns += (map(f, c.tolist()) for f, c in zip((str, dwell, flag, flag, dwell), values))
    header = [f.name for f in fields(ImpressionRecord)][: len(columns)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map("{}\n".format, map(",".join, zip(*columns))))


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
    kept = [p for p in sorted(cells) if len(cells[p]) == len(FEATURE_NAMES)]
    dropped = sorted(cells.keys() - set(kept))
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
    cells = {(r.post_id, r.feature) for r in records}
    return len(records) / len(cells) if cells else 0.0


# ---------------------------------------------------------------------------
# Validation


def dataset_violations(
    posts: list[Post], impressions: Iterable[ImpressionRecord]
) -> list[Violation]:
    imps = Impressions.of(impressions)
    violations: list[Violation] = []
    flag = lambda kind, message: violations.append(Violation(kind, message))
    known: set[str] = set()
    for p in posts:
        if p.post_id in known:
            flag("duplicate_post", f"duplicate post_id {p.post_id!r}")
        known.add(p.post_id)

    # an id check over the post vocabulary, then a lookup per row
    unknown = ~np.isin(imps.post_vocab, np.array(list(known), dtype=str))
    dangling = imps[unknown[imps.post_code]]
    for pid, post in zip(dangling.participant_id.tolist(), dangling.post_id.tolist()):
        flag("dangling_post", f"impression references unknown post {post!r} (participant {pid!r})")
    return violations + impression_violations(imps)


def impression_violations(impressions: Iterable[ImpressionRecord]) -> list[Violation]:
    """The checks that need no posts table: dwell sign and position contiguity."""
    imps = Impressions.of(impressions)
    violations: list[Violation] = []
    flag = lambda kind, message: violations.append(Violation(kind, message))
    negative = imps[imps.dwell_raw < 0]
    for pid, pos, dwell in zip(
        *(c.tolist() for c in (negative.participant_id, negative.position, negative.dwell_raw))
    ):
        flag("negative_dwell", f"negative dwell {dwell} for participant {pid!r} position {pos}")

    pids, group, counts = imps.groups("participant")
    order = np.lexsort((imps.position, group))
    ends = np.cumsum(counts)[:-1]
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


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    """Write dataset.json; the impressions are written as one object per row."""
    write_json(path, dataset)


def load_dataset(path: str | Path) -> Dataset:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    # one tuple per row, in ImpressionRecord field order, without a record per row
    cells = operator.itemgetter(*_IMPRESSION_HEADER)
    rows = [(*cells(d), d.get("dwell_adjusted")) for d in payload["impressions"]]
    return Dataset(
        tuple(from_fields(Post, d) for d in payload["posts"]),
        Impressions._from_rows(rows),
        payload.get("provenance", {}),
    )
