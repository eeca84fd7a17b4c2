"""Domain types, CSV ingestion, rating aggregation, and the artifact formats.

Interchange formats (all CSV with a header row, LF line endings; the column
names are the record's field names):

    ratings.csv      rater_id,post_id,feature,value
    posts.csv        post_id,headline,source,category
    impressions.csv  participant_id,post_id,position,dwell_raw,shared,liked
                     (booleans as 0/1; dwell in seconds with 6 decimals;
                      cleaned files carry an extra dwell_adjusted column)
    dataset.json     posts with their feature rows + provenance (impressions.csv by digest)

Every artifact of every module is written by one of two writers:
:func:`write_json` writes canonical JSON (sorted keys, 2-space indent,
trailing newline; a dataclass as its fields, a numpy array as a list), and
:func:`write_csv` writes UTF-8 CSV with LF line endings
(:func:`save_impressions` writes the same bytes with numpy). A ``save_*``
function writes its dataclass; the matching ``load_*`` builds it from the
file's fields: :func:`read_json` reads a JSON file (a malformed one is a
:class:`DataFormatError` naming it) and :func:`from_fields`, the one check of a
JSON object's fields, builds its object: the value must be an object, each int,
float or str field a value of that type (for a float field, a number that
converts to a float), no field missing or unknown, each nested value one that
its decoder accepts, and every value one that the dataclass accepts, or the
error names the file.

:func:`load_impressions` has two readers. A file in the canonical form that
:func:`save_impressions` writes (UTF-8 with LF line ends and no '"', CR or
NUL; every row with the header's field count; positions of at most 18 ASCII
digits; dwells matching ``[0-9]+[.][0-9]+`` with at most 15 digits; bools the
one byte 0 or 1; ids of any length) is read from its bytes with numpy, with
no Python object per row or cell: an id column is coded by a sort of its
cells on their first 8-byte word, then of each run of equal cells holding a
longer id on its next word, and one cell per distinct id is decoded. Any other file
(quoted ids, CR line ends, spaces or other number spellings, ragged rows, a
header only) is read by the csv module in one pass over its rows, which
reports each bad row: a well-formed one gives the table and errors that the
same rows in the canonical form give, only more slowly.
``_parse_rows`` reads those files and every other CSV file (ratings, posts,
scores) with the csv module; a ratings or posts row's fields are checked by
its record's constructor alone.

:func:`save_impressions` builds the body of impressions.csv as a (rows,
width) uint8 matrix, each cell padded with a byte that no UTF-8 text holds
and that is dropped in one pass, with no Python object per row: each
distinct id is quoted once and gathered by its code, integers are written
as digits, and a dwell as the exact fixed-point integer rint(|v| * 1e6).
Only a dwell that fixed point would not write exactly (NaN, +-inf,
|v| >= 2**23, at or near a rounding tie) is formatted by itself, with
``'%.6f' %``.

In memory, impressions are one columnar :class:`Impressions` table (one
array per column of impressions.csv, the ids as int32 codes into sorted
vocabularies); every function that takes impressions takes that table.
Per-post numbers are one :class:`FeatureMatrix`; a :class:`Post` is only
posts.csv's metadata.

Loaders collect malformed rows into an error report instead of aborting;
semantic checks (referential integrity, position contiguity, dwell sign)
are listed by :func:`dataset_violations` and :func:`impression_violations`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import sys
import warnings
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

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
    """One content item's metadata; its features are a :class:`FeatureMatrix` row."""

    post_id: str
    headline: str
    source: str
    category: str

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r} for post {self.post_id!r}")


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


# an impression's fields, in impressions.csv's column order: one participant x
# post exposure, its feed position, its on-screen time in seconds, its two
# actions and, once the dwell pipeline has run, the motor-adjusted dwell
_IMPRESSION_FIELDS: tuple[str, ...] = (
    "participant_id", "post_id", "position", "dwell_raw", "shared", "liked", "dwell_adjusted",
)

# the fields after the two ids, which Impressions holds as they are
_VALUE_FIELDS = _IMPRESSION_FIELDS[2:]


@dataclass(frozen=True, eq=False, kw_only=True)
class Impressions:
    """Columnar impression table: one array per field of ``_IMPRESSION_FIELDS``.

    An id column is held as int32 codes (``participant_code``, ``post_code``)
    into a vocabulary of distinct ids (``participant_vocab``, ``post_vocab``)
    sorted as ``np.unique`` sorts them; the ``participant_id`` and ``post_id``
    properties decode them to str arrays. A selection keeps the vocabulary,
    so it may hold ids with no rows; :meth:`groups` leaves those out.
    ``dwell_adjusted`` is None until the dwell pipeline sets it. A slice,
    boolean mask or index array selects rows as a new table. ``==`` compares
    rows.
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
    def _from_ids(cls, participant_id, post_id, *values: np.ndarray) -> Impressions:
        """The table of two id sequences, each coded by ``np.unique``, and the other
        columns: the coder of the csv module's reader."""
        coded = {}
        for key, ids in (("participant", participant_id), ("post", post_id)):
            lost = next((i for i in ids if i.endswith("\0")), None)
            if lost is not None:
                # a numpy str array drops trailing NULs, which would rename or merge the id
                raise ValueError(f"{key} id {lost!r} ends in a NUL character")
            vocab, code = np.unique(np.array(ids, dtype=str), return_inverse=True)
            coded[f"{key}_vocab"], coded[f"{key}_code"] = vocab, code.astype(np.int32)
        return cls(**coded, **dict(zip(_VALUE_FIELDS, values)))

    def _values(self) -> tuple:
        """The columns after the two ids, in field order."""
        return tuple(getattr(self, k) for k in _VALUE_FIELDS)

    def _columns(self) -> tuple:
        """The columns in field order, ids decoded."""
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

    def __len__(self) -> int:
        return len(self.position)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise TypeError(
                "a table has no row objects; select rows with a slice, a boolean mask "
                "or an index array"
            )
        values = {k: c[key] for k, c in zip(_VALUE_FIELDS, self._values()) if c is not None}
        codes = {"participant_code": self.participant_code[key], "post_code": self.post_code[key]}
        return replace(self, **codes, **values)

    # a table has no row objects; without this, iteration would fall back to int keys
    __iter__ = None

    def __eq__(self, other):
        return isinstance(other, Impressions) and all(
            a is b if a is None or b is None else np.array_equal(a, b)
            for a, b in zip(self._columns(), other._columns())
        )


# each CSV file's columns are its record's fields, the optional ones left out
_RATINGS_HEADER = [f.name for f in fields(RatingRecord)]
_POSTS_HEADER = [f.name for f in fields(Post)]
_IMPRESSION_HEADER = list(_IMPRESSION_FIELDS[:-1])


@dataclass(frozen=True)
class FeatureMatrix:
    """Posts x named finite columns: rated features or component scores."""

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


# ---------------------------------------------------------------------------
# Artifact formats: the two writers, the two readers and the JSON-object reader


def _jsonable(obj):
    """JSON form of a dataclass (its fields, None ones left out) or a numpy array."""
    if is_dataclass(obj):
        return {f.name: v for f in fields(obj) if (v := getattr(obj, f.name)) is not None}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as canonical JSON: sorted keys, 2-space indent, trailing newline."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path: str | Path):
    """The JSON value in ``path``; a file that is not UTF-8 JSON is a
    :class:`DataFormatError` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _is_float(v) -> bool:
    """Whether JSON value ``v`` converts to a float: a float, or an int no larger in
    size than the largest float (a bool is no number)."""
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


# the JSON values that a field annotated with the key's type accepts (a bool is no number)
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def from_fields(cls, obj, source: str | Path, name: str, **decode):
    """Build dataclass ``cls`` from a file's JSON object ``obj``: the one check of an
    artifact's fields. A :class:`DataFormatError` starting with ``source`` (the file, and
    the place in it) is raised when ``obj`` (``name`` in the messages) is not a JSON object,
    a field annotated ``int``, ``float`` or ``str`` holds no value of that type (an integer
    for ``int``, a number that converts to a float for ``float``; a bool is no number), a
    field is missing or unknown, ``decode[field]``, which converts that field's JSON
    value, rejects it with a TypeError saying what it must be, or ``cls`` rejects a
    value with a ValueError (``{source}: {name}: {message}``)."""
    if not isinstance(obj, dict):
        raise DataFormatError(f"{source}: {name} must be a JSON object, got {type(obj).__name__}")
    values = dict(obj)
    for f in (f for f in fields(cls) if f.name in obj):
        v, kinds = obj[f.name], _JSON_TYPES.get(f.type)
        try:
            if f.name in decode:
                values[f.name] = decode[f.name](v)
            elif kinds and type(v) not in kinds:
                raise TypeError(f"must be {f.type}, got {v!r}")
            elif f.type == "float" and not _is_float(v):
                raise TypeError("must be float, got an integer too large for a float")
        except TypeError as exc:
            raise DataFormatError(f"{source}: {name} field {f.name} {exc}") from None
    try:
        return cls(**values)
    except TypeError as exc:
        raise DataFormatError(f"{source}: not a {cls.__name__}: {exc}") from None
    except ValueError as exc:
        raise DataFormatError(f"{source}: {name}: {exc}") from None


def json_list(value) -> tuple:
    """A JSON list as a tuple, for :func:`from_fields`."""
    if not isinstance(value, list):
        raise TypeError(f"must be a JSON list, got {value!r}")
    return tuple(value)


def float_array(value) -> np.ndarray:
    """A JSON list (of equal-length lists) of finite numbers as an array, for ``from_fields``."""
    array = np.array(json_list(value), dtype=object)  # a ragged list gives an array of lists
    if not all(_is_float(x) and math.isfinite(x) for x in array.flat):
        raise TypeError(f"must be a JSON list of finite numbers, got {value!r}")
    return array.astype(float)


def id_list(ids: Sequence[str], limit: int = 10) -> str:
    """The first ``limit`` of ``ids``, comma-separated, then ``...`` if there are more."""
    return ", ".join(ids[:limit]) + ("..." if len(ids) > limit else "")


def _csv_writer(fh):
    """A csv writer into ``fh`` whose lines end in LF.

    The csv module quotes a cell that holds a character of its line
    terminator, so the rows are formatted with CRLF, which quotes a cell
    holding a carriage return as well as one holding a line feed, and each
    line is written with LF in place of its CRLF.
    """
    return csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")),
                      lineterminator="\r\n")


def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Write a header row and ``rows`` as UTF-8 CSV with LF line endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _csv_writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _parse_rows(path: str | Path, headers, convert) -> tuple[list[str], list, list[RowError]]:
    """A CSV file's header, its rows as ``convert`` returns them, and a :class:`RowError`
    for each row that is not the header's width or that ``convert`` rejects with a
    ValueError. A header not in ``headers`` (when given), or a cell over the csv
    module's field limit, is a :class:`DataFormatError`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows or (headers and rows[0] not in headers):
        expected = " or ".join(repr(",".join(h)) for h in headers) or "row"
        raise DataFormatError(
            f"{path}: expected header {expected}, "
            f"got {','.join(rows[0]) if rows else '<empty file>'!r}"
        )
    header, kept, errors = rows[0], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            errors.append(RowError(lineno, f"expected {len(header)} fields, got {len(row)}"))
            continue
        try:
            kept.append(convert(row))
        except ValueError as exc:
            errors.append(RowError(lineno, str(exc)))
    return header, kept, errors


# ---------------------------------------------------------------------------
# CSV loading


def load_ratings(path: str | Path) -> tuple[list[RatingRecord], list[RowError]]:
    """Parse ratings.csv; malformed rows are reported, not fatal."""
    return _parse_rows(path, [_RATINGS_HEADER], lambda r: RatingRecord(*r[:3], float(r[3])))[1:]


def load_posts(path: str | Path) -> tuple[list[Post], list[RowError]]:
    return _parse_rows(path, [_POSTS_HEADER], lambda r: Post(*r))[1:]


def _parse_bool(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(f"expected 0/1 boolean, got {raw!r}")
    return raw == "1"


_IMPRESSION_HEADERS = (_IMPRESSION_HEADER, list(_IMPRESSION_FIELDS))


def _impression_values(row: list[str]) -> list:
    """The cells of a csv row after the two ids, converted in field order; a
    ValueError names the first cell that does not convert, or the non-finite dwells."""
    position = int(row[2])
    if not -(2**63) <= position < 2**63:
        raise ValueError(f"position {row[2]!r} is outside the int64 range")
    values = [position, float(row[3]), _parse_bool(row[4]), _parse_bool(row[5]), *map(float, row[6:])]
    dwells = values[1::3]  # dwell_raw and, in a cleaned file, dwell_adjusted
    if not all(map(math.isfinite, dwells)):
        names = [k for k, v in zip(("dwell_raw", "dwell_adjusted"), dwells) if not math.isfinite(v)]
        raise ValueError(f"non-finite {' and '.join(names)}")
    return values


def _csv_impressions(path: str | Path) -> tuple[Impressions, list[RowError]]:
    """impressions.csv as the csv module reads it: the reader of every file that
    is not in the canonical form, and the reference for the canonical reader.

    One pass converts each row and reports each bad one (a ragged row, a cell
    that does not parse, a position outside int64, a non-finite dwell), which
    the table leaves out; the table is then built with one array per column.
    A plain file's table has no dwell_adjusted, even when it has no rows.
    """
    header, kept, errors = _parse_rows(
        path, _IMPRESSION_HEADERS, lambda r: r[:2] + _impression_values(r)
    )
    columns = list(zip(*kept)) or [()] * len(header)
    values = map(np.array, columns[2:], (np.int64, float, bool, bool, float))
    return Impressions._from_ids(*columns[:2], *values), errors


# the canonical form of impressions.csv, as the module docstring gives it
_CANONICAL_HEADERS = {",".join(h).encode(): len(h) for h in _IMPRESSION_HEADERS}
_MAX_POSITION_DIGITS = 18  # any 18-digit number is below 2**63
_MAX_DWELL_DIGITS = 15  # any 15-digit mantissa is below 2**53, so exact as a float
_POWERS = 10 ** np.arange(_MAX_POSITION_DIGITS, dtype=np.int64)
# 10**k as floats, each exact: a dwell is mantissa / 10**frac, both exact, and one
# correctly rounded division gives what float() gives for the decimal
_FLOAT_POWERS = np.array([float(10**k) for k in range(_MAX_DWELL_DIGITS + 1)])


def _digit_cells(buf: np.ndarray, start: np.ndarray, end: np.ndarray, most: int):
    """The cells ``buf[start:end]`` of digits and points, read one byte column at a
    time from the right: each cell's digits as one int64 (a point read as a 0),
    the offset from its end of a point in it (-1 for none) and the number of
    points in all cells. None when a cell is empty, longer than ``most`` bytes
    or holds any other byte.
    """
    length = end - start
    shortest, longest = int(length.min()), int(length.max())
    if shortest < 1 or longest > most:
        return None
    value, point_at, points = np.zeros(len(start), np.int64), np.full(len(start), -1), 0
    last = end - 1  # read once: the bounds may be a strided view
    for k in range(longest):
        byte = buf[last - k]
        if k >= shortest:
            byte[k >= length] = ord("0")
        point = byte == ord(".")
        digit = byte - ord("0")  # a byte below '0' wraps above 9
        digit[point] = 0
        if (digit > 9).any():
            return None
        value += digit * _POWERS[k]
        point_at[point] = k
        points += np.count_nonzero(point)
    return value, point_at, points


def _canonical_positions(buf, start, end):
    cells = _digit_cells(buf, start, end, _MAX_POSITION_DIGITS)
    return None if cells is None or cells[2] else cells[0]


def _canonical_dwell(buf, start, end):
    cells = _digit_cells(buf, start, end, _MAX_DWELL_DIGITS + 1)
    if cells is None:
        return None
    with_zero, frac, points = cells  # frac: the digits after a point
    # one point per cell, with a digit on each side
    if points != len(frac) or frac.min() < 1 or (end - start - frac).min() < 2:
        return None
    # dropping the 0 read at the point gives the mantissa
    scale = _POWERS[frac]
    return (with_zero // (10 * scale) * scale + with_zero % scale) / _FLOAT_POWERS[frac]


def _canonical_bools(buf, start, end):
    cells = buf[start]
    if (end - start != 1).any() or ((cells != ord("0")) & (cells != ord("1"))).any():
        return None
    return cells == ord("1")


# one converter per impressions.csv column after the two ids, in file order
_CANONICAL_PARSERS = (
    _canonical_positions, _canonical_dwell, _canonical_bools, _canonical_bools, _canonical_dwell,
)


# a big-endian uint64 with only its top t bytes kept, t = 0..8
_TOP_BYTES = np.array([2**64 - 2 ** (64 - 8 * t) for t in range(9)], np.uint64)


def _canonical_ids(data: bytes, words: np.ndarray, start, end):
    """The vocabulary and codes of the id cells ``data[start:end]``, as
    :meth:`Impressions._from_ids` gives them, from a sort of the cells on their
    bytes as big-endian 8-byte ``words`` (``words[i]`` starts at ``data[i]``),
    zeroed past each cell's end: all cells on their first word, then each run of
    equal cells that holds a longer one on its next word, and so on. With no NUL
    in the file, equal words are equal ids, and UTF-8's byte order is numpy's str
    order. One cell per distinct id is decoded; None if one is not UTF-8.
    """
    length, last = end - start, len(words) - 1
    # each read is clipped in the view: once the value cells parse, only words masked to 0 need it
    key = words[np.minimum(start, last)] & _TOP_BYTES[np.minimum(length, 8)]
    order = np.argsort(key)  # the cells sorted on the words read so far
    key = key[order]
    new = np.concatenate(([True], key[1:] != key[:-1]))  # where each run of equal cells starts
    tied = np.arange(len(start)) if length.max() > 8 else order[:0]  # the runs' places in order
    offset = 8
    while len(tied):
        cells, head = order[tied], new[tied]
        rest = length[cells] - offset  # each cell's bytes from the word to read
        first = np.flatnonzero(head)
        size = np.diff(np.append(first, len(tied)))
        # keep the runs of more than one cell in which a cell has bytes left
        keep = (size > 1) & np.logical_or.reduceat(rest > 0, first)
        if not keep.all():
            keep = np.repeat(keep, size)
            tied, cells, head, rest = tied[keep], cells[keep], head[keep], rest[keep]
        key = words[np.minimum(start[cells] + offset, last)] & _TOP_BYTES[np.clip(rest, 0, 8)]
        offset += 8
        one_run = not head[1:].any()
        if one_run and (key == key[:1]).all():
            continue  # a word that every tied cell shares (or no cell left) splits nothing
        # on one word of 72k shuffled post ids, np.lexsort took ~6x np.argsort's time
        sort = np.argsort(key) if one_run else np.lexsort((key, np.cumsum(head)))
        order[tied], key = cells[sort], key[sort]
        head[1:] |= key[1:] != key[:-1]
        new[tied] = head
    code = np.empty(len(start), np.int32)
    code[order] = np.cumsum(new, dtype=np.int32) - 1
    first = order[new]
    try:
        ids = [data[i:j].decode() for i, j in zip(start[first].tolist(), end[first].tolist())]
    except UnicodeDecodeError:
        return None
    return np.array(ids, dtype=str), code


def _canonical_impressions(data: bytes) -> Impressions | None:
    """The table of impressions.csv's bytes when they are in the canonical form,
    else None.

    Every field is found with one ``np.flatnonzero`` over commas and line
    feeds, and each column is converted from the bytes between them, so no
    Python object is made per row or per cell, only one per distinct id. The
    bytes are read in place: the header counts as one more row of fields, so
    every position is an offset into ``data``, and a column's cell bounds are
    strided views of the field ends. Every non-ASCII byte of a canonical file
    lies in an id cell, so decoding the distinct ids checks that it is UTF-8.
    """
    width = _CANONICAL_HEADERS.get(data[: data.find(b"\n")])
    if width is None or not data.endswith(b"\n") or any(data.find(c) >= 0 for c in b'"\r\0'):
        return None
    buf = np.frombuffer(data, np.uint8)
    line_end = buf == ord("\n")
    ends = np.flatnonzero(line_end | (buf == ord(",")))
    rows = len(ends) // width - 1
    if rows < 1 or len(ends) != (rows + 1) * width or np.count_nonzero(line_end) != rows + 1:
        return None
    if (buf[ends[2 * width - 1 :: width]] != ord("\n")).any():
        return None
    # column j of the body: its cells end at ends[width + j::width] and each starts
    # one byte after the field end before it
    columns = [(ends[width + j - 1 : -1 : width] + 1, ends[width + j :: width]) for j in range(width)]
    values = []
    for parse, (start, end) in zip(_CANONICAL_PARSERS, columns[2:]):
        values.append(parse(buf, start, end))
        if values[-1] is None:
            return None
    words = np.ndarray((len(buf) - 7,), ">u8", buf, strides=(1,))
    ids = {}
    for key, (start, end) in zip(("participant", "post"), columns):
        if (coded := _canonical_ids(data, words, start, end)) is None:
            return None
        ids[f"{key}_vocab"], ids[f"{key}_code"] = coded
    return Impressions(**ids, **dict(zip(_VALUE_FIELDS, values)))


def load_impressions(path: str | Path) -> tuple[Impressions, list[RowError]]:
    """Parse impressions.csv (plain or cleaned with dwell_adjusted).

    A file in the canonical form that :func:`save_impressions` writes is read
    from its bytes (``_canonical_impressions``); any other is read by the csv
    module (``_csv_impressions``), which gives any file the canonical reader
    reads the same table, only more slowly.
    """
    table = _canonical_impressions(Path(path).read_bytes())
    return (table, []) if table is not None else _csv_impressions(path)


# ---------------------------------------------------------------------------
# CSV writing (canonical forms; load(save(x)) is byte-stable)


def save_ratings(path: str | Path, records: list[RatingRecord]) -> None:
    write_csv(path, _RATINGS_HEADER, map(operator.attrgetter(*_RATINGS_HEADER), records))


def save_posts(path: str | Path, posts: list[Post]) -> None:
    write_csv(path, _POSTS_HEADER, map(operator.attrgetter(*_POSTS_HEADER), posts))


def _csv_fields(values: list[str]) -> list[str]:
    """Each of ``values`` as the csv module writes it inside a row, quoted only if it must be."""
    lines: list[str] = []  # the writer writes each row with one call
    _csv_writer(SimpleNamespace(write=lines.append)).writerows([v, ""] for v in values)
    return [line[:-2] for line in lines]


# save_impressions builds each block of rows as one uint8 matrix. A block's matrix
# holds about this many bytes (the ids' padded widths plus 128 a row for the numbers),
# so the writer's memory stays small however many rows the table has, and one long
# id does not widen a matrix of every row.
_BLOCK_BYTES = 2**21
# a dwell below this is written as a fixed-point integer when that is exact (_dwell_cells)
_FIXED_POINT_LIMIT = 2.0**23
# the byte that pads a cell to its column's width: no UTF-8 text holds it, so _lines
# drops every one of them and keeps every byte of a cell, an inner NUL included
_PAD = 0xFF

# The cell writers below give a column as a (width, rows) uint8 matrix of bytes,
# each cell padded with _PAD: stored that way, each matrix row is contiguous, and
# the body matrix of a block stacks them.


def _padded(strings: list[str]) -> np.ndarray:
    """``strings`` UTF-8 encoded as the columns of a (width, len(strings)) matrix,
    each padded with ``_PAD`` to the longest."""
    encoded = [s.encode() for s in strings]
    width = max(map(len, encoded), default=0)
    padded = b"".join(e.ljust(width, bytes([_PAD])) for e in encoded)
    return np.frombuffer(padded, np.uint8).reshape(len(encoded), width).T.copy()


def _number_cells(
    negative: np.ndarray, magnitude: np.ndarray, least: int = 1, decimals: int = 0
) -> np.ndarray:
    """Cells of a '-' where ``negative``, then the decimal digits of uint64
    ``magnitude`` with no leading zeros beyond the last ``least``, and a point
    before the last ``decimals`` digits when ``decimals`` is not 0."""
    digits = max(len(str(int(magnitude.max()))), least)
    width = 1 + digits + bool(decimals)
    matrix = np.full((width, len(magnitude)), ord("."), np.uint8)
    matrix[0] = np.where(negative, ord("-"), _PAD)
    rest, ten = magnitude, np.uint64(10)
    for j in range(digits):  # the j-th digit from the right
        row = width - 1 - j - (0 < decimals <= j)
        quotient = rest // ten
        matrix[row] = rest - quotient * ten + ord("0")
        if j >= least:
            np.copyto(matrix[row], _PAD, where=rest == 0)
        rest = quotient
    return matrix


def _integer_cells(column: np.ndarray) -> np.ndarray:
    """An integer or bool column as ``%d`` writes each cell."""
    if column.dtype.kind in "bu":
        return _number_cells(np.zeros(len(column), bool), column.astype(np.uint64))
    signed = column.astype(np.int64, copy=False)
    # the int64 minimum is its own absolute value, which read as uint64 is its magnitude
    return _number_cells(signed < 0, np.abs(signed).view(np.uint64))


def _percent_dwell(values: list[float]) -> list[str]:
    """Dwell cells as ``'%.6f' %`` writes them, one at a time: the writer's only
    per-cell path, for the cells :func:`_dwell_cells` cannot write exactly."""
    return [f"%.{DWELL_DECIMALS}f" % v for v in values]


def _dwell_cells(column: np.ndarray) -> np.ndarray:
    """A dwell column as ``'%.6f' %`` writes each cell.

    A cell v is written from x = |v| * 1e6 as the integer rint(x) with a
    point before its last 6 digits, and a '-' where v's sign bit is set (so
    -0.0 and -1e-9 give '-0.000000', as %.6f does), when v is finite,
    |v| < 2**23 and |frac(x) - 0.5| > 2 * spacing(x). This is exact:
    x < 2**43, so frac(x) and rint(x) are computed without error, and x is
    off the exact product |v| * 10**6 by at most half its spacing. The
    product is therefore more than 1.5 spacings from a half and on the same
    side of it as x, so rint(x) is the product correctly rounded, no tie is
    possible, and it is the integer that %.6f rounds v to. Every other cell
    (NaN, +-inf, |v| >= 2**23, a value at or near a tie such as 122.0703125)
    goes through :func:`_percent_dwell`.
    """
    v = column.astype(float, copy=False)
    small = np.abs(v) < _FIXED_POINT_LIMIT  # False for NaN
    x = np.where(small, np.abs(v), 0.0) * 10.0**DWELL_DECIMALS
    exact = small & (np.abs(x - np.floor(x) - 0.5) > 2 * np.spacing(x))
    magnitude = np.rint(np.where(exact, x, 0.0)).astype(np.uint64)
    matrix = _number_cells(np.signbit(v), magnitude, 1 + DWELL_DECIMALS, DWELL_DECIMALS)
    slow = np.flatnonzero(~exact)
    if slow.size:
        cells = _padded(_percent_dwell(v[slow].tolist()))
        more = np.full((len(cells), len(v)), _PAD, np.uint8)
        matrix[:, slow], more[:, slow] = _PAD, cells
        matrix = np.vstack([matrix, more])
    return matrix


# one writer per impressions.csv column after the two ids, in file order
_CELL_WRITERS = (_integer_cells, _dwell_cells, _integer_cells, _integer_cells, _dwell_cells)


def _lines(cells: list[np.ndarray]) -> bytes:
    """The CSV lines of columns given as padded byte matrices: the (rows, width) body
    matrix read row by row, without its ``_PAD`` bytes."""
    rows = cells[0].shape[1]
    parts = []
    for i, matrix in enumerate(cells):
        end = ord("\n") if i == len(cells) - 1 else ord(",")
        parts += [matrix, np.full((1, rows), end, np.uint8)]
    return np.vstack(parts).T.tobytes().translate(None, bytes([_PAD]))


def save_impressions(path: str | Path, impressions: Impressions) -> None:
    """Write impressions.csv; emits dwell_adjusted iff the table carries it.

    The file is what :func:`write_csv` writes, in the canonical form that
    :func:`load_impressions` reads from its bytes, and each dwell is written
    as ``'%.6f' %`` writes it. The body is built as a (rows, width) uint8
    matrix, each column a fixed span of matrix columns and each cell padded
    with ``_PAD``, which is then dropped: each distinct id is quoted once, as
    the csv module quotes it, and gathered by code; integers and bools are
    written as digits; a dwell as the exact fixed-point integer rint(|v| * 1e6). Only a dwell that
    this would not write exactly (NaN, +-inf, 2**23 or more, at or near a
    rounding tie) is formatted alone, by ``'%.6f' %``. An empty table writes
    the plain header.
    """
    values = [c for c in impressions._values() if c is not None][: 5 if len(impressions) else 4]
    ids = [
        (_padded(_csv_fields(getattr(impressions, f"{key}_vocab").tolist())),
         getattr(impressions, f"{key}_code"))
        for key in ("participant", "post")
    ]
    step = max(1, _BLOCK_BYTES // (sum(len(matrix) for matrix, _ in ids) + 128))
    with open(path, "wb") as fh:
        fh.write((",".join(_IMPRESSION_FIELDS[: 2 + len(values)]) + "\n").encode())
        for start in range(0, len(impressions), step):
            rows = slice(start, start + step)
            cells = [matrix.take(code[rows], 1) for matrix, code in ids]
            cells += [write(c[rows]) for write, c in zip(_CELL_WRITERS, values)]
            fh.write(_lines(cells))


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
            f"feature coverage: {id_list(dropped)}"
        )
    # fsum is correctly rounded in any order, so the mean is invariant to row order
    values = np.array(
        [
            [math.fsum(cells[p][f]) / len(cells[p][f]) for f in FEATURE_NAMES]
            for p in kept
        ],
        dtype=float,
    ).reshape(len(kept), len(FEATURE_NAMES))
    return FeatureMatrix(tuple(kept), FEATURE_NAMES, values)


# ---------------------------------------------------------------------------
# Validation


def dataset_violations(posts: list[Post], impressions: Impressions) -> list[Violation]:
    """Referential integrity (duplicate posts, impressions of unknown posts), then
    :func:`impression_violations`; an empty list for a valid study."""
    violations: list[Violation] = []
    flag = lambda kind, message: violations.append(Violation(kind, message))
    known: set[str] = set()
    for p in posts:
        if p.post_id in known:
            flag("duplicate_post", f"duplicate post_id {p.post_id!r}")
        known.add(p.post_id)

    # an id check over the post vocabulary, then a lookup per row
    unknown = ~np.isin(impressions.post_vocab, np.array(list(known), dtype=str))
    dangling = impressions[unknown[impressions.post_code]]
    for pid, post in zip(dangling.participant_id.tolist(), dangling.post_id.tolist()):
        flag("dangling_post", f"impression references unknown post {post!r} (participant {pid!r})")
    return violations + impression_violations(impressions)


def impression_violations(impressions: Impressions) -> list[Violation]:
    """The checks that need no posts table: dwell sign and position contiguity."""
    violations: list[Violation] = []
    flag = lambda kind, message: violations.append(Violation(kind, message))
    negative = impressions[impressions.dwell_raw < 0]
    for pid, pos, dwell in zip(
        *(c.tolist() for c in (negative.participant_id, negative.position, negative.dwell_raw))
    ):
        flag("negative_dwell", f"negative dwell {dwell} for participant {pid!r} position {pos}")

    pids, group, counts = impressions.groups("participant")
    order = np.lexsort((impressions.position, group))
    ends = np.cumsum(counts)[:-1]
    for pid, positions in zip(pids.tolist(), np.split(impressions.position[order], ends)):
        repeated = positions[1:][positions[1:] == positions[:-1]]
        n = len(positions)
        if repeated.size:
            dupes = np.unique(repeated).tolist()
            flag("duplicate_position", f"participant {pid!r} has duplicated position(s) {dupes}")
        elif not np.array_equal(positions, np.arange(1, n + 1)):
            flag("position_gap", f"participant {pid!r} positions are not contiguous 1..{n}")
    return violations


# ---------------------------------------------------------------------------
# dataset.json


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def save_dataset(
    path: str | Path, posts: Sequence[Post], features: FeatureMatrix, provenance: dict
) -> None:
    """Write dataset.json: the posts, each with its row of ``features`` (the same
    ids in the same order), and the provenance, which may name impressions.csv's digest."""
    if tuple(p.post_id for p in posts) != features.post_ids:
        raise ValueError("the posts and the feature rows are not the same ids in the same order")
    rows = [
        {**_jsonable(p), "features": dict(zip(features.feature_names, row))}
        for p, row in zip(posts, features.values.tolist())
    ]
    write_json(path, {"posts": rows, "provenance": provenance})
