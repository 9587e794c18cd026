"""Catalog and transaction ingestion plus text preparation.

Loads the raw article / transaction CSVs and normalizes item text
(lowercase, single-spaced). The purchase log is held as integer columns
(``PurchaseLog``): day ordinals, and customer and article codes into the
sorted tables of distinct ids, so a stage filters, groups and counts
purchases with array operations and builds no object per row. Joining
against the catalog is a mask over article codes, and per-customer-day
sessions come from one stable sort. Each loader checks and converts each
distinct cell string once. All functions are pure with respect to their
inputs; loaders perform no shared mutation and are safe to call concurrently.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from datetime import date
from operator import itemgetter
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_text
from .errors import (
    DuplicateArticleIdError,
    InputFileError,
    MalformedRowError,
    MissingColumnError,
    UnknownColumnError,
    UnparsableDateError,
)

ARTICLE_COLUMNS = ("article_id", "prod_name", "product_type_name", "index_name", "detail_desc")
TRANSACTION_COLUMNS = ("t_dat", "customer_id", "article_id")

# Columns that may be merged into the per-article text.
TEXTUAL_COLUMNS = ("prod_name", "product_type_name", "index_name", "detail_desc")
DEFAULT_TEXT_COLUMNS = ("prod_name", "product_type_name", "index_name", "detail_desc")

_ARTICLE_ID_RE = re.compile(r"^[0-9]{1,10}$")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class ArticleRecord:
    """One catalog row. ``detail_desc`` is None when the CSV cell was empty."""

    article_id: str
    prod_name: str
    product_type_name: str
    index_name: str
    detail_desc: str | None = None


@dataclass(frozen=True, eq=False)
class PurchaseLog:
    """The purchase log as three integer columns, one entry per purchase in
    file order.

    ``days`` holds each purchase's date as a ``date.toordinal`` day number;
    ``customers`` and ``articles`` hold codes into ``customer_ids`` and
    ``article_ids``, the sorted distinct (stripped, zero-padded) ids of the
    file the log was read from, so codes order as their ids do. A sub-log
    from ``select`` shares those tables, so a table may name ids that no
    purchase of the sub-log uses.
    """

    days: np.ndarray
    customers: np.ndarray
    articles: np.ndarray
    customer_ids: tuple[str, ...]
    article_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.days)

    def select(self, mask: np.ndarray) -> PurchaseLog:
        """The purchases where ``mask`` is true, in order, over the same id tables."""
        return PurchaseLog(
            self.days[mask], self.customers[mask], self.articles[mask],
            self.customer_ids, self.article_ids,
        )

    def of_articles(self, article_ids: Iterable[str]) -> PurchaseLog:
        """The purchases of the given articles (the join against a catalog)."""
        wanted = set(article_ids)
        known = np.array([a in wanted for a in self.article_ids], dtype=bool)
        return self.select(known[self.articles])

    def sessions(self) -> tuple[np.ndarray, np.ndarray]:
        """Group the purchases into (customer, day) sessions.

        Returns the row order sorted by customer id, then date, then file
        order (one stable sort), and the session number of each row in that
        order, counting from 0.
        """
        order = np.lexsort((self.days, self.customers))
        customers, days = self.customers[order], self.days[order]
        starts = np.ones(len(order), dtype=np.int64)
        starts[1:] = (customers[1:] != customers[:-1]) | (days[1:] != days[:-1])
        return order, np.cumsum(starts) - 1


@dataclass(frozen=True)
class PreparedArticle:
    """Cleaned, merged article text ready for tokenization."""

    article_id: str
    text: str
    text_len: int


def _read_table(path: str | Path, required: tuple[str, ...]) -> tuple[dict[str, int], list[list[str]]]:
    """Read a CSV file and check the header names ``required`` columns."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputFileError(f"{path}: {exc}") from None
    if not rows:
        raise MissingColumnError(f"{path}: empty file, header row required")
    header = rows[0]
    missing = [c for c in required if c not in header]
    if missing:
        raise MissingColumnError(f"{path}: header lacks column(s) {', '.join(missing)}")
    columns = {name: i for i, name in enumerate(header)}
    width = len(header)
    for row_index, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise MalformedRowError(
                f"{path}: row {row_index} has {len(row)} fields, expected {width}"
            )
    return columns, rows[1:]


def _canonical_article_id(raw: str) -> str:
    """The 10-digit form of an article id cell; ValueError unless it holds
    1 to 10 digits."""
    value = raw.strip()
    if not _ARTICLE_ID_RE.match(value):
        raise ValueError(f"bad article_id {raw!r}")
    return value.zfill(10)


def _parse_each(values: Sequence[str], parse: Callable[[str], object]) -> tuple[dict, int | None]:
    """``parse`` of each distinct value, and the index of the first value it
    raises ValueError on (None when it accepts them all).

    Distinct values are parsed in first-appearance order, so the first one
    rejected is the first rejected value of ``values``; parsing stops there.
    """
    parsed = {}
    for value in dict.fromkeys(values):
        try:
            parsed[value] = parse(value)
        except ValueError:
            return parsed, values.index(value)
    return parsed, None


def _codes(values: Sequence[str], canonical: dict[str, str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each value's code into the sorted distinct canonical ids, and those ids.

    ``canonical`` maps every distinct value to its id; values sharing an id
    share a code.
    """
    table = tuple(sorted(set(canonical.values())))
    code_of = {ident: code for code, ident in enumerate(table)}
    code = {value: code_of[ident] for value, ident in canonical.items()}
    return np.fromiter(map(code.__getitem__, values), np.int64, len(values)), table


def _day_numbers(values: Sequence[str], ordinal: dict[str, int]) -> np.ndarray:
    return np.fromiter(map(ordinal.__getitem__, values), np.int64, len(values))


def load_articles(path: str | Path) -> list[ArticleRecord]:
    """Load the article catalog.

    Article ids are zero-padded to the canonical 10-digit string form; an
    empty detail_desc cell becomes ``None`` (filled later by preparation).
    Raises on a missing column, wrong field count, or repeated article id.
    """
    columns, rows = _read_table(path, ARTICLE_COLUMNS)
    records: list[ArticleRecord] = []
    seen: set[str] = set()
    for row_index, row in enumerate(rows, start=1):
        raw_id = row[columns["article_id"]]
        try:
            article_id = _canonical_article_id(raw_id)
        except ValueError:
            raise MalformedRowError(f"row {row_index}: bad article_id {raw_id!r}") from None
        if article_id in seen:
            raise DuplicateArticleIdError(f"article_id {article_id} appears more than once")
        seen.add(article_id)
        desc = row[columns["detail_desc"]]
        records.append(
            ArticleRecord(
                article_id=article_id,
                prod_name=row[columns["prod_name"]],
                product_type_name=row[columns["product_type_name"]],
                index_name=row[columns["index_name"]],
                detail_desc=desc if desc != "" else None,
            )
        )
    return records


def _optional(parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` for a cell that may be blank."""
    return lambda raw: parse(raw) if raw.strip() != "" else None


# The checked transaction columns, in the order a row's cells are checked,
# and how each cell parses.
_TRANSACTION_CHECKS = (
    ("t_dat", lambda raw: date.fromisoformat(raw.strip()).toordinal()),
    ("article_id", _canonical_article_id),
    ("price", _optional(float)),
    ("sales_channel_id", _optional(int)),
)


def load_transactions(path: str | Path) -> PurchaseLog:
    """Load the purchase log. Duplicate rows are preserved as-is.

    ``price`` and ``sales_channel_id`` columns are optional and no stage
    uses them, but a nonempty cell must still parse as a number (an
    integer for the channel). Each check runs once per distinct cell
    string; the error names the first bad row, and within a row the first
    bad cell in the order date, article id, price, channel.
    """
    columns, rows = _read_table(path, TRANSACTION_COLUMNS)
    cells = {name: list(map(itemgetter(i), rows)) for name, i in columns.items()}
    parsed: dict[str, dict] = {}
    failures = []
    for check, (name, parse) in enumerate(_TRANSACTION_CHECKS):
        if name in columns:
            parsed[name], bad = _parse_each(cells[name], parse)
            if bad is not None:
                failures.append((bad, check, name))
    if failures:
        row, _, name = min(failures)
        raw = cells[name][row]
        if name == "t_dat":
            raise UnparsableDateError(f"row {row + 1}: unparsable t_dat {raw.strip()!r}")
        raise MalformedRowError(f"row {row + 1}: bad {name} {raw!r}")
    customer_cells = cells["customer_id"]
    customers, customer_ids = _codes(
        customer_cells, {raw: raw.strip() for raw in set(customer_cells)}
    )
    articles, article_ids = _codes(cells["article_id"], parsed["article_id"])
    days = _day_numbers(cells["t_dat"], parsed["t_dat"])
    return PurchaseLog(days, customers, articles, customer_ids, article_ids)


def clean_text(raw: str | None) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    if raw is None:
        return ""
    return _WS_RE.sub(" ", raw).strip().lower()


def seq_length(text: str) -> int:
    """Number of whitespace-separated tokens; 0 for the empty string."""
    return len(text.split())


def prepare_articles(
    articles: list[ArticleRecord],
    text_columns: tuple[str, ...] = DEFAULT_TEXT_COLUMNS,
) -> list[PreparedArticle]:
    """Merge the named textual columns into one cleaned text per article.

    Absent descriptions contribute an empty string, so prepared text is
    never missing. Output order matches input order.
    """
    if not text_columns:
        raise ValueError("text_columns must be nonempty")
    for name in text_columns:
        if name not in TEXTUAL_COLUMNS:
            raise UnknownColumnError(f"unknown text column {name!r}")
    prepared = []
    for article in articles:
        parts = [(getattr(article, name) or "") for name in text_columns]
        text = clean_text(" ".join(parts))
        prepared.append(PreparedArticle(article.article_id, text, seq_length(text)))
    return prepared


def missing_description_histogram(articles: list[ArticleRecord]) -> dict[str, tuple[int, int]]:
    """Per index_name counts of (with description, without description)."""
    with_desc: Counter[str] = Counter()
    without_desc: Counter[str] = Counter()
    for article in articles:
        if article.detail_desc is None:
            without_desc[article.index_name] += 1
        else:
            with_desc[article.index_name] += 1
    names = sorted(set(with_desc) | set(without_desc))
    return {name: (with_desc[name], without_desc[name]) for name in names}


def text_length_histogram(articles: list[PreparedArticle]) -> dict[int, int]:
    """Token-count histogram of prepared texts, keyed by exact length."""
    counts: Counter[int] = Counter()
    for article in articles:
        counts[article.text_len] += 1
    return {length: counts[length] for length in sorted(counts)}


# --- workdir persistence (tab-separated; cleaned text contains no tabs) ---


def save_prepared(articles: list[PreparedArticle], path: str | Path) -> None:
    lines = ["article_id\ttext\ttext_len"]
    lines += [f"{a.article_id}\t{a.text}\t{a.text_len}" for a in articles]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_prepared(path: str | Path) -> list[PreparedArticle]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "article_id\ttext\ttext_len":
        raise MalformedRowError(f"{path}: not a prepared-articles file")
    out = []
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedRowError(f"{path}: row {n} has {len(fields)} fields, expected 3")
        try:
            text_len = int(fields[2])
        except ValueError:
            raise MalformedRowError(f"{path}: row {n}: bad text_len {fields[2]!r}") from None
        out.append(PreparedArticle(fields[0], fields[1], text_len))
    return out


_TRANSACTIONS_HEADER = "t_dat\tcustomer_id\tarticle_id"
# transactions.tsv as an earlier ingest wrote it, with price and channel
_OLD_TRANSACTIONS_HEADER = _TRANSACTIONS_HEADER + "\tprice\tsales_channel_id"


# One saved row: three tab-separated fields free of line boundaries (every
# character ``str.splitlines`` splits at), then a newline.
_SAVED_FIELD = r"[^\t\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*"
_SAVED_ROWS_RE = re.compile(f"(?:{_SAVED_FIELD}\t{_SAVED_FIELD}\t{_SAVED_FIELD}\n)*")


def _saved_day(raw: str) -> int:
    return date.fromisoformat(raw).toordinal()


def save_transactions(log: PurchaseLog, path: str | Path) -> None:
    """Write the log as tab-separated rows of ISO date, customer id and
    article id, formatting each distinct day once."""
    days, day_codes = np.unique(log.days, return_inverse=True)
    day_text = [date.fromordinal(day).isoformat() for day in days.tolist()]
    cells = np.empty((len(log), 3), dtype=object)
    cells[:, 0] = _cell_texts(day_text, "\t")[day_codes]
    cells[:, 1] = _cell_texts(log.customer_ids, "\t")[log.customers]
    cells[:, 2] = _cell_texts(log.article_ids, "\n")[log.articles]
    atomic_write_text(path, _TRANSACTIONS_HEADER + "\n" + "".join(cells.ravel().tolist()))


def _cell_texts(table: Sequence[str], end: str) -> np.ndarray:
    """Each entry of ``table`` followed by ``end``, as an object array to
    gather from by code."""
    return np.array([text + end for text in table], dtype=object)


def _saved_fields_slowly(path: str | Path, text: str) -> list[str]:
    """The fields of every row, row by row, for a file that is not exactly
    header and rows each ending in a newline: a wrong header, a row of the
    wrong shape or an unparsable date raises, naming the first bad row."""
    lines = text.splitlines()
    if lines and lines[0] == _OLD_TRANSACTIONS_HEADER:
        raise MalformedRowError(
            f"{path}: written by an older ingest with price and sales_channel_id "
            "columns; re-run `titlerec ingest`"
        )
    if not lines or lines[0] != _TRANSACTIONS_HEADER:
        raise MalformedRowError(f"{path}: not a transactions file")
    fields = []
    for n, line in enumerate(lines[1:], start=1):
        row = line.split("\t")
        if len(row) != 3:
            raise MalformedRowError(f"{path}: row {n} has {len(row)} fields, expected 3")
        try:
            _saved_day(row[0])
        except ValueError:
            raise MalformedRowError(f"{path}: row {n}: bad t_dat {row[0]!r}") from None
        fields += row
    return fields


def load_saved_transactions(path: str | Path) -> PurchaseLog:
    """Read ``transactions.tsv`` as written by ``save_transactions``.

    One regular-expression match checks the shape of every row at once;
    only a file that fails it is scanned row by row, to name its first bad
    row. Each distinct date string is parsed once.
    """
    text = Path(path).read_text(encoding="utf-8")
    start = len(_TRANSACTIONS_HEADER) + 1
    if text.startswith(_TRANSACTIONS_HEADER + "\n") and _SAVED_ROWS_RE.fullmatch(text, start):
        fields = text[start:].replace("\n", "\t").split("\t")[:-1]
    else:
        fields = _saved_fields_slowly(path, text)
    dates, customer_cells, article_cells = fields[0::3], fields[1::3], fields[2::3]
    ordinal, bad = _parse_each(dates, _saved_day)
    if bad is not None:
        raise MalformedRowError(f"{path}: row {bad + 1}: bad t_dat {dates[bad]!r}")
    customers, customer_ids = _codes(customer_cells, {c: c for c in set(customer_cells)})
    articles, article_ids = _codes(article_cells, {a: a for a in set(article_cells)})
    return PurchaseLog(
        _day_numbers(dates, ordinal), customers, articles, customer_ids, article_ids
    )
