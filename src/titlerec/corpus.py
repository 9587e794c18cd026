"""Catalog and transaction ingestion plus text preparation.

Loads the raw article / transaction CSVs, normalizes item text (lowercase,
single-spaced), joins purchases against the catalog and groups them into
per-customer-day sessions. All functions are pure with respect to their
inputs; loaders perform no shared mutation and are safe to call concurrently.
"""

from __future__ import annotations

import csv
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date
from pathlib import Path

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


@dataclass(frozen=True)
class TransactionRecord:
    t_dat: date
    customer_id: str
    article_id: str


@dataclass(frozen=True)
class PreparedArticle:
    """Cleaned, merged article text ready for tokenization."""

    article_id: str
    text: str
    text_len: int


@dataclass(frozen=True)
class SessionGroup:
    """All purchases of one customer on one calendar date, in file order."""

    customer_id: str
    t_dat: date
    article_ids: tuple[str, ...]


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


def _normalize_article_id(raw: str, row_index: int) -> str:
    value = raw.strip()
    if not _ARTICLE_ID_RE.match(value):
        raise MalformedRowError(f"row {row_index}: bad article_id {raw!r}")
    return value.zfill(10)


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
        article_id = _normalize_article_id(row[columns["article_id"]], row_index)
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


def load_transactions(path: str | Path) -> list[TransactionRecord]:
    """Load the purchase log. Duplicate rows are preserved as-is.

    ``price`` and ``sales_channel_id`` columns are optional and no stage
    uses them, but a nonempty cell must still parse as a number (an
    integer for the channel).
    """
    columns, rows = _read_table(path, TRANSACTION_COLUMNS)
    checked = [
        (columns[name], name, parse)
        for name, parse in (("price", float), ("sales_channel_id", int))
        if name in columns
    ]
    records: list[TransactionRecord] = []
    for row_index, row in enumerate(rows, start=1):
        raw_date = row[columns["t_dat"]].strip()
        try:
            t_dat = date.fromisoformat(raw_date)
        except ValueError:
            raise UnparsableDateError(f"row {row_index}: unparsable t_dat {raw_date!r}") from None
        article_id = _normalize_article_id(row[columns["article_id"]], row_index)
        for col, name, parse in checked:
            if row[col].strip() != "":
                try:
                    parse(row[col])
                except ValueError:
                    raise MalformedRowError(f"row {row_index}: bad {name} {row[col]!r}") from None
        records.append(
            TransactionRecord(
                t_dat=t_dat,
                customer_id=row[columns["customer_id"]].strip(),
                article_id=article_id,
            )
        )
    return records


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


def join_transactions(
    transactions: list[TransactionRecord],
    articles: list[PreparedArticle],
) -> tuple[list[tuple[TransactionRecord, PreparedArticle]], int]:
    """Left-join transactions against the prepared catalog on article_id.

    Transactions whose article is not in the catalog cannot be embedded, so
    they are dropped; the dropped count is returned alongside the joined rows
    (joined + dropped always equals the input length).
    """
    by_id = {article.article_id: article for article in articles}
    joined: list[tuple[TransactionRecord, PreparedArticle]] = []
    dropped = 0
    for tx in transactions:
        article = by_id.get(tx.article_id)
        if article is None:
            dropped += 1
        else:
            joined.append((tx, article))
    return joined, dropped


def group_sessions(transactions: list[TransactionRecord]) -> list[SessionGroup]:
    """Group purchases into (customer_id, date) sessions.

    Within a session, article ids keep their input order; the group list is
    sorted by customer id then date so iteration order is reproducible.
    """
    buckets: dict[tuple[str, date], list[str]] = defaultdict(list)
    for tx in transactions:
        buckets[(tx.customer_id, tx.t_dat)].append(tx.article_id)
    return [
        SessionGroup(customer_id, t_dat, tuple(buckets[(customer_id, t_dat)]))
        for customer_id, t_dat in sorted(buckets)
    ]


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
        out.append(PreparedArticle(fields[0], fields[1], int(fields[2])))
    return out


_TRANSACTIONS_HEADER = "t_dat\tcustomer_id\tarticle_id"
# transactions.tsv as an earlier ingest wrote it, with price and channel
_OLD_TRANSACTIONS_HEADER = _TRANSACTIONS_HEADER + "\tprice\tsales_channel_id"


def save_transactions(transactions: list[TransactionRecord], path: str | Path) -> None:
    lines = [_TRANSACTIONS_HEADER]
    lines += [f"{t.t_dat.isoformat()}\t{t.customer_id}\t{t.article_id}" for t in transactions]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_saved_transactions(path: str | Path) -> list[TransactionRecord]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines and lines[0] == _OLD_TRANSACTIONS_HEADER:
        raise MalformedRowError(
            f"{path}: written by an older ingest with price and sales_channel_id "
            "columns; re-run `titlerec ingest`"
        )
    if not lines or lines[0] != _TRANSACTIONS_HEADER:
        raise MalformedRowError(f"{path}: not a transactions file")
    out = []
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedRowError(f"{path}: row {n} has {len(fields)} fields, expected 3")
        out.append(TransactionRecord(date.fromisoformat(fields[0]), fields[1], fields[2]))
    return out
