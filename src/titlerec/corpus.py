"""Catalog and transaction ingestion plus text preparation.

Loads the raw article / transaction CSVs and normalizes item text. The
cleaning rule (``clean_text``): lowercase, each run of ``str.isspace()``
characters becomes one space, both ends are stripped. The purchase log is
held as integer columns (``PurchaseLog``): day ordinals, and customer and
article codes into the sorted tables of distinct ids, so a stage filters,
groups and counts purchases with array operations and builds no object per
row. Joining against the catalog is a mask over article codes, and
per-customer-day sessions come from one stable sort. Each loader checks and
converts each distinct cell string once. All functions are pure with respect
to their inputs; loaders perform no shared mutation and are safe to call
concurrently.

The catalog is held in ascending article-id order (``load_articles``
sorts it, ``load_prepared`` refuses any other order), and its row number is
the one code an article has in every stage: ``PurchaseLog.of_articles``
re-codes a log's purchases to catalog rows, the index's rows are the
catalog's and training draws articles by catalog row. So no stage depends
on the row order of the articles file.

``ingest`` saves the joined log as its integer columns, which later stages
read back with ``np.frombuffer``. Layout (version TRLOG002, little-endian):
    magic        8 bytes  b"TRLOG002"
    counts       4 x uint32 (rows, customers, articles, holdout days)
    customers    customers x uint32 byte lengths, then the utf-8 ids
                 (stripped; the blank id is allowed)
    articles     articles x 10 ascii digits
    columns      rows x int64 day ordinals, then rows x int64 customer
                 codes, then rows x int64 article codes

Both tables ascend strictly, so codes order as their ids do. The customer
table holds only ids that some row uses; the article table is the whole
catalog, bought or not, so an article code is a catalog row. The holdout
days are those ``ingest`` ran with; a stage run with another value is
refused, since it would train on, or score against, other days.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from datetime import date
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .ioutil import ByteReader, atomic_write_bytes
from .errors import (
    ArtifactFormatError,
    DuplicateArticleIdError,
    InputFileError,
    InvalidConfigError,
    MalformedRowError,
    MissingColumnError,
    UnknownColumnError,
    UnparsableDateError,
)

ARTICLE_COLUMNS = ("article_id", "prod_name", "product_type_name", "index_name", "detail_desc")
TRANSACTION_COLUMNS = ("t_dat", "customer_id", "article_id")

# Columns that may be merged into the per-article text; all of them by default.
TEXTUAL_COLUMNS = ("prod_name", "product_type_name", "index_name", "detail_desc")


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
    ``article_ids``, tables of ascending (stripped, zero-padded) ids, so
    codes order as their ids do. Read from a CSV file, the tables hold the
    file's distinct ids; after ``of_articles`` the article table is the
    catalog. A sub-log from ``select`` shares those tables, so a table may
    name ids that no purchase of the sub-log uses.
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

    def of_articles(self, catalog: tuple[str, ...]) -> PurchaseLog:
        """The purchases of the catalog's articles (ascending ids), in order,
        with the catalog as article table: each article code becomes its
        catalog row."""
        row_of = {article_id: row for row, article_id in enumerate(catalog)}
        rows = np.array([row_of.get(a, -1) for a in self.article_ids], dtype=np.int64)
        rows = rows[self.articles]
        known = rows >= 0
        return PurchaseLog(
            self.days[known], self.customers[known], rows[known], self.customer_ids, catalog
        )

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
    """Cleaned, merged article text ready for tokenization, and the
    article's product type with each whitespace run made one space."""

    article_id: str
    text: str
    text_len: int
    product_type: str = ""


def _read_table(path: str | Path, required: tuple[str, ...]) -> tuple[dict[str, int], list[list[str]]]:
    """Read a UTF-8 CSV file and check the header names ``required`` columns.

    A byte-order mark at the start, as Excel's "CSV UTF-8" writes, is
    dropped, so it cannot hide the first column's name."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    if not (0 < len(value) <= 10 and value.isascii() and value.isdigit()):
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


def load_articles(path: str | Path) -> list[ArticleRecord]:
    """Load the article catalog, in ascending article-id order whatever
    the file's row order.

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
            raise MalformedRowError(f"{path}: row {row_index}: bad article_id {raw_id!r}") from None
        if article_id in seen:
            raise DuplicateArticleIdError(f"{path}: article_id {article_id} appears more than once")
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
    return sorted(records, key=attrgetter("article_id"))


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
            raise UnparsableDateError(f"{path}: row {row + 1}: unparsable t_dat {raw.strip()!r}")
        raise MalformedRowError(f"{path}: row {row + 1}: bad {name} {raw!r}")
    customer_cells = cells["customer_id"]
    customers, customer_ids = _codes(
        customer_cells, {raw: raw.strip() for raw in set(customer_cells)}
    )
    articles, article_ids = _codes(cells["article_id"], parsed["article_id"])
    days = np.fromiter(map(parsed["t_dat"].__getitem__, cells["t_dat"]), np.int64, len(rows))
    return PurchaseLog(days, customers, articles, customer_ids, article_ids)


def clean_text(raw: str | None) -> str:
    """The cleaning rule: lowercase, each run of ``str.isspace()`` characters
    becomes one space, both ends are stripped. None gives ""."""
    if raw is None:
        return ""
    return " ".join(raw.split()).lower()


def prepare_articles(
    articles: list[ArticleRecord],
    text_columns: tuple[str, ...] = TEXTUAL_COLUMNS,
) -> list[PreparedArticle]:
    """Merge the named textual columns into one cleaned text per article.

    Absent descriptions contribute an empty string, so prepared text is
    never missing. The text is ``clean_text`` of the columns joined by a
    space, and ``text_len`` its word count. The product type keeps its case;
    each run of whitespace in it becomes one space, so it holds no tab or
    line break. Output order matches input order.
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
        # the rule leaves single spaces between words: one more word than spaces
        kind = " ".join(article.product_type_name.split())
        prepared.append(PreparedArticle(article.article_id, text, text.count(" ") + bool(text), kind))
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


# --- workdir persistence (tab-separated: neither text nor product type holds a tab) ---

PREPARED_HEADER = "article_id\ttext\ttext_len\tproduct_type"


def save_prepared(articles: list[PreparedArticle], path: str | Path) -> str:
    """Write the prepared articles; return the sha256 hex digest of the
    bytes written, which ``load_prepared`` returns for the same file."""
    lines = [PREPARED_HEADER]
    lines += [f"{a.article_id}\t{a.text}\t{a.text_len}\t{a.product_type}" for a in articles]
    blob = ("\n".join(lines) + "\n").encode("utf-8")
    atomic_write_bytes(path, blob)
    return hashlib.sha256(blob).hexdigest()


def load_prepared(path: str | Path) -> tuple[list[PreparedArticle], str]:
    """The prepared articles, refused unless their ids ascend strictly, and
    the sha256 hex digest of the bytes they were parsed from."""
    blob = Path(path).read_bytes()
    lines = blob.decode("utf-8").splitlines()
    if not lines or lines[0] != PREPARED_HEADER:
        raise MalformedRowError(f"{path}: header is not {PREPARED_HEADER!r}; re-run `titlerec ingest`")
    out = []
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        if len(fields) != 4:
            raise MalformedRowError(f"{path}: row {n} has {len(fields)} fields, expected 4")
        try:
            text_len = int(fields[2])
        except ValueError:
            raise MalformedRowError(f"{path}: row {n}: bad text_len {fields[2]!r}") from None
        if out and fields[0] <= out[-1].article_id:
            raise MalformedRowError(f"{path}: row {n}: article_id {fields[0]!r} does not ascend")
        out.append(PreparedArticle(fields[0], fields[1], text_len, fields[3]))
    return out, hashlib.sha256(blob).hexdigest()


LOG_MAGIC = b"TRLOG002"


def save_transactions(log: PurchaseLog, path: str | Path, holdout_days: int) -> str:
    """Write the log in the TRLOG002 layout, over a table of only the
    customer ids that some purchase uses and the log's whole article table,
    recording ``holdout_days``; return the sha256 hex digest of the bytes
    written, which ``load_saved_transactions`` returns for the same file."""
    customers, customer_codes = np.unique(log.customers, return_inverse=True)
    customer_ids = [log.customer_ids[code].encode("utf-8") for code in customers.tolist()]
    if not all(len(a) == 10 and a.isascii() and a.isdigit() for a in log.article_ids):
        raise ArtifactFormatError(f"{path}: an article id is not 10 ascii digits")
    blob = b"".join([
        LOG_MAGIC,
        struct.pack("<4I", len(log), len(customers), len(log.article_ids), holdout_days),
        np.array([len(c) for c in customer_ids], dtype="<u4").tobytes(),
        *customer_ids,
        "".join(log.article_ids).encode("ascii"),
        *(column.astype("<i8").tobytes() for column in (log.days, customer_codes, log.articles)),
    ])
    atomic_write_bytes(path, blob)
    return hashlib.sha256(blob).hexdigest()


def _checked(path, kind: str, ids: list[str], rule: str, is_id: Callable, codes: np.ndarray):
    """The table ``ids`` and its codes as writable int64, refused unless each id passes
    ``is_id`` (as ``rule`` says), ids ascend strictly and every code names an id."""
    for position, ident in enumerate(ids):
        if not is_id(ident):
            raise ArtifactFormatError(f"{path}: {kind} id {ident!r} is not {rule}")
        if position and ids[position - 1] >= ident:
            raise ArtifactFormatError(f"{path}: {kind} ids do not ascend at {ident!r}")
    codes = codes.astype(np.int64)
    outside = np.flatnonzero((codes < 0) | (codes >= len(ids)))
    if len(outside):
        row = int(outside[0])
        raise ArtifactFormatError(f"{path}: row {row + 1}: {kind} code {codes[row]} is out of range")
    return tuple(ids), codes


def load_saved_transactions(
    path: str | Path, holdout_days: int | None = None
) -> tuple[PurchaseLog, int, str]:
    """Read a TRLOG002 file as written by ``save_transactions``: the log, the
    holdout days it was ingested with and the sha256 hex digest of the bytes it
    was parsed from. A file that breaks the layout's rules raises
    ``ArtifactFormatError`` naming it, and one ingested with other holdout days than
    a given ``holdout_days`` raises ``InvalidConfigError``. Each id is checked once."""
    reader = ByteReader(Path(path).read_bytes(), str(path))
    if reader.take(len(LOG_MAGIC)) != LOG_MAGIC:
        raise ArtifactFormatError(f"{path}: bad magic, not a purchase log; re-run `titlerec ingest`")
    rows, n_customers, n_articles, recorded = reader.unpack("<4I")
    if holdout_days is not None and recorded != holdout_days:
        raise InvalidConfigError(
            f"{path} was ingested with holdout_days={recorded}, but this run has "
            f"holdout_days={holdout_days}; pass the same --holdout-days to every command"
        )
    ends = np.cumsum(reader.array("<u4", n_customers), dtype=np.int64).tolist()
    customer_bytes = reader.take(ends[-1] if ends else 0)
    try:
        customer_ids = [customer_bytes[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)]
    except UnicodeDecodeError as exc:
        raise ArtifactFormatError(f"{path}: a customer id is not utf-8 ({exc})") from None
    article_text = reader.text(10 * n_articles, "ascii")
    article_ids = [article_text[at : at + 10] for at in range(0, len(article_text), 10)]
    days, customers, articles = (reader.array("<i8", rows) for _ in range(3))
    reader.finish()
    customer_ids, customers = _checked(
        path, "customer", customer_ids, "stripped", lambda c: c == c.strip(), customers
    )
    # the customer table is recommend's customer universe: every id bought something
    unused = np.flatnonzero(np.bincount(customers, minlength=len(customer_ids)) == 0)
    if len(unused):
        unused_id = customer_ids[unused[0]]
        raise ArtifactFormatError(f"{path}: customer id {unused_id!r} is used by no row")
    article_ids, articles = _checked(path, "article", article_ids, "10 digits", str.isdigit, articles)
    bad_days = np.flatnonzero((days < 1) | (days > date.max.toordinal()))
    if len(bad_days):
        row = int(bad_days[0])
        raise ArtifactFormatError(f"{path}: row {row + 1}: day {days[row]} is not a date ordinal")
    log = PurchaseLog(days.astype(np.int64), customers, articles, customer_ids, article_ids)
    return log, recorded, hashlib.sha256(reader.blob).hexdigest()
