"""Synthetic corpus builders shared across the test suite.

The planted corpus gives every article group a rare marker token and makes
customers shop inside one group, so a working pipeline must cluster items
by that token. The last week of each customer's purchases leans on group
items that barely appear earlier, which keeps the temporal holdout from
being answerable by repurchase counting alone.
"""

from __future__ import annotations

import csv
import io
import struct
from datetime import date, timedelta

import numpy as np

from titlerec.corpus import PurchaseLog

N_GROUPS = 20
PER_GROUP = 10
N_CUSTOMERS = 100
N_DAYS = 28
HOLDOUT_DAYS = 7
START_DAY = date(2020, 3, 2)

ARTICLE_HEADER = ("article_id", "prod_name", "product_type_name", "index_name", "detail_desc")
TRANSACTION_HEADER = ("t_dat", "customer_id", "article_id", "price", "sales_channel_id")


def group_word(group: int) -> str:
    return f"grp{group:02d}marker"


def article_id_for(group: int, item: int) -> str:
    return f"{100000000 + group * 1000 + item:010d}"


def planted_articles() -> list[tuple[str, ...]]:
    rows = []
    for group in range(N_GROUPS):
        for item in range(PER_GROUP):
            word = group_word(group)
            desc = f"{word} {word} style" if item % 7 else ""
            rows.append(
                (
                    article_id_for(group, item),
                    f"{word} item{group:02d}x{item:02d}",
                    f"type{group:02d}",
                    ("Ladieswear", "Menswear", "Sport")[group % 3],
                    desc,
                )
            )
    return rows


def customer_group(customer: int) -> int:
    # first 30 customers crowd into groups 0-2 so popularity has a signal
    if customer < 30:
        return customer % 3
    return 3 + (customer - 30) % (N_GROUPS - 3)


def planted_transactions(seed: int = 11) -> list[tuple[str, ...]]:
    """Six sessions per customer: four in the train window, two held out.

    Train sessions draw from items 0-6 of the customer's group; holdout
    sessions draw from items 5-9, so most held-out purchases are items the
    customer never bought before.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for customer in range(N_CUSTOMERS):
        cid = f"customer{customer:04d}"
        group = customer_group(customer)
        train_pool = [article_id_for(group, i) for i in range(7)]
        hold_pool = [article_id_for(group, i) for i in range(5, 10)]
        train_days = sorted(rng.choice(N_DAYS - HOLDOUT_DAYS, size=4, replace=False))
        hold_days = sorted(N_DAYS - HOLDOUT_DAYS + rng.choice(HOLDOUT_DAYS, size=2, replace=False))
        for offset in train_days + hold_days:
            day = START_DAY + timedelta(days=int(offset))
            pool = hold_pool if offset >= N_DAYS - HOLDOUT_DAYS else train_pool
            picks = rng.choice(len(pool), size=2 + int(rng.integers(0, 2)), replace=False)
            for n, pick in enumerate(picks):
                price = "" if (customer + n) % 13 == 0 else f"{0.01 * (1 + pick):.4f}"
                rows.append((day.isoformat(), cid, pool[pick], price, "1"))
    return rows


def to_csv(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_planted_inputs(directory) -> dict:
    """Write articles.csv / transactions.csv and return fixture metadata."""
    articles = planted_articles()
    transactions = planted_transactions()
    articles_path = directory / "articles.csv"
    transactions_path = directory / "transactions.csv"
    articles_path.write_text(to_csv(ARTICLE_HEADER, articles), encoding="utf-8")
    transactions_path.write_text(to_csv(TRANSACTION_HEADER, transactions), encoding="utf-8")
    group_of = {
        article_id_for(group, item): group
        for group in range(N_GROUPS)
        for item in range(PER_GROUP)
    }
    return {
        "articles_path": articles_path,
        "transactions_path": transactions_path,
        "article_rows": articles,
        "transaction_rows": transactions,
        "group_of": group_of,
        "customer_group": {
            f"customer{c:04d}": customer_group(c) for c in range(N_CUSTOMERS)
        },
        "holdout_days": HOLDOUT_DAYS,
    }


def small_inputs(directory, n_articles: int = 30, n_customers: int = 15, seed: int = 5) -> dict:
    """A miniature corpus for fast pipeline tests (no planted structure)."""
    rng = np.random.default_rng(seed)
    words = ["red", "blue", "wool", "denim", "slim", "long", "kids", "retro"]
    articles = []
    for i in range(n_articles):
        picks = rng.choice(len(words), size=3, replace=False)
        articles.append(
            (
                f"{i + 1:010d}",
                " ".join(words[p] for p in picks),
                f"type{i % 4}",
                ("Ladieswear", "Sport")[i % 2],
                "plain cotton" if i % 3 else "",
            )
        )
    transactions = []
    for c in range(n_customers):
        for _ in range(4):
            day = START_DAY + timedelta(days=int(rng.integers(0, 14)))
            article = articles[int(rng.integers(0, n_articles))][0]
            transactions.append((day.isoformat(), f"shopper{c:03d}", article, "0.05", "2"))
    transactions.sort()
    articles_path = directory / "articles.csv"
    transactions_path = directory / "transactions.csv"
    articles_path.write_text(to_csv(ARTICLE_HEADER, articles), encoding="utf-8")
    transactions_path.write_text(to_csv(TRANSACTION_HEADER, transactions), encoding="utf-8")
    return {
        "articles_path": articles_path,
        "transactions_path": transactions_path,
        "article_rows": articles,
        "transaction_rows": transactions,
    }


def purchase_log(rows, article_ids: tuple[str, ...] | None = None) -> PurchaseLog:
    """A purchase log of (date, customer id, article id) rows, in order,
    coded into the sorted distinct ids as the loaders code them, or into
    ``article_ids`` (ascending, say a catalog) when given."""
    rows = list(rows)
    customer_ids = tuple(sorted({customer for _, customer, _ in rows}))
    if article_ids is None:
        article_ids = tuple(sorted({article for _, _, article in rows}))
    customer_code = {c: i for i, c in enumerate(customer_ids)}
    article_code = {a: i for i, a in enumerate(article_ids)}
    return PurchaseLog(
        np.array([day.toordinal() for day, _, _ in rows], dtype=np.int64),
        np.array([customer_code[c] for _, c, _ in rows], dtype=np.int64),
        np.array([article_code[a] for _, _, a in rows], dtype=np.int64),
        customer_ids,
        article_ids,
    )


def sessions_log(sessions, article_ids: tuple[str, ...] | None = None) -> PurchaseLog:
    """The purchase log of (customer id, date, article ids) sessions, over
    ``article_ids`` when given (see ``purchase_log``)."""
    return purchase_log(
        ((day, customer, article) for customer, day, articles in sessions for article in articles),
        article_ids,
    )


def log_rows(log: PurchaseLog) -> list[tuple[date, str, str]]:
    """The log's purchases as (date, customer id, article id) rows, in order."""
    return [
        (date.fromordinal(day), log.customer_ids[customer], log.article_ids[article])
        for day, customer, article in zip(
            log.days.tolist(), log.customers.tolist(), log.articles.tolist()
        )
    ]


def trlog_bytes(log: PurchaseLog, holdout_days: int = 7, magic: bytes = b"TRLOG002") -> bytes:
    """The TRLOG002 bytes of ``log`` exactly as given, recording
    ``holdout_days``: its tables are not compacted or checked, so a test can
    write a file that breaks the rules."""
    customer_ids = [c.encode("utf-8") for c in log.customer_ids]
    parts = [
        magic,
        struct.pack("<4I", len(log.days), len(customer_ids), len(log.article_ids), holdout_days),
        *(struct.pack("<I", len(c)) for c in customer_ids),
        *customer_ids,
        *(a.encode("utf-8") for a in log.article_ids),
        *(struct.pack(f"<{len(log.days)}q", *column.tolist())
          for column in (log.days, log.customers, log.articles)),
    ]
    return b"".join(parts)
