"""Seeded input generators for the benchmark workloads.

Each workload generates the rows of ``articles.csv`` and
``transactions.csv`` (and, for ``catalog``, the ids of ``customers.txt``)
from a seed and names the CLI flags the pipeline runs with. The same seed
always gives the same bytes; the program under test sees only the files.

    planted  the planted-marker corpus of the acceptance suite (the recipe
             of ``tests/synth.py``) with the acceptance flags; training is
             nearly the whole run and MAP@12 has a known quality bar
    catalog  a wide catalog of long Zipf titles with capped training, so
             embedding and exact k-NN serving dominate
    log      a small catalog and a long purchase log, so log parsing,
             session grouping, pair encoding and per-customer serving
             dominate
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

ARTICLE_HEADER = ("article_id", "prod_name", "product_type_name", "index_name", "detail_desc")
TRANSACTION_HEADER = ("t_dat", "customer_id", "article_id", "price", "sales_channel_id")
INDEX_NAMES = ("Ladieswear", "Menswear", "Sport", "Divided", "Baby/Children")
START_DAY = date(2020, 3, 2)
HOLDOUT_DAYS = 7


@dataclass(frozen=True)
class Inputs:
    """The generated CSV rows plus the extra never-seen customer ids."""

    articles: list[tuple[str, ...]]
    transactions: list[tuple[str, ...]]
    extra_customers: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flags: tuple[str, ...]
    generate: Callable[[int], Inputs]


def _csv(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _price(rng: np.random.Generator) -> str:
    return f"{0.005 + 0.05 * float(rng.random()):.4f}"


# --- planted: the acceptance-suite corpus, transactions drawn from the seed ---

PLANTED_GROUPS = 20
PLANTED_PER_GROUP = 10
PLANTED_CUSTOMERS = 100
PLANTED_DAYS = 28


def _planted_article_id(group: int, item: int) -> str:
    return f"{100000000 + group * 1000 + item:010d}"


def _planted_customer_group(customer: int) -> int:
    # the first 30 customers crowd into groups 0-2 so popularity has a signal
    if customer < 30:
        return customer % 3
    return 3 + (customer - 30) % (PLANTED_GROUPS - 3)


def planted(seed: int) -> Inputs:
    """200 articles in 20 marker groups, 100 customers, six sessions each.

    Four sessions fall in the train window and draw from items 0-6 of the
    customer's group; two fall in the 7-day holdout and draw from items
    5-9, so most held-out purchases are new to the customer.
    """
    articles = []
    for group in range(PLANTED_GROUPS):
        word = f"grp{group:02d}marker"
        for item in range(PLANTED_PER_GROUP):
            articles.append((
                _planted_article_id(group, item),
                f"{word} item{group:02d}x{item:02d}",
                f"type{group:02d}",
                ("Ladieswear", "Menswear", "Sport")[group % 3],
                f"{word} {word} style" if item % 7 else "",
            ))
    rng = np.random.default_rng(seed)
    train_days = PLANTED_DAYS - HOLDOUT_DAYS
    transactions = []
    for customer in range(PLANTED_CUSTOMERS):
        cid = f"customer{customer:04d}"
        group = _planted_customer_group(customer)
        train_pool = [_planted_article_id(group, i) for i in range(7)]
        hold_pool = [_planted_article_id(group, i) for i in range(5, 10)]
        days = sorted(rng.choice(train_days, size=4, replace=False))
        days += sorted(train_days + rng.choice(HOLDOUT_DAYS, size=2, replace=False))
        for offset in days:
            day = START_DAY + timedelta(days=int(offset))
            pool = hold_pool if offset >= train_days else train_pool
            picks = rng.choice(len(pool), size=2 + int(rng.integers(0, 2)), replace=False)
            for n, pick in enumerate(picks):
                price = "" if (customer + n) % 13 == 0 else f"{0.01 * (1 + pick):.4f}"
                transactions.append((day.isoformat(), cid, pool[pick], price, "1"))
    return Inputs(articles, transactions, [])


# --- catalog and log: grouped Zipf titles and grouped shoppers ---


def _word_pool(n_words: int) -> list[str]:
    return [f"w{i:04d}" for i in range(n_words)]


def _zipf_weights(n: int, exponent: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def _grouped_articles(
    rng: np.random.Generator,
    n_articles: int,
    n_groups: int,
    n_words: int,
    name_words: int,
    desc_words: int,
) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Articles whose titles mix two group marker words with Zipf words.

    Returns the CSV rows and each article's group. Every tenth article has
    no description, so preparation fills the gap.
    """
    words = _word_pool(n_words)
    weights = _zipf_weights(n_words)
    groups = rng.integers(0, n_groups, size=n_articles)
    rows = []
    for i in range(n_articles):
        group = int(groups[i])
        markers = f"grp{group:03d}a grp{group:03d}b"
        name = " ".join(words[w] for w in rng.choice(n_words, size=name_words, p=weights))
        desc = " ".join(words[w] for w in rng.choice(n_words, size=desc_words, p=weights))
        rows.append((
            f"{200000000 + i:010d}",
            f"{markers} {name}",
            f"type{group % 40:02d}",
            INDEX_NAMES[group % len(INDEX_NAMES)],
            "" if i % 10 == 9 else f"{desc} {markers}",
        ))
    return rows, groups


def _grouped_log(
    rng: np.random.Generator,
    articles: list[tuple[str, ...]],
    groups: np.ndarray,
    n_customers: int,
    sessions_per_customer: int,
    n_days: int,
    max_items: int,
) -> list[tuple[str, ...]]:
    """Customers who shop mostly (80%) inside one home group.

    Group members are drawn with Zipf weights so the popularity ranking has
    a head. Each session is one customer-day with 1..max_items purchases.
    Rows are sorted by date then customer, as an exported log would be.
    """
    members = [np.flatnonzero(groups == g) for g in range(int(groups.max()) + 1)]
    member_weights = [_zipf_weights(len(m)) if len(m) else None for m in members]
    rows = []
    for customer in range(n_customers):
        cid = f"c{customer:07d}"
        home = int(rng.integers(0, len(members)))
        while not len(members[home]):
            home = int(rng.integers(0, len(members)))
        days = rng.choice(n_days, size=sessions_per_customer, replace=False)
        for offset in days:
            day = (START_DAY + timedelta(days=int(offset))).isoformat()
            for _ in range(1 + int(rng.integers(0, max_items))):
                if rng.random() < 0.8:
                    pick = int(rng.choice(members[home], p=member_weights[home]))
                else:
                    pick = int(rng.integers(0, len(articles)))
                channel = str(1 + int(rng.integers(0, 2)))
                rows.append((day, cid, articles[pick][0], _price(rng), channel))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


CATALOG_ARTICLES = 2000
CATALOG_CUSTOMERS = 1500
CATALOG_EXTRA_CUSTOMERS = 300


def catalog(seed: int) -> Inputs:
    """A wide catalog: long Zipf titles, two sessions per customer over 60
    days, and never-seen customer ids served by the popularity fallback."""
    rng = np.random.default_rng(seed)
    articles, groups = _grouped_articles(
        rng, CATALOG_ARTICLES, n_groups=200, n_words=1000, name_words=4, desc_words=24
    )
    transactions = _grouped_log(
        rng, articles, groups, CATALOG_CUSTOMERS, sessions_per_customer=2, n_days=60, max_items=2
    )
    extra = [f"new{i:07d}" for i in range(CATALOG_EXTRA_CUSTOMERS)]
    return Inputs(articles, transactions, extra)


LOG_ARTICLES = 500
LOG_CUSTOMERS = 2000


def log(seed: int) -> Inputs:
    """A small catalog with a long log: six sessions per customer over 120
    days, one to three purchases each."""
    rng = np.random.default_rng(seed)
    articles, groups = _grouped_articles(
        rng, LOG_ARTICLES, n_groups=25, n_words=800, name_words=3, desc_words=10
    )
    transactions = _grouped_log(
        rng, articles, groups, LOG_CUSTOMERS, sessions_per_customer=6, n_days=120, max_items=3
    )
    return Inputs(articles, transactions, [])


PLANTED_FLAGS = (
    "--d-model", "32", "--n-heads", "4", "--n-layers", "2", "--d-ff", "64",
    "--max-len", "16", "--epochs", "2", "--max-steps", "360", "--batch-size", "16",
    "--learning-rate", "1e-3", "--seed", "0",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted",
            "training is nearly the whole run and MAP@12 has a known quality bar",
            PLANTED_FLAGS,
            planted,
        ),
        Workload(
            "catalog",
            "a wide catalog with capped training, so embedding and exact k-NN serving dominate",
            ("--max-steps", "10", "--seed", "0"),
            catalog,
        ),
        Workload(
            "log",
            "a small catalog and a long log, so parsing, sessions, pair encoding and "
            "per-customer serving dominate",
            ("--d-model", "32", "--max-len", "32", "--d-ff", "64", "--max-steps", "20", "--seed", "0"),
            log,
        ),
    )
}


def write_inputs(inputs: Inputs, directory: Path) -> dict[str, Path]:
    """Write generated inputs into ``directory``.

    Returns the written paths keyed ``articles``, ``transactions`` and,
    when there are never-seen customers, ``customers``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "articles": directory / "articles.csv",
        "transactions": directory / "transactions.csv",
    }
    paths["articles"].write_text(_csv(ARTICLE_HEADER, inputs.articles), encoding="utf-8")
    paths["transactions"].write_text(
        _csv(TRANSACTION_HEADER, inputs.transactions), encoding="utf-8"
    )
    if inputs.extra_customers:
        paths["customers"] = directory / "customers.txt"
        paths["customers"].write_text(
            "".join(f"{c}\n" for c in inputs.extra_customers), encoding="utf-8"
        )
    return paths
