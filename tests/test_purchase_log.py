"""The columnar purchase log against per-row record loops.

The oracles below keep the record-at-a-time code the columns replaced: one
record per CSV row, sessions from a dict of lists, profiles from one
``np.mean`` per customer, popularity from a ``Counter`` and ground truth
from sets. Each consumer of the log must give exactly their result on one
generated log that has duplicate rows, blank customer ids, multi-purchase
sessions, a customer seen only in the holdout, ids that need zero-padding
and purchases outside the catalog.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from datetime import date, timedelta
from typing import NamedTuple

import numpy as np
import pytest

from titlerec import cli, corpus, evaluation, objectives
from titlerec import index as ix

from conftest import profiles_by_customer
from synth import log_rows, purchase_log, to_csv, trlog_bytes

HOLDOUT_DAYS = 7
START = date(2020, 5, 1)


class Record(NamedTuple):
    t_dat: date
    customer_id: str
    article_id: str


def generated_rows(seed: int = 17):
    """CSV rows (t_dat, customer_id, article_id, price, sales_channel_id)
    and the catalog's article ids."""
    rng = np.random.default_rng(seed)
    catalog = [f"{int(i):010d}" for i in rng.choice(10**6, size=40, replace=False)]
    catalog[-1] = "0000000000"  # never bought: the catalog's first id
    outside = [f"{10**9 + i}" for i in range(3)]  # never in the catalog
    rows = []
    for _ in range(600):
        customer = f"cust{int(rng.integers(0, 60)):02d}"
        if rng.random() < 0.05:
            customer = "" if rng.random() < 0.5 else "  "  # blank, then stripped
        elif rng.random() < 0.1:
            customer = f" {customer} "  # padded, the same customer once stripped
        day = START + timedelta(days=int(rng.integers(0, 30)))
        # a session of one to four purchases
        for _ in range(int(rng.integers(1, 5))):
            article = catalog[int(rng.integers(0, 12 if rng.random() < 0.5 else 39))]
            if rng.random() < 0.03:
                article = outside[int(rng.integers(0, len(outside)))]
            elif rng.random() < 0.3:
                article = str(int(article))  # needs zero-padding
            rows.append((day.isoformat(), customer, article, "0.0250", "2"))
    rows += rows[:25]  # exact duplicate rows
    # a customer seen only in the holdout window
    last = START + timedelta(days=29)
    rows.append((last.isoformat(), "holdout-only", catalog[3], "", ""))
    rows.append((last.isoformat(), "holdout-only", catalog[5], "", "1"))
    return rows, catalog


# --- the per-row oracles ---


def records_of(rows) -> list[Record]:
    return [Record(date.fromisoformat(d.strip()), c.strip(), a.strip().zfill(10))
            for d, c, a, *_ in rows]


def split_records(records):
    cutoff = max(r.t_dat for r in records) - timedelta(days=HOLDOUT_DAYS - 1)
    return ([r for r in records if r.t_dat < cutoff], [r for r in records if r.t_dat >= cutoff])


def sessions_of(records):
    buckets = defaultdict(list)
    for r in records:
        buckets[(r.customer_id, r.t_dat)].append(r.article_id)
    return [(key, buckets[key]) for key in sorted(buckets)]


def positives_of(records, inventory):
    row_of = {a: i for i, a in enumerate(inventory)}
    pairs = []
    for _, bought in sessions_of(records):
        members = list(dict.fromkeys(bought))
        pairs += [(row_of[s], row_of[c]) for s in members for c in members if c != s]
    return pairs


def profiles_of(records, catalog, index):
    bought = defaultdict(set)
    for r in records:
        if r.article_id in catalog:
            bought[r.customer_id].add(r.article_id)
    profiles = {}
    for customer, purchased in bought.items():
        ids = sorted(purchased)
        mean = np.mean(index.vectors[[catalog.index(a) for a in ids]], axis=0)
        norm = float(np.linalg.norm(mean))
        profiles[customer] = (ids, mean / norm if norm >= ix.NORM_FLOOR else None)
    return profiles


def popularity_of(records):
    counts = Counter(r.article_id for r in records)
    return sorted(counts, key=lambda a: (-counts[a], a))


def truth_of(records):
    truth = {}
    for r in records:
        if r.customer_id:
            truth.setdefault(r.customer_id, set()).add(r.article_id)
    return truth


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("purchase_log")
    rows, catalog = generated_rows()
    path = tmp / "transactions.csv"
    path.write_text(to_csv(("t_dat", "customer_id", "article_id", "price", "sales_channel_id"),
                           rows), encoding="utf-8")
    with open(path, newline="", encoding="utf-8") as fh:
        reread = list(csv.reader(fh))[1:]
    joined_records = [r for r in records_of(reread) if r.article_id in set(catalog)]
    ingested = corpus.load_transactions(path).of_articles(tuple(sorted(catalog)))
    corpus.save_transactions(ingested, tmp / "transactions.bin", HOLDOUT_DAYS)
    log = corpus.load_saved_transactions(tmp / "transactions.bin", HOLDOUT_DAYS)[0]
    # the index has a row per catalog row, as the ingested log's article table does
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(len(catalog), 6))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    index = ix.EmbeddingIndex(vectors)
    return {"tmp": tmp, "catalog": catalog, "records": joined_records, "log": log,
            "ingested": ingested, "index": index}


def test_generated_log_has_every_case(world):
    records = world["records"]
    train, holdout = split_records(records)
    assert any(not r.customer_id for r in records)
    assert len(set(records)) < len(records)
    assert max(len(b) for _, b in sessions_of(records)) >= 3
    assert {r.customer_id for r in holdout} - {r.customer_id for r in train}
    # the article table is the catalog, with an article nobody bought
    assert world["ingested"].article_ids == tuple(sorted(world["catalog"]))
    assert "0000000000" not in {r.article_id for r in records}


def test_loaded_rows_and_saved_file(world):
    records = world["records"]
    assert log_rows(world["ingested"]) == records
    assert log_rows(world["log"]) == records
    # the saved customer table holds only the ids that joined rows use; the
    # article table is the catalog
    expected = purchase_log(records, tuple(sorted(world["catalog"])))
    assert world["log"].customer_ids == expected.customer_ids
    assert world["log"].article_ids == expected.article_ids
    assert (world["tmp"] / "transactions.bin").read_bytes() == trlog_bytes(expected, HOLDOUT_DAYS)


def test_split(world):
    train, holdout = evaluation.temporal_split(world["log"], HOLDOUT_DAYS)
    expected_train, expected_holdout = split_records(world["records"])
    assert log_rows(train) == expected_train
    assert log_rows(holdout) == expected_holdout


def test_sessions_and_positive_order(world):
    log = world["log"]
    order, session = log.sessions()
    rows = [Record(*row) for row in log_rows(log)]
    grouped = defaultdict(list)
    for i, s in zip(order.tolist(), session.tolist()):
        grouped[s].append(rows[i])
    assert [((g[0].customer_id, g[0].t_dat), [r.article_id for r in g])
            for _, g in sorted(grouped.items())] == sessions_of(world["records"])
    inventory = sorted(world["catalog"])
    train, _ = evaluation.temporal_split(log, HOLDOUT_DAYS)
    table = objectives.positive_table(train, 2)
    expected = positives_of(split_records(world["records"])[0], inventory)
    assert list(zip(table.seeds.tolist(), table.candidates.tolist())) == expected


def test_profiles_bit_identical(world):
    index = world["index"]
    catalog = tuple(sorted(world["catalog"]))
    train, _ = evaluation.temporal_split(world["log"], HOLDOUT_DAYS)
    profiles = profiles_by_customer(train, index)
    expected = profiles_of(split_records(world["records"])[0], catalog, index)
    assert profiles.keys() == expected.keys()
    assert max(len(ids) for ids, _ in expected.values()) >= 3
    for customer, (ids, vector) in expected.items():
        profile = profiles[customer]
        assert [catalog[row] for row in profile.rows] == ids
        assert profile.vector.tobytes() == vector.tobytes()


def test_popularity_ranking(world):
    train, _ = evaluation.temporal_split(world["log"], HOLDOUT_DAYS)
    ranking = [train.article_ids[code] for code in ix.popularity_ranking(train)]
    assert ranking == popularity_of(split_records(world["records"])[0])


def test_ground_truth(world):
    _, holdout = evaluation.temporal_split(world["log"], HOLDOUT_DAYS)
    assert evaluation.build_ground_truth(holdout) == truth_of(split_records(world["records"])[1])


def test_customer_universe(world):
    universe = cli._load_customer_universe(cli.PipelineConfig(), world["log"])
    assert universe == sorted({r.customer_id for r in world["records"] if r.customer_id})
    assert "holdout-only" in universe
