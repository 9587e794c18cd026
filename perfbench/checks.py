"""Output checks, run outside every timed region.

Each check is one attempted operation; a check that fails is one failed
operation. The checks read only the generated inputs and the artifacts
the pipeline wrote, except the planted quality bar, which scores the
popularity baseline with the program's own ``evaluation.map_at_12``.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from workloads import HOLDOUT_DAYS, Inputs

TOP_N = 12
QUALITY_RATIO = 1.5
ORACLE_SAMPLE = 200


@dataclass
class Ledger:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass(frozen=True)
class Split:
    """The generated log split the way the pipeline splits it."""

    catalog: frozenset[str]
    universe: frozenset[str]
    bought_before: dict[str, set[str]]  # train-window purchases per customer
    truth: dict[str, set[str]]  # holdout purchases per customer
    popularity: list[str]  # train-window ranking, ties by ascending id


def split_inputs(inputs: Inputs) -> Split:
    days = [date.fromisoformat(row[0]) for row in inputs.transactions]
    cutoff = max(days) - timedelta(days=HOLDOUT_DAYS - 1)
    bought: dict[str, set[str]] = {}
    truth: dict[str, set[str]] = {}
    counts: Counter[str] = Counter()
    for day, (_, customer, article, *_rest) in zip(days, inputs.transactions):
        if day < cutoff:
            bought.setdefault(customer, set()).add(article)
            counts[article] += 1
        else:
            truth.setdefault(customer, set()).add(article)
    universe = {row[1] for row in inputs.transactions} | set(inputs.extra_customers)
    return Split(
        catalog=frozenset(row[0] for row in inputs.articles),
        universe=frozenset(universe),
        bought_before=bought,
        truth=truth,
        popularity=sorted(counts, key=lambda a: (-counts[a], a)),
    )


def read_submission(path: Path) -> list[tuple[str, list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[1:]:
        customer, _, prediction = line.partition(",")
        rows.append((customer, prediction.split(" ")))
    return rows


def read_index(path: Path) -> tuple[list[str], np.ndarray]:
    """Article ids and unit rows of a TRECIDX1 index file."""
    blob = path.read_bytes()
    if blob[:8] != b"TRECIDX1":
        raise ValueError(f"{path}: not a TRECIDX1 index")
    count, dim, tag_len = struct.unpack_from("<2IB", blob, 8)
    offset = 8 + struct.calcsize("<2IB") + tag_len
    ids = [blob[offset + 10 * i: offset + 10 * (i + 1)].decode("ascii") for i in range(count)]
    offset += 10 * count
    vectors = np.frombuffer(blob, dtype="<f8", count=count * dim, offset=offset)
    return ids, vectors.reshape(count, dim).astype(np.float64)


def check_submission(ledger: Ledger, split: Split, rows: list[tuple[str, list[str]]]) -> None:
    customers = [customer for customer, _ in rows]
    ledger.check(
        len(customers) == len(split.universe) and set(customers) == split.universe,
        "submission has one row per customer in the universe",
    )
    bad = [c for c, ids in rows
           if len(ids) != TOP_N or len(set(ids)) != TOP_N or not split.catalog.issuperset(ids)]
    ledger.check(not bad, f"every row has {TOP_N} distinct catalog ids ({len(bad)} bad rows)")
    repeats = [c for c, ids in rows if split.bought_before.get(c, set()).intersection(ids)]
    ledger.check(not repeats, f"no warm customer is sent a train-window purchase "
                              f"({len(repeats)} customers)")


def check_quality(ledger: Ledger, split: Split, rows, workdir: Path, evaluation) -> dict:
    """MAP@12 of the submission is at least 1.5x that of popularity only."""
    model = json.loads((workdir / "eval_report.json").read_text(encoding="utf-8"))["map_at_12"]
    head = tuple(split.popularity[:TOP_N])
    baseline = evaluation.map_at_12(
        [evaluation.SubmissionRow(customer, head) for customer, _ in rows], split.truth
    ).map_at_12
    ledger.check(model >= QUALITY_RATIO * baseline,
                 f"MAP@12 {model:.4f} >= {QUALITY_RATIO} x popularity {baseline:.4f}")
    return {"map_at_12": model, "popularity_map_at_12": baseline}


def check_knn_oracle(ledger: Ledger, split: Split, rows, workdir: Path, seed: int) -> int:
    """Recompute sampled warm customers' top 12 with a full sort of the index.

    Ties break by ascending article id and purchases are excluded, as the
    program promises. Returns the number of customers compared.
    """
    ids, vectors = read_index(workdir / "index.bin")
    row_of = {a: i for i, a in enumerate(ids)}
    id_array = np.asarray(ids)
    served = dict(rows)
    warm = sorted(c for c, bought in split.bought_before.items() if bought & row_of.keys())
    rng = np.random.default_rng(seed)
    sample = [warm[i] for i in sorted(rng.choice(len(warm), min(ORACLE_SAMPLE, len(warm)),
                                                 replace=False))]
    for customer in sample:
        purchased = split.bought_before[customer] & row_of.keys()
        mean = np.mean(vectors[[row_of[a] for a in sorted(purchased)]], axis=0)
        sims = vectors @ (mean / float(np.linalg.norm(mean)))
        order = np.lexsort((id_array, -sims))
        expected = [ids[i] for i in order if ids[i] not in purchased][:TOP_N]
        ledger.check(served.get(customer) == expected, f"k-NN oracle for {customer}")
    return len(sample)
