"""Scoring, submission files and the manual spot-check report.

MAP@12 uses the standard competition definition: per customer,
AP@12 = (1/min(|truth|, 12)) * sum over hit ranks r of (hits up to r)/r,
averaged over the customers that appear in the ground truth. Customers
missing from the truth are excluded from scoring but counted. Ground
truth comes from a temporal split: the last D days of transactions are
held out and everything earlier is left for training.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import ArticleRecord, PreparedArticle, PurchaseLog
from .ioutil import atomic_write_text
from .errors import (
    DuplicateCustomerError,
    DuplicatePredictionError,
    EmptyTruthError,
    FormatViolationError,
    InvalidRowError,
    NoScorableCustomersError,
    UnknownCustomerError,
)

SUBMISSION_HEADER = "customer_id,prediction"
PREDICTION_WIDTH = 12

_ARTICLE_ID_RE = re.compile(r"^[0-9]{10}$")

GroundTruth = dict[str, set[str]]


@dataclass(frozen=True)
class SubmissionRow:
    """One output line: a customer and exactly 12 distinct article ids."""

    customer_id: str
    article_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.customer_id or "," in self.customer_id or "\n" in self.customer_id:
            raise InvalidRowError(f"bad customer_id {self.customer_id!r}")
        if len(self.article_ids) != PREDICTION_WIDTH:
            raise InvalidRowError(
                f"{self.customer_id}: {len(self.article_ids)} ids, expected {PREDICTION_WIDTH}"
            )
        if len(set(self.article_ids)) != PREDICTION_WIDTH:
            raise InvalidRowError(f"{self.customer_id}: prediction ids must be distinct")
        for article_id in self.article_ids:
            if not _ARTICLE_ID_RE.match(article_id):
                raise InvalidRowError(f"{self.customer_id}: bad article id {article_id!r}")

    @property
    def prediction(self) -> str:
        return " ".join(self.article_ids)


@dataclass(frozen=True)
class EvalReport:
    map_at_12: float
    scored_customer_count: int
    excluded_customer_count: int
    per_customer: tuple[tuple[str, float], ...]


def average_precision_at_k(predictions: list[str], truth: set[str], k: int = 12) -> float:
    """AP@k of one ranked prediction list against a relevant-item set."""
    if not truth:
        raise EmptyTruthError("truth set is empty")
    if len(set(predictions)) != len(predictions):
        raise DuplicatePredictionError("prediction list contains duplicates")
    hits = 0
    precision_sum = 0.0
    for rank, article_id in enumerate(predictions[:k], start=1):
        if article_id in truth:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / min(len(truth), k)


def map_at_12(submission: list[SubmissionRow], truth: GroundTruth) -> EvalReport:
    """Mean AP@12 over the scorable rows, in submission order."""
    seen: set[str] = set()
    scored: list[tuple[str, float]] = []
    excluded = 0
    for row in submission:
        if row.customer_id in seen:
            raise DuplicateCustomerError(f"customer {row.customer_id} appears twice")
        seen.add(row.customer_id)
        relevant = truth.get(row.customer_id)
        if not relevant:
            excluded += 1
            continue
        scored.append((row.customer_id, average_precision_at_k(list(row.article_ids), relevant)))
    if not scored:
        raise NoScorableCustomersError("no submitted customer appears in the ground truth")
    mean = sum(ap for _, ap in scored) / len(scored)
    return EvalReport(mean, len(scored), excluded, tuple(scored))


def temporal_split(log: PurchaseLog, holdout_days: int = 7) -> tuple[PurchaseLog, PurchaseLog]:
    """Split into (train, holdout): the final ``holdout_days`` calendar
    days of the log, ending at its maximum date, form the holdout."""
    if holdout_days < 1:
        raise ValueError("holdout_days must be >= 1")
    if not len(log):
        return log, log
    held = log.days >= log.days.max() - (holdout_days - 1)
    return log.select(~held), log.select(held)


def build_ground_truth(holdout: PurchaseLog) -> GroundTruth:
    """Held-out purchases per customer; blank customer ids are unusable."""
    truth: GroundTruth = {}
    for customer, article in zip(holdout.customers.tolist(), holdout.articles.tolist()):
        truth.setdefault(holdout.customer_ids[customer], set()).add(holdout.article_ids[article])
    truth.pop("", None)
    return truth


def write_submission(rows: list[SubmissionRow], path: str | Path) -> None:
    lines = [SUBMISSION_HEADER]
    lines += [f"{row.customer_id},{row.prediction}" for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_submission(path: str | Path) -> list[SubmissionRow]:
    """Exact inverse of write_submission; reports line and reason on failure."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise FormatViolationError(f"{path}: missing trailing newline")
    lines = text[:-1].split("\n")
    if lines[0] != SUBMISSION_HEADER:
        raise FormatViolationError(f"{path}: line 1: header must be {SUBMISSION_HEADER!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        customer_id, comma, prediction = line.partition(",")
        if not comma:
            raise FormatViolationError(f"{path}: line {n}: no comma separator")
        ids = tuple(prediction.split(" "))
        try:
            rows.append(SubmissionRow(customer_id, ids))
        except InvalidRowError as exc:
            raise FormatViolationError(f"{path}: line {n}: {exc}") from None
    return rows


def manual_eval_report(
    customer_id: str,
    log: PurchaseLog,
    recommendations: list[str],
    articles: list[ArticleRecord],
    prepared: list[PreparedArticle],
) -> str:
    """Plain-text spot check: purchases vs recommended article ids for one
    customer.

    Each side lists article id, product type and the prepared text the
    model embedded (from ``prepared``); the closing line names the product
    types the two lists share, the signal a human reviewer scans for.
    """
    code = log.customer_ids.index(customer_id) if customer_id in log.customer_ids else -1
    bought = [log.article_ids[a] for a in log.articles[log.customers == code].tolist()]
    if not recommendations and not bought:
        raise UnknownCustomerError(f"customer {customer_id} has no purchases or recommendations")
    type_of = {a.article_id: a.product_type_name for a in articles}
    text_of = {p.article_id: p.text for p in prepared}

    purchased: list[str] = []
    purchased_types: set[str] = set()
    seen: set[str] = set()
    for article_id in bought:
        if article_id in seen:
            continue
        seen.add(article_id)
        kind = type_of.get(article_id, "?")
        purchased.append(f"  {article_id}  {kind}  {text_of.get(article_id, '')}")
        purchased_types.add(kind)

    recommended: list[str] = []
    recommended_types: set[str] = set()
    for article_id in recommendations:
        kind = type_of.get(article_id, "?")
        recommended.append(f"  {article_id}  {kind}  {text_of.get(article_id, '')}")
        recommended_types.add(kind)

    overlap = sorted(purchased_types & recommended_types)
    lines = [f"customer: {customer_id}", ""]
    lines.append(f"purchased items ({len(purchased)}):")
    lines += purchased or ["  (none; cold start, popularity fallback applies)"]
    lines.append("")
    lines.append(f"recommended items ({len(recommended)}):")
    lines += recommended or ["  (none)"]
    lines.append("")
    lines.append(f"shared product types: {', '.join(overlap) if overlap else 'none'}")
    return "\n".join(lines) + "\n"
