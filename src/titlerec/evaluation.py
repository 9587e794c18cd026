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

import numpy as np

from .corpus import PreparedArticle, PurchaseLog
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

_ARTICLE_ID_RE = re.compile(r"[0-9]{10}")
# a submission body whose every row is well formed but for repeated ids: a
# customer id free of commas and newlines, then 12 ids of 10 digits
# (compiled by ``re``'s cache at the first read, not at import)
_BODY_PATTERN = r"(?:[^,\n]+,[0-9]{10}(?: [0-9]{10}){11}\n)*"
_PREDICTION_CHARS = 11 * PREDICTION_WIDTH - 1  # 12 ids and the 11 spaces between them

GroundTruth = dict[str, set[str]]


def _row_fault(customer_id: str, article_ids: tuple[str, ...]) -> str | None:
    """What is wrong with one submission row, or None: the customer id is
    non-empty and free of commas and newlines, and there are 12 distinct
    ids of 10 digits. The first rule broken is named."""
    if not customer_id or "," in customer_id or "\n" in customer_id:
        return f"bad customer_id {customer_id!r}"
    if len(article_ids) != PREDICTION_WIDTH:
        return f"{customer_id}: {len(article_ids)} ids, expected {PREDICTION_WIDTH}"
    if len(set(article_ids)) != PREDICTION_WIDTH:
        return f"{customer_id}: prediction ids must be distinct"
    for article_id in article_ids:
        if not _ARTICLE_ID_RE.fullmatch(article_id):
            return f"{customer_id}: bad article id {article_id!r}"
    return None


@dataclass(frozen=True)
class SubmissionRow:
    """One output line: a customer and exactly 12 distinct article ids."""

    customer_id: str
    article_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        fault = _row_fault(self.customer_id, self.article_ids)
        if fault is not None:
            raise InvalidRowError(fault)

    @property
    def prediction(self) -> str:
        return " ".join(self.article_ids)


@dataclass(frozen=True, eq=False)
class Submission:
    """Submission rows as integers: row ``i`` recommends the article ids
    ``labels[picks[i]]``, best first, to ``customer_ids[i]``.

    Construction checks every row against the rules of ``SubmissionRow``
    with whole-array operations and raises InvalidRowError naming the first
    bad row. ``labels`` must be distinct; ids are formatted once per label,
    not once per pick.
    """

    customer_ids: tuple[str, ...]
    picks: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("submission labels must be distinct")
        if len(self.picks) != len(self.customer_ids):
            raise ValueError("one row of picks per customer required")
        bad = np.array([not c or "," in c or "\n" in c for c in self.customer_ids], dtype=bool)
        if self.picks.shape[1] != PREDICTION_WIDTH:
            bad[:] = True
        else:
            ordered = np.sort(self.picks, axis=1)
            unformatted = np.array(
                [not _ARTICLE_ID_RE.fullmatch(a) for a in self.labels], dtype=bool
            )
            bad |= (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            bad |= unformatted[self.picks].any(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise InvalidRowError(_row_fault(self.customer_ids[row], self._ids(row)))

    def __len__(self) -> int:
        return len(self.customer_ids)

    def __getitem__(self, row: int) -> SubmissionRow:
        """Row ``row`` as a SubmissionRow (so a Submission also iterates as one)."""
        return SubmissionRow(self.customer_ids[row], self._ids(row))

    def _ids(self, row: int) -> tuple[str, ...]:
        return tuple(self.labels[p] for p in self.picks[row].tolist())

    @classmethod
    def of_rows(cls, rows: list[SubmissionRow]) -> Submission:
        """The integer form of rows built one by one."""
        labels: dict[str, int] = {}
        picks = [[labels.setdefault(a, len(labels)) for a in row.article_ids] for row in rows]
        return cls(
            tuple(row.customer_id for row in rows),
            np.array(picks, dtype=np.int64).reshape(len(rows), PREDICTION_WIDTH),
            tuple(labels),
        )


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


def map_at_12(submission: Submission | list[SubmissionRow], truth: GroundTruth) -> EvalReport:
    """Mean AP@12 over the scorable rows, in submission order.

    Rows built one by one are gathered into a ``Submission`` first. Only the
    rows of customers in the truth have their ids looked up.
    """
    if not isinstance(submission, Submission):
        submission = Submission.of_rows(submission)
    customers = submission.customer_ids
    if len(set(customers)) != len(customers):
        seen: set[str] = set()
        for customer_id in customers:
            if customer_id in seen:
                raise DuplicateCustomerError(f"customer {customer_id} appears twice")
            seen.add(customer_id)
    labels = submission.labels
    scored: list[tuple[str, float]] = []
    for customer_id, picks in zip(customers, submission.picks.tolist()):
        relevant = truth.get(customer_id)
        if relevant:
            predictions = [labels[p] for p in picks]
            scored.append((customer_id, average_precision_at_k(predictions, relevant)))
    if not scored:
        raise NoScorableCustomersError("no submitted customer appears in the ground truth")
    mean = sum(ap for _, ap in scored) / len(scored)
    return EvalReport(mean, len(scored), len(customers) - len(scored), tuple(scored))


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


def write_submission(submission: Submission, path: str | Path) -> None:
    labels = submission.labels
    lines = [SUBMISSION_HEADER]
    lines += [
        f"{customer_id},{' '.join([labels[p] for p in picks])}"
        for customer_id, picks in zip(submission.customer_ids, submission.picks.tolist())
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_submission(path: str | Path) -> Submission:
    """Exact inverse of write_submission; reports line and reason on failure.

    The whole body is checked with one regular expression and parsed with
    array operations, each distinct id formatted once. Only a file that
    fails, the check or the ``Submission`` rules, is scanned line by line, to
    name its first bad line.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise FormatViolationError(f"{path}: missing trailing newline")
    header, _, body = text.partition("\n")
    if header != SUBMISSION_HEADER:
        raise FormatViolationError(f"{path}: line 1: header must be {SUBMISSION_HEADER!r}")
    lines = body.split("\n")[:-1]
    if re.fullmatch(_BODY_PATTERN, body):
        # each line is the customer id, a comma and the fixed-width predictions
        width = _PREDICTION_CHARS
        digits = "".join([line[-width:] + " " for line in lines])
        ids = (
            np.frombuffer(digits.encode("ascii"), dtype=np.uint8).reshape(-1, 11)[:, :10] - 48
        ) @ 10 ** np.arange(9, -1, -1)
        # each id's position among the distinct ids, from one sort (a
        # searchsorted of every id measured ~3x slower)
        order = np.argsort(ids)
        ranked = ids[order]
        first = np.diff(ranked, prepend=-1) != 0
        picks = np.empty_like(order)
        picks[order] = np.cumsum(first) - 1
        try:
            return Submission(
                tuple([line[: -width - 1] for line in lines]),
                picks.reshape(len(lines), PREDICTION_WIDTH),
                tuple([f"{v:010d}" for v in ranked[first].tolist()]),
            )
        except InvalidRowError:
            pass  # a repeated id, named below
    for number, line in enumerate(lines, start=2):
        customer_id, comma, prediction = line.partition(",")
        if not comma:
            raise FormatViolationError(f"{path}: line {number}: no comma separator")
        fault = _row_fault(customer_id, tuple(prediction.split(" ")))
        if fault is not None:
            raise FormatViolationError(f"{path}: line {number}: {fault}")
    raise AssertionError(f"{path}: rejected, but no line breaks a rule")


def manual_eval_report(
    customer_id: str,
    log: PurchaseLog,
    recommendations: list[str],
    prepared: list[PreparedArticle],
) -> str:
    """Plain-text spot check: purchases vs recommended article ids for one
    customer.

    Each side lists article id, product type and the prepared text the
    model embedded, both from ``prepared`` (``?`` and nothing for an id
    outside it); the closing line names the product types the two lists
    share, the signal a human reviewer scans for.
    """
    code = log.customer_ids.index(customer_id) if customer_id in log.customer_ids else -1
    bought = [log.article_ids[a] for a in log.articles[log.customers == code].tolist()]
    if not recommendations and not bought:
        raise UnknownCustomerError(f"customer {customer_id} has no purchases or recommendations")
    type_of = {p.article_id: p.product_type for p in prepared}
    text_of = {p.article_id: p.text for p in prepared}

    def listed(article_ids: list[str]) -> tuple[list[str], set[str]]:
        """One line per article, and the product types they cover."""
        kinds = [type_of.get(article_id, "?") for article_id in article_ids]
        return [
            f"  {article_id}  {kind}  {text_of.get(article_id, '')}"
            for article_id, kind in zip(article_ids, kinds)
        ], set(kinds)

    purchased, purchased_types = listed(list(dict.fromkeys(bought)))
    recommended, recommended_types = listed(recommendations)
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
