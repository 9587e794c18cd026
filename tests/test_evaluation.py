from dataclasses import replace
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

from titlerec import evaluation as ev
from titlerec.corpus import ArticleRecord, prepare_articles
from titlerec.errors import (
    DuplicateCustomerError,
    DuplicatePredictionError,
    EmptyTruthError,
    FormatViolationError,
    InvalidRowError,
    NoScorableCustomersError,
    UnknownCustomerError,
)

from synth import purchase_log

A = [f"{i:010d}" for i in range(1, 40)]


def reference_ap(predictions, truth, k=12):
    """AP@k recomputed from the definition in exact rational arithmetic."""
    hits = 0
    total = Fraction(0)
    for rank, article_id in enumerate(predictions[:k], start=1):
        if article_id in truth:
            hits += 1
            total += Fraction(hits, rank)
    return float(total / min(len(truth), k))


def row(customer, ids):
    return ev.SubmissionRow(customer, tuple(ids))


def submission(*rows):
    return ev.Submission.of_rows(list(rows))


class TestAveragePrecision:
    def test_perfect_first_hit(self):
        assert ev.average_precision_at_k(A[:12], {A[0]}) == 1.0

    def test_single_hit_at_rank_three(self):
        predictions = [A[1], A[2], A[0]] + A[3:12]
        assert ev.average_precision_at_k(predictions, {A[0]}) == pytest.approx(1 / 3)

    def test_two_hits_five_sixths(self):
        predictions = [A[0], A[9], A[1]] + A[10:19]
        truth = {A[0], A[1]}
        got = ev.average_precision_at_k(predictions, truth)
        assert got == pytest.approx(5 / 6, abs=1e-12)
        assert got == pytest.approx(reference_ap(predictions, truth), abs=1e-15)

    def test_no_hits_is_zero(self):
        assert ev.average_precision_at_k(A[:12], {A[20]}) == 0.0

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n_pred = int(rng.integers(1, 15))
            predictions = [A[i] for i in rng.choice(len(A), size=n_pred, replace=False)]
            truth = {A[i] for i in rng.choice(len(A), size=int(rng.integers(1, 8)), replace=False)}
            got = ev.average_precision_at_k(predictions, truth)
            assert abs(got - reference_ap(predictions, truth)) <= 1e-12
            assert 0.0 <= got <= 1.0

    def test_promoting_a_hit_never_hurts(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            predictions = [A[i] for i in rng.permutation(14)]
            truth = {A[i] for i in rng.choice(14, size=4, replace=False)}
            base = ev.average_precision_at_k(predictions, truth)
            hit_ranks = [r for r, p in enumerate(predictions) if p in truth and r > 0]
            if not hit_ranks:
                continue
            r = hit_ranks[0]
            promoted = predictions.copy()
            promoted[r - 1], promoted[r] = promoted[r], promoted[r - 1]
            assert ev.average_precision_at_k(promoted, truth) >= base - 1e-15

    def test_perfect_prefix_iff_ap_one(self):
        truth = set(A[:3])
        perfect = A[:3] + A[10:19]
        assert ev.average_precision_at_k(perfect, truth) == pytest.approx(1.0)
        blemished = [A[0], A[10], A[1], A[2]] + A[11:19]
        assert ev.average_precision_at_k(blemished, truth) < 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(EmptyTruthError):
            ev.average_precision_at_k(A[:12], set())

    def test_duplicate_predictions_rejected(self):
        with pytest.raises(DuplicatePredictionError):
            ev.average_precision_at_k([A[0], A[0]], {A[0]})


class TestMapAt12:
    def test_mean_of_two(self):
        submission = [row("alice", A[:12]), row("bob", A[12:24])]
        truth = {"alice": {A[0]}, "bob": {A[13]}}
        report = ev.map_at_12(submission, truth)
        assert report.map_at_12 == pytest.approx((1.0 + 0.5) / 2)
        assert report.scored_customer_count == 2
        assert report.excluded_customer_count == 0
        assert report.per_customer == (("alice", 1.0), ("bob", 0.5))

    def test_unknown_customers_excluded_but_counted(self):
        submission = [row("alice", A[:12]), row("ghost", A[:12])]
        report = ev.map_at_12(submission, {"alice": {A[0]}})
        assert report.map_at_12 == 1.0
        assert report.scored_customer_count == 1
        assert report.excluded_customer_count == 1
        assert report.scored_customer_count + report.excluded_customer_count == len(submission)

    def test_duplicate_customer_rejected(self):
        submission = [row("alice", A[:12]), row("alice", A[:12])]
        with pytest.raises(DuplicateCustomerError):
            ev.map_at_12(submission, {"alice": {A[0]}})

    def test_no_scorable_customers_rejected(self):
        with pytest.raises(NoScorableCustomersError):
            ev.map_at_12([row("ghost", A[:12])], {"alice": {A[0]}})

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n_customers = int(rng.integers(1, 9))
            submission, truth = [], {}
            for c in range(n_customers):
                ids = [A[i] for i in rng.choice(len(A), size=12, replace=False)]
                submission.append(row(f"c{c}", ids))
                if rng.random() < 0.8:
                    truth[f"c{c}"] = {
                        A[i] for i in rng.choice(len(A), size=int(rng.integers(1, 6)), replace=False)
                    }
            if not any(truth.get(r.customer_id) for r in submission):
                continue
            report = ev.map_at_12(submission, truth)
            expected = [
                reference_ap(list(r.article_ids), truth[r.customer_id])
                for r in submission
                if truth.get(r.customer_id)
            ]
            assert abs(report.map_at_12 - sum(expected) / len(expected)) <= 1e-12


class TestSubmissionRow:
    def test_prediction_field(self):
        r = row("alice", A[:12])
        assert r.prediction == " ".join(A[:12])

    def test_wrong_width_rejected(self):
        with pytest.raises(InvalidRowError):
            row("alice", A[:11])
        with pytest.raises(InvalidRowError):
            row("alice", A[:13])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidRowError):
            row("alice", [A[0]] * 12)

    def test_malformed_ids_rejected(self):
        with pytest.raises(InvalidRowError):
            row("alice", A[:11] + ["12345"])
        with pytest.raises(InvalidRowError):
            row("alice", A[:11] + ["abcdefghij"])

    def test_bad_customer_rejected(self):
        for customer in ("", "a,b", "a\nb"):
            with pytest.raises(InvalidRowError):
                row(customer, A[:12])


class TestSubmission:
    """The integer form checks every row by SubmissionRow's rules, in bulk."""

    @pytest.mark.parametrize(
        "bad",
        [
            ("", A[:12]),
            ("a,b", A[:12]),
            ("a\nb", A[:12]),
            ("bob", [A[0]] * 2 + A[2:12]),
            ("bob", A[:11] + ["12345"]),
            ("bob", A[:11] + ["abcdefghij"]),
            ("bob", A[:11] + [A[11] + "\n"]),
        ],
    )
    def test_first_bad_row_named_as_a_row_would_be(self, bad):
        with pytest.raises(InvalidRowError) as alone:
            row(*bad)
        customers = ("alice", bad[0], "carol", bad[0] + "x")
        labels = tuple(dict.fromkeys(A[:13] + bad[1]))
        picks = [[labels.index(a) for a in ids] for ids in (A[:12], bad[1], A[1:13], bad[1])]
        with pytest.raises(InvalidRowError) as bulk:
            ev.Submission(customers, np.array(picks), labels)
        assert str(bulk.value) == str(alone.value)

    def test_wrong_width_names_first_row(self):
        for width in (11, 13):
            with pytest.raises(InvalidRowError, match=f"alice: {width} ids, expected 12"):
                ev.Submission(("alice", "bob"), np.tile(np.arange(width), (2, 1)), tuple(A))

    def test_unused_labels_and_no_rows_pass(self):
        assert len(ev.Submission(("alice",), np.arange(12)[None], tuple(A[:12]) + ("bad",))) == 1
        assert len(ev.Submission((), np.zeros((0, 12), dtype=np.int64), ())) == 0

    def test_repeated_labels_rejected(self):
        with pytest.raises(ValueError):
            ev.Submission(("alice",), np.arange(12)[None], tuple(A[:12]) + (A[0],))

    def test_rows_and_integers_score_alike(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            rows = [row(f"c{c}", [A[i] for i in rng.choice(len(A), 12, replace=False)])
                    for c in range(int(rng.integers(1, 30)))]
            truth = {r.customer_id: {A[i] for i in rng.choice(len(A), int(rng.integers(1, 6)))}
                     for r in rows if rng.random() < 0.7}
            truth.setdefault(rows[0].customer_id, {A[0]})
            integers = submission(*rows)
            assert list(integers) == rows
            assert ev.map_at_12(integers, truth) == ev.map_at_12(rows, truth)


class TestSubmissionFile:
    def test_round_trip_byte_exact(self, tmp_path):
        rows = [row(f"customer{i:03d}", A[i : i + 12]) for i in range(20)]
        path = tmp_path / "submission.csv"
        ev.write_submission(submission(*rows), path)
        assert list(ev.read_submission(path)) == rows
        ev.write_submission(ev.read_submission(path), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_layout(self, tmp_path):
        path = tmp_path / "submission.csv"
        ev.write_submission(submission(row("0000dbacf0", A[:12])), path)
        text = path.read_text()
        assert text == f"customer_id,prediction\n0000dbacf0,{' '.join(A[:12])}\n"

    def test_empty_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "submission.csv"
        ev.write_submission(submission(), path)
        assert path.read_text() == "customer_id,prediction\n"
        assert list(ev.read_submission(path)) == []

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "submission.csv"
        path.write_text(f"alice,{' '.join(A[:12])}\n")
        with pytest.raises(FormatViolationError, match="line 1"):
            ev.read_submission(path)

    def test_wrong_id_count_rejected(self, tmp_path):
        path = tmp_path / "submission.csv"
        path.write_text(f"customer_id,prediction\nalice,{' '.join(A[:13])}\n")
        with pytest.raises(FormatViolationError, match="line 2"):
            ev.read_submission(path)

    def test_missing_comma_rejected(self, tmp_path):
        path = tmp_path / "submission.csv"
        path.write_text("customer_id,prediction\nalice\n")
        with pytest.raises(FormatViolationError, match="no comma"):
            ev.read_submission(path)

    @pytest.mark.parametrize(
        "line, reason",
        [
            (f",{' '.join(A[:12])}", "bad customer_id ''"),
            (f"bob,{' '.join(A[:11] + [A[0]])}", "bob: prediction ids must be distinct"),
            (f"bob,{' '.join(A[:11] + ['12345'])}", "bob: bad article id '12345'"),
            (f"bob,{' '.join(A[:11])}", "bob: 11 ids, expected 12"),
            (f"bob,{' '.join(A[:11])}  {A[11]}", "bob: 13 ids, expected 12"),
            (f"bob, {' '.join(A[:12])}", "bob: 13 ids, expected 12"),
        ],
    )
    def test_first_bad_line_named(self, tmp_path, line, reason):
        good = [f"c{i},{' '.join(A[i : i + 12])}" for i in range(3)]
        path = tmp_path / "submission.csv"
        lines = ["customer_id,prediction", *good[:2], line, good[2], line]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatViolationError) as caught:
            ev.read_submission(path)
        assert str(caught.value) == f"{path}: line 4: {reason}"

    def test_crlf_lines_read_as_lf(self, tmp_path):
        rows = [row(f"c{i}", A[i : i + 12]) for i in range(3)]
        path = tmp_path / "submission.csv"
        ev.write_submission(submission(*rows), path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert list(ev.read_submission(path)) == rows

    def test_missing_trailing_newline_rejected(self, tmp_path):
        path = tmp_path / "submission.csv"
        path.write_text(f"customer_id,prediction\nalice,{' '.join(A[:12])}")
        with pytest.raises(FormatViolationError, match="newline"):
            ev.read_submission(path)


def tx(customer, article, day):
    return date(2020, 9, day), customer, article


def days_of(log):
    return [date.fromordinal(day).day for day in log.days.tolist()]


class TestTemporalSplit:
    def test_last_week_held_out(self):
        transactions = purchase_log(tx("u", A[0], d) for d in range(1, 29))
        train, holdout = ev.temporal_split(transactions, holdout_days=7)
        assert days_of(holdout) == list(range(22, 29))
        assert days_of(train) == list(range(1, 22))
        assert len(train) + len(holdout) == len(transactions)
        # both halves keep the log's id tables
        assert train.customer_ids is holdout.customer_ids is transactions.customer_ids
        assert train.article_ids is holdout.article_ids is transactions.article_ids

    def test_single_day_holdout(self):
        transactions = purchase_log(tx("u", A[0], d) for d in (3, 9, 15))
        train, holdout = ev.temporal_split(transactions, holdout_days=1)
        assert days_of(holdout) == [15]
        assert days_of(train) == [3, 9]

    def test_window_wider_than_log(self):
        transactions = purchase_log([tx("u", A[0], 3), tx("v", A[1], 9)])
        train, holdout = ev.temporal_split(transactions, holdout_days=30)
        assert len(train) == 0
        assert days_of(holdout) == [3, 9]
        assert holdout.customers.tolist() == transactions.customers.tolist()
        assert holdout.articles.tolist() == transactions.articles.tolist()

    def test_empty_log(self):
        train, holdout = ev.temporal_split(purchase_log([]), holdout_days=7)
        assert len(train) == len(holdout) == 0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            ev.temporal_split(purchase_log([]), holdout_days=0)


class TestGroundTruth:
    def test_sets_per_customer(self):
        holdout = purchase_log(
            [tx("u", A[0], 22), tx("u", A[1], 23), tx("v", A[0], 24), tx("u", A[0], 25)]
        )
        truth = ev.build_ground_truth(holdout)
        assert truth == {"u": {A[0], A[1]}, "v": {A[0]}}

    def test_blank_customer_rows_skipped(self):
        truth = ev.build_ground_truth(purchase_log([tx("", A[0], 22), tx("u", A[1], 22)]))
        assert truth == {"u": {A[1]}}

    def test_empty_holdout(self):
        assert ev.build_ground_truth(purchase_log([])) == {}


def catalog():
    return [
        ArticleRecord("0000000001", "Summer gown", "dress", "Ladieswear", "flowing hem"),
        ArticleRecord("0000000002", "Winter gown", "dress", "Ladieswear", None),
        ArticleRecord("0000000003", "Rain cap", "hat", "Menswear", "waxed cotton"),
    ]


def prepared():
    """The catalog as ingest prepares it: text, word count and product type."""
    return prepare_articles(catalog())


def purchases(customer, article_ids):
    return purchase_log(tx(customer, a, 2) for a in article_ids)


class TestManualReport:
    def test_sections_populated(self):
        report = ev.manual_eval_report(
            "alice",
            purchases("alice", ["0000000001"]),
            ["0000000002", "0000000003"],
            prepared(),
        )
        assert "purchased items (1):" in report
        assert "recommended items (2):" in report
        assert "0000000001" in report and "0000000003" in report
        # recommendations are plain ids: no similarity field that nothing fills
        assert "sim=" not in report

    def test_planted_shared_type_reported(self):
        report = ev.manual_eval_report(
            "alice",
            purchases("alice", ["0000000001"]),
            ["0000000002", "0000000003"],
            prepared(),
        )
        overlap_line = [l for l in report.splitlines() if l.startswith("shared product types:")]
        assert overlap_line == ["shared product types: dress"]

    def test_cold_start_notes_fallback(self):
        report = ev.manual_eval_report(
            "bob", purchase_log([]), ["0000000003"], prepared()
        )
        assert "purchased items (0):" in report
        assert "cold start, popularity fallback applies" in report
        assert "shared product types: none" in report

    def test_unknown_customer_rejected(self):
        with pytest.raises(UnknownCustomerError):
            ev.manual_eval_report(
                "ghost", purchases("alice", ["0000000001"]), [], prepared()
            )

    def test_disjoint_types_reported_as_none(self):
        report = ev.manual_eval_report(
            "alice",
            purchases("alice", ["0000000001"]),
            ["0000000003"],
            prepared(),
        )
        assert report.rstrip().endswith("shared product types: none")

    def test_both_sides_show_the_prepared_text(self):
        names_only = prepare_articles(catalog(), text_columns=("prod_name",))
        report = ev.manual_eval_report(
            "alice",
            purchases("alice", ["0000000001"]),
            ["0000000002"],
            names_only,
        )
        assert report.splitlines()[3] == "  0000000001  dress  summer gown"
        assert report.splitlines()[6] == "  0000000002  dress  winter gown"

    def test_types_and_texts_come_from_the_prepared_articles(self):
        # an id outside the prepared catalog shows "?" and no text
        retyped = [replace(p, product_type="Gown dress") for p in prepared()]
        report = ev.manual_eval_report(
            "alice", purchases("alice", ["0000000001"]), ["0000000002", "0000000009"], retyped
        )
        lines = report.splitlines()
        assert lines[3] == "  0000000001  Gown dress  summer gown dress ladieswear flowing hem"
        assert lines[6:8] == [
            "  0000000002  Gown dress  winter gown dress ladieswear",
            "  0000000009  ?  ",
        ]
        assert lines[-1] == "shared product types: Gown dress"
