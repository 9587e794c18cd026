from dataclasses import fields
from datetime import date

import numpy as np
import pytest

from titlerec import corpus
from titlerec.errors import (
    DuplicateArticleIdError,
    MalformedRowError,
    MissingColumnError,
    UnknownColumnError,
    UnparsableDateError,
)

from synth import log_rows

ARTICLES_CSV = """article_id,prod_name,product_type_name,index_name,detail_desc
108775015,Strap top,Vest top,Ladieswear,Jersey top with narrow shoulder straps.
95002,"Cap  moon",Cap,Menswear,
20001,OP T-shirt,T-shirt,Sport,Short sleeves
"""

TRANSACTIONS_CSV = """t_dat,customer_id,article_id,price,sales_channel_id
2020-09-01,abc,0108775015,0.0508,2
2020-09-01,abc,0000095002,,1
2020-09-03,def,0000095002,0.0254,
2020-09-03,abc,0108775015,0.0508,2
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadArticles:
    def test_parses_and_zero_pads_ids(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        assert [r.article_id for r in records] == ["0108775015", "0000095002", "0000020001"]
        assert records[0].prod_name == "Strap top"
        assert records[0].detail_desc == "Jersey top with narrow shoulder straps."

    def test_empty_description_becomes_none(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        assert records[1].detail_desc is None
        assert records[2].detail_desc == "Short sleeves"

    def test_missing_column_rejected(self, tmp_path):
        bad = "article_id,prod_name,index_name,detail_desc\n1,x,y,z\n"
        with pytest.raises(MissingColumnError):
            corpus.load_articles(write(tmp_path, "a.csv", bad))

    def test_wrong_field_count_rejected(self, tmp_path):
        bad = ARTICLES_CSV + "30003,only,three\n"
        with pytest.raises(MalformedRowError, match="row 4"):
            corpus.load_articles(write(tmp_path, "a.csv", bad))

    def test_duplicate_article_id_rejected(self, tmp_path):
        bad = ARTICLES_CSV + "108775015,Again,Vest top,Ladieswear,\n"
        with pytest.raises(DuplicateArticleIdError):
            corpus.load_articles(write(tmp_path, "a.csv", bad))

    def test_non_numeric_article_id_rejected(self, tmp_path):
        bad = "article_id,prod_name,product_type_name,index_name,detail_desc\nx9,a,b,c,d\n"
        with pytest.raises(MalformedRowError):
            corpus.load_articles(write(tmp_path, "a.csv", bad))


class TestLoadTransactions:
    def test_parses_dates_and_defaults(self, tmp_path):
        log = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        assert len(log) == 4
        assert log.days[0] == date(2020, 9, 1).toordinal()
        assert log_rows(log)[2] == (date(2020, 9, 3), "def", "0000095002")
        # codes index the sorted distinct ids
        assert log.customer_ids == ("abc", "def")
        assert log.article_ids == ("0000095002", "0108775015")
        assert log.customers.tolist() == [0, 0, 1, 0]
        assert log.articles.tolist() == [1, 0, 0, 1]
        # price and sales_channel_id are validated but not kept
        assert [f.name for f in fields(corpus.PurchaseLog)] == [
            "days", "customers", "articles", "customer_ids", "article_ids"
        ]

    def test_duplicates_preserved(self, tmp_path):
        log = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        rows = log_rows(log)
        assert rows[0][2] == rows[3][2] == "0108775015"

    def test_optional_columns_may_be_absent(self, tmp_path):
        text = "t_dat,customer_id,article_id\n2020-01-05,u,42\n"
        log = corpus.load_transactions(write(tmp_path, "t.csv", text))
        assert log_rows(log) == [(date(2020, 1, 5), "u", "0000000042")]

    def test_ids_stripped_and_padded_forms_share_a_code(self, tmp_path):
        text = "t_dat,customer_id,article_id\n2020-01-05, u ,42\n2020-01-06,u,0000000042\n"
        log = corpus.load_transactions(write(tmp_path, "t.csv", text))
        assert log.customer_ids == ("u",) and log.article_ids == ("0000000042",)
        assert log.customers.tolist() == [0, 0] and log.articles.tolist() == [0, 0]

    def test_first_bad_row_named_across_checks(self, tmp_path):
        # row 2's bad article comes before row 3's bad date; within row 2 the
        # date is checked before the article id
        header = "t_dat,customer_id,article_id,price\n"
        text = header + "2020-01-05,u,42,1\n2020-01-05,u,4x,1\n2020-13-45,u,42,1\n"
        with pytest.raises(MalformedRowError, match="row 2: bad article_id '4x'"):
            corpus.load_transactions(write(tmp_path, "t.csv", text))
        text = header + "2020-01-05,u,42,1\nnever,u,4x,x\n"
        with pytest.raises(UnparsableDateError, match="row 2: unparsable t_dat 'never'"):
            corpus.load_transactions(write(tmp_path, "t.csv", text))
        text = header + "2020-01-05,u,42,x\n2020-01-05,u,4x,1\n"
        with pytest.raises(MalformedRowError, match="row 1: bad price 'x'"):
            corpus.load_transactions(write(tmp_path, "t.csv", text))

    def test_repeated_bad_cell_names_its_first_row(self, tmp_path):
        text = "t_dat,customer_id,article_id\n2020-01-05,u,42\n" + "bad,u,42\n" * 3
        with pytest.raises(UnparsableDateError, match="row 2:"):
            corpus.load_transactions(write(tmp_path, "t.csv", text))

    def test_unparsable_date_rejected(self, tmp_path):
        text = "t_dat,customer_id,article_id\n01/05/2020,u,42\n"
        with pytest.raises(UnparsableDateError, match="row 1"):
            corpus.load_transactions(write(tmp_path, "t.csv", text))

    def test_bad_price_rejected(self, tmp_path):
        text = "t_dat,customer_id,article_id,price\n2020-01-05,u,42,cheap\n"
        with pytest.raises(MalformedRowError):
            corpus.load_transactions(write(tmp_path, "t.csv", text))

    def test_bad_sales_channel_rejected(self, tmp_path):
        text = "t_dat,customer_id,article_id,price,sales_channel_id\n2020-01-05,u,42,0.5,1.5\n"
        with pytest.raises(MalformedRowError, match="row 1: bad sales_channel_id"):
            corpus.load_transactions(write(tmp_path, "t.csv", text))


class TestCleanText:
    def test_lowercases_and_collapses_whitespace(self):
        assert corpus.clean_text("  Strap\t top \n NEW ") == "strap top new"

    def test_none_becomes_empty(self):
        assert corpus.clean_text(None) == ""

    def test_already_clean_is_unchanged(self):
        assert corpus.clean_text("strap top") == "strap top"

    def test_seq_length_counts_words(self):
        assert corpus.seq_length("") == 0
        assert corpus.seq_length("strap top new") == 3


class TestPrepareArticles:
    def test_merges_columns_in_order(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        prepared = corpus.prepare_articles(records)
        assert prepared[0].text == (
            "strap top vest top ladieswear jersey top with narrow shoulder straps."
        )
        assert prepared[0].text_len == 11
        assert [p.article_id for p in prepared] == [r.article_id for r in records]

    def test_missing_description_contributes_nothing(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        prepared = corpus.prepare_articles(records, text_columns=("prod_name", "detail_desc"))
        assert prepared[1].text == "cap moon"

    def test_unknown_column_rejected(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        with pytest.raises(UnknownColumnError):
            corpus.prepare_articles(records, text_columns=("prod_name", "colour_name"))

    def test_column_subset(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        prepared = corpus.prepare_articles(records, text_columns=("index_name",))
        assert [p.text for p in prepared] == ["ladieswear", "menswear", "sport"]


class TestJoinAndSessions:
    def test_join_drops_unknown_articles(self, tmp_path):
        prepared = corpus.prepare_articles(
            corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        )
        extra = TRANSACTIONS_CSV + "2020-09-04,ghi,9999999999,0.1,1\n"
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", extra))
        joined = transactions.of_articles(p.article_id for p in prepared)
        assert len(transactions) - len(joined) == 1
        assert log_rows(joined) == log_rows(transactions)[:4]
        # the sub-log keeps the id tables, unused ids included
        assert joined.article_ids == transactions.article_ids
        assert "9999999999" in joined.article_ids

    def test_group_sessions_by_customer_and_day(self, tmp_path):
        text = TRANSACTIONS_CSV + "2020-08-30,def,0000095002,,\n2020-09-01,abc,20001,,\n"
        log = corpus.load_transactions(write(tmp_path, "t.csv", text))
        order, session = log.sessions()
        rows = log_rows(log)
        # by customer id, then date, then file order within a session
        assert [rows[i] for i in order.tolist()] == [
            (date(2020, 9, 1), "abc", "0108775015"),
            (date(2020, 9, 1), "abc", "0000095002"),
            (date(2020, 9, 1), "abc", "0000020001"),
            (date(2020, 9, 3), "abc", "0108775015"),
            (date(2020, 8, 30), "def", "0000095002"),
            (date(2020, 9, 3), "def", "0000095002"),
        ]
        assert session.tolist() == [0, 0, 0, 1, 2, 3]

    def test_empty_log_has_no_sessions(self, tmp_path):
        log = corpus.load_transactions(write(tmp_path, "t.csv", "t_dat,customer_id,article_id\n"))
        order, session = log.sessions()
        assert len(log) == len(order) == len(session) == 0
        assert log.customer_ids == log.article_ids == ()


class TestHistograms:
    def test_missing_description_histogram(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        histogram = corpus.missing_description_histogram(records)
        assert histogram == {"Ladieswear": (1, 0), "Menswear": (0, 1), "Sport": (1, 0)}

    def test_text_length_histogram_conserves_count(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        prepared = corpus.prepare_articles(records)
        histogram = corpus.text_length_histogram(prepared)
        assert sum(histogram.values()) == len(prepared)
        assert all(corpus.seq_length(p.text) in histogram for p in prepared)


class TestPersistence:
    def test_prepared_round_trip(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        prepared = corpus.prepare_articles(records)
        corpus.save_prepared(prepared, tmp_path / "prepared.tsv")
        assert corpus.load_prepared(tmp_path / "prepared.tsv") == prepared

    def test_transactions_round_trip(self, tmp_path):
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        corpus.save_transactions(transactions, tmp_path / "tx.tsv")
        loaded = corpus.load_saved_transactions(tmp_path / "tx.tsv")
        assert log_rows(loaded) == log_rows(transactions)
        for column in ("days", "customers", "articles"):
            assert np.array_equal(getattr(loaded, column), getattr(transactions, column))
            assert getattr(loaded, column).dtype == np.int64

    def test_saved_transactions_keep_three_columns(self, tmp_path):
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        corpus.save_transactions(transactions.select(np.arange(4) < 1), tmp_path / "tx.tsv")
        assert (tmp_path / "tx.tsv").read_text(encoding="utf-8") == (
            "t_dat\tcustomer_id\tarticle_id\n2020-09-01\tabc\t0108775015\n"
        )

    def test_five_column_transactions_from_older_ingest_refused(self, tmp_path):
        (tmp_path / "tx.tsv").write_text(
            "t_dat\tcustomer_id\tarticle_id\tprice\tsales_channel_id\n"
            "2020-09-01\tabc\t0108775015\t0.0508\t2\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError, match="re-run `titlerec ingest`"):
            corpus.load_saved_transactions(tmp_path / "tx.tsv")

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "prepared.tsv").write_text("nope\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            corpus.load_prepared(tmp_path / "prepared.tsv")

    def test_bad_saved_date_names_file_and_row(self, tmp_path):
        path = tmp_path / "tx.tsv"
        path.write_text(
            "t_dat\tcustomer_id\tarticle_id\n2020-09-01\tabc\t0108775015\n"
            "2020-13-45\tabc\t0108775015\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError, match=r"tx\.tsv: row 2: bad t_dat '2020-13-45'"):
            corpus.load_saved_transactions(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("a\tb\n", "row 1 has 2 fields, expected 3"),
            ("2020-09-01\ta\tb\n2020-09-01\ta\tb\tc\n", "row 2 has 4 fields, expected 3"),
            # a bad date before a row of the wrong shape is the first bad row
            ("nope\ta\tb\n2020-09-01\ta\n", "row 1: bad t_dat 'nope'"),
            ("2020-09-01\ta\tb\n2020-09-01\ta\n2020-13-45\ta\tb\n", "row 2 has 2 fields"),
            ("2020-09-01\ta\u2028b\tc\n", "row 1 has 2 fields, expected 3"),
        ],
    )
    def test_first_bad_saved_row_named(self, tmp_path, body, message):
        path = tmp_path / "tx.tsv"
        path.write_text("t_dat\tcustomer_id\tarticle_id\n" + body, encoding="utf-8")
        with pytest.raises(MalformedRowError, match=message):
            corpus.load_saved_transactions(path)

    @pytest.mark.parametrize(
        "text",
        [
            "t_dat\tcustomer_id\tarticle_id\n2020-09-01\tabc\t0108775015",
            "t_dat\tcustomer_id\tarticle_id\r\n2020-09-01\tabc\t0108775015\r\n",
        ],
    )
    def test_saved_file_read_line_by_line_when_not_newline_terminated(self, tmp_path, text):
        path = tmp_path / "tx.tsv"
        path.write_bytes(text.encode("utf-8"))
        log = corpus.load_saved_transactions(path)
        assert log_rows(log) == [(date(2020, 9, 1), "abc", "0108775015")]

    def test_non_integer_text_len_names_file_and_row(self, tmp_path):
        path = tmp_path / "prepared.tsv"
        path.write_text(
            "article_id\ttext\ttext_len\n0000000001\tcap\t1\n0000000002\tred cap\ttwo\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError, match=r"prepared\.tsv: row 2: bad text_len 'two'"):
            corpus.load_prepared(path)
