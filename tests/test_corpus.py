from dataclasses import fields
from datetime import date

import pytest

from titlerec import corpus
from titlerec.errors import (
    DuplicateArticleIdError,
    MalformedRowError,
    MissingColumnError,
    UnknownColumnError,
    UnparsableDateError,
)

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
        records = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        assert len(records) == 4
        assert records[0].t_dat == date(2020, 9, 1)
        assert records[2] == corpus.TransactionRecord(date(2020, 9, 3), "def", "0000095002")
        # price and sales_channel_id are validated but not kept
        assert [f.name for f in fields(corpus.TransactionRecord)] == list(
            corpus.TRANSACTION_COLUMNS
        )

    def test_duplicates_preserved(self, tmp_path):
        records = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        assert records[0].article_id == records[3].article_id == "0108775015"

    def test_optional_columns_may_be_absent(self, tmp_path):
        text = "t_dat,customer_id,article_id\n2020-01-05,u,42\n"
        (record,) = corpus.load_transactions(write(tmp_path, "t.csv", text))
        assert record == corpus.TransactionRecord(date(2020, 1, 5), "u", "0000000042")

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
        joined, dropped = corpus.join_transactions(transactions, prepared)
        assert dropped == 1
        assert len(joined) + dropped == len(transactions)
        assert all(tx.article_id == art.article_id for tx, art in joined)

    def test_group_sessions_by_customer_and_day(self, tmp_path):
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        sessions = corpus.group_sessions(transactions)
        keys = [(s.customer_id, s.t_dat) for s in sessions]
        assert keys == sorted(keys)
        by_key = {(s.customer_id, s.t_dat): s.article_ids for s in sessions}
        assert by_key[("abc", date(2020, 9, 1))] == ("0108775015", "0000095002")
        assert by_key[("abc", date(2020, 9, 3))] == ("0108775015",)
        assert by_key[("def", date(2020, 9, 3))] == ("0000095002",)


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
        assert corpus.load_saved_transactions(tmp_path / "tx.tsv") == transactions

    def test_saved_transactions_keep_three_columns(self, tmp_path):
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        corpus.save_transactions(transactions[:1], tmp_path / "tx.tsv")
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
