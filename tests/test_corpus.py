import hashlib
import re
import sys
from dataclasses import fields, replace
from datetime import date

import numpy as np
import pytest

from titlerec import cli, corpus
from titlerec.errors import (
    ArtifactFormatError,
    DuplicateArticleIdError,
    InvalidConfigError,
    MalformedRowError,
    MissingColumnError,
    UnknownColumnError,
    UnparsableDateError,
)

from synth import log_rows, purchase_log, trlog_bytes

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
        # in ascending id order, whatever the file's row order
        assert [r.article_id for r in records] == ["0000020001", "0000095002", "0108775015"]
        assert records[2].prod_name == "Strap top"
        assert records[2].detail_desc == "Jersey top with narrow shoulder straps."

    def test_empty_description_becomes_none(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        assert records[1].detail_desc is None
        assert records[0].detail_desc == "Short sleeves"

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

    @pytest.mark.parametrize(
        "raw, canonical",
        [
            ("", None),
            ("1234567890", "1234567890"),
            ("12345678901", None),
            ("\u0663", None),  # ARABIC-INDIC DIGIT THREE: a digit, not ascii
            ("\u00b2", None),  # SUPERSCRIPT TWO: isdigit, not a decimal digit
            ("\uff11\uff12", None),  # FULLWIDTH DIGITS ONE TWO
            ("+12", None),
            (" 0012 ", "0000000012"),
        ],
    )
    def test_article_id_is_1_to_10_ascii_digits(self, raw, canonical):
        # the rule the regular expression ^[0-9]{1,10}$ stated before
        assert bool(re.match(r"^[0-9]{1,10}$", raw.strip())) == (canonical is not None)
        if canonical is None:
            with pytest.raises(ValueError, match="bad article_id"):
                corpus._canonical_article_id(raw)
        else:
            assert corpus._canonical_article_id(raw) == canonical


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


def reference_clean(raw):
    """The cleaning rule as a regular expression, as ``clean_text`` once
    applied it: the reference the one ``str.split`` must match."""
    return "" if raw is None else re.sub(r"\s+", " ", raw).strip().lower()


EVERY_CHARACTER = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = [c for c in EVERY_CHARACTER if c.isspace()]
MIXED_RUN = "\t\u00a0\r\n\u2028\u3000\x1c\x1f\x85 "
# texts on which clean_text must give the reference's result
CLEANING_CASES = [
    None,
    "",
    "".join(WHITESPACE),
    " ".join(WHITESPACE),
    MIXED_RUN + "Strap" + MIXED_RUN + "TOP" + MIXED_RUN,
    "  Strap\t top \n NEW ",
    "İstanbul STRAẞE straße İ\u00a0ß",
    *(f"{c}Cap{c}{c}moon{c}" for c in WHITESPACE),
    *(f"A{c}B" for c in WHITESPACE),
    *(c * 3 for c in WHITESPACE),
]


class TestCleanText:
    def test_lowercases_and_collapses_whitespace(self):
        assert corpus.clean_text("  Strap\t top \n NEW ") == "strap top new"

    def test_none_becomes_empty(self):
        assert corpus.clean_text(None) == ""

    def test_already_clean_is_unchanged(self):
        assert corpus.clean_text("strap top") == "strap top"

    def test_regex_whitespace_is_isspace(self):
        assert re.findall(r"\s", EVERY_CHARACTER) == WHITESPACE

    def test_matches_the_regex_reference(self):
        assert list(map(corpus.clean_text, CLEANING_CASES)) == list(
            map(reference_clean, CLEANING_CASES)
        )


def record(article_id, *texts):
    """An article whose four textual columns are ``texts``, the last (its
    description) None when not given."""
    name, type_name, index_name, *desc = texts
    return corpus.ArticleRecord(article_id, name, type_name, index_name, *desc)


class TestPrepareArticles:
    def test_text_len_counts_words(self):
        prepared = corpus.prepare_articles(
            [record("0000000001", "", "", ""), record("0000000002", "Strap", " top ", "NEW")]
        )
        assert [(p.text, p.text_len) for p in prepared] == [("", 0), ("strap top new", 3)]

    def test_matches_the_regex_reference(self):
        texts = [raw for raw in CLEANING_CASES if raw is not None]
        articles = [
            record(f"{n:010d}", texts[n], texts[n - 1], texts[n - 2], texts[n - 3] or None)
            for n in range(len(texts))
        ]
        prepared = corpus.prepare_articles(articles)
        for article, prep in zip(articles, prepared):
            merged = " ".join(getattr(article, name) or "" for name in corpus.TEXTUAL_COLUMNS)
            assert prep.text == reference_clean(merged)
            assert prep.text_len == len(prep.text.split())

    def test_ingest_writes_the_reference_bytes(self, tmp_path):
        # NBSP, U+2028, U+3000, the separators \x1c-\x1f, tabs and a CRLF
        # inside a quoted description
        articles = tmp_path / "articles.csv"
        articles.write_bytes(
            "article_id,prod_name,product_type_name,index_name,detail_desc\r\n"
            "2,Strap\u00a0Top,Vest\u2028top,Ladies\u3000wear,\"Jersey\r\ntop\twith  straps\"\r\n"
            "1,\x1cCap\x1dmoon\x1e,\tCap\t,Menswear\x1f,\r\n"
            "3,İ ß,\u00a0\u2028\u3000,\x1c\x1f,\"\r\n\"\r\n".encode("utf-8")
        )
        transactions = tmp_path / "transactions.csv"
        transactions.write_text("t_dat,customer_id,article_id\n2020-01-05,u,1\n", encoding="utf-8")
        workdir = tmp_path / "w"
        assert cli.main([
            "ingest", "--workdir", str(workdir),
            "--articles", str(articles), "--transactions", str(transactions),
        ]) == 0
        rows = corpus.load_articles(articles)
        # the product type keeps its case, each whitespace run made one space
        expected = "article_id\ttext\ttext_len\tproduct_type\n" + "".join(
            f"{a.article_id}\t{text}\t{len(text.split())}\t{' '.join(a.product_type_name.split())}\n"
            for a in rows
            for text in [reference_clean(
                " ".join(getattr(a, name) or "" for name in corpus.TEXTUAL_COLUMNS)
            )]
        )
        assert rows[1].detail_desc == "Jersey\r\ntop\twith  straps"
        assert [a.product_type_name for a in rows] == ["\tCap\t", "Vest\u2028top", "\u00a0\u2028\u3000"]
        assert (workdir / cli.PREPARED_FILE).read_bytes() == expected.encode("utf-8")
        prepared = corpus.load_prepared(workdir / cli.PREPARED_FILE)[0]
        assert [p.product_type for p in prepared] == ["Cap", "Vest top", ""]

    def test_merges_columns_in_order(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        prepared = corpus.prepare_articles(records)
        assert prepared[2].text == (
            "strap top vest top ladieswear jersey top with narrow shoulder straps."
        )
        assert prepared[2].text_len == 11
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
        assert [p.text for p in prepared] == ["sport", "menswear", "ladieswear"]


class TestJoinAndSessions:
    def test_join_drops_unknown_articles(self, tmp_path):
        prepared = corpus.prepare_articles(
            corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        )
        extra = TRANSACTIONS_CSV + "2020-09-04,ghi,9999999999,0.1,1\n"
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", extra))
        joined = transactions.of_articles(tuple(p.article_id for p in prepared))
        assert len(transactions) - len(joined) == 1
        assert log_rows(joined) == log_rows(transactions)[:4]
        # the joined log keeps the customer table, unused ids included, and
        # takes the catalog as its article table, unbought articles included
        assert joined.customer_ids == transactions.customer_ids
        assert joined.article_ids == ("0000020001", "0000095002", "0108775015")
        assert joined.articles.tolist() == [2, 1, 1, 2]

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
        assert all(len(p.text.split()) in histogram for p in prepared)


class TestPersistence:
    def test_prepared_round_trip(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        prepared = corpus.prepare_articles(records)
        corpus.save_prepared(prepared, tmp_path / "prepared.tsv")
        assert corpus.load_prepared(tmp_path / "prepared.tsv")[0] == prepared

    def test_prepared_digest_is_the_file_sha256(self, tmp_path):
        records = corpus.load_articles(write(tmp_path, "a.csv", ARTICLES_CSV))
        path = tmp_path / "prepared.tsv"
        corpus.save_prepared(corpus.prepare_articles(records), path)
        assert corpus.load_prepared(path)[1] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_transactions_round_trip(self, tmp_path):
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        corpus.save_transactions(transactions, tmp_path / "tx.bin", 7)
        loaded = corpus.load_saved_transactions(tmp_path / "tx.bin", 7)[0]
        assert log_rows(loaded) == log_rows(transactions)
        assert loaded.customer_ids == transactions.customer_ids
        assert loaded.article_ids == transactions.article_ids
        for column in ("days", "customers", "articles"):
            assert np.array_equal(getattr(loaded, column), getattr(transactions, column))
            assert getattr(loaded, column).dtype == np.int64
            assert getattr(loaded, column).flags.writeable

    def test_round_trip_keeps_only_the_ids_rows_use(self, tmp_path):
        # a join that drops every purchase of one article and of customer def;
        # only the customer table is compacted, the article table is the catalog
        text = TRANSACTIONS_CSV + "2020-09-02, ,0000000007,,\n2020-09-02,é z,0000000003,,\n"
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", text))
        joined = transactions.select(transactions.customers != 2)  # "", "abc", "def", "é z"
        joined = joined.of_articles(("0000000003", "0000095002", "0108775015"))
        assert joined.customer_ids == ("", "abc", "def", "é z")
        assert joined.article_ids == ("0000000003", "0000095002", "0108775015")
        corpus.save_transactions(joined, tmp_path / "tx.bin", 7)
        loaded = corpus.load_saved_transactions(tmp_path / "tx.bin", 7)[0]
        assert log_rows(loaded) == log_rows(joined)
        assert loaded.customer_ids == ("abc", "é z")
        assert loaded.article_ids == ("0000000003", "0000095002", "0108775015")
        assert loaded.customers.tolist() == [0, 0, 0, 1]
        assert loaded.articles.tolist() == [2, 1, 2, 0]
        assert {loaded.days.dtype, loaded.customers.dtype, loaded.articles.dtype} == {
            np.dtype(np.int64)
        }

    def test_saved_transactions_keep_three_columns(self, tmp_path):
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        corpus.save_transactions(transactions.select(np.arange(4) < 1), tmp_path / "tx.bin", 7)
        assert (tmp_path / "tx.bin").read_bytes() == (
            b"TRLOG002"
            + b"\x01\x00\x00\x00" * 2  # one row, one customer
            + b"\x02\x00\x00\x00"  # two articles
            + b"\x07\x00\x00\x00"  # seven holdout days
            + b"\x03\x00\x00\x00abc"  # the table of used customer ids
            + b"00000950020108775015"  # the whole article table
            + b"\x85\x41\x0b\x00\x00\x00\x00\x00"  # 2020-09-01 is day 737669
            + b"\x00" * 8  # customer code 0
            + b"\x01" + b"\x00" * 7  # article code 1
        )

    def test_other_holdout_days_refused(self, tmp_path):
        transactions = corpus.load_transactions(write(tmp_path, "t.csv", TRANSACTIONS_CSV))
        corpus.save_transactions(transactions, tmp_path / "tx.bin", 7)
        with pytest.raises(InvalidConfigError) as caught:
            corpus.load_saved_transactions(tmp_path / "tx.bin", 1)
        assert str(caught.value) == (
            f"{tmp_path / 'tx.bin'} was ingested with holdout_days=7, but this run has "
            "holdout_days=1; pass the same --holdout-days to every command"
        )

    @pytest.mark.parametrize("article", ["123", "01087750150", "0108775O15", "010877501٥"])
    def test_article_id_the_reader_would_refuse_is_not_written(self, tmp_path, article):
        log = purchase_log([(date(2020, 9, 1), "abc", article)])
        with pytest.raises(ArtifactFormatError, match="not 10 ascii digits"):
            corpus.save_transactions(log, tmp_path / "tx.bin", 7)
        assert not (tmp_path / "tx.bin").exists()

    def test_five_column_transactions_from_older_ingest_refused(self, tmp_path):
        (tmp_path / "tx.bin").write_text(
            "t_dat\tcustomer_id\tarticle_id\tprice\tsales_channel_id\n"
            "2020-09-01\tabc\t0108775015\t0.0508\t2\n",
            encoding="utf-8",
        )
        with pytest.raises(ArtifactFormatError, match=r"tx\.bin: bad magic, not a purchase log"):
            corpus.load_saved_transactions(tmp_path / "tx.bin", 7)

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "prepared.tsv").write_text("nope\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            corpus.load_prepared(tmp_path / "prepared.tsv")

    def test_bad_saved_date_names_file_and_row(self, tmp_path):
        log = purchase_log([(date(2020, 9, 1), "abc", "0108775015")] * 2)
        path = tmp_path / "tx.bin"
        for day in (0, date.max.toordinal() + 1):
            path.write_bytes(trlog_bytes(replace(log, days=np.array([737669, day]))))
            with pytest.raises(ArtifactFormatError, match=rf"tx\.bin: row 2: day {day} is not"):
                corpus.load_saved_transactions(path, 7)
        path.write_bytes(trlog_bytes(replace(log, days=np.array([1, date.max.toordinal()]))))
        assert [day for day, _, _ in log_rows(corpus.load_saved_transactions(path, 7)[0])] == [
            date.min, date.max
        ]

    def test_non_integer_text_len_names_file_and_row(self, tmp_path):
        path = tmp_path / "prepared.tsv"
        path.write_text(
            "article_id\ttext\ttext_len\tproduct_type\n0000000001\tcap\t1\tCap\n"
            "0000000002\tred cap\ttwo\tCap\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError, match=r"prepared\.tsv: row 2: bad text_len 'two'"):
            corpus.load_prepared(path)

    @pytest.mark.parametrize("second", ["0000000001", "0000000000"], ids=["repeated", "descending"])
    def test_prepared_ids_must_ascend(self, tmp_path, second):
        path = tmp_path / "prepared.tsv"
        path.write_text(
            f"article_id\ttext\ttext_len\tproduct_type\n0000000001\tcap\t1\tCap\n"
            f"{second}\tred cap\t2\tCap\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError) as caught:
            corpus.load_prepared(path)
        assert str(caught.value) == f"{path}: row 2: article_id {second!r} does not ascend"
