import csv
import ctypes
import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
import threading
import warnings
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from titlerec import cli, corpus, evaluation
from titlerec import encoder as enc
from titlerec import index as ix
from titlerec.errors import InvalidConfigError
from titlerec.tokenizer import FIRST_WORD_ID, Vocabulary

from synth import (
    ARTICLE_HEADER,
    TRANSACTION_HEADER,
    log_rows,
    purchase_log,
    small_inputs,
    to_csv,
    trlog_bytes,
    write_planted_inputs,
)

TINY_MODEL = [
    "--d-model", "8",
    "--n-heads", "2",
    "--n-layers", "1",
    "--d-ff", "16",
    "--max-len", "12",
    "--seed", "0",
]


def run_cli(*args):
    return cli.main([str(a) for a in args])


def record_digest(path, sha256):
    """Record ``sha256`` as the digest of the workdir file at ``path`` in the
    ingest summary beside it, as an ingest that wrote the file would."""
    summary_path = path.parent / cli.INGEST_SUMMARY_FILE
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    summary[cli.INGEST_DIGESTS[path.name]] = sha256
    summary_path.write_text(json.dumps(summary), encoding="utf-8")


def save_log(log, path):
    """Write ``log`` to the workdir's purchase log, and its digest to the summary."""
    record_digest(path, corpus.save_transactions(log, path, 7))


def add_purchases(path, rows):
    """Append (date, customer id, article id) rows to the purchase log at
    ``path``, adding their articles to its article table, and record the new
    log's digest in the ingest summary."""
    log = corpus.load_saved_transactions(path, 7)[0]
    articles = tuple(sorted({*log.article_ids, *(article for _, _, article in rows)}))
    save_log(purchase_log(log_rows(log) + rows, articles), path)


def _overflowing_dims(blob):
    """A checkpoint whose stored shape is (2**32 - 1) wide in every field
    but n_heads: an arena whose size overflows int64, far larger than the
    file."""
    widest = 2**32 - 1
    return blob[:8] + struct.pack("<6I", widest, widest, 1, widest, widest, widest) + blob[32:]


def _payload_start(blob):
    """Where an index's payload starts: after the magic, the counts, the
    metric tag and 10 bytes per article id."""
    (count,) = struct.unpack_from("<I", blob, 8)
    return 8 + 9 + len(ix.METRIC_TAG) + 10 * count


def _index_payload_at(blob, value):
    """An index whose first payload float is ``value``."""
    at = _payload_start(blob)
    return blob[:at] + struct.pack("<d", value) + blob[at + 8 :]


def _index_low_bit_flipped(blob):
    """An index whose first payload float has its lowest mantissa bit
    flipped: every row stays unit length within 1e-6."""
    at = _payload_start(blob)
    return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :]


def _index_first_id_repeated(blob):
    at = 8 + 9 + len(ix.METRIC_TAG)  # the first article id
    return blob[: at + 10] + blob[at : at + 10] + blob[at + 20 :]


# index.bin's source block: its magic and the sha256 digests of the
# checkpoint, the prepared articles and the payload
SOURCE_BLOCK_SIZE = 8 + 3 * 32
# Blocks after index.bin's payload that this run would not write, each as a
# function of the source block it writes.
FOREIGN_TRAILERS = {
    "no-source-block": lambda block: b"",
    # the earlier blocks: the checkpoint's sha256 and the pooling, then both
    # input digests and the pooling
    "trecsrc1": lambda block: b"TRECSRC1" + block[8:40] + b"\x04mean",
    "trecsrc2": lambda block: b"TRECSRC2" + block[8:72] + b"\x04mean",
    # what `recommend --pooling cls` wrote before the pooling was fixed
    "cls-pooling": lambda block: b"TRECSRC2" + block[8:72] + b"\x03cls",
    "other-checkpoint": lambda block: block[:8] + bytes(32) + block[40:],
    "other-payload": lambda block: block[:72] + bytes(32),
    "unknown-block": lambda block: b"NOTASRC1" + block[8:],
    "trailing-garbage": lambda block: block + b"x",
}


def assert_as_fresh(pipeline, clone):
    """The clone's index.bin and submission.csv are the shared world's, which
    its recommend wrote from a fresh build."""
    for name in (cli.INDEX_FILE, cli.SUBMISSION_FILE):
        assert (clone["workdir"] / name).read_bytes() == (
            pipeline["workdir"] / name
        ).read_bytes(), name


def _swap_first_two(ids):
    return (ids[1], ids[0], *ids[2:])


def _set(column, at, value):
    column = column.copy()
    column[at] = value
    return column


# Each way a purchase log can break the TRLOG002 rules: a function of the
# file's bytes and its loaded log that returns the broken bytes, and how the
# refusal goes on after "<path>: ".
BROKEN_LOGS = {
    # the magic of the layout before the article table held the whole catalog
    "bad-magic": (
        lambda blob, log: b"TRLOG001" + blob[8:],
        "bad magic, not a purchase log; re-run `titlerec ingest`",
    ),
    "truncated": (lambda blob, log: blob[:-1], "truncated at byte"),
    "trailing-bytes": (lambda blob, log: blob + b"\0", "1 trailing bytes"),
    "customers-not-ascending": (
        lambda blob, log: trlog_bytes(replace(log, customer_ids=_swap_first_two(log.customer_ids))),
        "customer ids do not ascend at",
    ),
    "articles-not-ascending": (
        lambda blob, log: trlog_bytes(replace(log, article_ids=_swap_first_two(log.article_ids))),
        "article ids do not ascend at",
    ),
    "article-not-digits": (
        lambda blob, log: trlog_bytes(replace(log, article_ids=("01087x5015", *log.article_ids[1:]))),
        "article id '01087x5015' is not 10 digits",
    ),
    "article-not-ascii": (
        lambda blob, log: trlog_bytes(replace(log, article_ids=("01087755é", *log.article_ids[1:]))),
        "bytes ",  # the range of the article table, then "are not ascii text"
    ),
    "customer-not-utf8": (
        # the first byte of the customer ids, after the magic, counts and lengths
        lambda blob, log: blob[:24 + 4 * len(log.customer_ids)] + b"\xff"
        + blob[25 + 4 * len(log.customer_ids):],
        "a customer id is not utf-8",
    ),
    "customer-not-stripped": (
        lambda blob, log: trlog_bytes(replace(log, customer_ids=(" a", *log.customer_ids[1:]))),
        "customer id ' a' is not stripped",
    ),
    "customer-code-out-of-range": (
        lambda blob, log: trlog_bytes(
            replace(log, customers=_set(log.customers, 3, len(log.customer_ids)))
        ),
        "row 4: customer code",
    ),
    "article-code-negative": (
        lambda blob, log: trlog_bytes(replace(log, articles=_set(log.articles, 0, -1))),
        "row 1: article code -1 is out of range",
    ),
    "unused-customer": (
        lambda blob, log: trlog_bytes(replace(log, customer_ids=(*log.customer_ids, "zzz"))),
        "customer id 'zzz' is used by no row",
    ),
    "day-zero": (
        lambda blob, log: trlog_bytes(replace(log, days=_set(log.days, 2, 0))),
        "row 3: day 0 is not a date ordinal",
    ),
    "day-past-date-max": (
        lambda blob, log: trlog_bytes(replace(log, days=_set(log.days, 1, 3652060))),
        "row 2: day 3652060 is not a date ordinal",
    ),
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full ingest -> train -> recommend -> evaluate run, shared read-only."""
    root = tmp_path_factory.mktemp("cli_world")
    inputs = small_inputs(root)
    workdir = root / "workdir"
    base = [
        "--workdir", workdir,
        "--articles", inputs["articles_path"],
        "--transactions", inputs["transactions_path"],
        *TINY_MODEL,
        "--epochs", "1",
        "--max-steps", "4",
    ]
    for command in ("ingest", "stats", "train", "recommend", "evaluate"):
        assert run_cli(command, *base) == 0, command
    return {"root": root, "workdir": workdir, "inputs": inputs, "base": base}


def force_training_helper(monkeypatch, cpus):
    """Train 2 rows a pass, on two threads when ``cpus`` > 1: then the
    calling thread and the helper each take a pass of every step before
    either runs one. Returns the names of the threads that ran passes."""
    monkeypatch.setattr(enc, "PASS_TOKEN_BUDGET", 2 * 12)  # TINY_MODEL's max_len
    monkeypatch.setattr(cli.objectives, "HELPER_MIN_WIDTH", 1)
    monkeypatch.setattr(cli.objectives, "usable_cpus", lambda: cpus)
    real_run_passes = cli.objectives.run_passes
    names = set()

    def run_passes(plan, run_pass, fold, helper, name):
        meeting = threading.Barrier(2, timeout=10) if helper else None
        met = set()

        def meet_and_run(number):
            me = threading.current_thread()
            if meeting is not None and me not in met:
                met.add(me)
                meeting.wait()
            names.add(me.name)
            return run_pass(number)

        real_run_passes(plan, meet_and_run, fold, helper, name)

    monkeypatch.setattr(cli.objectives, "run_passes", run_passes)
    return names


def fresh_copy(pipeline, tmp_path):
    """Writable clone of the shared pipeline world."""
    root = tmp_path / "clone"
    shutil.copytree(pipeline["root"], root)
    workdir = root / "workdir"
    base = list(pipeline["base"])
    base[1] = workdir
    base[3] = root / "articles.csv"
    base[5] = root / "transactions.csv"
    return {"root": root, "workdir": workdir, "base": base}


class TestLoadConfig:
    def test_defaults(self):
        config = cli.load_config(None, {})
        assert config.workdir == "workdir"
        assert config.max_steps is None

    def test_file_values_then_flag_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d_model": 32, "seed": 7, "workdir": "w"}))
        config = cli.load_config(str(path), {"seed": 9, "epochs": None})
        assert config.d_model == 32  # from file
        assert config.seed == 9  # flag wins
        assert config.epochs == 1  # None flags do not override

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d_modle": 32}))
        with pytest.raises(InvalidConfigError, match="d_modle"):
            cli.load_config(str(path), {})

    @pytest.mark.parametrize("name", ["dropout_rate", "top_n", "layer_norm_epsilon", "pooling"])
    def test_removed_setting_is_an_unknown_option(self, tmp_path, name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({name: 0}))
        with pytest.raises(InvalidConfigError, match=f"unknown option\\(s\\) {name}$"):
            cli.load_config(str(path), {})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(InvalidConfigError):
            cli.load_config(str(path), {})

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--negatives-per-positive", "0"),
            ("train", "--batch-size", "0"),
            ("train", "--batch-size", "-1"),
            ("train", "--epochs", "-1"),
            ("train", "--max-steps", "-1"),
            ("train", "--holdout-days", "0"),
            ("recommend", "--holdout-days", "0"),
            ("train", "--min-freq", "0"),
            ("train", "--max-vocab", "3"),
            ("train", "--seed", "-1"),
            ("recommend", "--pooling", "max"),
        ],
    )
    def test_bad_training_knob_rejected(self, pipeline, tmp_path, capsys, command, flag, value):
        clone = fresh_copy(pipeline, tmp_path)
        before = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        assert run_cli(command, *clone["base"], flag, value) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: InvalidConfigError: ")
        assert flag[2:].replace("-", "_") in line
        assert captured.out == ""
        after = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        assert after == before

    @pytest.mark.parametrize("value", [0, "16", 2.0, True])
    def test_bad_knob_in_config_file_rejected(self, tmp_path, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"batch_size": value}))
        with pytest.raises(InvalidConfigError, match="batch_size"):
            cli.load_config(str(path), {})

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("train", "seed", "1"),
            ("train", "learning_rate", "0.1"),
            ("train", "d_model", "64"),
            ("train", "learning_rate", -1.0),
        ],
    )
    def test_bad_value_in_config_file_is_one_error_line(
        self, pipeline, tmp_path, capsys, command, name, value
    ):
        clone = fresh_copy(pipeline, tmp_path)
        base = list(clone["base"])
        flag = "--" + name.replace("_", "-")
        if flag in base:  # the flag would override the file's value
            del base[base.index(flag) : base.index(flag) + 2]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: value}))
        before = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        capsys.readouterr()
        assert run_cli(command, *base, "--config", config) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: InvalidConfigError: {name} must be " + {
            "seed": "an integer >= 0, got '1'",
            "learning_rate": f"a finite number > 0.0, got {value!r}",
            "d_model": "an integer, got '64'",
        }[name]
        after = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        assert after == before

    @pytest.mark.parametrize("command", ["train", "recommend", "evaluate"])
    def test_indivisible_heads_refused_before_any_read(self, tmp_path, capsys, command):
        # an empty workdir: any read would fail as MissingArtifactError
        assert run_cli(command, "--workdir", tmp_path, "--d-model", "30", "--n-heads", "4") == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: InvalidConfigError: d_model 30 not divisible by n_heads 4"
        assert list(tmp_path.iterdir()) == []

    def test_flags_are_the_config_fields(self):
        shared = cli.build_parser()._subparsers._group_actions[0].choices["train"]
        flags = {option for action in shared._actions for option in action.option_strings}
        assert flags - {"-h", "--help"} == {"--config"} | {
            "--" + f.name.replace("_", "-") for f in fields(cli.PipelineConfig)
        }

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration", 1)[1].split("\n### ", 1)[0]
        path = tmp_path / "run.json"
        path.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        assert cli.load_config(str(path), {}) == cli.PipelineConfig(
            **{**json.loads(path.read_text()), "text_columns": corpus.TEXTUAL_COLUMNS}
        )

    def test_text_columns_normalized(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"text_columns": ["prod_name"]}))
        config = cli.load_config(str(path), {})
        assert config.text_columns == ("prod_name",)


class TestIngest:
    def test_artifacts_and_summary(self, pipeline, capsys):
        workdir = pipeline["workdir"]
        for name in (
            cli.PREPARED_FILE,
            cli.TRANSACTIONS_FILE,
            cli.INGEST_SUMMARY_FILE,
        ):
            assert (workdir / name).exists(), name
        # no write-only artifacts: nothing reads a sessions or popularity file
        assert not (workdir / "sessions.tsv").exists()
        assert not (workdir / "popularity.txt").exists()
        summary = json.loads((workdir / cli.INGEST_SUMMARY_FILE).read_text())
        assert summary["articles"] == 30
        assert summary["transactions"] == 60
        assert summary["joined"] + summary["dropped"] == summary["transactions"]
        joined = corpus.load_saved_transactions(workdir / cli.TRANSACTIONS_FILE, 7)[0]
        rows = zip(joined.days.tolist(), joined.customers.tolist())
        assert summary["joined"] == len(joined)
        assert summary["sessions"] == len(set(rows))
        prepared = (workdir / cli.PREPARED_FILE).read_bytes()
        assert summary["prepared_sha256"] == hashlib.sha256(prepared).hexdigest()

    def test_unmatched_transactions_counted_as_dropped(self, tmp_path, capsys):
        inputs = small_inputs(tmp_path)
        with open(inputs["transactions_path"], "a", encoding="utf-8") as fh:
            fh.write("2020-03-10,shopper000,9999999999,0.05,2\n")
            fh.write("2020-03-11,shopper001,9999999998,0.05,2\n")
        rc = run_cli(
            "ingest",
            "--workdir", tmp_path / "w",
            "--articles", inputs["articles_path"],
            "--transactions", inputs["transactions_path"],
        )
        assert rc == 0
        assert "dropped=2" in capsys.readouterr().out
        summary = json.loads((tmp_path / "w" / cli.INGEST_SUMMARY_FILE).read_text())
        assert summary["dropped"] == 2

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        rc = run_cli(
            "ingest",
            "--workdir", tmp_path / "w",
            "--articles", tmp_path / "nope.csv",
            "--transactions", tmp_path / "nope2.csv",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_missing_path_flags_rejected(self, tmp_path, capsys):
        rc = run_cli("ingest", "--workdir", tmp_path / "w")
        assert rc == 1
        assert "error: InvalidConfigError" in capsys.readouterr().err

    def test_byte_order_marks_are_dropped(self, tmp_path):
        # as Excel's "CSV UTF-8" writes them: the bytes of a run are unchanged
        workdirs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            root = tmp_path / f"bom{len(bom)}"
            root.mkdir()
            inputs = write_planted_inputs(root)
            for name in ("articles_path", "transactions_path"):
                inputs[name].write_bytes(bom + inputs[name].read_bytes())
            workdir = root / "w"
            flags = ["--articles", inputs["articles_path"],
                     "--transactions", inputs["transactions_path"]]
            assert run_cli("ingest", "--workdir", workdir, *flags) == 0
            workdirs.append(workdir)
        for name in (cli.PREPARED_FILE, cli.TRANSACTIONS_FILE):
            assert (workdirs[1] / name).read_bytes() == (workdirs[0] / name).read_bytes(), name

    @pytest.mark.parametrize(
        "file, row, column, bad, message",
        [
            ("articles", 2, 0, "12x", "MalformedRowError: {path}: row 2: bad article_id '12x'"),
            ("articles", 3, 0, "1", "DuplicateArticleIdError: {path}: article_id 0000000001 "
             "appears more than once"),
            ("transactions", 4, 0, "2020-13-01", "UnparsableDateError: {path}: row 4: "
             "unparsable t_dat '2020-13-01'"),
            ("transactions", 5, 2, "x7", "MalformedRowError: {path}: row 5: bad article_id 'x7'"),
            ("transactions", 6, 3, '0.0100"', "MalformedRowError: {path}: row 6: bad price "
             "'0.0100\"'"),
            ("transactions", 7, 4, "2.5", "MalformedRowError: {path}: row 7: bad "
             "sales_channel_id '2.5'"),
        ],
    )
    def test_row_error_names_its_file(self, tmp_path, capsys, file, row, column, bad, message):
        inputs = small_inputs(tmp_path)
        path = inputs[f"{file}_path"]
        header, *rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        rows[row - 1][column] = bad
        path.write_text(to_csv(tuple(header), [tuple(r) for r in rows]), encoding="utf-8")
        rc = run_cli(
            "ingest",
            "--workdir", tmp_path / "w",
            "--articles", inputs["articles_path"],
            "--transactions", inputs["transactions_path"],
        )
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: " + message.format(path=path)


class TestStats:
    def test_report_written_and_conserves_counts(self, pipeline):
        report = (pipeline["workdir"] / cli.STATS_FILE).read_text()
        assert report.startswith("# text length histogram")
        lines = report.splitlines()
        start = lines.index("length\tcount") + 1
        counts = []
        for line in lines[start:]:
            if not line:
                break
            counts.append(int(line.split("\t")[1]))
        assert sum(counts) == 30
        assert "# missing descriptions by index_name" in report

    def test_requires_ingest(self, tmp_path, capsys):
        rc = run_cli("stats", "--workdir", tmp_path / "w")
        assert rc == 1
        assert "error: MissingArtifactError" in capsys.readouterr().err

    def test_empty_corpus_rejected(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        workdir.mkdir()
        path = workdir / cli.PREPARED_FILE
        (workdir / cli.INGEST_SUMMARY_FILE).write_text(
            '{"missing_description": {}, "transactions_sha256": ""}'
        )
        record_digest(path, corpus.save_prepared([], path))
        rc = run_cli("stats", "--workdir", workdir)
        assert rc == 1
        assert "error: MissingArtifactError" in capsys.readouterr().err


class TestTrain:
    def test_artifacts(self, pipeline):
        workdir = pipeline["workdir"]
        assert (workdir / cli.VOCAB_FILE).exists()
        assert (workdir / cli.CHECKPOINT_FILE).exists()
        log = (workdir / cli.LOSS_LOG_FILE).read_text().splitlines()
        assert log[0] == cli.LOSS_LOG_HEADER
        assert 2 <= len(log) <= 1 + 4  # at least one step, budget respected
        for line in log[1:]:
            step, mlm, np_term, total = line.split("\t")
            assert float(total) == pytest.approx(float(mlm) + float(np_term))

    def test_checkpoint_loadable(self, pipeline):
        params, _ = enc.load_checkpoint(pipeline["workdir"] / cli.CHECKPOINT_FILE)
        assert params.config.d_model == 8
        assert all(np.isfinite(t).all() for t in params.tensors.values())

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        clone = fresh_copy(pipeline, tmp_path)
        for name in (cli.CHECKPOINT_FILE, cli.LOSS_LOG_FILE, cli.VOCAB_FILE):
            (clone["workdir"] / name).unlink()
        assert run_cli("train", *clone["base"], "--epochs", "1", "--max-steps", "4") == 0
        for name in (cli.CHECKPOINT_FILE, cli.LOSS_LOG_FILE, cli.VOCAB_FILE):
            assert (clone["workdir"] / name).read_bytes() == (
                pipeline["workdir"] / name
            ).read_bytes(), name

    def test_two_training_threads_write_the_same_bytes(self, pipeline, tmp_path, monkeypatch):
        written = {}
        for cpus in (1, 2):
            clone = fresh_copy(pipeline, tmp_path / str(cpus))
            with monkeypatch.context() as patch:
                threads = force_training_helper(patch, cpus)
                assert run_cli("train", *clone["base"]) == 0
            assert len(threads) == cpus
            written[cpus] = [
                (clone["workdir"] / name).read_bytes()
                for name in (cli.CHECKPOINT_FILE, cli.LOSS_LOG_FILE)
            ]
        assert written[1] == written[2]

    def test_pairs_encoded_equal_pairs_trained(self, pipeline, tmp_path, monkeypatch):
        clone = fresh_copy(pipeline, tmp_path)
        drawn, encoded, trained, trained_negatives = [], [], [], []
        real_sample = cli.objectives.sample_pairs
        real_encode, real_step = cli.objectives.encode_training_pairs, cli.objectives.train_step

        def sample_spy(*args, **kwargs):
            pairs = real_sample(*args, **kwargs)
            drawn.append(int((pairs.labels == 0).sum()))
            return pairs

        def encode_spy(*args, **kwargs):
            batch = real_encode(*args, **kwargs)
            encoded.append(len(batch))
            return batch

        def step_spy(params, state, masked_batch, pair_batch, *args, **kwargs):
            trained.append(len(pair_batch))
            trained_negatives.append(int((pair_batch.labels == 0).sum()))
            return real_step(params, state, masked_batch, pair_batch, *args, **kwargs)

        monkeypatch.setattr(cli.objectives, "sample_pairs", sample_spy)
        monkeypatch.setattr(cli.objectives, "encode_training_pairs", encode_spy)
        monkeypatch.setattr(cli.objectives, "train_step", step_spy)
        # 8 slots in the epoch (2 positives, 3 negatives each); 2 steps of 2 train 4
        assert run_cli(
            "train", *clone["base"][:-2], "--max-steps", "2",
            "--batch-size", "2", "--negatives-per-positive", "3",
        ) == 0
        assert trained == [2, 2]
        assert sum(encoded) == sum(trained)
        # a negative is drawn for each negative slot trained, and for no other
        assert drawn == trained_negatives and sum(drawn) >= 2

    @pytest.mark.parametrize(
        "flags, message, cpus",
        [
            (
                ["--d-model", "30", "--n-heads", "4"],
                "InvalidConfigError: d_model 30 not divisible",
                0,
            ),
            (["--learning-rate", "1e300"], "NonFiniteComponentError: loss component nan", 0),
            (["--learning-rate", "1e300"], "NonFiniteComponentError: loss component nan", 2),
        ],
        ids=["indivisible-heads", "overflowing-step", "overflowing-step-two-threads"],
    )
    def test_failed_run_keeps_the_vocab_checkpoint_pair(
        self, pipeline, tmp_path, capsys, monkeypatch, flags, message, cpus
    ):
        # --min-freq 8 builds a smaller vocabulary (18 tokens) than the one trained (21)
        clone = fresh_copy(pipeline, tmp_path)
        before = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        # the helper runs under train's numpy error state, which ignores overflow
        threads = force_training_helper(monkeypatch, cpus) if cpus else set()
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("train", *clone["base"], "--min-freq", "8", *flags) == 1
        assert [str(w.message) for w in caught] == []
        assert len(threads) == (2 if cpus else 0)
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {message}")
        after = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        assert after == before
        assert run_cli("recommend", *clone["base"]) == 0

    def test_shorter_run_is_a_prefix_of_a_longer_one(self, pipeline, tmp_path):
        logs = {}
        for steps in ("3", "6"):
            clone = fresh_copy(pipeline, tmp_path / steps)
            flags = ["--epochs", "4", "--batch-size", "2", "--max-steps", steps]
            assert run_cli("train", *clone["base"][:-4], *flags) == 0
            logs[steps] = (clone["workdir"] / cli.LOSS_LOG_FILE).read_text().splitlines()
        assert len(logs["3"]) == 1 + 3 and len(logs["6"]) == 1 + 6
        assert logs["3"] == logs["6"][:4]

    def test_inventory_check_precedes_the_first_step(self, tmp_path, capsys, monkeypatch):
        # one train-window session buys the whole two-article catalog
        articles = [
            ("0000000001", "red top", "type0", "Ladieswear", ""),
            ("0000000002", "blue cap", "type1", "Sport", ""),
        ]
        transactions = [
            ("2020-03-02", "shopper000", "0000000001", "0.05", "2"),
            ("2020-03-02", "shopper000", "0000000002", "0.05", "2"),
            ("2020-03-20", "shopper001", "0000000001", "0.05", "2"),
        ]
        (tmp_path / "articles.csv").write_text(to_csv(ARTICLE_HEADER, articles))
        (tmp_path / "transactions.csv").write_text(to_csv(TRANSACTION_HEADER, transactions))
        base = [
            "--workdir", tmp_path / "w",
            "--articles", tmp_path / "articles.csv",
            "--transactions", tmp_path / "transactions.csv",
            *TINY_MODEL,
        ]
        assert run_cli("ingest", *base) == 0
        steps = []
        monkeypatch.setattr(cli.objectives, "train_step", lambda *args: steps.append(1))
        capsys.readouterr()
        assert run_cli("train", *base, "--max-steps", "1") == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: InventoryTooSmallError: ")
        assert steps == []
        assert not (tmp_path / "w" / cli.CHECKPOINT_FILE).exists()

    def test_title_without_a_kept_word_is_not_masked(self, tmp_path, monkeypatch):
        # with --min-freq 2 the words seen once are unknown; at --max-len 12 a
        # title keeps its first ten words, so the third title keeps a word to
        # mask and the fourth does not
        articles = [
            ("0000000001", "red blue", "type0", "Sport", ""),
            ("0000000002", "blue red", "type0", "Sport", ""),
            ("0000000003", " ".join(f"x{i}" for i in range(9)) + " red", "type0", "Sport", ""),
            ("0000000004", " ".join(f"y{i}" for i in range(10)) + " red", "type0", "Sport", ""),
        ]
        transactions = [
            ("2020-03-02", "shopper000", "0000000001", "0.05", "2"),
            ("2020-03-20", "shopper001", "0000000002", "0.05", "2"),
        ]
        (tmp_path / "articles.csv").write_text(to_csv(ARTICLE_HEADER, articles))
        (tmp_path / "transactions.csv").write_text(to_csv(TRANSACTION_HEADER, transactions))
        base = [
            "--workdir", tmp_path / "w",
            "--articles", tmp_path / "articles.csv",
            "--transactions", tmp_path / "transactions.csv",
            *TINY_MODEL, "--min-freq", "2",
        ]
        assert run_cli("ingest", *base) == 0
        masked = []
        real = cli.objectives.apply_masking

        def spy(seq, *args):
            masked.append(seq)
            return real(seq, *args)

        monkeypatch.setattr(cli.objectives, "apply_masking", spy)
        assert run_cli("train", *base, "--batch-size", "4") == 0
        assert len(masked) == 3

    def test_three_arenas_whatever_the_step_count(self, pipeline, tmp_path, monkeypatch):
        # two Adam moments and one gradient arena reused by every step
        real = enc.zero_grads
        calls = []

        def counting(params):
            calls.append(1)
            return real(params)

        monkeypatch.setattr(enc, "zero_grads", counting)
        for steps in ("1", "6"):
            calls.clear()
            clone = fresh_copy(pipeline, tmp_path / steps)
            flags = ["--epochs", "4", "--max-steps", steps]
            assert run_cli("train", *clone["base"][:-4], *flags) == 0
            assert len(calls) == 3, steps
        log = (clone["workdir"] / cli.LOSS_LOG_FILE).read_text().splitlines()
        assert len(log) == 1 + 6

    def test_zero_epochs_checkpoints_seed_init(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        assert run_cli("train", *clone["base"], "--epochs", "0") == 0
        assert "steps=0" in capsys.readouterr().out
        log = (clone["workdir"] / cli.LOSS_LOG_FILE).read_text()
        assert log == cli.LOSS_LOG_HEADER + "\n"
        params, _ = enc.load_checkpoint(clone["workdir"] / cli.CHECKPOINT_FILE)
        seeded = enc.init_params(params.config, seed=0)
        assert all(
            (params[name] == seeded[name]).all() for name in params.tensors
        )

    @pytest.mark.parametrize("window", ["train", "holdout"])
    def test_article_outside_the_catalog_refused_naming_the_log(
        self, pipeline, tmp_path, capsys, window
    ):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        days = corpus.load_saved_transactions(path, 7)[0].days
        day = date.fromordinal(int(days.min() if window == "train" else days.max()))
        add_purchases(path, [(day, "shopper000", "9999999999")] * 2)
        before = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        capsys.readouterr()
        assert run_cli("train", *clone["base"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: UnknownArticleError: {path}: its article table is not the catalog of "
            f"{clone['workdir'] / cli.PREPARED_FILE}; re-run `titlerec ingest`"
        )
        after = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        assert after == before

    def test_requires_ingest(self, tmp_path, capsys):
        rc = run_cli("train", "--workdir", tmp_path / "w")
        assert rc == 1
        assert "error: MissingArtifactError" in capsys.readouterr().err


class TestRecommend:
    def test_one_row_per_customer_in_universe(self, pipeline):
        rows = evaluation.read_submission(pipeline["workdir"] / cli.SUBMISSION_FILE)
        transactions = corpus.load_saved_transactions(
            pipeline["workdir"] / cli.TRANSACTIONS_FILE, 7
        )[0]
        universe = sorted({transactions.customer_ids[c] for c in transactions.customers.tolist()})
        assert [r.customer_id for r in rows] == universe
        assert all(len(r.article_ids) == 12 for r in rows)

    def test_customer_list_byte_order_mark_dropped(self, pipeline, tmp_path):
        # as Windows editors write it: one log customer and one newcomer
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            clone = fresh_copy(pipeline, tmp_path / f"bom{len(bom)}")
            extra = clone["root"] / "extra_customers.txt"
            extra.write_bytes(bom + b"shopper000\nnewcomer\n")
            assert run_cli("recommend", *clone["base"], "--customer-list", extra) == 0
            outputs.append((clone["workdir"] / cli.SUBMISSION_FILE).read_bytes())
        assert outputs[1] == outputs[0]
        customers = [row.customer_id for row in evaluation.read_submission(
            clone["workdir"] / cli.SUBMISSION_FILE
        )]
        log = corpus.load_saved_transactions(clone["workdir"] / cli.TRANSACTIONS_FILE, 7)[0]
        assert customers == sorted({*log.customer_ids, "newcomer"})

    def test_undecodable_customer_list_named(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        extra = clone["root"] / "extra_customers.txt"
        extra.write_bytes(b"\xffshopper000\n")
        capsys.readouterr()
        assert run_cli("recommend", *clone["base"], "--customer-list", extra) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: InputFileError: {extra}: 'utf-8' codec can't decode")

    def test_cold_start_rows_equal_popularity_head(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        extra = clone["root"] / "extra_customers.txt"
        extra.write_text("zzz_never_bought\n")
        assert run_cli(
            "recommend", *clone["base"], "--customer-list", extra
        ) == 0
        rows = evaluation.read_submission(clone["workdir"] / cli.SUBMISSION_FILE)
        by_customer = {r.customer_id: r.article_ids for r in rows}
        assert "zzz_never_bought" in by_customer
        transactions = corpus.load_saved_transactions(
            clone["workdir"] / cli.TRANSACTIONS_FILE, 7
        )[0]
        train_window, _ = evaluation.temporal_split(transactions, holdout_days=7)
        popularity = [train_window.article_ids[c] for c in ix.popularity_ranking(train_window)]
        prepared = corpus.load_prepared(clone["workdir"] / cli.PREPARED_FILE)[0]
        backfill = [p.article_id for p in sorted(prepared, key=lambda p: p.article_id)]
        expected = (popularity + [a for a in backfill if a not in popularity])[:12]
        assert list(by_customer["zzz_never_bought"]) == expected

    @pytest.mark.parametrize("fault", ["foreign article", "NUL in an id"])
    def test_train_window_article_outside_the_catalog_refused(
        self, pipeline, tmp_path, capsys, fault
    ):
        clone = fresh_copy(pipeline, tmp_path)
        (clone["workdir"] / cli.SUBMISSION_FILE).unlink()
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        log = corpus.load_saved_transactions(path, 7)[0]
        day = date.fromordinal(int(log.days.min()))  # the earliest, a train day
        if fault == "foreign article":
            add_purchases(path, [(day, f"shopper{c % 15:03d}", "9999999999") for c in range(40)])
            expected = (
                f"error: UnknownArticleError: {path}: its article table is not the catalog of "
                f"{clone['workdir'] / cli.PREPARED_FILE}; re-run `titlerec ingest`"
            )
        else:
            # the log's reader refuses an id that is not 10 digits before any catalog check
            article = log.article_ids[0]
            nul = f"{article[:5]}\0{article[6:]}"
            path.write_bytes(trlog_bytes(replace(log, article_ids=(nul, *log.article_ids[1:]))))
            expected = f"error: ArtifactFormatError: {path}: article id {nul!r} is not 10 digits"
        capsys.readouterr()
        assert run_cli("recommend", *clone["base"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == expected
        assert not (clone["workdir"] / cli.SUBMISSION_FILE).exists()

    def test_holdout_window_article_outside_the_catalog_refused(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        (clone["workdir"] / cli.SUBMISSION_FILE).unlink()
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        last_day = date.fromordinal(int(corpus.load_saved_transactions(path, 7)[0].days.max()))
        add_purchases(path, [(last_day, "strayshopper", "9999999999")])
        capsys.readouterr()
        assert run_cli("recommend", *clone["base"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: UnknownArticleError: {path}: its article table is not the catalog of "
            f"{clone['workdir'] / cli.PREPARED_FILE}; re-run `titlerec ingest`"
        )
        assert not (clone["workdir"] / cli.SUBMISSION_FILE).exists()

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        clone = fresh_copy(pipeline, tmp_path)
        before = (clone["workdir"] / cli.SUBMISSION_FILE).read_bytes()
        index_before = (clone["workdir"] / cli.INDEX_FILE).read_bytes()
        assert run_cli("recommend", *clone["base"]) == 0
        assert (clone["workdir"] / cli.SUBMISSION_FILE).read_bytes() == before
        assert (clone["workdir"] / cli.INDEX_FILE).read_bytes() == index_before

    def test_stale_index_detected(self, pipeline, tmp_path, capsys):
        # a hand-edited catalog is not the file ingest wrote with the log
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.PREPARED_FILE
        corpus.save_prepared(corpus.load_prepared(path)[0][:-1], path)
        capsys.readouterr()
        rc = run_cli("recommend", *clone["base"])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: ArtifactFormatError: {path}: not the file "
            f"{clone['workdir'] / cli.INGEST_SUMMARY_FILE} records (its sha256 differs); "
            "re-run `titlerec ingest`"
        )

    def test_reingest_with_fewer_articles_rebuilds_whether_index_cached(self, pipeline, tmp_path):
        outcomes = []
        for cached in (True, False):
            clone = fresh_copy(pipeline, tmp_path / str(cached))
            articles = clone["root"] / "articles.csv"
            lines = articles.read_text(encoding="utf-8").splitlines(True)
            articles.write_text("".join(lines[:-1]), encoding="utf-8")
            assert run_cli("ingest", *clone["base"]) == 0
            if not cached:
                (clone["workdir"] / cli.INDEX_FILE).unlink()
            assert run_cli("recommend", *clone["base"]) == 0
            outcomes.append(
                [(clone["workdir"] / name).read_bytes()
                 for name in (cli.SUBMISSION_FILE, cli.INDEX_FILE)]
            )
        assert outcomes[0] == outcomes[1]

    def test_index_over_other_ids_is_rebuilt(self, pipeline, tmp_path):
        # an id edited in place, still ascending, under an intact source block
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.INDEX_FILE
        blob = path.read_bytes()
        at = 8 + 9 + len(ix.METRIC_TAG)  # the first article id
        assert blob[at : at + 10] > b"0000000000"
        path.write_bytes(blob[:at] + b"0000000000" + blob[at + 10 :])
        assert run_cli("recommend", *clone["base"]) == 0
        assert_as_fresh(pipeline, clone)

    def test_index_with_a_repeated_id_is_rebuilt(self, pipeline, tmp_path):
        # one more id table this run would not write, under an intact source block
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.INDEX_FILE
        path.write_bytes(_index_first_id_repeated(path.read_bytes()))
        assert run_cli("recommend", *clone["base"]) == 0
        assert_as_fresh(pipeline, clone)

    def test_retrained_checkpoint_rebuilds_index(self, pipeline, tmp_path):
        stale = fresh_copy(pipeline, tmp_path / "stale")
        fresh = fresh_copy(pipeline, tmp_path / "fresh")
        old_index = (stale["workdir"] / cli.INDEX_FILE).read_bytes()
        (fresh["workdir"] / cli.INDEX_FILE).unlink()
        for world in (stale, fresh):
            assert run_cli("train", *world["base"], "--seed", "1") == 0
            assert run_cli("recommend", *world["base"], "--seed", "1") == 0
        rebuilt = (stale["workdir"] / cli.INDEX_FILE).read_bytes()
        assert rebuilt != old_index
        assert rebuilt == (fresh["workdir"] / cli.INDEX_FILE).read_bytes()
        assert (stale["workdir"] / cli.SUBMISSION_FILE).read_bytes() == (
            fresh["workdir"] / cli.SUBMISSION_FILE
        ).read_bytes()

    @pytest.mark.parametrize("trailer", FOREIGN_TRAILERS)
    def test_foreign_trailer_is_rebuilt(self, pipeline, tmp_path, trailer):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.INDEX_FILE
        blob = path.read_bytes()
        block = blob[-SOURCE_BLOCK_SIZE:]
        payload = blob[_payload_start(blob) : -SOURCE_BLOCK_SIZE]
        assert block == ix.SOURCE_MAGIC + block[8:72] + hashlib.sha256(payload).digest()
        path.write_bytes(blob[:-SOURCE_BLOCK_SIZE] + FOREIGN_TRAILERS[trailer](block))
        assert run_cli("recommend", *clone["base"]) == 0
        assert_as_fresh(pipeline, clone)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda blob: _index_payload_at(blob, 5.0),
            lambda blob: _index_payload_at(blob, math.nan),
            _index_low_bit_flipped,
        ],
        ids=["index-row-not-unit", "index-row-nan", "index-low-bit-flipped"],
    )
    def test_damaged_payload_is_rebuilt(self, pipeline, tmp_path, corrupt):
        # the source block is intact: only the payload's digest tells
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.INDEX_FILE
        path.write_bytes(corrupt(path.read_bytes()))
        assert run_cli("recommend", *clone["base"]) == 0
        assert_as_fresh(pipeline, clone)

    def test_reingest_with_other_text_columns_rebuilds_index(self, pipeline, tmp_path):
        stale = fresh_copy(pipeline, tmp_path / "stale")
        fresh = fresh_copy(pipeline, tmp_path / "fresh")
        old_index = (stale["workdir"] / cli.INDEX_FILE).read_bytes()
        (fresh["workdir"] / cli.INDEX_FILE).unlink()
        for world in (stale, fresh):
            assert run_cli("ingest", *world["base"], "--text-columns", "prod_name") == 0
            assert run_cli("recommend", *world["base"]) == 0
        rebuilt = (stale["workdir"] / cli.INDEX_FILE).read_bytes()
        assert rebuilt != old_index
        for name in (cli.INDEX_FILE, cli.SUBMISSION_FILE):
            assert (stale["workdir"] / name).read_bytes() == (
                fresh["workdir"] / name
            ).read_bytes(), name

    def test_matching_index_is_reused(self, pipeline, tmp_path, monkeypatch):
        clone = fresh_copy(pipeline, tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("a matching index must not be rebuilt")

        monkeypatch.setattr(cli.index_mod, "build_index", refuse)
        assert run_cli("recommend", *clone["base"]) == 0
        assert (clone["workdir"] / cli.SUBMISSION_FILE).read_bytes() == (
            pipeline["workdir"] / cli.SUBMISSION_FILE
        ).read_bytes()

    def test_checkpoint_read_once(self, pipeline, tmp_path, monkeypatch):
        # the index records the sha256 of the bytes the checkpoint was loaded from
        clone = fresh_copy(pipeline, tmp_path)
        checkpoint = clone["workdir"] / cli.CHECKPOINT_FILE
        (clone["workdir"] / cli.INDEX_FILE).unlink()
        reads = []
        real = Path.read_bytes

        def spy(path):
            reads.append(path.name)
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", spy)
        assert run_cli("recommend", *clone["base"]) == 0
        assert reads.count(cli.CHECKPOINT_FILE) == 1
        block = real(clone["workdir"] / cli.INDEX_FILE)[-SOURCE_BLOCK_SIZE:]
        assert block[8:40] == hashlib.sha256(real(checkpoint)).digest()

    @pytest.mark.xfail(
        strict=True,
        reason="index.bin's key holds the digests of checkpoint.bin and prepared_articles.tsv "
        "but not of vocab.txt, so a cached index outlives an edited vocabulary",
    )
    def test_edited_vocabulary_serves_as_a_fresh_build(self, pipeline, tmp_path):
        # the first two word lines swapped: a fresh build embeds other vectors
        submissions = []
        for cached in (True, False):
            clone = fresh_copy(pipeline, tmp_path / str(cached))
            path = clone["workdir"] / cli.VOCAB_FILE
            lines = path.read_text(encoding="utf-8").splitlines(True)
            first = FIRST_WORD_ID
            lines[first], lines[first + 1] = lines[first + 1], lines[first]
            path.write_text("".join(lines), encoding="utf-8")
            if not cached:
                (clone["workdir"] / cli.INDEX_FILE).unlink()
            assert run_cli("recommend", *clone["base"]) == 0
            submissions.append((clone["workdir"] / cli.SUBMISSION_FILE).read_bytes())
        assert submissions[0] == submissions[1]

    def test_checkpoint_config_mismatch_detected(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        base = clone["base"]
        rc = run_cli("recommend", *base[:-2], "--seed", "0", "--d-model", "16")
        assert rc == 1
        assert "error: CheckpointMismatchError" in capsys.readouterr().err

    def test_requires_train(self, tmp_path, capsys):
        rc = run_cli("recommend", "--workdir", tmp_path / "w")
        assert rc == 1
        assert "error: MissingArtifactError" in capsys.readouterr().err


class TestHoldoutDays:
    """Every stage uses the holdout window ``ingest`` recorded."""

    @pytest.mark.parametrize("command", ["train", "recommend", "evaluate"])
    def test_other_holdout_than_ingest_refused(self, pipeline, tmp_path, capsys, command):
        # trained on the scored days, MAP@12 would read several times too high
        clone = fresh_copy(pipeline, tmp_path)
        before = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        capsys.readouterr()
        assert run_cli(command, *clone["base"], "--holdout-days", "1") == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: InvalidConfigError: {clone['workdir'] / cli.TRANSACTIONS_FILE} was "
            "ingested with holdout_days=7, but this run has holdout_days=1; pass the same "
            "--holdout-days to every command"
        )
        assert captured.out == ""
        after = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        assert after == before

    def test_one_value_for_every_command_runs(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        for command in ("ingest", "train", "recommend", "evaluate"):
            assert run_cli(command, *clone["base"], "--holdout-days", "1") == 0, command
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        assert len(corpus.load_saved_transactions(path, 1)[0]) > 0


class TestSettingsFromArtifacts:
    """A setting an artifact records comes from that artifact when it is not
    given, and a given one must agree with it."""

    @staticmethod
    def without(args, *flags):
        """``args`` without each flag of ``flags`` and its value."""
        kept = list(args)
        for flag in flags:
            at = kept.index(flag)
            del kept[at : at + 2]
        return kept

    def test_recommend_takes_the_model_shape_from_the_checkpoint(self, pipeline, tmp_path):
        clone = fresh_copy(pipeline, tmp_path)
        (clone["workdir"] / cli.INDEX_FILE).unlink()
        shape_flags = ("--d-model", "--n-heads", "--n-layers", "--d-ff", "--max-len")
        assert run_cli("recommend", *self.without(clone["base"], *shape_flags)) == 0
        for name in (cli.SUBMISSION_FILE, cli.INDEX_FILE):
            served = (clone["workdir"] / name).read_bytes()
            assert served == (pipeline["workdir"] / name).read_bytes(), name

    def test_a_given_shape_setting_must_agree(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        args = self.without(clone["base"], "--n-layers", "--d-ff")
        capsys.readouterr()
        assert run_cli("recommend", *args, "--n-layers", "2", "--d-ff", "16") == 1
        (line,) = capsys.readouterr().err.splitlines()
        stored, _ = enc.load_checkpoint(clone["workdir"] / cli.CHECKPOINT_FILE)
        assert line == (
            f"error: CheckpointMismatchError: {clone['workdir'] / cli.CHECKPOINT_FILE}: "
            f"stored config {stored.config} != expected n_layers=2"
        )

    def test_holdout_days_come_from_ingest(self, pipeline, tmp_path):
        written = {}
        for flags in (["--holdout-days", "1"], []):
            clone = fresh_copy(pipeline, tmp_path / str(len(flags)))
            assert run_cli("ingest", *clone["base"], "--holdout-days", "1") == 0
            for command in ("train", "recommend", "evaluate"):
                assert run_cli(command, *clone["base"], *flags) == 0, command
            written[len(flags)] = [
                (clone["workdir"] / name).read_bytes()
                for name in (cli.CHECKPOINT_FILE, cli.SUBMISSION_FILE, cli.EVAL_REPORT_FILE)
            ]
        assert written[0] == written[2]
        report = json.loads(written[0][2])
        assert report != json.loads((pipeline["workdir"] / cli.EVAL_REPORT_FILE).read_text())


class TestImportCost:
    def test_cli_import_leaves_scipy_sparse_unloaded(self, pipeline, tmp_path):
        # every command pays the package's import time first: neither the
        # import nor a cold recommend (which builds the index) may load scipy
        # or numpy.ma
        clone = fresh_copy(pipeline, tmp_path)
        (clone["workdir"] / cli.INDEX_FILE).unlink()
        code = (
            "import json, sys\n"
            "from titlerec import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('scipy') or m.split('.')[:2] == ['numpy', 'ma'])\n"
            "after_import = loaded()\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(json.dumps([after_import, rc, loaded()]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code, "recommend", *map(str, clone["base"])],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.strip().splitlines()[-1]) == [[], 0, []]
        assert (clone["workdir"] / cli.INDEX_FILE).exists()


class TestEvaluate:
    def test_report_written(self, pipeline):
        report = json.loads((pipeline["workdir"] / cli.EVAL_REPORT_FILE).read_text())
        assert set(report) == {"map_at_12", "scored", "excluded"}
        assert 0.0 <= report["map_at_12"] <= 1.0
        rows = evaluation.read_submission(pipeline["workdir"] / cli.SUBMISSION_FILE)
        assert report["scored"] + report["excluded"] == len(rows)

    def test_exit_zero_regardless_of_score(self, pipeline, tmp_path, capsys):
        # force a zero score: disjoint predictions for every truth customer
        clone = fresh_copy(pipeline, tmp_path)
        rows = evaluation.read_submission(clone["workdir"] / cli.SUBMISSION_FILE)
        unknown = tuple(f"{900000000 + i:010d}" for i in range(12))
        rewritten = [evaluation.SubmissionRow(r.customer_id, unknown) for r in rows]
        evaluation.write_submission(
            evaluation.Submission.of_rows(rewritten), clone["workdir"] / cli.SUBMISSION_FILE
        )
        assert run_cli("evaluate", *clone["base"]) == 0
        assert "map_at_12=0.000000" in capsys.readouterr().out
        report = json.loads((clone["workdir"] / cli.EVAL_REPORT_FILE).read_text())
        assert report["map_at_12"] == 0.0

    def test_perfect_submission_scores_one(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        transactions = corpus.load_saved_transactions(
            clone["workdir"] / cli.TRANSACTIONS_FILE, 7
        )[0]
        _, holdout = evaluation.temporal_split(transactions, holdout_days=7)
        truth = evaluation.build_ground_truth(holdout)
        filler = [f"{800000000 + i:010d}" for i in range(12)]
        rows = evaluation.read_submission(clone["workdir"] / cli.SUBMISSION_FILE)
        rewritten = []
        for row in rows:
            relevant = sorted(truth.get(row.customer_id, ()))
            ids = (relevant + [f for f in filler if f not in relevant])[:12]
            rewritten.append(evaluation.SubmissionRow(row.customer_id, tuple(ids)))
        evaluation.write_submission(
            evaluation.Submission.of_rows(rewritten), clone["workdir"] / cli.SUBMISSION_FILE
        )
        assert run_cli("evaluate", *clone["base"]) == 0
        assert "map_at_12=1.000000" in capsys.readouterr().out

    def test_spot_check_report(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        rows = evaluation.read_submission(clone["workdir"] / cli.SUBMISSION_FILE)
        customer = rows[0].customer_id
        assert run_cli("evaluate", *clone["base"], "--customer", customer) == 0
        out = capsys.readouterr().out
        assert f"customer: {customer}" in out
        assert "recommended items (12):" in out
        assert "shared product types:" in out

    def test_spot_check_shows_ingested_texts(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        assert run_cli("ingest", *clone["base"], "--text-columns", "prod_name") == 0
        assert run_cli("recommend", *clone["base"]) == 0
        rows = evaluation.read_submission(clone["workdir"] / cli.SUBMISSION_FILE)
        customer = rows[0].customer_id
        capsys.readouterr()
        assert run_cli("evaluate", *clone["base"], "--customer", customer) == 0
        out = capsys.readouterr().out
        text_of = {
            p.article_id: p.text
            for p in corpus.load_prepared(clone["workdir"] / cli.PREPARED_FILE)[0]
        }
        items = [line for line in out.splitlines() if line.startswith("  0")]
        assert len(items) > 12  # the recommended items and at least one purchase
        for line in items:
            assert line.endswith("  " + text_of[line.split()[0]]), line

    def test_spot_check_lists_recommendations_without_empty_similarity(
        self, pipeline, tmp_path, capsys
    ):
        clone = fresh_copy(pipeline, tmp_path)
        rows = evaluation.read_submission(clone["workdir"] / cli.SUBMISSION_FILE)
        customer = rows[0].customer_id
        assert run_cli("evaluate", *clone["base"], "--customer", customer) == 0
        out = capsys.readouterr().out
        assert "sim=" not in out
        lines = out.splitlines()
        start = lines.index("recommended items (12):") + 1
        articles = corpus.load_articles(clone["root"] / "articles.csv")
        type_of = {a.article_id: a.product_type_name for a in articles}
        text_of = {
            p.article_id: p.text
            for p in corpus.load_prepared(clone["workdir"] / cli.PREPARED_FILE)[0]
        }
        assert lines[start : start + 12] == [
            f"  {a}  {type_of[a]}  {text_of[a]}" for a in rows[0].article_ids
        ]

    def test_spot_check_of_a_customer_the_submission_lacks(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        transactions = corpus.load_saved_transactions(path, 7)[0]
        train_window, _ = evaluation.temporal_split(transactions, holdout_days=7)
        buyers = {train_window.customer_ids[c] for c in np.unique(train_window.customers)}
        rows = evaluation.read_submission(clone["workdir"] / cli.SUBMISSION_FILE)
        dropped = next(row.customer_id for row in rows if row.customer_id in buyers)
        kept = [row for row in rows if row.customer_id != dropped]
        evaluation.write_submission(
            evaluation.Submission.of_rows(kept), clone["workdir"] / cli.SUBMISSION_FILE
        )
        capsys.readouterr()
        assert run_cli("evaluate", *clone["base"], "--customer", dropped) == 0
        out = capsys.readouterr().out
        assert f"customer: {dropped}" in out
        assert "recommended items (0):\n  (none)\n" in out
        assert "purchased items (0):" not in out

    def test_spot_check_reads_no_articles_file(self, pipeline, tmp_path, capsys):
        # the product types are the ingested catalog's, whatever --articles names
        clone = fresh_copy(pipeline, tmp_path)
        base = clone["base"]
        (tmp_path / "other").mkdir()
        other = write_planted_inputs(tmp_path / "other")["articles_path"]
        reports = []
        for flags in (base, [*base[:2], *base[4:]], [*base[:3], other, *base[4:]]):
            capsys.readouterr()
            assert run_cli("evaluate", *flags, "--customer", "shopper000") == 0
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert "  ?  " not in reports[0]
        assert reports[0].count("  0") > 12  # the recommended items and at least one purchase

    def test_requires_submission(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        workdir.mkdir()
        (workdir / cli.INGEST_SUMMARY_FILE).write_text(
            '{"missing_description": {}, "prepared_sha256": ""}'
        )
        save_log(purchase_log([]), workdir / cli.TRANSACTIONS_FILE)
        rc = run_cli("evaluate", "--workdir", workdir)
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: MissingArtifactError: {workdir / cli.SUBMISSION_FILE} not found; "
            "run `titlerec recommend` first"
        )


class MallInfo2(ctypes.Structure):
    """glibc's ``struct mallinfo2``."""

    _fields_ = [
        (name, ctypes.c_size_t)
        for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                     "fsmblks", "uordblks", "fordblks", "keepcost")
    ]


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")


class TestHeapPin:
    @glibc_only
    def test_both_thresholds_accepted(self):
        # mallopt returns 1 on success and 0 for a value it refuses
        assert cli.pin_heap_thresholds() == (1, 1, 1)

    @glibc_only
    def test_pinned_thresholds_take_effect(self):
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "mallinfo2"):
            pytest.skip("mallinfo2 needs glibc 2.33")
        libc.mallinfo2.restype = MallInfo2
        libc.malloc.argtypes = (ctypes.c_size_t,)
        libc.malloc.restype = ctypes.c_void_p
        libc.free.argtypes = (ctypes.c_void_p,)
        cli.pin_heap_thresholds()
        mib = 1 << 20

        def mapped_blocks_while_holding(size):
            block = libc.malloc(size)
            assert block
            try:
                return libc.mallinfo2().hblks
            finally:
                libc.free(block)

        before = libc.mallinfo2().hblks
        # the mmap threshold is 32 MiB: a block above it gets its own mapping
        assert mapped_blocks_while_holding(33 * mib) == before + 1
        assert mapped_blocks_while_holding(31 * mib) == before
        # the 31 MiB freed at the top of the heap stay there: below the trim threshold
        assert libc.mallinfo2().keepcost >= 31 * mib

    def test_libc_without_mallopt_is_a_no_op(self, pipeline, tmp_path, monkeypatch):
        opened = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or object())
        assert cli.pin_heap_thresholds() == ()
        clone = fresh_copy(pipeline, tmp_path)
        assert run_cli("evaluate", *clone["base"]) == 0
        assert opened == [None, None]  # the command tried to pin, then ran


class TestWorkdirLock:
    def test_locked_workdir_refused(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        workdir.mkdir()
        (workdir / cli.LOCK_FILE).write_text("12345\n")
        rc = run_cli("stats", "--workdir", workdir)
        assert rc == 1
        assert "error: WorkdirLockedError" in capsys.readouterr().err

    def test_lock_names_running_holder(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        workdir.mkdir()
        (workdir / cli.LOCK_FILE).write_text(f"{os.getpid()}\n")
        assert run_cli("stats", "--workdir", workdir) == 1
        err = capsys.readouterr().err
        assert f"pid {os.getpid()} in {workdir / cli.LOCK_FILE} is running" in err
        assert (workdir / cli.LOCK_FILE).exists()

    def test_lock_names_stale_holder(self, tmp_path, capsys):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: the pid no longer names a process
        workdir = tmp_path / "w"
        workdir.mkdir()
        (workdir / cli.LOCK_FILE).write_text(f"{child.pid}\n")
        assert run_cli("stats", "--workdir", workdir) == 1
        err = capsys.readouterr().err
        assert f"pid {child.pid} in {workdir / cli.LOCK_FILE} is not running" in err
        assert err.count("\n") == 1

    def test_lock_without_pid_reported(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        workdir.mkdir()
        (workdir / cli.LOCK_FILE).write_text("")
        assert run_cli("stats", "--workdir", workdir) == 1
        assert f"{workdir / cli.LOCK_FILE} records no pid" in capsys.readouterr().err

    def test_lock_released_after_failure(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        rc = run_cli("stats", "--workdir", workdir)  # fails: nothing ingested
        assert rc == 1
        assert not (workdir / cli.LOCK_FILE).exists()
        capsys.readouterr()

    def test_lock_released_after_success(self, pipeline):
        assert not (pipeline["workdir"] / cli.LOCK_FILE).exists()


# the commands that read prepared_articles.tsv, by test id
PREPARED_READERS = {
    "stats": ["stats"],
    "train": ["train"],
    "recommend": ["recommend"],
    "evaluate-customer": ["evaluate", "--customer", "shopper000"],
}


def workdir_files(workdir):
    """Each file of ``workdir`` as its inode, mtime and bytes: a file written
    again, even with the same bytes, reads differently."""
    return {
        path.name: (path.stat().st_ino, path.stat().st_mtime_ns, path.read_bytes())
        for path in workdir.iterdir()
    }


class TestPreparedDigest:
    """stats, train, recommend and evaluate --customer read only the
    prepared_articles.tsv that ingest wrote: the sha256 ingest_summary.json
    records. They refuse another file before they write anything."""

    @pytest.mark.parametrize("command", PREPARED_READERS.values(), ids=PREPARED_READERS)
    def test_edited_title_refused(self, pipeline, tmp_path, capsys, command):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.PREPARED_FILE
        lines = path.read_text(encoding="utf-8").splitlines(True)
        article_id, text, *rest = lines[1].split("\t")
        lines[1] = "\t".join([article_id, text + " edited", *rest])
        path.write_text("".join(lines), encoding="utf-8")
        before = workdir_files(clone["workdir"])
        capsys.readouterr()
        assert run_cli(*command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: ArtifactFormatError: {path}: not the file "
            f"{clone['workdir'] / cli.INGEST_SUMMARY_FILE} records (its sha256 differs); "
            "re-run `titlerec ingest`"
        )
        assert captured.out == ""
        assert workdir_files(clone["workdir"]) == before

    @pytest.mark.parametrize("command", PREPARED_READERS.values(), ids=PREPARED_READERS)
    def test_summary_without_a_digest_refused(self, pipeline, tmp_path, capsys, command):
        # as an ingest that recorded no digest wrote it
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.INGEST_SUMMARY_FILE
        summary = json.loads(path.read_text(encoding="utf-8"))
        del summary["prepared_sha256"]
        path.write_text(json.dumps(summary), encoding="utf-8")
        before = workdir_files(clone["workdir"])
        capsys.readouterr()
        assert run_cli(*command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: ArtifactFormatError: {path}: not an ingest summary "
            "(KeyError: 'prepared_sha256')"
        )
        assert captured.out == ""
        assert workdir_files(clone["workdir"]) == before

    def test_evaluate_alone_does_not_read_the_prepared_file(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        (clone["workdir"] / cli.PREPARED_FILE).unlink()
        capsys.readouterr()
        assert run_cli("evaluate", *clone["base"]) == 0
        assert capsys.readouterr().out.startswith("map_at_12=")

    def test_summary_required(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.INGEST_SUMMARY_FILE
        path.unlink()
        capsys.readouterr()
        assert run_cli("train", *clone["base"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: MissingArtifactError: {path} not found; run `titlerec ingest` first"


# each file the workdir reader serves, and the commands that read it, by test id
READ_FILES = {
    cli.PREPARED_FILE: PREPARED_READERS,
    cli.TRANSACTIONS_FILE: {
        "train": ["train"], "recommend": ["recommend"], "evaluate": ["evaluate"],
    },
    cli.INGEST_SUMMARY_FILE: {**PREPARED_READERS, "evaluate": ["evaluate"]},
    cli.VOCAB_FILE: {"recommend": ["recommend"]},
    cli.CHECKPOINT_FILE: {"recommend": ["recommend"]},
    cli.SUBMISSION_FILE: {"evaluate": ["evaluate"]},
}
# the commands that read transactions.bin, by test id
LOG_READERS = READ_FILES[cli.TRANSACTIONS_FILE]


def _first_day_low_bit_flipped(blob, log):
    """The purchase log with the lowest bit of its first row's day flipped:
    after the magic, the counts, the customer table and the article table."""
    at = 24 + 4 * len(log.customer_ids) + sum(len(c.encode()) for c in log.customer_ids)
    at += 10 * len(log.article_ids)
    return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :]


class TestWorkdirReader:
    """After ingest every stage reads only the workdir, each file through
    ``cli._read``: an absent file is refused naming its writer, and a file
    ingest wrote is refused unless ingest_summary.json records its sha256."""

    def test_stages_after_ingest_read_no_input_file(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        workdir = clone["workdir"]
        for name in ("articles.csv", "transactions.csv"):
            (clone["root"] / name).unlink()
        for name in (cli.INDEX_FILE, cli.STATS_FILE, cli.VOCAB_FILE, cli.CHECKPOINT_FILE,
                     cli.LOSS_LOG_FILE, cli.SUBMISSION_FILE, cli.EVAL_REPORT_FILE):
            (workdir / name).unlink()
        for command in ("stats", "train", "recommend", "evaluate"):
            assert run_cli(command, *clone["base"]) == 0, command
        for path in pipeline["workdir"].iterdir():
            assert (workdir / path.name).read_bytes() == path.read_bytes(), path.name
        reports = []
        for world in (pipeline, clone):
            capsys.readouterr()
            assert run_cli("evaluate", *world["base"], "--customer", "shopper000") == 0
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0]

    @pytest.mark.parametrize(
        "name, command",
        [
            pytest.param(name, command, id=f"{name}-{test_id}")
            for name, readers in READ_FILES.items()
            for test_id, command in readers.items()
        ],
    )
    def test_absent_file_names_its_writer(self, pipeline, tmp_path, capsys, name, command):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / name
        path.unlink()
        before = workdir_files(clone["workdir"])
        capsys.readouterr()
        assert run_cli(*command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: MissingArtifactError: {path} not found; run `titlerec {cli.WRITERS[name]}` first"
        )
        assert captured.out == ""
        assert workdir_files(clone["workdir"]) == before

    @pytest.mark.parametrize("command", PREPARED_READERS.values(), ids=PREPARED_READERS)
    def test_three_column_prepared_file_refused(self, pipeline, tmp_path, capsys, command):
        # as an ingest that wrote no product type left it, with its digest recorded
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.PREPARED_FILE
        lines = path.read_text(encoding="utf-8").splitlines()
        blob = "".join(line.rsplit("\t", 1)[0] + "\n" for line in lines).encode("utf-8")
        path.write_bytes(blob)
        record_digest(path, hashlib.sha256(blob).hexdigest())
        before = workdir_files(clone["workdir"])
        capsys.readouterr()
        assert run_cli(*command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: MalformedRowError: {path}: header is not "
            "'article_id\\ttext\\ttext_len\\tproduct_type'; re-run `titlerec ingest`"
        )
        assert captured.out == ""
        assert workdir_files(clone["workdir"]) == before

    @pytest.mark.parametrize("command", LOG_READERS.values(), ids=LOG_READERS)
    def test_flipped_day_refused(self, pipeline, tmp_path, capsys, command):
        # a log that still parses, one day off in its first row
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        log = corpus.load_saved_transactions(path, 7)[0]
        path.write_bytes(_first_day_low_bit_flipped(path.read_bytes(), log))
        flipped = corpus.load_saved_transactions(path, 7)[0]
        assert abs(int(flipped.days[0]) - int(log.days[0])) == 1
        before = workdir_files(clone["workdir"])
        capsys.readouterr()
        assert run_cli(*command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: ArtifactFormatError: {path}: not the file "
            f"{clone['workdir'] / cli.INGEST_SUMMARY_FILE} records (its sha256 differs); "
            "re-run `titlerec ingest`"
        )
        assert captured.out == ""
        assert workdir_files(clone["workdir"]) == before

    @pytest.mark.parametrize("command", LOG_READERS.values(), ids=LOG_READERS)
    def test_summary_without_a_log_digest_refused(self, pipeline, tmp_path, capsys, command):
        # as an ingest that recorded no digest of the log wrote it
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.INGEST_SUMMARY_FILE
        summary = json.loads(path.read_text(encoding="utf-8"))
        del summary["transactions_sha256"]
        path.write_text(json.dumps(summary), encoding="utf-8")
        before = workdir_files(clone["workdir"])
        capsys.readouterr()
        assert run_cli(*command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: ArtifactFormatError: {path}: not an ingest summary "
            "(KeyError: 'transactions_sha256')"
        )
        assert captured.out == ""
        assert workdir_files(clone["workdir"]) == before

    def test_ingest_records_the_log_digest(self, pipeline):
        summary = json.loads((pipeline["workdir"] / cli.INGEST_SUMMARY_FILE).read_text())
        blob = (pipeline["workdir"] / cli.TRANSACTIONS_FILE).read_bytes()
        assert summary["transactions_sha256"] == hashlib.sha256(blob).hexdigest()


class TestErrorSurface:
    def test_single_line_parsable_stderr(self, tmp_path, capsys):
        rc = run_cli(
            "ingest",
            "--workdir", tmp_path / "w",
            "--articles", tmp_path / "missing.csv",
            "--transactions", tmp_path / "missing.csv",
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        name = lines[0].split(":")[1].strip()
        assert name.endswith("Error")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["train", "--epochs", "abc"], "argument --epochs: invalid int value: 'abc'"),
            (["train", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["train", "--dropout-rate", "0.1"], "unrecognized arguments: --dropout-rate 0.1"),
            (["recommend", "--pooling", "cls"], "unrecognized arguments: --pooling cls"),
            (
                ["ingest", "--holdout-days", "4294967296"],
                "holdout_days must be an integer >= 1 and <= 4294967295, got 4294967296",
            ),
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
        ],
        ids=["bad-value", "unknown-flag", "dropout-rate", "pooling", "holdout-beyond-uint32",
             "no-command", "unknown-command"],
    )
    def test_usage_error_is_one_line(self, tmp_path, capsys, args, message):
        rc = run_cli(*args, *(["--workdir", tmp_path / "w"] if args else []))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: InvalidConfigError: {message}")
        assert not (tmp_path / "w").exists()

    def test_holdout_beyond_uint32_writes_nothing(self, pipeline, tmp_path, capsys):
        # transactions.bin records the holdout as a uint32: a larger one is
        # refused before ingest reads an input or writes an artifact
        base = list(pipeline["base"])
        base[1] = workdir = tmp_path / "w"
        assert run_cli("ingest", *base, "--holdout-days", str(2**32)) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (
            "error: InvalidConfigError: holdout_days must be an integer >= 1 and"
            f" <= {2**32 - 1}, got {2**32}"
        )
        assert not workdir.exists()
        assert run_cli("ingest", *base, "--holdout-days", str(2**32 - 1)) == 0
        assert (workdir / cli.TRANSACTIONS_FILE).exists()
        capsys.readouterr()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("train", "--help")
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: titlerec train")


    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_unusable_workdir_is_one_line(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        workdir = blocker / "sub" if under else blocker
        assert run_cli("stats", "--workdir", workdir) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        kind = "NotADirectoryError" if under else "FileExistsError"
        assert line.startswith(f"error: {kind}: ") and str(workdir) in line
        assert captured.out == ""
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["train", "recommend"])
    def test_log_over_another_catalog_refused(self, pipeline, tmp_path, capsys, command):
        # the log lacks the catalog's last article, as if the catalog gained it after ingest
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        log = corpus.load_saved_transactions(path, 7)[0]
        last = log.article_ids[-1]
        rows = [row for row in log_rows(log) if row[2] != last]
        save_log(purchase_log(rows, log.article_ids[:-1]), path)
        before = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        capsys.readouterr()
        assert run_cli(command, *clone["base"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: UnknownArticleError: {path}: its article table is not the catalog of "
            f"{clone['workdir'] / cli.PREPARED_FILE}; re-run `titlerec ingest`"
        )
        after = {path.name: path.read_bytes() for path in clone["workdir"].iterdir()}
        assert after == before

    def test_older_workdir_transactions_refused(self, pipeline, tmp_path, capsys):
        # an earlier ingest wrote the log as text, to transactions.tsv
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        rows = log_rows(corpus.load_saved_transactions(path, 7)[0])
        path.unlink()
        (clone["workdir"] / "transactions.tsv").write_text(
            "t_dat\tcustomer_id\tarticle_id\tprice\tsales_channel_id\n"
            + "".join(f"{day}\t{customer}\t{article}\t0.05\t2\n" for day, customer, article in rows),
            encoding="utf-8",
        )
        for command in ("train", "recommend", "evaluate"):
            assert run_cli(command, *clone["base"]) == 1, command
            (line,) = capsys.readouterr().err.splitlines()
            assert line == (
                f"error: MissingArtifactError: {path} not found; run `titlerec ingest` first"
            )

    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    @pytest.mark.parametrize("fault", sorted(BROKEN_LOGS))
    def test_corrupt_purchase_log_refused(self, pipeline, tmp_path, capsys, fault, command):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        corrupt, message = BROKEN_LOGS[fault]
        path.write_bytes(corrupt(path.read_bytes(), corpus.load_saved_transactions(path, 7)[0]))
        # recommend reads the log before it embeds a missing index
        (clone["workdir"] / cli.INDEX_FILE).unlink()
        capsys.readouterr()
        assert run_cli(command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: ArtifactFormatError: {path}: {message}")
        assert captured.out == ""
        assert not (clone["workdir"] / cli.INDEX_FILE).exists()

    @pytest.mark.parametrize(
        "artifact, row, field, bad, command, message",
        [
            (cli.PREPARED_FILE, 4, 2, "four", "stats", "row 4: bad text_len 'four'"),
            (cli.PREPARED_FILE, 1, 2, "1.5", "train", "row 1: bad text_len '1.5'"),
            (cli.PREPARED_FILE, 3, 0, "0000000001", "recommend",
             "row 3: article_id '0000000001' does not ascend"),
        ],
    )
    def test_corrupt_workdir_row_named(
        self, pipeline, tmp_path, capsys, artifact, row, field, bad, command, message
    ):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / artifact
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[row].split("\t")
        cells[field] = bad
        lines[row] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli(command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == f"error: MalformedRowError: {path}: {message}"

    def test_vocabulary_that_lost_lines_named(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        vocab_path = clone["workdir"] / cli.VOCAB_FILE
        lines = vocab_path.read_text(encoding="utf-8").splitlines(True)
        vocab_path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("recommend", *clone["base"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        # the vocabulary is named with both sizes; the intact checkpoint is not blamed
        assert line == (
            f"error: CheckpointMismatchError: {vocab_path}: {len(lines) // 2} tokens, but "
            f"{clone['workdir'] / cli.CHECKPOINT_FILE} was trained with {len(lines)}; "
            "both must come from the same `titlerec train`"
        )

    def test_other_config_mismatch_still_names_checkpoint(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        base = clone["base"]
        assert run_cli("recommend", *base[:-2], "--seed", "0", "--d-model", "16") == 1
        (line,) = capsys.readouterr().err.splitlines()
        checkpoint = clone["workdir"] / cli.CHECKPOINT_FILE
        assert line.startswith(f"error: CheckpointMismatchError: {checkpoint}: stored config")

    def test_catalog_without_articles_is_one_error_line(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        articles = clone["root"] / "articles.csv"
        header = articles.read_text(encoding="utf-8").splitlines(True)[0]
        articles.write_text(header, encoding="utf-8")
        assert run_cli("ingest", *clone["base"]) == 0
        (clone["workdir"] / cli.INDEX_FILE).unlink()
        capsys.readouterr()
        assert run_cli("recommend", *clone["base"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: EmptyCorpusError: cannot build an index over zero articles"

    def test_nan_weight_names_the_first_article_it_reaches(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        checkpoint = clone["workdir"] / cli.CHECKPOINT_FILE
        params, _ = enc.load_checkpoint(checkpoint)
        params["token_embedding"][7] = math.nan
        enc.save_checkpoint(params, checkpoint)
        (clone["workdir"] / cli.INDEX_FILE).unlink()
        vocab = Vocabulary.load(clone["workdir"] / cli.VOCAB_FILE)
        first = next(
            article.article_id
            for article in corpus.load_prepared(clone["workdir"] / cli.PREPARED_FILE)[0]
            if 7 in vocab.word_ids(article.text)[: params.config.max_len - 2]
        )
        capsys.readouterr()
        assert run_cli("recommend", *clone["base"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: DegenerateEmbeddingError: article {first}: ")

    @pytest.mark.parametrize(
        "artifact, corrupt, command",
        [
            (cli.INGEST_SUMMARY_FILE, lambda blob: blob[: len(blob) // 2], "stats"),
            (cli.INGEST_SUMMARY_FILE, lambda blob: b"{}", "stats"),
            (cli.VOCAB_FILE, lambda blob: blob + blob.splitlines(True)[-1], "recommend"),
            (cli.CHECKPOINT_FILE, lambda blob: blob + b"0123456789", "recommend"),
            (cli.CHECKPOINT_FILE, _overflowing_dims, "recommend"),
            (cli.CHECKPOINT_FILE, lambda blob: b"TRENC001" + blob[8:], "recommend"),
            (cli.CHECKPOINT_FILE, lambda blob: blob[:-8], "recommend"),
        ],
        ids=["summary-halved", "summary-empty-object", "vocab-repeated-line",
             "checkpoint-trailing-bytes", "checkpoint-overflowing-dims", "checkpoint-trenc001",
             "checkpoint-one-float-short"],
    )
    def test_corrupt_artifact_named(self, pipeline, tmp_path, capsys, artifact, corrupt, command):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / artifact
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        assert run_cli(command, *clone["base"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: ArtifactFormatError: {path}: ")


def _at_middle(blob, drop, insert):
    """``blob`` with ``drop`` bytes at its middle replaced by ``insert``."""
    middle = len(blob) // 2
    return blob[:middle] + insert + blob[middle + drop :]


# The corruptions the sweep applies to each artifact, as functions of its bytes.
CORRUPTIONS = {
    "emptied": lambda blob: b"",
    "halved": lambda blob: blob[: len(blob) // 2],
    "last-byte-dropped": lambda blob: blob[:-1],
    "middle-byte-flipped": lambda blob: _at_middle(blob, 1, bytes([blob[len(blob) // 2] ^ 1])),
    "bom-inserted": lambda blob: b"\xff\xfe" + blob,
    "nul-inserted": lambda blob: _at_middle(blob, 0, b"\0"),
    "junk-appended": lambda blob: blob + b"junk \xff\n",
    "crlf-line-ends": lambda blob: blob.replace(b"\n", b"\r\n"),
    "trailing-newline-stripped": lambda blob: blob.removesuffix(b"\n"),
}
# each artifact the sweep corrupts, and the commands that read it
READERS = {
    cli.PREPARED_FILE: ("stats", "train", "recommend"),
    cli.TRANSACTIONS_FILE: ("train", "recommend", "evaluate"),
    cli.VOCAB_FILE: ("recommend",),
    cli.CHECKPOINT_FILE: ("recommend",),
    cli.INDEX_FILE: ("recommend",),
    cli.SUBMISSION_FILE: ("evaluate",),
    cli.INGEST_SUMMARY_FILE: ("stats", "train", "recommend", "evaluate"),
}
# what each command writes; not recommend's index.bin, a cache that records
# the digests of the checkpoint and catalog file it was built from, which
# change with a byte that leaves their content as it was
OUTPUTS = {
    "stats": (cli.STATS_FILE,),
    "train": (cli.VOCAB_FILE, cli.CHECKPOINT_FILE, cli.LOSS_LOG_FILE),
    "recommend": (cli.SUBMISSION_FILE,),
    "evaluate": (cli.EVAL_REPORT_FILE,),
}
def _sweep_cases():
    for artifact, commands in READERS.items():
        for corruption in CORRUPTIONS:
            for command in commands:
                case = (artifact, corruption, command)
                yield pytest.param(*case, id="-".join(case))


class TestCorruptionSweep:
    """Every artifact a command reads, under each corruption: the command
    either writes what it writes from the clean workdir and exits 0, or
    exits 1 with one ``error:`` line; an exception escaping ``cli.main``
    fails the case. index.bin is a cache: every corruption of it is
    rebuilt to a fresh build's bytes, and recommend exits 0."""

    @pytest.mark.parametrize("artifact, corruption, command", _sweep_cases())
    def test_fails_closed(self, pipeline, tmp_path, capsys, artifact, corruption, command):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / artifact
        blob = path.read_bytes()
        corrupt = CORRUPTIONS[corruption](blob)
        if corrupt == blob:
            pytest.skip(f"{corruption} leaves {artifact} as it is")
        path.write_bytes(corrupt)
        capsys.readouterr()
        rc = run_cli(command, *clone["base"])
        captured = capsys.readouterr()
        if artifact == cli.INDEX_FILE:
            assert rc == 0
            assert path.read_bytes() == (pipeline["workdir"] / artifact).read_bytes()
        if rc == 0:
            for name in OUTPUTS[command]:
                written = (clone["workdir"] / name).read_bytes()
                assert written == (pipeline["workdir"] / name).read_bytes(), name
        else:
            assert rc == 1
            (line,) = captured.err.splitlines()
            assert re.fullmatch(r"error: \w+: .+", line)
            assert captured.out == ""


class TestInputFileErrors:
    """Unreadable inputs keep the one-line ``error: InputFileError`` contract."""

    def ingest(self, tmp_path, articles, transactions):
        return run_cli(
            "ingest",
            "--workdir", tmp_path / "w",
            "--articles", articles,
            "--transactions", transactions,
        )

    def assert_input_error(self, capsys, *fragments):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: InputFileError: ")
        for fragment in fragments:
            assert fragment in lines[0]

    def test_non_utf8_articles(self, tmp_path, capsys):
        inputs = small_inputs(tmp_path)
        articles = inputs["articles_path"]
        latin1 = "pl\xe4in".encode("latin-1")
        articles.write_bytes(articles.read_bytes().replace(b"plain", latin1))
        assert self.ingest(tmp_path, articles, inputs["transactions_path"]) == 1
        self.assert_input_error(capsys, str(articles), "utf-8")

    def test_directory_as_articles(self, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        transactions = small_inputs(tmp_path)["transactions_path"]
        assert self.ingest(tmp_path, folder, transactions) == 1
        self.assert_input_error(capsys, str(folder))

    def test_permission_denied(self, tmp_path, capsys, monkeypatch):
        inputs = small_inputs(tmp_path)
        articles = inputs["articles_path"]

        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli.corpus, "load_articles", denied)
        assert self.ingest(tmp_path, articles, inputs["transactions_path"]) == 1
        self.assert_input_error(capsys, "Permission denied", str(articles))

    def test_malformed_csv(self, tmp_path, capsys):
        inputs = small_inputs(tmp_path)
        transactions = inputs["transactions_path"]
        oversized = "x" * (csv.field_size_limit() + 1)
        transactions.write_text(
            transactions.read_text() + f"2020-03-03,{oversized},0000000001,0.05,2\n"
        )
        assert self.ingest(tmp_path, inputs["articles_path"], transactions) == 1
        self.assert_input_error(capsys, str(transactions), "field larger than field limit")


class TestLibraryExample:
    def test_readme_example_runs(self, pipeline, tmp_path, monkeypatch, capsys):
        """The README's library example runs as printed, against a trained
        workdir named run1."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library use", 1)[1]
        example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        shutil.copytree(pipeline["workdir"], tmp_path / "run1")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        exec(compile(example, "README.md", "exec"), {})
        hits = [line.split() for line in capsys.readouterr().out.splitlines()]
        prepared = corpus.load_prepared(tmp_path / "run1" / cli.PREPARED_FILE)[0]
        catalog = {article.article_id for article in prepared}
        assert len(hits) == 5 and all(article_id in catalog for article_id, _ in hits)
        sims = [float(sim) for _, sim in hits]
        assert sims == sorted(sims, reverse=True)


class TestBenchmarkReader:
    def test_benchmark_reads_the_catalog_and_the_vectors(self, pipeline, tmp_path, monkeypatch):
        """The benchmark's own TRECIDX1 reader (``perfbench/checks.py``),
        which its k-NN oracle ranks with, reads recommend's index.bin as the
        catalog's ids and the vectors the program loads."""
        clone = fresh_copy(pipeline, tmp_path)
        workdir = clone["workdir"]
        (workdir / cli.INDEX_FILE).unlink()
        assert run_cli("recommend", *clone["base"]) == 0
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))  # checks.py imports its neighbours
        spec = importlib.util.spec_from_file_location("perfbench_checks", perfbench / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, checks)  # its dataclasses look it up
        spec.loader.exec_module(checks)
        ids, vectors = checks.read_index(workdir / cli.INDEX_FILE)
        catalog = tuple(a.article_id for a in corpus.load_prepared(workdir / cli.PREPARED_FILE)[0])
        assert tuple(ids) == catalog
        digests = tuple(
            hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in (cli.CHECKPOINT_FILE, cli.PREPARED_FILE)
        )
        loaded = ix.load_index(workdir / cli.INDEX_FILE, catalog, vectors.shape[1], digests)
        assert vectors.tobytes() == loaded.vectors.tobytes()
