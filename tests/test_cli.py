import csv
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from titlerec import cli, corpus, evaluation
from titlerec import encoder as enc
from titlerec import index as ix
from titlerec.errors import InvalidConfigError

from synth import ARTICLE_HEADER, TRANSACTION_HEADER, purchase_log, small_inputs, to_csv

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
        assert config.top_n == 12
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
        joined = corpus.load_saved_transactions(workdir / cli.TRANSACTIONS_FILE)
        rows = zip(joined.days.tolist(), joined.customers.tolist())
        assert summary["joined"] == len(joined)
        assert summary["sessions"] == len(set(rows))

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
        corpus.save_prepared([], workdir / cli.PREPARED_FILE)
        (workdir / cli.INGEST_SUMMARY_FILE).write_text("{}")
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
        params = enc.load_checkpoint(pipeline["workdir"] / cli.CHECKPOINT_FILE)
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

    def test_dropout_rate_reaches_training(self, pipeline, tmp_path):
        logs = []
        for name in ("first", "second"):
            clone = fresh_copy(pipeline, tmp_path / name)
            assert run_cli("train", *clone["base"], "--dropout-rate", "0.5") == 0
            logs.append((clone["workdir"] / cli.LOSS_LOG_FILE).read_bytes())
        assert logs[0] == logs[1]
        assert logs[0] != (pipeline["workdir"] / cli.LOSS_LOG_FILE).read_bytes()

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
        params = enc.load_checkpoint(clone["workdir"] / cli.CHECKPOINT_FILE)
        seeded = enc.init_params(params.config, seed=0)
        assert all(
            (params[name] == seeded[name]).all() for name in params.names()
        )

    def test_requires_ingest(self, tmp_path, capsys):
        rc = run_cli("train", "--workdir", tmp_path / "w")
        assert rc == 1
        assert "error: MissingArtifactError" in capsys.readouterr().err


class TestRecommend:
    def test_one_row_per_customer_in_universe(self, pipeline):
        rows = evaluation.read_submission(pipeline["workdir"] / cli.SUBMISSION_FILE)
        transactions = corpus.load_saved_transactions(
            pipeline["workdir"] / cli.TRANSACTIONS_FILE
        )
        universe = sorted({transactions.customer_ids[c] for c in transactions.customers.tolist()})
        assert [r.customer_id for r in rows] == universe
        assert all(len(r.article_ids) == 12 for r in rows)

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
            clone["workdir"] / cli.TRANSACTIONS_FILE
        )
        train_window, _ = evaluation.temporal_split(transactions, holdout_days=7)
        popularity = ix.popularity_ranking(train_window)
        prepared = corpus.load_prepared(clone["workdir"] / cli.PREPARED_FILE)
        backfill = [p.article_id for p in sorted(prepared, key=lambda p: p.article_id)]
        expected = (popularity + [a for a in backfill if a not in popularity])[:12]
        assert list(by_customer["zzz_never_bought"]) == expected

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        clone = fresh_copy(pipeline, tmp_path)
        before = (clone["workdir"] / cli.SUBMISSION_FILE).read_bytes()
        index_before = (clone["workdir"] / cli.INDEX_FILE).read_bytes()
        assert run_cli("recommend", *clone["base"]) == 0
        assert (clone["workdir"] / cli.SUBMISSION_FILE).read_bytes() == before
        assert (clone["workdir"] / cli.INDEX_FILE).read_bytes() == index_before

    def test_stale_index_detected(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        prepared = corpus.load_prepared(clone["workdir"] / cli.PREPARED_FILE)
        corpus.save_prepared(prepared[:-1], clone["workdir"] / cli.PREPARED_FILE)
        rc = run_cli("recommend", *clone["base"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: CheckpointMismatchError" in err
        assert "delete it to rebuild" in err

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

    def test_pooling_change_rebuilds_index(self, pipeline, tmp_path):
        stale = fresh_copy(pipeline, tmp_path / "stale")
        fresh = fresh_copy(pipeline, tmp_path / "fresh")
        (fresh["workdir"] / cli.INDEX_FILE).unlink()
        for world in (stale, fresh):
            assert run_cli("recommend", *world["base"], "--pooling", "cls") == 0
        index = ix.load_index(stale["workdir"] / cli.INDEX_FILE)
        assert index.source.pooling == "cls"
        for name in (cli.INDEX_FILE, cli.SUBMISSION_FILE):
            assert (stale["workdir"] / name).read_bytes() == (
                fresh["workdir"] / name
            ).read_bytes(), name

    def test_index_without_source_is_rebuilt(self, pipeline, tmp_path):
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.INDEX_FILE
        current = path.read_bytes()
        loaded = ix.load_index(path)
        ix.save_index(ix.EmbeddingIndex(loaded.article_ids, loaded.vectors), path)
        assert path.read_bytes() != current
        assert run_cli("recommend", *clone["base"]) == 0
        assert path.read_bytes() == current

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

    def test_checkpoint_config_mismatch_detected(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        base = clone["base"]
        rc = run_cli("recommend", *base[:-2], "--seed", "0", "--d-model", "16")
        assert rc == 1
        assert "error: CheckpointMismatchError" in capsys.readouterr().err

    def test_dropout_trained_checkpoint_served_without_flag(self, pipeline, tmp_path):
        submissions = []
        for flags in ([], ["--dropout-rate", "0.5"]):
            clone = fresh_copy(pipeline, tmp_path / str(len(flags)))
            assert run_cli("train", *clone["base"], "--dropout-rate", "0.5") == 0
            assert run_cli("recommend", *clone["base"], *flags) == 0
            submissions.append((clone["workdir"] / cli.SUBMISSION_FILE).read_bytes())
        assert submissions[0] == submissions[1]

    def test_requires_train(self, tmp_path, capsys):
        rc = run_cli("recommend", "--workdir", tmp_path / "w")
        assert rc == 1
        assert "error: MissingArtifactError" in capsys.readouterr().err


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
        evaluation.write_submission(rewritten, clone["workdir"] / cli.SUBMISSION_FILE)
        assert run_cli("evaluate", *clone["base"]) == 0
        assert "map_at_12=0.000000" in capsys.readouterr().out
        report = json.loads((clone["workdir"] / cli.EVAL_REPORT_FILE).read_text())
        assert report["map_at_12"] == 0.0

    def test_perfect_submission_scores_one(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        transactions = corpus.load_saved_transactions(
            clone["workdir"] / cli.TRANSACTIONS_FILE
        )
        _, holdout = evaluation.temporal_split(transactions, holdout_days=7)
        truth = evaluation.build_ground_truth(holdout)
        filler = [f"{800000000 + i:010d}" for i in range(12)]
        rows = evaluation.read_submission(clone["workdir"] / cli.SUBMISSION_FILE)
        rewritten = []
        for row in rows:
            relevant = sorted(truth.get(row.customer_id, ()))
            ids = (relevant + [f for f in filler if f not in relevant])[:12]
            rewritten.append(evaluation.SubmissionRow(row.customer_id, tuple(ids)))
        evaluation.write_submission(rewritten, clone["workdir"] / cli.SUBMISSION_FILE)
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
            for p in corpus.load_prepared(clone["workdir"] / cli.PREPARED_FILE)
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
            for p in corpus.load_prepared(clone["workdir"] / cli.PREPARED_FILE)
        }
        assert lines[start : start + 12] == [
            f"  {a}  {type_of[a]}  {text_of[a]}" for a in rows[0].article_ids
        ]

    def test_spot_check_needs_articles_path(self, pipeline, tmp_path, capsys):
        clone = fresh_copy(pipeline, tmp_path)
        base = clone["base"]
        articles_free = [base[0], base[1], *base[4:]]  # drop --articles pair
        rc = run_cli("evaluate", *articles_free, "--customer", "shopper000")
        assert rc == 1
        assert "error: InvalidConfigError" in capsys.readouterr().err

    def test_requires_submission(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        workdir.mkdir()
        corpus.save_transactions(purchase_log([]), workdir / cli.TRANSACTIONS_FILE)
        rc = run_cli("evaluate", "--workdir", workdir)
        assert rc == 1
        assert "error: MissingArtifactError" in capsys.readouterr().err


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
        assert cli.pin_heap_thresholds() == (1, 1)

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


    def test_older_workdir_transactions_refused(self, pipeline, tmp_path, capsys):
        # an ingest before price and sales_channel_id were dropped wrote five columns
        clone = fresh_copy(pipeline, tmp_path)
        path = clone["workdir"] / cli.TRANSACTIONS_FILE
        lines = path.read_text(encoding="utf-8").splitlines()
        old = [lines[0] + "\tprice\tsales_channel_id"] + [line + "\t0.05\t2" for line in lines[1:]]
        path.write_text("\n".join(old) + "\n", encoding="utf-8")
        for command in ("train", "recommend", "evaluate"):
            assert run_cli(command, *clone["base"]) == 1, command
            captured = capsys.readouterr()
            (line,) = captured.err.splitlines()
            assert line.startswith("error: MalformedRowError: ")
            assert "re-run `titlerec ingest`" in line

    @pytest.mark.parametrize(
        "artifact, row, field, bad, command, message",
        [
            (cli.TRANSACTIONS_FILE, 3, 0, "2020-13-45", "evaluate",
             "row 3: bad t_dat '2020-13-45'"),
            (cli.TRANSACTIONS_FILE, 2, 0, "2020-02-30", "train", "row 2: bad t_dat '2020-02-30'"),
            (cli.PREPARED_FILE, 4, 2, "four", "stats", "row 4: bad text_len 'four'"),
            (cli.PREPARED_FILE, 1, 2, "1.5", "train", "row 1: bad text_len '1.5'"),
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
