"""Command-line pipeline: ingest -> stats -> train -> recommend -> evaluate.

Each command reads and writes named artifacts inside a working directory,
so every stage can be rerun and inspected on its own. All randomness is
seeded through the config; identical inputs, config and seed produce
byte-identical artifacts.

The holdout convention is shared by every stage that needs it: the final
``holdout_days`` calendar days of the joined transaction log are reserved
as ground truth, and training, customer profiles and the popularity
ranking used for serving all draw from the remaining earlier window. Each
stage reads ``transactions.tsv`` once, into a ``corpus.PurchaseLog`` of
integer columns, and splits, groups and counts it with array operations.

Artifacts (inside the workdir):
    prepared_articles.tsv  cleaned one-line text per article
    transactions.tsv       catalog-joined purchase log, in input order
    ingest_summary.json    row counts and the missing-description histogram
    stats.txt              text-length and missing-description histograms
    vocab.txt              one token per line, line number = id
    checkpoint.bin         encoder weights (TRENC001)
    loss_log.tsv           step, mlm, np, total per training step
    index.bin              article embedding matrix (TRECIDX1) plus the
                           sha256 of the checkpoint and of
                           prepared_articles.tsv, and the pooling, it was
                           built from
    submission.csv         customer_id,prediction rows
    eval_report.json       map_at_12 / scored / excluded
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import corpus, evaluation, index as index_mod, objectives
from . import encoder as enc
from .errors import (
    CheckpointMismatchError,
    InvalidConfigError,
    MissingArtifactError,
    TitlerecError,
    WorkdirLockedError,
)
from .ioutil import atomic_write_text
from .tokenizer import FIRST_WORD_ID, Vocabulary, build_vocab, encode_single

PREPARED_FILE = "prepared_articles.tsv"
TRANSACTIONS_FILE = "transactions.tsv"
INGEST_SUMMARY_FILE = "ingest_summary.json"
STATS_FILE = "stats.txt"
VOCAB_FILE = "vocab.txt"
CHECKPOINT_FILE = "checkpoint.bin"
LOSS_LOG_FILE = "loss_log.tsv"
INDEX_FILE = "index.bin"
SUBMISSION_FILE = "submission.csv"
EVAL_REPORT_FILE = "eval_report.json"
LOCK_FILE = ".lock"

LOSS_LOG_HEADER = "step\tmlm\tnp\ttotal"

# glibc's mallopt parameters (malloc.h) and the values pinned at startup
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD_BYTES = 64 << 20
MMAP_THRESHOLD_BYTES = 32 << 20

# Failures to read an input, reported as InputFileError like a missing file.
INPUT_ERRORS = (
    FileNotFoundError,
    PermissionError,
    IsADirectoryError,
    UnicodeDecodeError,
    csv.Error,
)


# Least accepted value of the integer training and window knobs; below it
# a run would fail mid-way or silently train nothing. ``epochs`` 0 (and
# ``max_steps`` 0) deliberately keeps the seed-initialized checkpoint.
LEAST_VALUES = {
    "epochs": 0,
    "max_steps": 0,
    "batch_size": 1,
    "negatives_per_positive": 1,
    "holdout_days": 1,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline; a JSON config file may set any field
    and command-line flags override the file."""

    articles: str | None = None
    transactions: str | None = None
    workdir: str = "workdir"
    customer_list: str | None = None
    text_columns: tuple[str, ...] = corpus.DEFAULT_TEXT_COLUMNS
    min_freq: int = 1
    max_vocab: int = 30000
    max_len: int = 48
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    dropout_rate: float = 0.0
    layer_norm_epsilon: float = 1e-5
    epochs: int = 1
    batch_size: int = 16
    max_steps: int | None = None
    seed: int = 0
    negatives_per_positive: int = 1
    learning_rate: float = 1e-3
    holdout_days: int = 7
    top_n: int = 12
    pooling: str = "mean"

    def encoder_config(self, vocab_size: int) -> enc.EncoderConfig:
        return enc.EncoderConfig(
            vocab_size=vocab_size,
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
            d_ff=self.d_ff,
            max_len=self.max_len,
            dropout_rate=self.dropout_rate,
            layer_norm_epsilon=self.layer_norm_epsilon,
        )


def load_config(config_path: str | None, overrides: dict) -> PipelineConfig:
    """Defaults, then config-file values, then non-None flag overrides."""
    known = {f.name for f in fields(PipelineConfig)}
    config = PipelineConfig()
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"{config_path}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise InvalidConfigError(f"{config_path}: top-level value must be an object")
        unknown = sorted(set(raw) - known)
        if unknown:
            raise InvalidConfigError(f"{config_path}: unknown option(s) {', '.join(unknown)}")
        if "text_columns" in raw:
            raw["text_columns"] = tuple(raw["text_columns"])
        config = replace(config, **raw)
    applicable = {k: v for k, v in overrides.items() if k in known and v is not None}
    if "text_columns" in applicable:
        applicable["text_columns"] = tuple(applicable["text_columns"])
    config = replace(config, **applicable)
    for name, least in LEAST_VALUES.items():
        value = getattr(config, name)
        if value is not None and (type(value) is not int or value < least):
            raise InvalidConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return config


def _lock_holder(lock_path: Path) -> str:
    """Who holds a lock: the pid its file records and whether that process runs."""
    try:
        pid = int(lock_path.read_text(encoding="ascii"))
    except (OSError, ValueError):
        pid = 0  # unreadable, or left by a run killed before it wrote its pid
    if pid < 1:
        return f"{lock_path} records no pid; remove it if no other run is active"
    try:
        os.kill(pid, 0)  # signal 0 only checks that the process exists
    except (ProcessLookupError, OverflowError):
        return f"pid {pid} in {lock_path} is not running; remove the stale lock"
    except PermissionError:
        pass  # it exists, under another user
    return f"pid {pid} in {lock_path} is running"


@contextmanager
def workdir_lock(workdir: Path):
    """Advisory single-writer lock: a .lock file created exclusively."""
    workdir.mkdir(parents=True, exist_ok=True)
    lock_path = workdir / LOCK_FILE
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise WorkdirLockedError(f"{workdir} is in use: {_lock_holder(lock_path)}") from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        yield
    finally:
        lock_path.unlink(missing_ok=True)


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path} not found; run `{produced_by}` first")
    return path


def _write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_ingest(config: PipelineConfig) -> str:
    if config.articles is None or config.transactions is None:
        raise InvalidConfigError("ingest needs --articles and --transactions paths")
    workdir = Path(config.workdir)
    articles = corpus.load_articles(config.articles)
    prepared = corpus.prepare_articles(articles, config.text_columns)
    transactions = corpus.load_transactions(config.transactions)
    joined = transactions.of_articles(p.article_id for p in prepared)
    dropped = len(transactions) - len(joined)
    sessions = int(joined.sessions()[1].max(initial=-1)) + 1

    corpus.save_prepared(prepared, workdir / PREPARED_FILE)
    corpus.save_transactions(joined, workdir / TRANSACTIONS_FILE)
    histogram = corpus.missing_description_histogram(articles)
    _write_json(
        workdir / INGEST_SUMMARY_FILE,
        {
            "articles": len(articles),
            "transactions": len(transactions),
            "joined": len(joined),
            "dropped": dropped,
            "sessions": sessions,
            "missing_description": {k: list(v) for k, v in histogram.items()},
        },
    )
    return (
        f"articles={len(articles)} transactions={len(transactions)} "
        f"joined={len(joined)} dropped={dropped} sessions={sessions}"
    )


def cmd_stats(config: PipelineConfig) -> str:
    workdir = Path(config.workdir)
    prepared = corpus.load_prepared(_require(workdir / PREPARED_FILE, "titlerec ingest"))
    if not prepared:
        raise MissingArtifactError("prepared corpus is empty; rerun ingest on real data")
    summary = json.loads(
        _require(workdir / INGEST_SUMMARY_FILE, "titlerec ingest").read_text(encoding="utf-8")
    )
    lines = ["# text length histogram", "length\tcount"]
    for length, count in corpus.text_length_histogram(prepared).items():
        lines.append(f"{length}\t{count}")
    lines.append("")
    lines.append("# missing descriptions by index_name")
    lines.append("index_name\twith_desc\twithout_desc")
    for name, (with_desc, without_desc) in sorted(summary["missing_description"].items()):
        lines.append(f"{name}\t{with_desc}\t{without_desc}")
    report = "\n".join(lines) + "\n"
    atomic_write_text(workdir / STATS_FILE, report)
    return report.rstrip("\n")


def cmd_train(config: PipelineConfig) -> str:
    workdir = Path(config.workdir)
    prepared = corpus.load_prepared(_require(workdir / PREPARED_FILE, "titlerec ingest"))
    joined = corpus.load_saved_transactions(
        _require(workdir / TRANSACTIONS_FILE, "titlerec ingest")
    )
    train_window, _ = evaluation.temporal_split(joined, config.holdout_days)

    vocab = build_vocab(prepared, config.min_freq, config.max_vocab)
    vocab.save(workdir / VOCAB_FILE)
    params = enc.init_params(config.encoder_config(len(vocab)), config.seed)
    state = objectives.init_optimizer(params, config.learning_rate)
    rng = np.random.default_rng(config.seed)

    # each article's word ids, looked up once for its masked rows and its pairs,
    # and the articles whose title keeps a word to mask within the max_len - 2
    # words that encode_single keeps
    word_ids = [vocab.word_ids(p.text) for p in prepared]
    titles = [
        row
        for row, ids in enumerate(word_ids)
        if any(token_id >= FIRST_WORD_ID for token_id in ids[: config.max_len - 2])
    ]
    positives = objectives.positive_table(
        train_window, [p.article_id for p in prepared], config.negatives_per_positive
    )

    batch = config.batch_size
    step_budget = math.inf if config.max_steps is None else config.max_steps
    log_lines = [LOSS_LOG_HEADER]
    steps_done = 0
    last_total = None
    for _ in range(config.epochs):
        if steps_done >= step_budget:
            break
        title_order = rng.permutation(len(titles)) if titles else []
        pair_order = rng.permutation(positives.slot_count) if len(positives) else []
        n_steps = max(math.ceil(len(titles) / batch), math.ceil(len(pair_order) / batch))
        for s in range(n_steps):
            if steps_done >= step_budget:
                break
            masked_batch = [
                objectives.apply_masking(
                    encode_single(word_ids[titles[i]], config.max_len), vocab, rng
                )
                for i in title_order[s * batch : (s + 1) * batch]
            ]
            # a step's pairs are sampled and encoded when it trains them
            slots = pair_order[s * batch : (s + 1) * batch]
            pair_batch = (
                objectives.encode_training_pairs(
                    objectives.sample_pairs(positives, slots, rng), word_ids, config.max_len
                )
                if len(slots)
                else []
            )
            params, state, record = objectives.train_step(
                params, state, masked_batch, pair_batch, rng
            )
            log_lines.append(
                f"{record.step}\t{record.mlm_mean!r}\t{record.np_mean!r}\t{record.total!r}"
            )
            steps_done += 1
            last_total = record.total

    enc.save_checkpoint(params, workdir / CHECKPOINT_FILE)
    atomic_write_text(workdir / LOSS_LOG_FILE, "\n".join(log_lines) + "\n")
    if last_total is None:
        return f"steps=0 vocab={len(vocab)} (no trainable sequences; checkpoint is the seed init)"
    return f"steps={steps_done} vocab={len(vocab)} final_total={last_total:.6f}"


def _load_customer_universe(config: PipelineConfig, joined: corpus.PurchaseLog) -> list[str]:
    seen = np.bincount(joined.customers, minlength=len(joined.customer_ids))
    universe = {joined.customer_ids[code] for code in np.flatnonzero(seen).tolist()}
    universe.discard("")
    if config.customer_list is not None:
        for line in Path(config.customer_list).read_text(encoding="utf-8").splitlines():
            if line.strip():
                universe.add(line.strip())
    return sorted(universe)


def cmd_recommend(config: PipelineConfig) -> str:
    workdir = Path(config.workdir)
    vocab = Vocabulary.load(_require(workdir / VOCAB_FILE, "titlerec train"))
    checkpoint_path = _require(workdir / CHECKPOINT_FILE, "titlerec train")
    params = enc.load_checkpoint(
        checkpoint_path, expected_config=config.encoder_config(len(vocab))
    )
    prepared = corpus.load_prepared(_require(workdir / PREPARED_FILE, "titlerec ingest"))
    joined = corpus.load_saved_transactions(
        _require(workdir / TRANSACTIONS_FILE, "titlerec ingest")
    )
    train_window, _ = evaluation.temporal_split(joined, config.holdout_days)

    index_path = workdir / INDEX_FILE
    catalog = tuple(p.article_id for p in prepared)
    source = index_mod.IndexSource(
        hashlib.sha256(checkpoint_path.read_bytes()).hexdigest(),
        hashlib.sha256((workdir / PREPARED_FILE).read_bytes()).hexdigest(),
        config.pooling,
    )
    stored = index_mod.load_index(index_path) if index_path.exists() else None
    if stored is not None and stored.source == source:
        article_index = stored
    elif (
        stored is not None
        and stored.source is not None
        and replace(stored.source, prepared_sha256=source.prepared_sha256) == source
        and stored.article_ids != catalog
    ):
        # this checkpoint and pooling over another article set: the catalog
        # was re-ingested with other articles after training
        raise CheckpointMismatchError(
            f"{index_path} does not cover the prepared catalog; delete it to rebuild"
        )
    else:
        # absent, or built from other texts, checkpoint or pooling, or of unknown origin
        article_index = index_mod.build_index(prepared, params, vocab, config.pooling, source)
        index_mod.save_index(article_index, index_path)

    customers = _load_customer_universe(config, joined)
    served = index_mod.serve(
        customers,
        train_window,
        article_index,
        index_mod.popularity_ranking(train_window),
        config.top_n,
    )
    rows = [evaluation.SubmissionRow(c, picks) for c, picks in zip(customers, served)]
    evaluation.write_submission(rows, workdir / SUBMISSION_FILE)
    return f"customers={len(rows)} articles={len(article_index)}"


def cmd_evaluate(config: PipelineConfig, spot_check_customer: str | None = None) -> str:
    workdir = Path(config.workdir)
    joined = corpus.load_saved_transactions(
        _require(workdir / TRANSACTIONS_FILE, "titlerec ingest")
    )
    train_window, holdout = evaluation.temporal_split(joined, config.holdout_days)
    truth = evaluation.build_ground_truth(holdout)
    rows = evaluation.read_submission(_require(workdir / SUBMISSION_FILE, "titlerec recommend"))
    report = evaluation.map_at_12(rows, truth)
    _write_json(
        workdir / EVAL_REPORT_FILE,
        {
            "map_at_12": report.map_at_12,
            "scored": report.scored_customer_count,
            "excluded": report.excluded_customer_count,
        },
    )
    summary = (
        f"map_at_12={report.map_at_12:.6f} scored={report.scored_customer_count} "
        f"excluded={report.excluded_customer_count}"
    )
    if spot_check_customer is None:
        return summary
    if config.articles is None:
        raise InvalidConfigError("--customer spot check needs --articles for product types")
    articles = corpus.load_articles(config.articles)
    prepared = corpus.load_prepared(_require(workdir / PREPARED_FILE, "titlerec ingest"))
    recommended = [
        article_id
        for row in rows
        if row.customer_id == spot_check_customer
        for article_id in row.article_ids
    ]
    spot = evaluation.manual_eval_report(
        spot_check_customer, train_window, recommended, articles, prepared
    )
    return summary + "\n\n" + spot.rstrip("\n")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override it")
    shared.add_argument("--workdir", help="artifact directory (default: workdir)")
    shared.add_argument("--seed", type=int, help="seed for every random draw")
    shared.add_argument("--articles", help="articles CSV path")
    shared.add_argument("--transactions", help="transactions CSV path")
    shared.add_argument("--customer-list", dest="customer_list", help="extra customer ids, one per line")
    shared.add_argument("--text-columns", dest="text_columns", nargs="+", help="catalog text columns to merge")
    shared.add_argument("--min-freq", dest="min_freq", type=int)
    shared.add_argument("--max-vocab", dest="max_vocab", type=int)
    shared.add_argument("--max-len", dest="max_len", type=int)
    shared.add_argument("--d-model", dest="d_model", type=int)
    shared.add_argument("--n-heads", dest="n_heads", type=int)
    shared.add_argument("--n-layers", dest="n_layers", type=int)
    shared.add_argument("--d-ff", dest="d_ff", type=int)
    shared.add_argument("--dropout-rate", dest="dropout_rate", type=float)
    shared.add_argument("--epochs", type=int)
    shared.add_argument("--batch-size", dest="batch_size", type=int)
    shared.add_argument("--max-steps", dest="max_steps", type=int)
    shared.add_argument("--learning-rate", dest="learning_rate", type=float)
    shared.add_argument(
        "--negatives-per-positive", dest="negatives_per_positive", type=int
    )
    shared.add_argument("--holdout-days", dest="holdout_days", type=int)
    shared.add_argument("--top-n", dest="top_n", type=int)
    shared.add_argument("--pooling", choices=["mean", "cls"])

    parser = argparse.ArgumentParser(
        prog="titlerec",
        description="Train a title encoder and serve top-12 article recommendations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[shared], help="load, clean and join the input CSVs")
    sub.add_parser("stats", parents=[shared], help="corpus histograms from the ingest artifacts")
    sub.add_parser("train", parents=[shared], help="build the vocabulary and train the encoder")
    sub.add_parser("recommend", parents=[shared], help="embed, index and write the submission")
    evaluate = sub.add_parser("evaluate", parents=[shared], help="score the submission with MAP@12")
    evaluate.add_argument("--customer", help="also print a manual spot-check report for one customer")
    return parser


def pin_heap_thresholds() -> tuple[int, ...]:
    """Fix glibc's malloc trim and mmap thresholds; return mallopt's results.

    By default glibc gives the top of the heap back to the kernel when more
    than the trim threshold is free, and serves blocks above the mmap
    threshold with their own mappings, raising both as big blocks are
    freed. Training allocates and frees the same activation sizes in every
    pass, so the process would keep faulting the same pages in again.
    32 MiB is glibc's own ceiling for its dynamic mmap threshold on 64-bit,
    and glibc keeps the trim threshold at twice the mmap threshold, so this
    is the state its dynamic rule tends to, reached at once. Where libc has
    no ``mallopt`` (another C library or platform) nothing is done and the
    result is empty.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES),
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
    )


def main(argv: list[str] | None = None) -> int:
    pin_heap_thresholds()
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    spot_check = args.pop("customer", None)
    try:
        config = load_config(config_path, args)
        with workdir_lock(Path(config.workdir)):
            if command == "ingest":
                output = cmd_ingest(config)
            elif command == "stats":
                output = cmd_stats(config)
            elif command == "train":
                output = cmd_train(config)
            elif command == "recommend":
                output = cmd_recommend(config)
            else:
                output = cmd_evaluate(config, spot_check)
    except TitlerecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: InputFileError: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
