"""Command-line pipeline: ingest -> stats -> train -> recommend -> evaluate.

Each command reads and writes named artifacts inside a working directory,
so every stage can be rerun and inspected on its own. All randomness is
seeded through the config; identical inputs, config and seed produce
byte-identical artifacts.

The workdir rules. ``ingest`` alone reads the raw inputs (``--articles``
and ``--transactions``); every later stage reads only the workdir, so it
accepts those flags and ignores them. A stage reads each workdir file
through ``_read``, which refuses an absent file naming the command that
writes it (``WRITERS``). ``ingest_summary.json`` records the sha256 of the
two other files ``ingest`` writes (``INGEST_DIGESTS``), and ``_read``
refuses either file when the bytes it parsed have another digest.
``index.bin`` is the one file read otherwise: a cache that
``index.load_index`` reads, rebuilt when absent or stale. ``evaluate``
reads no train record: it scores whatever submission.csv holds, so a
model setting given to it, such as ``--d-model 8``, is accepted and unused.

The holdout convention is shared by every stage that needs it: the final
``holdout_days`` calendar days of the joined transaction log are reserved
as ground truth, and training, customer profiles and the popularity
ranking used for serving all draw from the remaining earlier window.
``ingest`` records its ``holdout_days`` in ``transactions.bin``, and
``train``, ``recommend`` and ``evaluate`` use that value and refuse to run
with another given one, which would train on the scored days or score
against other ones. Each
stage reads ``transactions.bin`` once, into a ``corpus.PurchaseLog`` of
integer columns, and splits, groups and counts it with array operations.

An article's one code in every stage is its row in the catalog, which
``ingest`` sorts by ascending article id: the row of
``prepared_articles.tsv``, of the log's article table, of the training
inventory and of ``index.bin``.

Every setting is a field of ``PipelineConfig``, declared there once with its
default. ``FIELD_RULES`` gives each field's type and bounds, and
``build_parser`` makes of each field the flag ``--<field-name>`` (dashes for
underscores), with its type and help text taken from that table. The
model's shape rules (bounds, d_model divisible by n_heads) live in
``encoder.EncoderConfig`` alone; ``load_config`` runs them with the rest,
before any artifact is read. The settings an artifact records (``RECORDED``:
the model's shape in checkpoint.bin, ``holdout_days`` in transactions.bin)
are None unless given: the stage that writes the artifact then takes the
default of ``RECORDED``, and a later stage the recorded value, refusing a
given one that disagrees.

Artifacts (inside the workdir), by the command that writes them:
  ingest
    prepared_articles.tsv  per article, by ascending id: the cleaned one-line
                           text, its word count and the product type (read
                           by stats, train, recommend, evaluate --customer)
    transactions.bin       catalog-joined purchase log (TRLOG002), in input
                           order, over the catalog's article table, with the
                           holdout days it was ingested with (read by train,
                           recommend, evaluate)
    ingest_summary.json    row counts, the missing-description histogram and
                           the sha256 of prepared_articles.tsv and of
                           transactions.bin (read with either file, and by
                           stats)
  stats
    stats.txt              text-length and missing-description histograms
  train
    vocab.txt              one token per line, line number = id (read by
                           recommend)
    checkpoint.bin         encoder shape and weights (TRENC002; read by
                           recommend)
    loss_log.tsv           step, mlm, np, total per training step
  recommend
    index.bin              cache of the catalog's embeddings (TRECIDX1): the
                           catalog's ids, the vectors, and the sha256 of the
                           checkpoint and of prepared_articles.tsv they were
                           built from and of the vectors; reused only when
                           every byte is what this run would write, and
                           rebuilt otherwise
    submission.csv         customer_id,prediction rows (read by evaluate)
  evaluate
    eval_report.json       map_at_12 / scored / excluded
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import Field, dataclass, fields, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import corpus, evaluation, index as index_mod, objectives
from . import encoder as enc
from .errors import (
    ArtifactFormatError,
    CheckpointMismatchError,
    InputFileError,
    InvalidConfigError,
    MissingArtifactError,
    TitlerecError,
    UnknownArticleError,
    WorkdirLockedError,
)
from .ioutil import atomic_write_text
from .tokenizer import FIRST_WORD_ID, Vocabulary, build_vocab, encode_single

PREPARED_FILE = "prepared_articles.tsv"
TRANSACTIONS_FILE = "transactions.bin"
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

# The command that writes each workdir file a later stage reads
WRITERS = {
    **dict.fromkeys((PREPARED_FILE, TRANSACTIONS_FILE, INGEST_SUMMARY_FILE), "ingest"),
    **dict.fromkeys((VOCAB_FILE, CHECKPOINT_FILE), "train"),
    SUBMISSION_FILE: "recommend",
}
# The key under which the ingest summary records the sha256 of each other
# file that ingest writes
INGEST_DIGESTS = {PREPARED_FILE: "prepared_sha256", TRANSACTIONS_FILE: "transactions_sha256"}

# glibc's mallopt parameters (malloc.h) and the values pinned at startup
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
TRIM_THRESHOLD_BYTES = 64 << 20
MMAP_THRESHOLD_BYTES = 32 << 20
ARENA_MAX = 1

# Failures to read an input, reported as InputFileError like a missing file;
# any other OSError is reported under its own name.
INPUT_ERRORS = (
    FileNotFoundError,
    PermissionError,
    IsADirectoryError,
    UnicodeDecodeError,
    csv.Error,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline, each declared here once: a JSON config
    file may set any field, ``build_parser`` makes a flag of each, and the
    flags override the file."""

    articles: str | None = None
    transactions: str | None = None
    workdir: str = "workdir"
    customer_list: str | None = None
    text_columns: tuple[str, ...] = corpus.TEXTUAL_COLUMNS
    min_freq: int = 1
    max_vocab: int = 30000
    # None where not given: see RECORDED
    max_len: int | None = None
    d_model: int | None = None
    n_heads: int | None = None
    n_layers: int | None = None
    d_ff: int | None = None
    epochs: int = 1
    batch_size: int = 16
    max_steps: int | None = None
    seed: int = 0
    negatives_per_positive: int = 1
    learning_rate: float = 1e-3
    holdout_days: int | None = None

    def encoder_config(self, vocab_size: int) -> enc.EncoderConfig:
        """The shape ``train`` builds: each field as given, or its default."""
        return enc.EncoderConfig(
            vocab_size, **{name: self.written(name) for name in MODEL_SHAPE_FIELDS}
        )

    def written(self, name: str) -> int:
        """A setting of RECORDED as the stage that records it takes it."""
        value = getattr(self, name)
        return RECORDED[name][1] if value is None else value


MODEL_SHAPE_FIELDS = ("d_model", "n_heads", "n_layers", "d_ff", "max_len")

# Settings that an artifact records, each with that artifact and the value
# its writer takes when the setting is not given: ``train`` records the
# model's shape in checkpoint.bin, ``ingest`` the holdout days in
# transactions.bin. A stage that reads the artifact takes the recorded value
# when the setting is not given, and refuses a given one that disagrees.
RECORDED = {
    **{name: (CHECKPOINT_FILE, default)
       for name, default in zip(MODEL_SHAPE_FIELDS, (64, 4, 2, 128, 48))},
    "holdout_days": (TRANSACTIONS_FILE, 7),
}


# What each config field accepts: its type, then the (comparison, limit)
# tests its value must pass. A field whose default is None also accepts None.
# The model fields carry only their type: EncoderConfig holds their rules,
# and load_config runs them. Outside
# these a run would fail mid-way with a traceback or silently train nothing;
# ``epochs`` 0 (and ``max_steps`` 0) deliberately keeps the seed-initialized
# checkpoint.
FIELD_RULES = {
    **dict.fromkeys(("articles", "transactions", "workdir", "customer_list"), (str,)),
    "text_columns": (tuple,),
    **dict.fromkeys(("min_freq", "batch_size", "negatives_per_positive"), (int, (">=", 1))),
    # transactions.bin (TRLOG002) records it as a uint32
    "holdout_days": (int, (">=", 1), ("<=", 2**32 - 1)),
    **dict.fromkeys(("max_len", "d_model", "n_heads", "n_layers", "d_ff"), (int,)),
    **dict.fromkeys(("epochs", "max_steps", "seed"), (int, (">=", 0))),
    "max_vocab": (int, (">=", FIRST_WORD_ID + 1)),
    "learning_rate": (float, (">", 0.0)),
}
COMPARISONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}
# each type's test, its name and how argparse reads its flag: an int counts
# as a float, a bool as neither
TYPES = {
    int: (lambda v: type(v) is int, "an integer", {"type": int}),
    float: (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number",
            {"type": float}),
    str: (lambda v: type(v) is str, "a string", {}),
    tuple: (lambda v: type(v) is tuple and all(type(c) is str for c in v) and bool(v),
            "a nonempty list of strings", {"nargs": "+"}),
}


def _accepts(name: str) -> str:
    """What a config field accepts, in the words of its error and its flag's help."""
    kind, *tests = FIELD_RULES[name]
    return TYPES[kind][1] + " and".join(f" {op} {limit!r}" for op, limit in tests)


def _default(setting: Field) -> str:
    """A setting's default, in the words of its flag's help."""
    if setting.name not in RECORDED:
        return str(setting.default)
    artifact, value = RECORDED[setting.name]
    return f"as {artifact} records it; {value} for the run that writes it"


def load_config(config_path: str | None, overrides: dict) -> PipelineConfig:
    """Defaults, then config-file values, then non-None flag overrides,
    checked against FIELD_RULES and then against EncoderConfig's rules."""
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
        config = replace(config, **raw)
    applicable = {k: v for k, v in overrides.items() if k in known and v is not None}
    config = replace(config, **applicable)
    if type(config.text_columns) is list:
        config = replace(config, text_columns=tuple(config.text_columns))
    for f in fields(PipelineConfig):
        kind, *tests = FIELD_RULES[f.name]
        value = getattr(config, f.name)
        if value is None and f.default is None:
            continue
        if not TYPES[kind][0](value) or not all(
            COMPARISONS[op](value, limit) for op, limit in tests
        ):
            raise InvalidConfigError(f"{f.name} must be {_accepts(f.name)}, got {value!r}")
    config.encoder_config(FIRST_WORD_ID + 1)  # its rules, at the least vocabulary allowed
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


def _read(workdir: Path, name: str, load, *args):
    """``load(path, *args)`` of the workdir file ``name``, refused when the file
    is absent, naming its writer, and for a file of ``INGEST_DIGESTS`` unless
    the sha256 that ``load`` returns last is the one the ingest summary records.

    Each caller names its loader at the call (``corpus.load_prepared``) and
    no table holds one, so a module attribute replaced after import, as
    ``perfbench/tracing.install`` replaces them, is the function called."""
    path = workdir / name
    if not path.exists():
        raise MissingArtifactError(f"{path} not found; run `titlerec {WRITERS[name]}` first")
    loaded = load(path, *args)
    if name in INGEST_DIGESTS:
        _, digests = _read(workdir, INGEST_SUMMARY_FILE, _load_summary)
        if digests[name] != loaded[-1]:
            raise ArtifactFormatError(
                f"{path}: not the file {workdir / INGEST_SUMMARY_FILE} records (its sha256 "
                "differs); re-run `titlerec ingest`"
            )
    return loaded


def _load_summary(path: Path) -> tuple[dict[str, tuple[int, int]], dict[str, str]]:
    """The ingest summary's missing-description histogram, index_name ->
    (with description, without), and the sha256 it records of each file of
    ``INGEST_DIGESTS``, by file name; refused unless it holds them all."""
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        return {
            str(name): (int(with_desc), int(without_desc))
            for name, (with_desc, without_desc) in summary["missing_description"].items()
        }, {name: summary[key] for name, key in INGEST_DIGESTS.items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ArtifactFormatError(
            f"{path}: not an ingest summary ({type(exc).__name__}: {exc})"
        ) from None


def _load_catalog(
    config: PipelineConfig,
) -> tuple[list[corpus.PreparedArticle], str, corpus.PurchaseLog, int]:
    """The prepared catalog and its sha256, then the ingested log and the
    holdout days it was ingested with, which a given ``holdout_days`` must
    equal; refused unless the log's article table is the catalog."""
    workdir = Path(config.workdir)
    prepared, prepared_sha256 = _read(workdir, PREPARED_FILE, corpus.load_prepared)
    joined, holdout_days, _ = _read(
        workdir, TRANSACTIONS_FILE, corpus.load_saved_transactions, config.holdout_days
    )
    if joined.article_ids != tuple(p.article_id for p in prepared):
        raise UnknownArticleError(
            f"{workdir / TRANSACTIONS_FILE}: its article table is not the catalog of "
            f"{workdir / PREPARED_FILE}; re-run `titlerec ingest`"
        )
    return prepared, prepared_sha256, joined, holdout_days


def _write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_ingest(config: PipelineConfig) -> str:
    if config.articles is None or config.transactions is None:
        raise InvalidConfigError("ingest needs --articles and --transactions paths")
    workdir = Path(config.workdir)
    articles = corpus.load_articles(config.articles)
    prepared = corpus.prepare_articles(articles, config.text_columns)
    transactions = corpus.load_transactions(config.transactions)
    joined = transactions.of_articles(tuple(p.article_id for p in prepared))
    dropped = len(transactions) - len(joined)
    sessions = int(joined.sessions()[1].max(initial=-1)) + 1

    prepared_sha256 = corpus.save_prepared(prepared, workdir / PREPARED_FILE)
    holdout_days = config.written("holdout_days")
    transactions_sha256 = corpus.save_transactions(joined, workdir / TRANSACTIONS_FILE, holdout_days)
    _write_json(
        workdir / INGEST_SUMMARY_FILE,
        {
            "articles": len(articles),
            "transactions": len(transactions),
            "joined": len(joined),
            "dropped": dropped,
            "sessions": sessions,
            "missing_description": corpus.missing_description_histogram(articles),
            "prepared_sha256": prepared_sha256,
            "transactions_sha256": transactions_sha256,
        },
    )
    return (
        f"articles={len(articles)} transactions={len(transactions)} "
        f"joined={len(joined)} dropped={dropped} sessions={sessions}"
    )


def cmd_stats(config: PipelineConfig) -> str:
    workdir = Path(config.workdir)
    prepared, _ = _read(workdir, PREPARED_FILE, corpus.load_prepared)
    if not prepared:
        raise MissingArtifactError("prepared corpus is empty; rerun ingest on real data")
    missing, _ = _read(workdir, INGEST_SUMMARY_FILE, _load_summary)
    lines = ["# text length histogram", "length\tcount"]
    lines += [f"{length}\t{count}" for length, count in corpus.text_length_histogram(prepared).items()]
    lines += ["", "# missing descriptions by index_name", "index_name\twith_desc\twithout_desc"]
    for name, (with_desc, without_desc) in sorted(missing.items()):
        lines.append(f"{name}\t{with_desc}\t{without_desc}")
    report = "\n".join(lines) + "\n"
    atomic_write_text(workdir / STATS_FILE, report)
    return report.rstrip("\n")


# an overflowing step is reported once, by train_step's non-finite guard
@np.errstate(over="ignore", invalid="ignore")
def cmd_train(config: PipelineConfig) -> str:
    workdir = Path(config.workdir)
    prepared, _, joined, holdout_days = _load_catalog(config)
    train_window, _ = evaluation.temporal_split(joined, holdout_days)

    vocab = build_vocab(prepared, config.min_freq, config.max_vocab)
    params = enc.init_params(config.encoder_config(len(vocab)), config.seed)
    state = objectives.init_optimizer(params, config.learning_rate)
    rng = np.random.default_rng(config.seed)

    # each article's word ids, looked up once for its masked rows and its pairs
    word_ids = [vocab.word_ids(p.text) for p in prepared]
    max_len = params.config.max_len
    titles = objectives.maskable_titles(word_ids, max_len)
    positives = objectives.positive_table(train_window, config.negatives_per_positive)

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
            step_titles = title_order[s * batch : (s + 1) * batch]
            masked_batch = objectives.mask_titles(
                encode_single([word_ids[titles[i]] for i in step_titles], max_len),
                vocab,
                rng,
            )
            # a step's pairs are sampled and encoded when it trains them
            slots = pair_order[s * batch : (s + 1) * batch]
            pair_batch = objectives.encode_training_pairs(
                objectives.sample_pairs(positives, slots, rng), word_ids, max_len
            )
            record = objectives.train_step(params, state, masked_batch, pair_batch)
            log_lines.append(
                f"{record.step}\t{record.mlm_mean!r}\t{record.np_mean!r}\t{record.total!r}"
            )
            steps_done += 1
            last_total = record.total

    # written only now, so a failed run leaves the last vocab/checkpoint pair
    vocab.save(workdir / VOCAB_FILE)
    enc.save_checkpoint(params, workdir / CHECKPOINT_FILE)
    atomic_write_text(workdir / LOSS_LOG_FILE, "\n".join(log_lines) + "\n")
    if last_total is None:
        return f"steps=0 vocab={len(vocab)} (no trainable sequences; checkpoint is the seed init)"
    return f"steps={steps_done} vocab={len(vocab)} final_total={last_total:.6f}"


def _load_customer_universe(config: PipelineConfig, joined: corpus.PurchaseLog) -> list[str]:
    universe = set(joined.customer_ids)  # a saved log's table holds only used ids
    if config.customer_list is not None:
        # a byte-order mark, as Windows editors write, is not part of the first id
        try:
            text = Path(config.customer_list).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise InputFileError(f"{config.customer_list}: {exc}") from None
        universe.update(line.strip() for line in text.splitlines())
    universe.discard("")
    return sorted(universe)


def cmd_recommend(config: PipelineConfig) -> str:
    workdir = Path(config.workdir)
    vocab = _read(workdir, VOCAB_FILE, Vocabulary.load)
    params, checkpoint_sha256 = _read(workdir, CHECKPOINT_FILE, enc.load_checkpoint)
    # the model's shape is the checkpoint's; a setting given must agree
    disagreeing = [
        f"{name}={getattr(config, name)}"
        for name in MODEL_SHAPE_FIELDS
        if getattr(config, name) not in (None, getattr(params.config, name))
    ]
    if disagreeing:
        raise CheckpointMismatchError(
            f"{workdir / CHECKPOINT_FILE}: stored config {params.config} != expected "
            f"{', '.join(disagreeing)}"
        )
    if params.config.vocab_size != len(vocab):
        # the vocabulary lost or gained lines, not the checkpoint
        raise CheckpointMismatchError(
            f"{workdir / VOCAB_FILE}: {len(vocab)} tokens, but {workdir / CHECKPOINT_FILE} was "
            f"trained with {params.config.vocab_size}; both must come from the same `titlerec train`"
        )
    prepared, prepared_sha256, joined, holdout_days = _load_catalog(config)

    index_path = workdir / INDEX_FILE
    catalog = joined.article_ids
    digests = (checkpoint_sha256, prepared_sha256)
    article_index = index_mod.load_index(index_path, catalog, params.config.d_model, digests)
    if article_index is None:
        # absent, or not every byte what this run would write
        article_index = index_mod.build_index(prepared, params, vocab)
        index_mod.save_index(article_index, catalog, index_path, digests)
    train_window, _ = evaluation.temporal_split(joined, holdout_days)
    customers = _load_customer_universe(config, joined)
    picks = index_mod.serve(
        customers,
        train_window,
        article_index,
        index_mod.popularity_ranking(train_window),
        evaluation.PREDICTION_WIDTH,
    )
    evaluation.write_submission(
        evaluation.Submission(tuple(customers), picks, catalog),
        workdir / SUBMISSION_FILE,
    )
    return f"customers={len(customers)} articles={len(article_index)}"


def cmd_evaluate(config: PipelineConfig, spot_check_customer: str | None = None) -> str:
    workdir = Path(config.workdir)
    joined, holdout_days, _ = _read(
        workdir, TRANSACTIONS_FILE, corpus.load_saved_transactions, config.holdout_days
    )
    train_window, holdout = evaluation.temporal_split(joined, holdout_days)
    truth = evaluation.build_ground_truth(holdout)
    submission = _read(workdir, SUBMISSION_FILE, evaluation.read_submission)
    report = evaluation.map_at_12(submission, truth)
    summary = (
        f"map_at_12={report.map_at_12:.6f} scored={report.scored_customer_count} "
        f"excluded={report.excluded_customer_count}"
    )
    if spot_check_customer is not None:  # built, and so refused, before the report is written
        prepared, _ = _read(workdir, PREPARED_FILE, corpus.load_prepared)
        # map_at_12 above refused a repeated customer, so one row at most is theirs
        customers = submission.customer_ids
        recommended = (
            list(submission[customers.index(spot_check_customer)].article_ids)
            if spot_check_customer in customers
            else []
        )
        spot = evaluation.manual_eval_report(spot_check_customer, train_window, recommended, prepared)
        summary += "\n\n" + spot.rstrip("\n")
    _write_json(
        workdir / EVAL_REPORT_FILE,
        {
            "map_at_12": report.map_at_12,
            "scored": report.scored_customer_count,
            "excluded": report.excluded_customer_count,
        },
    )
    return summary


class OneLineErrorParser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors (a flag's value it cannot
    read, an unknown flag, a missing command) raise ``InvalidConfigError``
    instead of printing the usage and exiting 2, so they keep the one-line
    error contract. ``--help`` still prints and exits 0."""

    def error(self, message: str) -> NoReturn:
        raise InvalidConfigError(message)


def build_parser() -> OneLineErrorParser:
    shared = OneLineErrorParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override it")
    for f in fields(PipelineConfig):
        shared.add_argument(
            "--" + f.name.replace("_", "-"),
            **TYPES[FIELD_RULES[f.name][0]][2],
            help=f"{_accepts(f.name)} (default: {_default(f)})",
        )

    # the subcommands' parsers take this parser's class
    parser = OneLineErrorParser(
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
    """Fix glibc's malloc trim and mmap thresholds and its arena count;
    return mallopt's results.

    By default glibc gives the top of the heap back to the kernel when more
    than the trim threshold is free, and serves blocks above the mmap
    threshold with their own mappings, raising both as big blocks are
    freed. Training allocates and frees the same activation sizes in every
    pass, so the process would keep faulting the same pages in again.
    32 MiB is glibc's own ceiling for its dynamic mmap threshold on 64-bit,
    and glibc keeps the trim threshold at twice the mmap threshold, so this
    is the state its dynamic rule tends to, reached at once.

    glibc also gives a new thread that allocates its own malloc arena, a
    heap beside the main one that keeps its own freed pages. The helper
    threads of ``index.build_index`` and of a training step
    (``passes.run_passes``) would each get one, and the peak resident set
    would grow by the activations of the passes they ran (by 4.1 MB for
    embedding on the benchmark's `catalog` workload). With one arena every
    thread allocates from the main heap, under the thresholds above, and
    the peak grows only by what the second pass in flight holds at once
    (about 4 MB for `catalog`'s training).

    Where libc has no ``mallopt`` (another C library or platform) nothing
    is done and the result is empty.
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
        mallopt(M_ARENA_MAX, ARENA_MAX),
    )


def main(argv: list[str] | None = None) -> int:
    pin_heap_thresholds()
    try:
        args = vars(build_parser().parse_args(argv))
        command = args.pop("command")
        config_path = args.pop("config", None)
        spot_check = args.pop("customer", None)
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
    except (TitlerecError, OSError, *INPUT_ERRORS) as exc:
        kind = "InputFileError" if isinstance(exc, INPUT_ERRORS) else type(exc).__name__
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
