"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions of this
package by name and counts pairs from their arguments and results. These
tests fail when a rename or a new signature would leave its spans absent or
its pair counts wrong. The tracer's source is read as it is and run in a
module of its own, so nothing is written beside it."""

import contextlib
import importlib
import inspect
import io
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from titlerec import cli
from titlerec import encoder as enc
from titlerec import objectives as obj
from titlerec.tokenizer import Vocabulary, encode_single

from synth import small_inputs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the layers whose targets must all exist; the corpus and index targets
# still name functions the columnar log and block serving replaced
CHECKED_LAYERS = ("encoder", "objectives", "tokenizer", "evaluation", "cli")


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("layer", CHECKED_LAYERS)
def test_every_target_exists(tracing, layer):
    module = importlib.import_module(f"titlerec.{layer}")
    missing = [n for n in tracing.TARGETS[layer] if not callable(getattr(module, n, None))]
    assert not missing, f"{layer}: {missing}"


# the corpus and index names the tracer is to wrap next, as "module.attribute"
# paths from the package; several of their signatures changed with the
# one-article-numbering layout, so their presence is pinned here
NEXT_TARGETS = (
    "corpus.PurchaseLog.sessions",
    "corpus.PurchaseLog.of_articles",
    "index.build_index",
    "index.serve",
    "index.customer_profiles",
    "index.similarities",
    "index.top_rows",
    "index.popularity_ranking",
)


@pytest.mark.parametrize("target", NEXT_TARGETS)
def test_next_wrap_targets_exist(target):
    layer, *path = target.split(".")
    found = importlib.import_module(f"titlerec.{layer}")
    for name in path:
        found = getattr(found, name, None)
    assert callable(found), target


def test_pair_batch_is_the_fourth_train_step_parameter():
    # the pairs-trained hook reads it by position, then by name
    assert list(inspect.signature(obj.train_step).parameters)[3] == "pair_batch"


def test_pair_counts_are_the_pairs(tracing):
    words = ["red", "blue", "green", "top", "skirt"]
    vocab = Vocabulary(words)
    word_ids = [vocab.word_ids(f"{word} top") for word in words]
    pairs = obj.SampledPairs(
        np.array([0, 0, 2]), np.array([1, 3, 4]), np.array([1, 0, 1], dtype=np.int8)
    )
    config = enc.EncoderConfig(
        vocab_size=len(vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=8
    )
    params = enc.init_params(config, seed=0)
    recorder = tracing.Recorder()
    encode = recorder.wrap("objectives.encode_training_pairs", obj.encode_training_pairs)
    step = recorder.wrap("objectives.train_step", obj.train_step)
    rng = np.random.default_rng(0)
    masked = obj.mask_titles(encode_single(word_ids[:1], config.max_len), vocab, rng)
    pair_batch = encode(pairs, word_ids, config.max_len)
    # positionally, as training calls it
    step(params, obj.init_optimizer(params), masked, pair_batch)
    assert len(pair_batch) == len(pairs) == 3
    assert dict(recorder.counts) == {
        "objectives.pairs_encoded": 3,
        "objectives.pairs_trained": 3,
    }


# the loaders a stage passes to the workdir reader; the tracer replaces each
# module attribute, so a reader that held the function itself would run it
# untimed and its metrics would read 0
WORKDIR_LOADERS = ("corpus.load_prepared", "corpus.load_saved_transactions",
                   "encoder.load_checkpoint")


def test_workdir_loaders_are_traced(tracing, tmp_path):
    inputs = small_inputs(tmp_path)
    flags = ["--workdir", str(tmp_path / "w"), "--articles", str(inputs["articles_path"]),
             "--transactions", str(inputs["transactions_path"]), "--d-model", "8",
             "--n-heads", "2", "--n-layers", "1", "--d-ff", "16", "--max-len", "12",
             "--max-steps", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("ingest", "train"):
            assert cli.main([command, *flags]) == 0, command
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "titlerec"]
    saved = {namespace: dict(vars(namespace)) for namespace in namespaces}
    recorder = tracing.Recorder()
    modules = {layer: importlib.import_module(f"titlerec.{layer}") for layer in tracing.LAYERS}
    try:
        tracing.install(recorder, modules, namespaces)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["recommend", *flags]) == 0
    finally:
        for namespace, attributes in saved.items():
            for name, value in attributes.items():
                setattr(namespace, name, value)
    for loader in WORKDIR_LOADERS:
        assert recorder.names.count(loader) == 1, loader
