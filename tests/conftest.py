import numpy as np
import pytest

from titlerec import encoder as enc
from titlerec import objectives as obj
from titlerec.tokenizer import TokenSequence


@pytest.fixture
def tiny_config():
    return enc.EncoderConfig(
        vocab_size=11, d_model=8, n_heads=2, n_layers=2, d_ff=12, max_len=7
    )


@pytest.fixture
def tiny_params(tiny_config):
    return enc.init_params(tiny_config, seed=3)


@pytest.fixture
def tiny_seq():
    return TokenSequence(
        ids=(2, 5, 6, 7, 3, 0, 0),
        segments=(0, 0, 0, 1, 1, 0, 0),
        attn_mask=(1, 1, 1, 1, 1, 0, 0),
    )


def zeroed_params(config: enc.EncoderConfig) -> enc.EncoderParams:
    """Params whose forward pass yields all-zero hidden states, so head
    biases fully determine the output logits. Layer-norm gains stay 1."""
    params = enc.init_params(config, seed=0)
    for name in params.names():
        if not name.endswith(".gain"):
            params[name][...] = np.zeros_like(params[name])
    return params


def encode_id_pairs(triples, titles, vocab, max_len):
    """``encode_training_pairs`` of (seed id, candidate id, label) triples,
    with ``titles`` (article id -> text) in order as the inventory."""
    row = {article_id: i for i, article_id in enumerate(titles)}
    columns = list(zip(*triples)) or [(), (), ()]
    pairs = obj.SampledPairs(
        np.array([row[a] for a in columns[0]], dtype=np.int64),
        np.array([row[a] for a in columns[1]], dtype=np.int64),
        np.array(columns[2], dtype=np.int8),
    )
    word_ids = [vocab.word_ids(text) for text in titles.values()]
    return obj.encode_training_pairs(pairs, word_ids, max_len)


# --- finite-difference gradient oracle, shared by unit and acceptance tests ---


def scalar_loss(params, seq, targets, np_label, mlm_scale=1.0, np_scale=1.0):
    trace = enc.forward(params, seq)
    mlm_sum, np_sum = enc.sequence_loss(params, trace, targets, np_label)
    return mlm_scale * mlm_sum + np_scale * np_sum


def central_difference(params, seq, targets, np_label, name, index, step=1e-4, **scales):
    """Two-sided difference quotient of the scalar loss in one coordinate."""
    probe = params.copy()
    flat = probe[name].reshape(-1)
    original = flat[index]
    flat[index] = original + step
    up = scalar_loss(probe, seq, targets, np_label, **scales)
    flat[index] = original - step
    down = scalar_loss(probe, seq, targets, np_label, **scales)
    return (up - down) / (2.0 * step)


def grads_agree(analytic, numeric, rel_tol=1e-4, abs_floor=1e-7):
    """Relative-error check with an absolute floor for near-zero coordinates."""
    return abs(analytic - numeric) <= max(
        rel_tol * max(abs(analytic), abs(numeric)), abs_floor
    )


def random_sequence(config, rng, min_live=2):
    """Random well-formed TokenSequence for a config: live prefix, PAD tail."""
    live = int(rng.integers(min_live, config.max_len + 1))
    ids = [int(rng.integers(0, config.vocab_size)) for _ in range(live)]
    segments = [int(rng.integers(0, 2)) for _ in range(live)]
    n_pad = config.max_len - live
    return TokenSequence(
        ids=tuple(ids) + (0,) * n_pad,
        segments=tuple(segments) + (0,) * n_pad,
        attn_mask=(1,) * live + (0,) * n_pad,
    )


def random_targets(config, seq, rng, max_targets=3):
    """Distinct (position, label) pairs within the live region."""
    live = sum(seq.attn_mask)
    count = int(rng.integers(1, min(max_targets, live) + 1))
    positions = rng.choice(live, size=count, replace=False)
    return [(int(p), int(rng.integers(0, config.vocab_size))) for p in sorted(positions)]
