import threading
from typing import NamedTuple

import numpy as np
import pytest

from titlerec import encoder as enc
from titlerec import index as ix
from titlerec import objectives as obj
from titlerec.tokenizer import MASK_ID, TokenBatch


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running, such as an embedding
    helper that ``index.build_index`` did not join."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"


class Boom(Exception):
    pass


# the helper threads ``passes.run_passes`` starts, by the names its callers give
HELPER_THREADS = ("titlerec-embed", "titlerec-train")
# taken before any test can patch it to refuse threads to the code under test
START_THREAD = threading.Thread.start


def on_helper_thread() -> bool:
    """Whether the running thread is a pass runner's helper, not the thread
    that called the runner."""
    return threading.current_thread().name in HELPER_THREADS


def call_bounded(function, *args, timeout=20.0):
    """``function(*args)``, run on a daemon thread: its result, or its
    exception raised again here. A call still running after ``timeout``
    seconds fails the test, where a thread whose wake-up was lost would
    hang the whole run; the daemon thread, and a helper it started, then
    end with the process."""
    outcome = {}

    def run():
        try:
            outcome["result"] = function(*args)
        except BaseException as exc:  # raised again on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, name="bounded-call", daemon=True)
    START_THREAD(thread)
    thread.join(timeout)
    if thread.is_alive():
        pytest.fail(f"{function.__name__} still running after {timeout} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class PassSpy:
    """Stands in for ``enc.forward``: records each pass's token rows and
    whether a helper thread (``index.build_index``'s or a training step's)
    ran it.

    With ``meet``, each of the two threads waits at its first pass until the
    other has taken one too, so both run at least one pass. ``act(on_helper,
    rows, trace)`` runs after a pass's forward, before the pass is recorded,
    and may raise or return another result.
    """

    def __init__(self, monkeypatch, meet=False, act=None):
        self.real = getattr(enc.forward, "real", enc.forward)  # an earlier spy's forward
        self.passes = []  # (on_helper, token ids of the pass)
        self.helper = None  # the helper thread, from its first pass on
        self.barrier = threading.Barrier(2, timeout=10) if meet else None
        self.met = set()
        self.act = act
        monkeypatch.setattr(enc, "forward", self)

    def __call__(self, params, rows, *args, **kwargs):
        me = threading.current_thread()
        on_helper = on_helper_thread()
        if on_helper:
            self.helper = me
        if self.barrier is not None and me not in self.met:
            self.met.add(me)
            self.barrier.wait()
        trace = self.real(params, rows, *args, **kwargs)
        if self.act is not None:
            trace = self.act(on_helper, rows, trace)
        self.passes.append((on_helper, rows.ids))
        return trace

    def threads(self):
        return {on_helper for on_helper, _ in self.passes}

    def rows_embedded(self, on_helper=None):
        """Every row a recorded pass embedded, as bytes; from one thread
        when ``on_helper`` is given."""
        return [
            row.tobytes()
            for helper, ids in self.passes
            if on_helper in (None, helper)
            for row in ids
        ]


@pytest.fixture
def tiny_config():
    return enc.EncoderConfig(
        vocab_size=11, d_model=8, n_heads=2, n_layers=2, d_ff=12, max_len=7
    )


@pytest.fixture
def tiny_params(tiny_config):
    return enc.init_params(tiny_config, seed=3)


def token_rows(ids, segments, attn_mask):
    """A ``TokenBatch`` of rows given as nested lists (one row may be given
    as a flat list): token ids, segment ids and 0/1 live flags."""
    return TokenBatch(
        np.atleast_2d(np.array(ids, dtype=np.int32)),
        np.atleast_2d(np.array(segments, dtype=np.int8)),
        np.atleast_2d(np.array(attn_mask, dtype=bool)),
    )


@pytest.fixture
def tiny_row():
    """One row of the tiny config's width: five live tokens, two PAD."""
    return token_rows([2, 5, 6, 7, 3, 0, 0], [0, 0, 0, 1, 1, 0, 0], [1, 1, 1, 1, 1, 0, 0])


def zeroed_params(config: enc.EncoderConfig) -> enc.EncoderParams:
    """Params whose forward pass yields all-zero hidden states, so head
    biases fully determine the output logits. Layer-norm gains stay 1."""
    params = enc.init_params(config, seed=0)
    for name in params.tensors:
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


def profiles_by_customer(log, index):
    """``index.customer_profiles`` as customer id -> (rows, vector), with the
    vector None for a degenerate profile."""
    profiles = ix.customer_profiles(log, index)
    return {
        log.customer_ids[owner]: Profile(
            profiles.rows[start : start + size], vector if usable else None
        )
        for owner, start, size, vector, usable in zip(
            profiles.owners.tolist(),
            profiles.starts.tolist(),
            profiles.sizes.tolist(),
            profiles.vectors,
            profiles.usable.tolist(),
        )
    }


class Profile(NamedTuple):
    rows: np.ndarray
    vector: np.ndarray | None


def popular_rows(catalog, popularity):
    """Popularity article ids as the index rows ``index.serve`` takes: their
    rows in ``catalog``, the ids of the index's rows."""
    return [catalog.index(article_id) for article_id in popularity]


def served_ids(customers, log, index, popularity, n):
    """``index.serve``'s picks, for popularity given as article ids, as one
    tuple of article ids per customer, labelled through the log's article
    table, the catalog, as ``recommend`` labels them."""
    catalog = log.article_ids
    picks = ix.serve(customers, log, index, popular_rows(catalog, popularity), n)
    return [tuple(catalog[p] for p in row) for row in picks.tolist()]


def replacement_kinds(masked_ids, targets):
    """How each masked-token target's position was hidden, read off the
    masked row: [MASK] is masked, its original id is kept, any other word is
    random (so a random word that draws the original back reads as kept)."""
    kinds = []
    for position, label in targets[:, 1:].tolist():
        hidden = masked_ids[position]
        kinds.append("mask" if hidden == MASK_ID else "keep" if hidden == label else "random")
    return kinds


def no_pairs(max_len):
    """The pair batch of a step without pairs: no rows, of width ``max_len``."""
    empty = np.empty(0, dtype=np.int64)
    return obj.encode_training_pairs(
        obj.SampledPairs(empty, empty, empty.astype(np.int8)), [], max_len
    )


# --- finite-difference gradient oracle, shared by unit and acceptance tests ---


def loss_and_grad_arena(params, trace, *args, **kwargs):
    """``enc.loss_and_grads``, with the pass's gradient adds added into a
    fresh zeroed arena: (mlm sum, pair sum, arena)."""
    mlm_sum, np_sum, adds = enc.loss_and_grads(params, trace, *args, **kwargs)
    grads = enc.zero_grads(params)
    grads.add(adds)
    return mlm_sum, np_sum, grads


def scalar_loss(params, batch, targets, np_labels, mlm_scale=1.0, np_scale=1.0):
    trace = enc.forward(params, batch)
    mlm_sum, np_sum, _ = enc.loss_and_grads(params, trace, targets, np_labels)
    return mlm_scale * mlm_sum + np_scale * np_sum


def central_difference(params, batch, targets, np_labels, name, index, step=1e-4, **scales):
    """Two-sided difference quotient of the scalar loss in one coordinate."""
    probe = enc.EncoderParams(params.config, params.flat.copy())
    flat = probe[name].reshape(-1)
    original = flat[index]
    flat[index] = original + step
    up = scalar_loss(probe, batch, targets, np_labels, **scales)
    flat[index] = original - step
    down = scalar_loss(probe, batch, targets, np_labels, **scales)
    return (up - down) / (2.0 * step)


def grads_agree(analytic, numeric, rel_tol=1e-4, abs_floor=1e-7):
    """Relative-error check with an absolute floor for near-zero coordinates."""
    return abs(analytic - numeric) <= max(
        rel_tol * max(abs(analytic), abs(numeric)), abs_floor
    )


def random_row(config, rng, min_live=2):
    """Random well-formed 1-row batch for a config: live prefix, PAD tail."""
    live = int(rng.integers(min_live, config.max_len + 1))
    ids = [int(rng.integers(0, config.vocab_size)) for _ in range(live)]
    segments = [int(rng.integers(0, 2)) for _ in range(live)]
    n_pad = config.max_len - live
    return token_rows(ids + [0] * n_pad, segments + [0] * n_pad, [1] * live + [0] * n_pad)


def random_targets(config, batch, rng, max_targets=3):
    """Distinct (0, position, label) targets within the live region of row 0."""
    live = int(batch.attn_mask[0].sum())
    count = int(rng.integers(1, min(max_targets, live) + 1))
    positions = rng.choice(live, size=count, replace=False)
    return [(0, int(p), int(rng.integers(0, config.vocab_size))) for p in sorted(positions)]
