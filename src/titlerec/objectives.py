"""Training objectives: token masking, pair sampling, losses, optimizer.

Two objectives are trained jointly. Masked-token prediction hides 15% of
the word tokens in a title (80% [MASK], 10% random word, 10% unchanged)
and scores the model's distribution at those positions. Next-purchase
prediction encodes two titles as a pair and asks the CLS head whether the
second item was bought in the same session as the first; negatives are
drawn at random from the inventory. The training loss is the plain sum of
the two terms' means.

A step's rows travel as one ``TrainingRows`` from masking to the loss: a
``TokenBatch``, an (M, 3) array of masked-token targets (row, position,
label) and one pair label per row, -1 for a row without a pair term.
``mask_titles`` masks a batch of encoded titles in place and returns its
rows with their targets and no pair term; ``encode_training_pairs``
returns pair rows with their labels and no target; ``train_step`` joins
the two.

Pairs are drawn step by step. ``positive_table`` lists every positive
once per run, as inventory indices (the log's article codes, which for an
ingested log are catalog rows), and draws nothing. Each positive owns
1 + ``negatives_per_positive`` slots; an epoch permutes all the slots
first, and each step takes the next ``batch_size`` of them.
``sample_pairs`` draws the negatives of those slots only, when the step
runs, and ``encode_training_pairs`` encodes them from each article's word
ids, looked up once per run. So no pair is sampled or encoded that is not
trained. A step's titles are drawn from ``maskable_titles``, encoded into
one ``TokenBatch`` and masked by ``mask_titles``.

A training step feeds its masked titles and then its pairs through the
encoder's batched path in passes of at most
``encoder.rows_per_pass(max_len)`` rows at the full ``max_len``, and sums
the passes' gradients in batch order before one optimizer update. Each
pass runs its last encoder layer only at the positions its heads read
(``encoder.read_positions``): the masked targets and the CLS state of
pair rows. The gradients equal the full pass's bit for bit.

A step's passes may run on two threads (``passes.run_passes``): on a
model at least ``HELPER_MIN_WIDTH`` wide and a step of two passes or more,
when the process may use a second CPU. Each pass returns its loss sums and
its list of gradient adds (see ``encoder``), and the runner folds the
passes' results in pass order: the loss sums are added up and the adds go
into the step's gradient arena. Sums of floats depend on their order, but
every tensor takes the same adds in the same order whichever thread ran
which pass, so the checkpoint and the loss log keep every byte.

The optimizer state holds Adam's two moments and one gradient arena, all
in the parameters' flat layout (see ``encoder``), plus one scratch block
of at most ``ADAM_BLOCK`` floats. Each step zeroes the gradient arena,
every pass is added into it, and ``adam_update`` runs in place over the
flat buffers, one block of ``ADAM_BLOCK`` floats at a time, allocating no
array: every element takes the same operations in the same order as over
the whole arena, so the block size moves no bit. Adam's decay rates and
denominator floor are the constants ``BETA1``, ``BETA2`` and ``EPSILON``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from . import encoder as enc
from .corpus import PurchaseLog
from .errors import (
    EmptyBatchError,
    InventoryTooSmallError,
    NonFiniteComponentError,
    NothingToMaskError,
)
from .passes import run_passes, usable_cpus
from .tokenizer import (
    FIRST_WORD_ID,
    MASK_ID,
    TokenBatch,
    Vocabulary,
    encode_pair,
)

# Adam's moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# Floats of the arenas ``adam_update`` runs over at a time; the size of the
# optimizer's scratch. A block's four slices stay in the caches between the
# update's operations, and the scratch is a block, not a fourth arena.
ADAM_BLOCK = 1 << 16

# Width from which a training step's passes run on two threads. Below it the
# numpy calls of a pass are too small to leave the GIL often, and the two
# threads' contention for it costs more than the second core gives back:
# in-process on 2 cores, with the benchmark's inputs, a helper made `train`
# 17% slower on `log` and 5% slower on `planted` (d_model 32), and at
# d_model 64 13% faster on `catalog` (16% at batch size 32, 5% at 8) and
# 15% faster on `log` with --d-model 64 --d-ff 128.
HELPER_MIN_WIDTH = 64


@dataclass(frozen=True)
class TrainingRows:
    """Rows of a training step: the token rows, an (M, 3) int64 array of
    masked-token targets (row, position, label) and one pair label per row,
    -1 for a row without a pair term."""

    tokens: TokenBatch
    targets: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def concat(cls, first: TrainingRows, second: TrainingRows) -> TrainingRows:
        """The rows of ``first`` and then of ``second``, whose targets'
        rows move down by ``len(first)``."""
        return cls(
            TokenBatch.concat(first.tokens, second.tokens),
            np.concatenate([first.targets, second.targets + (len(first), 0, 0)]),
            np.concatenate([first.labels, second.labels]),
        )


@dataclass(frozen=True)
class PositiveTable:
    """Every ordered pair of distinct co-purchases, as inventory indices.

    Positive i is the pair (``seeds[i]``, ``candidates[i]``) from session
    ``sessions[i]``. Session j's distinct articles, in first-purchase order,
    are ``members[bounds[j]:bounds[j + 1]]``. Positive i owns the
    1 + ``negatives_per_positive`` slots from i * (1 + ``negatives_per_positive``)
    on: the first is the positive itself and each other is one of its
    negatives.
    """

    seeds: np.ndarray
    candidates: np.ndarray
    sessions: np.ndarray
    members: np.ndarray
    bounds: np.ndarray
    inventory_size: int
    negatives_per_positive: int

    def __len__(self) -> int:
        return len(self.seeds)

    @property
    def slot_count(self) -> int:
        return len(self.seeds) * (1 + self.negatives_per_positive)

    def members_of(self, positive: int) -> set[int]:
        """The distinct articles of the session a positive comes from."""
        session = self.sessions[positive]
        return set(self.members[self.bounds[session] : self.bounds[session + 1]].tolist())


@dataclass(frozen=True)
class SampledPairs:
    """The pairs of some slots: seed and candidate inventory indices and one
    0/1 label per pair."""

    seeds: np.ndarray
    candidates: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class LossRecord:
    step: int
    mlm_mean: float
    np_mean: float
    total: float


def masked_count(n_maskable: int) -> int:
    """max(1, round(0.15 n)) with exact half-up rounding in integer math."""
    return max(1, (3 * n_maskable + 10) // 20)


def maskable_titles(word_ids: list[list[int]], max_len: int) -> list[int]:
    """The titles, by index, that ``apply_masking`` can mask once encoded:
    those with a word id >= FIRST_WORD_ID among the max_len - 2 words that
    ``encode_single`` keeps."""
    return [
        row
        for row, ids in enumerate(word_ids)
        if any(token_id >= FIRST_WORD_ID for token_id in ids[: max_len - 2])
    ]


def apply_masking(
    batch: TokenBatch, row: int, vocab: Vocabulary, rng: np.random.Generator
) -> np.ndarray:
    """Hide 15% of the word tokens of one batch row (at least one) in place,
    and return their (row, position, label) targets in position order.

    Only ids >= FIRST_WORD_ID are candidates, so specials and padding are
    never touched. Draw order per row: one choice() for the position set,
    then per selected position (ascending) one uniform for the replacement
    (below 0.8 [MASK], below 0.9 a random word, else the word is kept) and,
    for a random word only, one integer for the substitute.
    """
    ids = batch.ids[row]
    maskable = np.flatnonzero(ids >= FIRST_WORD_ID)
    if not len(maskable):
        raise NothingToMaskError(f"row {row} has no maskable word tokens")
    count = masked_count(len(maskable))
    positions = maskable[np.sort(rng.choice(len(maskable), size=count, replace=False))]
    targets = np.array([np.full(count, row), positions, ids[positions]]).T
    for position in positions.tolist():
        draw = rng.random()
        if draw < 0.8:
            ids[position] = MASK_ID
        elif draw < 0.9:
            ids[position] = int(rng.integers(FIRST_WORD_ID, len(vocab)))
    return targets


def mask_titles(tokens: TokenBatch, vocab: Vocabulary, rng: np.random.Generator) -> TrainingRows:
    """Mask every row of a batch of encoded titles in place, in row order;
    the rows carry their targets and no pair term."""
    targets = [apply_masking(tokens, row, vocab, rng) for row in range(len(tokens))]
    return TrainingRows(
        tokens,
        np.concatenate([np.empty((0, 3), dtype=np.int64), *targets]),
        np.full(len(tokens), -1, dtype=np.int64),
    )


def positive_table(log: PurchaseLog, negatives_per_positive: int) -> PositiveTable:
    """The positives of a purchase log's sessions, in generation order; no
    randomness. The inventory is the log's article table, so an inventory
    index is an article code (a catalog row, for an ingested log).

    A session is one customer's purchases on one day (``PurchaseLog.sessions``),
    and sessions run by customer id, then date. Every ordered pair of
    distinct articles in a session yields one positive (duplicate purchases
    collapse first): within a session each article in first-purchase order
    as the seed, followed by every other article in that order as the
    candidate. A session whose articles cover the whole inventory leaves no
    legal negative and raises, but only if it actually produced a positive.
    """
    inventory_size = len(log.article_ids)
    if not inventory_size:
        raise InventoryTooSmallError("inventory is empty")
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    order, owner = log.sessions()
    rows = log.articles[order]
    # each session's distinct articles, in first-purchase order
    _, first = np.unique(owner * inventory_size + rows, return_index=True)
    first.sort()
    rows, owner = rows[first], owner[first]
    sizes = np.bincount(owner)  # every session keeps at least one member
    yields = sizes >= 2
    covering = np.flatnonzero(yields & (sizes == inventory_size))
    if len(covering):
        member = order[first[np.searchsorted(owner, covering[0])]]
        customer = log.customer_ids[log.customers[member]]
        day = date.fromordinal(int(log.days[member]))
        raise InventoryTooSmallError(f"session ({customer}, {day}) covers the whole inventory")
    # Keep the sessions that yield a positive. Member m, at position p of a
    # session of n members, seeds n - 1 positives in a row; the k-th of them
    # (k = 0..n-2) takes the member at position k, or k + 1 from k = p on.
    members, sizes = rows[yields[owner]], sizes[yields]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    start = np.repeat(bounds[:-1], sizes)  # per member: its session's first
    others = np.repeat(sizes - 1, sizes)  # per member: how many positives it seeds
    seed = np.repeat(np.arange(len(members)), others)  # per positive: its seed member
    k = np.arange(len(seed)) - np.repeat(np.cumsum(others) - others, others)
    k += k >= seed - start[seed]
    return PositiveTable(
        seeds=members[seed],
        candidates=members[start[seed] + k],
        sessions=np.repeat(np.arange(len(sizes)), sizes * (sizes - 1)),
        members=members,
        bounds=bounds,
        inventory_size=inventory_size,
        negatives_per_positive=negatives_per_positive,
    )


def sample_pairs(
    table: PositiveTable, slots: np.ndarray, rng: np.random.Generator
) -> SampledPairs:
    """The pairs of the given slots, drawing their negatives from ``rng``.

    Slot s belongs to positive s // (1 + k), for k negatives per positive.
    At s % (1 + k) == 0 it is that positive; otherwise it is a negative for
    the positive's seed: a candidate drawn uniformly from the inventory and
    redrawn while it is in the seed's session. Negatives are drawn in slot
    order, so only the slots asked for consume randomness.
    """
    positive, offset = np.divmod(
        np.asarray(slots, dtype=np.int64), 1 + table.negatives_per_positive
    )
    candidates = table.candidates[positive]
    for i in np.flatnonzero(offset).tolist():
        session = table.members_of(positive[i])
        while True:
            candidate = int(rng.integers(0, table.inventory_size))
            if candidate not in session:
                break
        candidates[i] = candidate
    return SampledPairs(table.seeds[positive], candidates, (offset == 0).astype(np.int8))


def encode_training_pairs(
    pairs: SampledPairs, word_ids: list[list[int]], max_len: int
) -> TrainingRows:
    """Encode each pair from its articles' word ids (one list per inventory
    index) as one row with its label and no masked target; no pairs give no
    rows."""
    tokens = encode_pair(
        [word_ids[seed] for seed in pairs.seeds.tolist()],
        [word_ids[candidate] for candidate in pairs.candidates.tolist()],
        max_len,
    )
    return TrainingRows(tokens, np.empty((0, 3), dtype=np.int64), pairs.labels)


@dataclass
class OptimizerState:
    """Adam's two moments plus the gradient arena every step reuses, all in
    the flat layout of the parameters, and a scratch block of at most
    ``ADAM_BLOCK`` floats."""

    learning_rate: float
    step: int
    first_moment: enc.EncoderParams
    second_moment: enc.EncoderParams
    grads: enc.EncoderParams
    scratch: np.ndarray


def init_optimizer(params: enc.EncoderParams, learning_rate: float = 1e-3) -> OptimizerState:
    return OptimizerState(
        learning_rate=learning_rate,
        step=0,
        first_moment=enc.zero_grads(params),
        second_moment=enc.zero_grads(params),
        grads=enc.zero_grads(params),
        scratch=np.empty(min(ADAM_BLOCK, len(params.flat))),
    )


def adam_update(
    params: enc.EncoderParams, state: OptimizerState, grads: enc.EncoderParams
) -> None:
    """One bias-corrected adaptive-moment step, applied to params in place.

    Every operation runs in place over the flat arenas, one block of
    ``ADAM_BLOCK`` floats at a time, in the order of m = b1 m + (1-b1) g,
    v = b2 v + ((1-b2) g) g and p -= lr (m / c1) / (sqrt(v / c2) + eps),
    with the state's scratch block as the one temporary. ``grads`` (in the
    layout of ``params``) is spent: it holds the denominator afterwards.
    """
    state.step += 1
    correction1 = 1.0 - BETA1**state.step
    correction2 = 1.0 - BETA2**state.step
    arenas = (params.flat, state.first_moment.flat, state.second_moment.flat, grads.flat)
    for start in range(0, len(params.flat), ADAM_BLOCK):
        p, m, v, g = (arena[start : start + ADAM_BLOCK] for arena in arenas)
        tmp = state.scratch[: len(g)]
        np.multiply(m, BETA1, out=m)
        np.multiply(g, 1.0 - BETA1, out=tmp)
        np.add(m, tmp, out=m)
        np.multiply(v, BETA2, out=v)
        np.multiply(g, 1.0 - BETA2, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.add(v, tmp, out=v)
        np.divide(m, correction1, out=tmp)
        np.multiply(tmp, state.learning_rate, out=tmp)
        np.divide(v, correction2, out=g)
        np.sqrt(g, out=g)
        np.add(g, EPSILON, out=g)
        np.divide(tmp, g, out=tmp)
        np.subtract(p, tmp, out=p)


def batch_loss_and_grads(
    params: enc.EncoderParams,
    rows: TrainingRows,
    mlm_scale: float,
    np_scale: float,
    grads: enc.EncoderParams,
) -> tuple[float, float]:
    """Summed losses of a batch, run in bounded passes, whose gradients are
    added into ``grads``.

    Rows go through the encoder ``encoder.rows_per_pass(max_len)`` at a
    time, at the full width, with the last layer cut to the pass's reads
    (see ``encoder.read_positions``). ``grads`` is a zeroed arena in the
    layout of ``params``; each pass's gradient adds go into it, and its loss
    sums into the returned sums, in pass order.

    On a model at least ``HELPER_MIN_WIDTH`` wide and a batch of two passes
    or more, a helper thread runs passes beside the calling thread when the
    process may run on more than one CPU (``passes.run_passes``); the runner
    folds the passes' results in pass order either way, so the sums and the
    gradients are the same bytes.
    """
    step = enc.rows_per_pass(params.config.max_len)
    starts = range(0, len(rows), step)
    target_rows = rows.targets[:, 0]
    helper = len(starts) >= 2 and params.config.d_model >= HELPER_MIN_WIDTH and usable_cpus() > 1
    mlm_sum = 0.0
    np_sum = 0.0

    def run_pass(start: int) -> tuple[float, float, list[enc.GradAdd]]:
        stop = start + step
        pass_targets = rows.targets[(target_rows >= start) & (target_rows < stop)] - (start, 0, 0)
        pass_labels = rows.labels[start:stop]
        reads = enc.read_positions(pass_targets, pass_labels, rows.tokens.max_len)
        # the backward spends the pass's trace (see encoder.loss_and_grads)
        return enc.loss_and_grads(
            params,
            enc.forward(params, rows.tokens[start:stop], reads=reads),
            pass_targets,
            pass_labels,
            mlm_scale=mlm_scale,
            np_scale=np_scale,
        )

    def fold(result: tuple[float, float, list[enc.GradAdd]]) -> None:
        nonlocal mlm_sum, np_sum
        pass_mlm, pass_np, adds = result
        mlm_sum += pass_mlm
        np_sum += pass_np
        grads.add(adds)

    run_passes(starts, run_pass, fold, helper, "titlerec-train")
    return mlm_sum, np_sum


def train_step(
    params: enc.EncoderParams,
    state: OptimizerState,
    masked_batch: TrainingRows,
    pair_batch: TrainingRows,
) -> LossRecord:
    """One optimization step over masked titles and then pairs; ``params``
    and ``state`` are updated in place.

    Each loss term is summed over its items and divided by its own count
    (masked targets and pair rows respectively) so the two stay on
    comparable scales; the recorded total is the sum of the two means. The
    two batches form one whose gradients are accumulated pass by pass in
    batch order, to keep the reduction deterministic. Either batch may have
    no rows, but the step needs a target or a pair, and a mean that is not
    finite raises before the update.
    """
    rows = TrainingRows.concat(masked_batch, pair_batch)
    n_targets, n_pairs = len(rows.targets), int(np.count_nonzero(rows.labels >= 0))
    if not n_targets and not n_pairs:
        raise EmptyBatchError("train_step needs a masked target or a pair")
    mlm_scale = 1.0 / n_targets if n_targets else 0.0
    np_scale = 1.0 / n_pairs if n_pairs else 0.0

    state.grads.flat.fill(0.0)
    mlm_sum, np_sum = batch_loss_and_grads(params, rows, mlm_scale, np_scale, state.grads)
    mlm_mean = mlm_sum * mlm_scale
    np_mean = np_sum * np_scale
    for value in (mlm_mean, np_mean):
        if not np.isfinite(value):
            raise NonFiniteComponentError(f"loss component {value} is not finite")
    adam_update(params, state, state.grads)
    return LossRecord(state.step, mlm_mean, np_mean, mlm_mean + np_mean)
