"""Training objectives: token masking, pair sampling, losses, optimizer.

Two objectives are trained jointly. Masked-token prediction hides 15% of
the word tokens in a title (80% [MASK], 10% random word, 10% unchanged)
and scores the model's distribution at those positions. Next-purchase
prediction encodes two titles as a pair and asks the CLS head whether the
second item was bought in the same session as the first; negatives are
drawn at random from the inventory. The joint loss is the plain sum of
the two terms.

Pairs are drawn step by step. ``positive_table`` lists every positive
once per run, as inventory indices, and draws nothing. Each positive owns
1 + ``negatives_per_positive`` slots; an epoch permutes all the slots
first, and each step takes the next ``batch_size`` of them.
``sample_pairs`` draws the negatives of those slots only, when the step
runs, and ``encode_training_pairs`` encodes them from each article's word
ids, looked up once per run. So no pair is sampled or encoded that is not
trained.

A training step feeds its masked titles and then its pairs through the
encoder's batched path in passes of at most
``encoder.rows_per_pass(max_len)`` rows at the full ``max_len``, and sums
the passes' gradients in batch order before one optimizer update. Each
pass runs its last encoder layer only at the positions its heads read
(``encoder.read_positions``): the masked targets and the CLS state of
pair rows. The gradients equal the full pass's bit for bit.

The optimizer state holds Adam's two moments and one gradient arena, all
in the parameters' flat layout (see ``encoder``), plus one scratch buffer.
Each step zeroes the gradient arena, every pass adds into it, and
``adam_update`` runs in place over the flat buffers, allocating no array.
The loss values themselves come from ``encoder.forward`` plus
``encoder.sequence_loss``, the one loss path.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from . import encoder as enc
from .corpus import PurchaseLog
from .errors import (
    EmptyBatchError,
    EmptyPlanError,
    InventoryTooSmallError,
    NonFiniteComponentError,
    NothingToMaskError,
    UnknownArticleError,
)
from .tokenizer import (
    FIRST_WORD_ID,
    MASK_ID,
    TokenBatch,
    TokenSequence,
    Vocabulary,
    encode_pair,
)

MASK_REPLACE = "MASK"
RANDOM_REPLACE = "RANDOM"
KEEP_REPLACE = "KEEP"


@dataclass(frozen=True)
class MaskingPlan:
    """Which positions were hidden, their original ids, and how each was hidden."""

    positions: tuple[int, ...]
    labels: tuple[int, ...]
    replacement_kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (len(self.positions) == len(self.labels) == len(self.replacement_kinds)):
            raise ValueError("positions, labels and replacement_kinds must have equal length")

    def targets(self) -> list[tuple[int, int]]:
        return list(zip(self.positions, self.labels))


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


@dataclass(frozen=True)
class PairBatch:
    """Encoded training pairs: one token row and one 0/1 label per pair."""

    tokens: TokenBatch
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class LossRecord:
    step: int
    mlm_sum: float
    np_sum: float
    mlm_mean: float
    np_mean: float
    total: float


def masked_count(n_maskable: int) -> int:
    """max(1, round(0.15 n)) with exact half-up rounding in integer math."""
    return max(1, (3 * n_maskable + 10) // 20)


def apply_masking(
    seq: TokenSequence, vocab: Vocabulary, rng: np.random.Generator
) -> tuple[TokenSequence, MaskingPlan]:
    """Hide 15% of word tokens (at least one) and record the plan.

    Only ids >= FIRST_WORD_ID are candidates, so specials and padding are
    never touched. Draw order per plan: one choice() for the position set,
    then per selected position (ascending) one uniform for the replacement
    kind and, for RANDOM only, one integer for the substitute word.
    """
    maskable = [i for i, t in enumerate(seq.ids) if t >= FIRST_WORD_ID]
    if not maskable:
        raise NothingToMaskError("sequence has no maskable word tokens")
    count = masked_count(len(maskable))
    positions = sorted(rng.choice(len(maskable), size=count, replace=False))
    new_ids = list(seq.ids)
    plan_positions, labels, kinds = [], [], []
    for slot in positions:
        position = maskable[slot]
        draw = rng.random()
        if draw < 0.8:
            kind = MASK_REPLACE
            new_ids[position] = MASK_ID
        elif draw < 0.9:
            kind = RANDOM_REPLACE
            new_ids[position] = int(rng.integers(FIRST_WORD_ID, len(vocab)))
        else:
            kind = KEEP_REPLACE
        plan_positions.append(position)
        labels.append(seq.ids[position])
        kinds.append(kind)
    masked = TokenSequence(tuple(new_ids), seq.segments, seq.attn_mask)
    return masked, MaskingPlan(tuple(plan_positions), tuple(labels), tuple(kinds))


def positive_table(
    log: PurchaseLog,
    inventory: list[str],
    negatives_per_positive: int,
) -> PositiveTable:
    """The positives of a purchase log's sessions, in generation order; no
    randomness.

    A session is one customer's purchases on one day (``PurchaseLog.sessions``),
    and sessions run by customer id, then date. Every ordered pair of
    distinct articles in a session yields one positive (duplicate purchases
    collapse first): within a session each article in first-purchase order
    as the seed, followed by every other article in that order as the
    candidate. A session whose articles cover the whole inventory leaves no
    legal negative and raises, but only if it actually produced a positive.
    """
    if not inventory:
        raise InventoryTooSmallError("inventory is empty")
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    row_of = {article_id: row for row, article_id in enumerate(inventory)}
    if len(row_of) != len(inventory):
        raise ValueError("inventory repeats an article id")
    order, owner = log.sessions()
    row_of_code = np.array([row_of.get(a, -1) for a in log.article_ids], dtype=np.int64)
    rows = row_of_code[log.articles[order]]
    unknown = np.flatnonzero(rows < 0)
    if len(unknown):
        article = log.article_ids[log.articles[order[unknown[0]]]]
        raise UnknownArticleError(f"article {article} is not in the inventory")
    # each session's distinct articles, in first-purchase order
    _, first = np.unique(owner * len(inventory) + rows, return_index=True)
    first.sort()
    rows, owner = rows[first], owner[first]
    sizes = np.bincount(owner)  # every session keeps at least one member
    yields = sizes >= 2
    covering = np.flatnonzero(yields & (sizes == len(inventory)))
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
        inventory_size=len(inventory),
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


def joint_loss(mlm_component: float, np_component: float) -> float:
    """The training objective: an unweighted sum of the two loss terms."""
    for value in (mlm_component, np_component):
        if not np.isfinite(value):
            raise NonFiniteComponentError(f"loss component {value} is not finite")
        if value < 0.0:
            raise ValueError(f"loss component {value} is negative")
    return mlm_component + np_component


def encode_training_pairs(
    pairs: SampledPairs, word_ids: list[list[int]], max_len: int
) -> PairBatch:
    """Encode each pair from its articles' word ids (one list per inventory
    index) for the encoder."""
    if not len(pairs):
        raise EmptyBatchError("pair batch is empty")
    encoded = [
        encode_pair(word_ids[seed], word_ids[candidate], max_len)
        for seed, candidate in zip(pairs.seeds.tolist(), pairs.candidates.tolist())
    ]
    return PairBatch(TokenBatch.stack(encoded, max_len), pairs.labels)


@dataclass
class OptimizerState:
    """Adam's two moments plus the gradient arena every step reuses and one
    scratch buffer, all in the flat layout of the parameters."""

    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    step: int
    first_moment: enc.EncoderParams
    second_moment: enc.EncoderParams
    grads: enc.EncoderParams
    scratch: np.ndarray


def init_optimizer(
    params: enc.EncoderParams,
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> OptimizerState:
    return OptimizerState(
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        step=0,
        first_moment=enc.zero_grads(params),
        second_moment=enc.zero_grads(params),
        grads=enc.zero_grads(params),
        scratch=np.empty_like(params.flat),
    )


def adam_update(
    params: enc.EncoderParams, state: OptimizerState, grads: enc.EncoderParams
) -> None:
    """One bias-corrected adaptive-moment step, applied to params in place.

    Every operation runs in place over the flat arenas, in the order of
    m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g and
    p -= lr (m / c1) / (sqrt(v / c2) + eps), so no temporary is allocated.
    ``grads`` (in the layout of ``params``) is spent: it holds the
    denominator afterwards.
    """
    state.step += 1
    correction1 = 1.0 - state.beta1**state.step
    correction2 = 1.0 - state.beta2**state.step
    m, v = state.first_moment.flat, state.second_moment.flat
    g, tmp = grads.flat, state.scratch
    np.multiply(m, state.beta1, out=m)
    np.multiply(g, 1.0 - state.beta1, out=tmp)
    np.add(m, tmp, out=m)
    np.multiply(v, state.beta2, out=v)
    np.multiply(g, 1.0 - state.beta2, out=tmp)
    np.multiply(tmp, g, out=tmp)
    np.add(v, tmp, out=v)
    np.divide(m, correction1, out=tmp)
    np.multiply(tmp, state.learning_rate, out=tmp)
    np.divide(v, correction2, out=g)
    np.sqrt(g, out=g)
    np.add(g, state.epsilon, out=g)
    np.divide(tmp, g, out=tmp)
    np.subtract(params.flat, tmp, out=params.flat)


def batch_loss_and_grads(
    params: enc.EncoderParams,
    rows: TokenBatch,
    mlm_targets: np.ndarray,
    np_labels: np.ndarray,
    mlm_scale: float,
    np_scale: float,
    rng: np.random.Generator | None = None,
    into: enc.EncoderParams | None = None,
) -> tuple[float, float, enc.EncoderParams]:
    """Summed losses and gradients of a batch, run in bounded passes.

    ``mlm_targets`` is an (M, 3) array of (row, position, label) and
    ``np_labels`` one label per row (-1 for none). Rows go through the
    encoder ``encoder.rows_per_pass(max_len)`` at a time, at the full
    width, with the last layer cut to the pass's reads (see
    ``encoder.read_positions``). Each pass's gradients are added in order
    to ``into``, a zeroed arena in the layout of ``params`` (a fresh one
    when None), which is returned. ``rng`` drives dropout (see
    ``encoder.forward``).
    """
    step = enc.rows_per_pass(params.config.max_len)
    grads = enc.zero_grads(params) if into is None else into
    mlm_sum = 0.0
    np_sum = 0.0
    for start in range(0, len(rows), step):
        stop = start + step
        in_pass = (mlm_targets[:, 0] >= start) & (mlm_targets[:, 0] < stop)
        pass_targets = mlm_targets[in_pass] - (start, 0, 0)
        pass_labels = np_labels[start:stop]
        reads = enc.read_positions(pass_targets, pass_labels, rows.max_len)
        # the pass's trace is dropped before the next pass records its own
        pass_mlm, pass_np, _ = enc.loss_and_grads(
            params,
            enc.forward(params, rows[start:stop], rng=rng, reads=reads),
            pass_targets,
            pass_labels,
            mlm_scale=mlm_scale,
            np_scale=np_scale,
            into=grads,
        )
        mlm_sum += pass_mlm
        np_sum += pass_np
    return mlm_sum, np_sum, grads


def train_step(
    params: enc.EncoderParams,
    state: OptimizerState,
    masked_batch: list[tuple[TokenSequence, MaskingPlan]],
    pair_batch: PairBatch | list,
    rng: np.random.Generator | None = None,
) -> tuple[enc.EncoderParams, OptimizerState, LossRecord]:
    """One optimization step over a mixed batch.

    Each loss term is summed over its items and divided by its own count
    (masked positions and pairs respectively) so the two stay on comparable
    scales; the recorded total is the sum of the two means. The masked
    sequences and then the pairs form one batch whose gradients are
    accumulated pass by pass in batch order, to keep the reduction
    deterministic. An empty ``pair_batch`` may be an empty list. With
    ``rng`` and a nonzero ``dropout_rate`` the forward drops activations,
    drawing from ``rng``; at rate 0 nothing is drawn.
    """
    if not masked_batch and not len(pair_batch):
        raise EmptyBatchError("train_step needs at least one sequence")
    total_masked = sum(len(plan.positions) for _, plan in masked_batch)
    if masked_batch and total_masked == 0:
        raise EmptyPlanError("masked batch carries no masked positions")
    mlm_scale = 1.0 / total_masked if total_masked else 0.0
    np_scale = 1.0 / len(pair_batch) if len(pair_batch) else 0.0

    max_len = params.config.max_len
    rows = TokenBatch.stack([seq for seq, _ in masked_batch], max_len)
    targets = np.array(
        [
            (row, position, label)
            for row, (_, plan) in enumerate(masked_batch)
            for position, label in zip(plan.positions, plan.labels)
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    labels = np.full(len(masked_batch), -1, dtype=np.int64)
    if len(pair_batch):
        rows = TokenBatch.concat(rows, pair_batch.tokens)
        labels = np.concatenate([labels, pair_batch.labels])

    state.grads.flat.fill(0.0)
    mlm_sum, np_sum, grads = batch_loss_and_grads(
        params, rows, targets, labels, mlm_scale, np_scale, rng, into=state.grads
    )
    adam_update(params, state, grads)
    mlm_mean = mlm_sum * mlm_scale
    np_mean = np_sum * np_scale
    record = LossRecord(
        step=state.step,
        mlm_sum=mlm_sum,
        np_sum=np_sum,
        mlm_mean=mlm_mean,
        np_mean=np_mean,
        total=joint_loss(mlm_mean, np_mean),
    )
    return params, state, record
