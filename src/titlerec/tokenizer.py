"""Word-level vocabulary and fixed-length sequence encoding.

Tokens are whitespace-split words from prepared article text. Five special
tokens occupy ids 0..4 in every vocabulary; the rest of the id space is
ranked by corpus frequency. A text's words are looked up once
(``Vocabulary.word_ids``); ``encode_single`` (titles) and ``encode_pair``
(title pairs) write those ids straight into the fixed-length rows of one
``TokenBatch`` of compact arrays, padded and truncated, with segment ids
plus an attention mask, so downstream code never sees ragged sequences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import PreparedArticle
from .ioutil import atomic_write_text
from .errors import ArtifactFormatError, EmptyCorpusError

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN)

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
# First id available to corpus words.
FIRST_WORD_ID = len(SPECIAL_TOKENS)


@dataclass(frozen=True)
class TokenBatch:
    """B fixed-length rows as compact (B, T) arrays: int32 token ids, int8
    segment ids and a bool live (non-PAD) mask."""

    ids: np.ndarray
    segments: np.ndarray
    attn_mask: np.ndarray

    def __post_init__(self) -> None:
        if self.ids.ndim != 2 or not (
            self.ids.shape == self.segments.shape == self.attn_mask.shape
        ):
            raise ValueError("ids, segments and attn_mask must be (B, T) arrays of one shape")

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def max_len(self) -> int:
        return self.ids.shape[1]

    def __getitem__(self, rows) -> "TokenBatch":
        """The rows picked by a slice or an index array, as a new batch;
        ``batch[rows, :width]`` also cuts every row to its first ``width``
        positions."""
        return TokenBatch(self.ids[rows], self.segments[rows], self.attn_mask[rows])

    @classmethod
    def concat(cls, first: "TokenBatch", second: "TokenBatch") -> "TokenBatch":
        """The rows of ``first`` and then of ``second``, in one batch."""
        return cls(
            np.concatenate([first.ids, second.ids]),
            np.concatenate([first.segments, second.segments]),
            np.concatenate([first.attn_mask, second.attn_mask]),
        )


class Vocabulary:
    """Immutable token <-> id mapping with the specials pinned at 0..4."""

    def __init__(self, words: list[str]):
        for word in words:
            if word in SPECIAL_TOKENS:
                raise ValueError(f"{word!r} collides with a special token")
        self.id_to_token: list[str] = list(SPECIAL_TOKENS) + list(words)
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def word_ids(self, text: str) -> list[int]:
        """Id of each whitespace-split word of a text, UNK when out of vocabulary."""
        get = self.token_to_id.get
        return [get(word, UNK_ID) for word in text.split()]

    def save(self, path: str | Path) -> None:
        """One token per line, line number = id."""
        atomic_write_text(path, "\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        if tuple(tokens[:FIRST_WORD_ID]) != SPECIAL_TOKENS:
            raise ArtifactFormatError(f"{path}: special tokens missing or reordered")
        try:
            return cls(tokens[FIRST_WORD_ID:])
        except ValueError as exc:
            raise ArtifactFormatError(f"{path}: {exc}") from None


def build_vocab(corpus: list[PreparedArticle], min_freq: int = 1, max_size: int = 30000) -> Vocabulary:
    """Rank corpus words by (frequency desc, word asc) and keep the top slice.

    Words below ``min_freq`` are dropped before ranking; at most
    ``max_size - 5`` words survive so the whole vocabulary, specials
    included, never exceeds ``max_size``.
    """
    if not corpus:
        raise EmptyCorpusError("cannot build a vocabulary from an empty corpus")
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    if max_size < FIRST_WORD_ID + 1:
        raise ValueError(f"max_size must be >= {FIRST_WORD_ID + 1}")
    counts: Counter[str] = Counter()
    for article in corpus:
        counts.update(article.text.split())
    kept = [w for w, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda w: (-counts[w], w))
    return Vocabulary(kept[: max_size - FIRST_WORD_ID])




def _pack(rows: list[list[int]], max_len: int) -> TokenBatch:
    """Rows of at most ``max_len`` ids as one batch: each row's ids from
    position 0, PAD after them, and segment 0 throughout."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    attn_mask = np.arange(max_len) < lengths[:, None]
    ids = np.full(attn_mask.shape, PAD_ID, dtype=np.int32)
    # live positions are a prefix of each row, so in C order they take the
    # rows' ids one row after another
    ids[attn_mask] = np.fromiter(chain.from_iterable(rows), np.int32, int(lengths.sum()))
    return TokenBatch(ids, np.zeros(attn_mask.shape, dtype=np.int8), attn_mask)


def encode_single(word_ids: list[list[int]], max_len: int) -> TokenBatch:
    """One row per title, [CLS] words [SEP], truncated to fit and padded to
    exactly max_len."""
    if max_len < 3:
        raise ValueError("max_len must be >= 3 for single encoding")
    return _pack([[CLS_ID, *ids[: max_len - 2], SEP_ID] for ids in word_ids], max_len)


def truncate_pair(len_a: int, len_b: int, budget: int) -> tuple[int, int]:
    """Shrink (len_a, len_b) until their sum fits the budget.

    One token is removed per step from the longer side; ties trim B. The
    step-at-a-time loop is the definition, not an optimization.
    """
    while len_a + len_b > budget:
        if len_a > len_b:
            len_a -= 1
        else:
            len_b -= 1
    return len_a, len_b


def encode_pair(firsts: list[list[int]], seconds: list[list[int]], max_len: int) -> TokenBatch:
    """One row per pair, [CLS] A [SEP] B [SEP] of the word-id lists
    ``firsts[i]`` and ``seconds[i]``, with segment ids 0 for the A half and
    1 for B."""
    if max_len < 5:
        raise ValueError("max_len must be >= 5 for pair encoding")
    rows, b_starts = [], []
    for ids_a, ids_b in zip(firsts, seconds, strict=True):
        keep_a, keep_b = truncate_pair(len(ids_a), len(ids_b), max_len - 3)
        rows.append([CLS_ID, *ids_a[:keep_a], SEP_ID, *ids_b[:keep_b], SEP_ID])
        b_starts.append(keep_a + 2)
    batch = _pack(rows, max_len)
    b_half = np.arange(max_len) >= np.array(b_starts, dtype=np.int64)[:, None]
    batch.segments[b_half & batch.attn_mask] = 1
    return batch
