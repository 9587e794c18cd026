"""Item embeddings, exact nearest-neighbor retrieval and recommendation.

Every catalog article is embedded once (mean-pooled encoder states,
unit-normalized) into an in-memory matrix, through the encoder's batched
forward in passes of ``encoder.rows_per_pass`` articles. Retrieval is an
exact full scan: cosine similarity is a dot product of unit vectors, top-k
is selected by partition and ties are broken by ascending article id so
the ordering is total. Customers with no usable purchase history fall back
to a global popularity ranking.

Index file layout (version TRECIDX1, little-endian):
    magic      8 bytes  b"TRECIDX1"
    header     uint32 row count, uint32 dimension, uint8 metric-tag
               length, metric tag utf-8 (always "cosine")
    id table   rows x 10 ascii bytes (zero-padded article ids)
    payload    rows x dimension float64, row-major
    source     optional: b"TRECSRC1", 32-byte sha256 of the checkpoint the
               vectors came from, uint8 pooling length, pooling ascii

The source block trails the payload, so readers of the plain TRECIDX1
layout still read the file. A file without it predates source tracking.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder as enc
from .corpus import PreparedArticle, TransactionRecord
from .ioutil import atomic_write_bytes
from .errors import (
    ArtifactFormatError,
    DegenerateEmbeddingError,
    DuplicateArticleIdError,
    InsufficientCandidatesError,
    KTooLargeError,
)
from .tokenizer import Vocabulary, encode_batch

INDEX_MAGIC = b"TRECIDX1"
SOURCE_MAGIC = b"TRECSRC1"
METRIC_TAG = "cosine"

NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class IndexSource:
    """What an index's vectors were computed from."""

    checkpoint_sha256: str
    pooling: str


@dataclass
class EmbeddingIndex:
    """Unit-row embedding matrix aligned with an ordered article id list.

    ``source`` names the checkpoint and pooling behind the vectors; it is
    None for an index of unknown origin.
    """

    article_ids: tuple[str, ...]
    vectors: np.ndarray
    source: IndexSource | None = None
    _row_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.article_ids) != self.vectors.shape[0]:
            raise ValueError("one vector row per article id required")
        if len(set(self.article_ids)) != len(self.article_ids):
            raise DuplicateArticleIdError("index article ids must be unique")
        if self.vectors.size and not self.norm_flag:
            raise ValueError("index rows must be unit length")
        self._row_of = {a: i for i, a in enumerate(self.article_ids)}

    def __len__(self) -> int:
        return len(self.article_ids)

    @property
    def norm_flag(self) -> bool:
        """True when every row is unit length within 1e-6."""
        norms = np.linalg.norm(self.vectors, axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= 1e-6))

    def row(self, article_id: str) -> np.ndarray:
        return self.vectors[self._row_of[article_id]]

    def __contains__(self, article_id: str) -> bool:
        return article_id in self._row_of


@dataclass(frozen=True)
class NeighborResult:
    article_id: str
    similarity: float


@dataclass(frozen=True)
class CustomerProfile:
    """A customer's distinct purchases and their normalized mean vector.

    ``profile_vector`` is None when the customer has no purchases resolvable
    in the index, and also in the degenerate case where the purchase vectors
    cancel to (near) zero; both routes fall back to popularity downstream.
    """

    customer_id: str
    purchased_article_ids: frozenset[str]
    profile_vector: np.ndarray | None


def build_index(
    articles: list[PreparedArticle],
    params: enc.EncoderParams,
    vocab: Vocabulary,
    pooling: str = "mean",
    source: IndexSource | None = None,
) -> EmbeddingIndex:
    """Embed every article as a unit vector, preserving input order.

    ``pooling`` is "mean" (average over non-PAD positions) or "cls"
    (position-0 state only). Articles run through the encoder in passes of
    ``encoder.rows_per_pass`` rows; a row's vector does not depend on the
    other rows of its pass.
    """
    if pooling not in ("mean", "cls"):
        raise ValueError(f"unknown pooling {pooling!r}")
    if not articles:
        raise ValueError("cannot build an index over zero articles")
    c = params.config
    batch = encode_batch([a.text for a in articles], vocab, c.max_len)
    pooled = np.empty((len(articles), c.d_model))
    step = enc.rows_per_pass(c.max_len)
    for start in range(0, len(batch), step):
        rows = batch[start : start + step]
        hidden = enc.forward(params, rows, record=False).hidden_states
        if pooling == "cls":
            pooled[start : start + step] = hidden[:, 0]
        else:
            mask = rows.attn_mask.astype(np.float64)
            summed = (hidden * mask[:, :, None]).sum(axis=1)
            pooled[start : start + step] = summed / mask.sum(axis=1)[:, None]
    norms = np.linalg.norm(pooled, axis=1)
    degenerate = np.flatnonzero(norms < NORM_FLOOR)
    if degenerate.size:
        first = int(degenerate[0])
        raise DegenerateEmbeddingError(
            f"article {articles[first].article_id}: embedding norm {norms[first]} "
            f"below {NORM_FLOOR}"
        )
    return EmbeddingIndex(
        tuple(a.article_id for a in articles), pooled / norms[:, None], source
    )


def query_knn(index: EmbeddingIndex, query: np.ndarray, k: int) -> list[NeighborResult]:
    """Exact top-k by cosine, ties broken by ascending article id.

    Full scan plus partial selection: partition for the k best, then widen
    to every row tied with the boundary similarity before the final sort,
    so boundary ties resolve by id exactly as a full sort would.
    """
    if not 1 <= k <= len(index):
        raise KTooLargeError(f"k={k} outside [1, {len(index)}]")
    sims = index.vectors @ query
    if k < len(sims):
        cut = np.argpartition(-sims, k - 1)[:k]
        pool = np.flatnonzero(sims >= sims[cut].min())
    else:
        pool = np.arange(len(sims))
    ids = np.asarray(index.article_ids)
    order = pool[np.lexsort((ids[pool], -sims[pool]))][:k]
    return [
        NeighborResult(index.article_ids[i], float(np.clip(sims[i], -1.0, 1.0))) for i in order
    ]


def customer_profile(
    customer_id: str,
    joined: list[tuple[TransactionRecord, PreparedArticle]],
    index: EmbeddingIndex,
) -> CustomerProfile:
    """Normalized mean of the index vectors of the customer's purchases."""
    purchased = {
        article.article_id
        for tx, article in joined
        if tx.customer_id == customer_id and article.article_id in index
    }
    if not purchased:
        return CustomerProfile(customer_id, frozenset(), None)
    mean = np.mean([index.row(a) for a in sorted(purchased)], axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < NORM_FLOOR:
        return CustomerProfile(customer_id, frozenset(purchased), None)
    return CustomerProfile(customer_id, frozenset(purchased), mean / norm)


def recommend(
    profile: CustomerProfile,
    index: EmbeddingIndex,
    popularity: list[str],
    n: int = 12,
) -> list[str]:
    """Exactly ``n`` distinct article ids for one customer.

    Profile customers get their nearest unpurchased neighbors, backfilled
    from popularity (still excluding purchases) if the filter leaves fewer
    than ``n``. Cold-start customers get the popularity head verbatim.
    Both paths extend from the catalog in ascending-id order as a last
    resort before giving up.
    """
    chosen: list[str] = []
    taken: set[str] = set()
    if profile.profile_vector is not None:
        excluded = profile.purchased_article_ids
        k = min(n + len(excluded), len(index))
        for neighbor in query_knn(index, profile.profile_vector, k):
            if neighbor.article_id not in excluded:
                chosen.append(neighbor.article_id)
                taken.add(neighbor.article_id)
                if len(chosen) == n:
                    return chosen
    else:
        excluded = frozenset()
    for pool in (popularity, sorted(index.article_ids)):
        for article_id in pool:
            if article_id in taken or article_id in excluded:
                continue
            chosen.append(article_id)
            taken.add(article_id)
            if len(chosen) == n:
                return chosen
    raise InsufficientCandidatesError(
        f"only {len(chosen)} of {n} candidates available for {profile.customer_id}"
    )


def popularity_ranking(transactions: list[TransactionRecord]) -> list[str]:
    """Article ids by purchase count descending, ties by id ascending."""
    counts = Counter(tx.article_id for tx in transactions)
    return sorted(counts, key=lambda a: (-counts[a], a))


# --- index persistence ---


def save_index(index: EmbeddingIndex, path: str | Path) -> None:
    """Write the index to ``path`` atomically in the TRECIDX1 layout, with
    the source block when the index has a source."""
    tag = METRIC_TAG.encode("utf-8")
    chunks = [
        INDEX_MAGIC,
        struct.pack("<2IB", len(index), index.vectors.shape[1], len(tag)),
        tag,
    ]
    for article_id in index.article_ids:
        raw = article_id.encode("ascii")
        if len(raw) != 10:
            raise ArtifactFormatError(f"article id {article_id!r} is not 10 ascii digits")
        chunks.append(raw)
    chunks.append(np.ascontiguousarray(index.vectors, dtype="<f8").tobytes())
    if index.source is not None:
        pooling = index.source.pooling.encode("ascii")
        chunks += [
            SOURCE_MAGIC,
            bytes.fromhex(index.source.checkpoint_sha256),
            struct.pack("<B", len(pooling)),
            pooling,
        ]
    atomic_write_bytes(path, b"".join(chunks))


def load_index(path: str | Path) -> EmbeddingIndex:
    blob = Path(path).read_bytes()
    reader = enc.ByteReader(blob, str(path))
    if reader.take(len(INDEX_MAGIC)) != INDEX_MAGIC:
        raise ArtifactFormatError(f"{path}: bad magic, not an index file")
    count, dim, tag_len = reader.unpack("<2IB")
    tag = reader.take(tag_len).decode("utf-8")
    if tag != METRIC_TAG:
        raise ArtifactFormatError(f"{path}: unsupported metric {tag!r}")
    article_ids = tuple(reader.take(10).decode("ascii") for _ in range(count))
    vectors = np.frombuffer(reader.take(count * dim * 8), dtype="<f8").reshape(count, dim)
    source = None
    if reader.offset != len(blob):
        if reader.take(len(SOURCE_MAGIC)) != SOURCE_MAGIC:
            raise ArtifactFormatError(f"{path}: unknown block after the payload")
        digest = reader.take(32).hex()
        (pooling_len,) = reader.unpack("<B")
        source = IndexSource(digest, reader.take(pooling_len).decode("ascii"))
    if reader.offset != len(blob):
        raise ArtifactFormatError(f"{path}: {len(blob) - reader.offset} trailing bytes")
    return EmbeddingIndex(article_ids, vectors.astype(np.float64), source)
