"""Item embeddings, exact nearest-neighbor retrieval and recommendation.

Every catalog article is embedded once (mean-pooled encoder states,
unit-normalized) into an in-memory matrix, through the encoder's batched
forward. Articles are grouped by live length and each group runs in
passes of ``encoder.rows_per_pass(length)`` articles cut to that length,
so no PAD position is embedded and a title of 8 tokens costs 8 positions,
not ``max_len``. Retrieval is an exact full scan: cosine similarity is a
dot product of unit vectors, top-k is selected by partition and ties are
broken by ascending article id so the ordering is total.

Serving is one pass over integer arrays built once per index or per call:
the index ranks its rows by ascending article id once (``id_rank``), so
tie-breaks compare integers; every customer's distinct purchases become
index rows through one sort of the purchase log's codes; exclusion and
the popularity and ascending-id backfills work on row numbers, and ids
are looked up only to write the result. Customers with no usable purchase
history get the popularity ranking. Each profile is scored with its own
matrix-vector product rather than a customers x articles matrix product:
the two round differently in the last bit, which can split exact ties
(duplicate titles) that a per-customer product keeps tied, and it keeps
the scores held at once to one row per article.

Index file layout (version TRECIDX1, little-endian):
    magic      8 bytes  b"TRECIDX1"
    header     uint32 row count, uint32 dimension, uint8 metric-tag
               length, metric tag utf-8 (always "cosine")
    id table   rows x 10 ascii bytes (zero-padded article ids)
    payload    rows x dimension float64, row-major
    source     optional: b"TRECSRC2", 32-byte sha256 of the checkpoint the
               vectors came from, 32-byte sha256 of the prepared-articles
               file whose texts were embedded, uint8 pooling length,
               pooling ascii

The source block trails the payload, so readers of the plain TRECIDX1
layout still read the file. A file without it, or with the earlier
b"TRECSRC1" block (no prepared-text digest), is of unknown origin.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder as enc
from .corpus import PreparedArticle, PurchaseLog
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
SOURCE_MAGIC = b"TRECSRC2"
# An earlier source block without the prepared-text digest: such an index is
# read as one of unknown origin.
UNTRACKED_TEXT_MAGIC = b"TRECSRC1"
METRIC_TAG = "cosine"

NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class IndexSource:
    """What an index's vectors were computed from: the sha256 of the
    checkpoint and of the prepared-articles file, and the pooling."""

    checkpoint_sha256: str
    prepared_sha256: str
    pooling: str


@dataclass
class EmbeddingIndex:
    """Unit-row embedding matrix aligned with an ordered article id list.

    ``source`` names what the vectors were computed from; it is None for an
    index of unknown origin. ``id_order`` lists the rows by ascending
    article id and ``id_rank`` is its inverse (a row's position in that
    order), so id tie-breaks compare integers.
    """

    article_ids: tuple[str, ...]
    vectors: np.ndarray
    source: IndexSource | None = None
    _row_of: dict[str, int] = field(init=False, repr=False)
    id_order: np.ndarray = field(init=False, repr=False)
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.article_ids) != self.vectors.shape[0]:
            raise ValueError("one vector row per article id required")
        if len(set(self.article_ids)) != len(self.article_ids):
            raise DuplicateArticleIdError("index article ids must be unique")
        if self.vectors.size and not self.norm_flag:
            raise ValueError("index rows must be unit length")
        self._row_of = {a: i for i, a in enumerate(self.article_ids)}
        self.id_order = np.argsort(np.asarray(self.article_ids, dtype=str), kind="stable")
        self.id_rank = np.empty_like(self.id_order)
        self.id_rank[self.id_order] = np.arange(len(self.id_order))

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
    """A customer's distinct indexed purchases and their normalized mean vector.

    ``rows`` are index rows in ascending article-id order. ``vector`` is None
    in the degenerate case where the purchase vectors cancel to (near) zero;
    such a customer is served like one without purchases.
    """

    rows: np.ndarray
    vector: np.ndarray | None


def build_index(
    articles: list[PreparedArticle],
    params: enc.EncoderParams,
    vocab: Vocabulary,
    pooling: str = "mean",
    source: IndexSource | None = None,
) -> EmbeddingIndex:
    """Embed every article as a unit vector, preserving input order.

    ``pooling`` is "mean" (average over non-PAD positions) or "cls"
    (position-0 state only). Articles are grouped by live length, in input
    order within a length, and each group runs through the encoder in
    passes of ``encoder.rows_per_pass(length)`` rows cut to that length, so
    no PAD position is embedded; the pooled vectors go back to their input
    rows. A row is computed as it would be alone at its own length, so its
    vector does not depend on the other rows of its pass.
    """
    if pooling not in ("mean", "cls"):
        raise ValueError(f"unknown pooling {pooling!r}")
    if not articles:
        raise ValueError("cannot build an index over zero articles")
    c = params.config
    batch = encode_batch([a.text for a in articles], vocab, c.max_len)
    lengths = batch.attn_mask.sum(axis=1)
    pooled = np.empty((len(articles), c.d_model))
    for width in sorted(set(lengths.tolist())):
        group = np.flatnonzero(lengths == width)
        step = enc.rows_per_pass(width)
        for start in range(0, len(group), step):
            rows = group[start : start + step]
            hidden = enc.forward(params, batch[rows, :width], record=False).hidden_states
            pooled[rows] = hidden[:, 0] if pooling == "cls" else hidden.sum(axis=1) / width
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


def top_rows(sims: np.ndarray, id_rank: np.ndarray, k: int) -> np.ndarray:
    """Rows of the ``k`` highest similarities, ties broken by ascending id.

    ``id_rank`` is the index's ``id_rank``. Partition for the k best, then
    widen to every row tied with the boundary similarity before the final
    sort, so boundary ties resolve by id exactly as a full sort would.
    """
    if k < len(sims):
        cut = np.argpartition(-sims, k - 1)[:k]
        pool = np.flatnonzero(sims >= sims[cut].min())
    else:
        pool = np.arange(len(sims))
    return pool[np.lexsort((id_rank[pool], -sims[pool]))][:k]


def query_knn(index: EmbeddingIndex, query: np.ndarray, k: int) -> list[NeighborResult]:
    """Exact top-k by cosine, ties broken by ascending article id."""
    if not 1 <= k <= len(index):
        raise KTooLargeError(f"k={k} outside [1, {len(index)}]")
    sims = index.vectors @ query
    return [
        NeighborResult(index.article_ids[i], float(np.clip(sims[i], -1.0, 1.0)))
        for i in top_rows(sims, index.id_rank, k)
    ]


def customer_profiles(log: PurchaseLog, index: EmbeddingIndex) -> dict[str, CustomerProfile]:
    """Profiles of every customer with a purchase in the index.

    Purchases of articles outside the index are ignored. The distinct
    (customer, article) purchases come from one sort of the log's codes, by
    customer and then ascending article id. A profile vector is the mean of
    the customer's rows in that order divided by its norm: the rows are
    summed one after another, as ``np.mean`` over the customer's rows sums
    them, so the vector equals that per-customer mean bit for bit.
    """
    n = len(index)
    row_of = index._row_of
    rank_of_code = np.array(
        [index.id_rank[row_of[a]] if a in row_of else -1 for a in log.article_ids],
        dtype=np.int64,
    )
    ranks = rank_of_code[log.articles]
    indexed = ranks >= 0
    keys = np.sort(log.customers[indexed] * n + ranks[indexed])
    # (np.unique would load numpy.ma, a cost every recommend would pay)
    owners, ranks = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    rows = index.id_order[ranks]
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    sizes = np.diff(starts, append=len(rows))
    # the j-th rows of every customer with more than j, added in turn
    sums = index.vectors[rows[starts]]
    for j in range(1, int(sizes.max(initial=1))):
        more = sizes > j
        sums[more] += index.vectors[rows[starts[more] + j]]
    means = sums / sizes[:, None]
    profiles = {}
    customers = owners[starts].tolist()
    for customer, start, size, mean in zip(customers, starts.tolist(), sizes.tolist(), means):
        norm = float(np.linalg.norm(mean))
        profiles[log.customer_ids[customer]] = CustomerProfile(
            rows[start : start + size], mean / norm if norm >= NORM_FLOOR else None
        )
    return profiles


def serve(
    customers: list[str],
    log: PurchaseLog,
    index: EmbeddingIndex,
    popularity: list[str],
    n: int = 12,
) -> list[tuple[str, ...]]:
    """Exactly ``n`` distinct article ids for each customer, in input order.

    A customer with a profile vector gets their nearest unpurchased
    neighbors: ``top_rows`` over ``min(n + purchases, len(index))`` rows with
    the purchases filtered out, backfilled from ``popularity`` and then the
    catalog in ascending-id order (still excluding purchases) if fewer than
    ``n`` remain. Every other customer (no indexed purchase, a degenerate
    profile, or never seen in ``log``) gets the popularity head
    verbatim, extended from the catalog in ascending-id order. Raises
    InsufficientCandidatesError at the first customer left short.

    Candidates are integers: index rows, then the popularity ids the index
    lacks. Each customer is scored with its own matrix-vector product, so a
    similarity never depends on which other customers are served.
    """
    if n < 1:
        raise KTooLargeError(f"n={n} must be at least 1")
    profiles = customer_profiles(log, index)
    labels = index.article_ids + tuple(a for a in dict.fromkeys(popularity) if a not in index)
    row_of = {a: i for i, a in enumerate(labels)}
    backfill = [row_of[a] for a in popularity] + index.id_order.tolist()
    cold: tuple[str, ...] | None = None  # the same for every customer without a profile
    served = []
    for customer_id in customers:
        profile = profiles.get(customer_id)
        if profile is None or profile.vector is None:
            if cold is None:
                cold = tuple(labels[row] for row in _backfill([], set(), backfill, n, customer_id))
            served.append(cold)
            continue
        excluded = set(profile.rows.tolist())
        k = min(n + len(excluded), len(index))
        nearest = top_rows(index.vectors @ profile.vector, index.id_rank, k).tolist()
        picks = [row for row in nearest if row not in excluded][:n]
        if len(picks) < n:
            picks = _backfill(picks, excluded, backfill, n, customer_id)
        served.append(tuple(labels[row] for row in picks))
    return served


def _backfill(
    chosen: list[int], excluded: set[int], candidates: list[int], n: int, customer_id: str
) -> list[int]:
    """Extend ``chosen`` from ``candidates`` in order, skipping repeats and
    exclusions, until it holds ``n`` rows."""
    taken = set(chosen)
    for row in candidates:
        if row not in taken and row not in excluded:
            chosen.append(row)
            taken.add(row)
            if len(chosen) == n:
                return chosen
    raise InsufficientCandidatesError(
        f"only {len(chosen)} of {n} candidates available for {customer_id}"
    )


def popularity_ranking(log: PurchaseLog) -> list[str]:
    """Article ids by purchase count descending, ties by id ascending."""
    counts = np.bincount(log.articles, minlength=len(log.article_ids))
    # codes order as ids do, so a stable sort breaks ties by ascending id
    order = np.argsort(-counts, kind="stable")
    return [log.article_ids[code] for code in order[: np.count_nonzero(counts)].tolist()]


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
            bytes.fromhex(index.source.prepared_sha256),
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
        magic = reader.take(len(SOURCE_MAGIC))
        if magic not in (SOURCE_MAGIC, UNTRACKED_TEXT_MAGIC):
            raise ArtifactFormatError(f"{path}: unknown block after the payload")
        checkpoint = reader.take(32).hex()
        prepared = reader.take(32).hex() if magic == SOURCE_MAGIC else None
        (pooling_len,) = reader.unpack("<B")
        pooling = reader.take(pooling_len).decode("ascii")
        if prepared is not None:
            source = IndexSource(checkpoint, prepared, pooling)
    if reader.offset != len(blob):
        raise ArtifactFormatError(f"{path}: {len(blob) - reader.offset} trailing bytes")
    return EmbeddingIndex(article_ids, vectors.astype(np.float64), source)
