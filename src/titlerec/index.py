"""Item embeddings, exact nearest-neighbor retrieval and recommendation.

Every catalog article is embedded once (the mean of the encoder states
over the title's positions, unit-normalized) into an in-memory matrix,
through the encoder's batched forward. Articles are grouped by live length
and each group runs in passes of ``encoder.rows_per_pass(length)``
articles cut to that length, so no PAD position is embedded and a title of
8 tokens costs 8 positions, not ``max_len``. On a catalog of at least ``HELPER_MIN_PASSES`` passes,
and when the process may run on more than one CPU, a helper thread takes
passes from the same plan as the calling thread: numpy and BLAS release
the GIL inside a pass's large operations, and a row's vector does not
depend on its pass, so the index is the same bytes whichever thread ran
which pass. Retrieval is an exact full scan: cosine similarity is a dot
product of unit vectors, and ``top_rows`` selects each query's top k by
one partition and breaks ties by ascending row, which is ascending
article id, since the catalog's ids ascend.

The index's rows are the catalog's, and so are the article codes of an
ingested purchase log (``corpus.PurchaseLog.of_articles``): a code is a
row. Serving selects for a block of customers at a time with whole-array
operations. Every customer's distinct purchases, and their profiles as one
matrix, come from one sort of the log's codes. ``similarities`` scores
each profile with its own matrix-vector product, so a score never depends
on which customers share the block, and identical rows share one float.
Purchases are set to -inf, and ``top_rows`` orders every customer's picks
as a full sort would. Customers with no usable purchase history share one
row, the popularity head extended by the catalog in row order. ``serve``
returns the picks as index rows; the catalog's ids label them only in the
submission.

Index file layout (TRECIDX1, little-endian):
    magic      8 bytes  b"TRECIDX1"
    header     uint32 row count, uint32 dimension, uint8 metric-tag
               length, metric tag utf-8 (always "cosine")
    id table   rows x 10 ascii bytes: the catalog's article ids, by row
    payload    rows x dimension float64, row-major
    source     b"TRECSRC3", then three 32-byte sha256 digests: of the
               checkpoint the vectors came from, of the prepared-articles
               file whose texts were embedded, and of the payload

``index.bin`` is a cache of the catalog's vectors with one rule:
``load_index`` returns them only when the whole file is, byte for byte,
what ``save_index`` would write for this run's catalog, width, checkpoint
and texts. Any other file (another catalog, checkpoint or text, a damaged
payload, a cut or lengthened file, an earlier layout) and no file at all
give None, and the caller rebuilds, so a result never depends on the cache.
The payload's digest carries the rule into the middle of the file. Readers
of the plain TRECIDX1 layout read the ids and vectors and skip the block.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import encoder as enc
from .corpus import PreparedArticle, PurchaseLog
from .ioutil import atomic_write_bytes
from .passes import run_passes, usable_cpus
from .errors import (
    ArtifactFormatError,
    DegenerateEmbeddingError,
    EmptyCorpusError,
    InsufficientCandidatesError,
    KTooLargeError,
)
from .tokenizer import Vocabulary, encode_single

INDEX_MAGIC = b"TRECIDX1"
SOURCE_MAGIC = b"TRECSRC3"
METRIC_TAG = b"cosine"

NORM_FLOOR = 1e-12

# Byte boundary every scored matrix starts on. malloc aligns to 16 bytes
# only, and OpenBLAS's matrix-vector product runs slower over a matrix whose
# address is 16 mod 32, with bit-identical scores: 1,800 queries over a
# 2,000 x 64 matrix took 24.5-24.9 ms against 18.9-19.5 ms (OpenBLAS
# 0.3.31, Haswell kernels, one thread, on a 2-core x86-64 machine).
MATRIX_ALIGNMENT = 64

# Passes a catalog's embedding plan must hold before ``build_index`` starts a
# helper thread. On a short plan the two threads' contention for the GIL
# costs about what the second core gives back, or more: in-process on 2
# cores, a helper made the benchmark's `planted` embedding (7 passes, about
# 13 ms) 3-24% slower, and at the `log` model's size (d_model 32) plans of
# 10 to 25 passes ran from 3% slower to 11% faster, plans of 32 or more
# 6-12% faster.
HELPER_MIN_PASSES = 32

# Similarities ``serve`` scores at once: a block of warm customers holds
# ``BLOCK_SCORES // len(index)`` of them (at least one), so the block's
# score matrix and its partitioned copy stay at 256 KiB each.
BLOCK_SCORES = 1 << 15


def aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-order float64 array of ``shape`` whose data starts
    on a ``MATRIX_ALIGNMENT``-byte boundary."""
    count = math.prod(shape)
    raw = np.empty(count + MATRIX_ALIGNMENT // 8)
    start = -raw.__array_interface__["data"][0] % MATRIX_ALIGNMENT // 8
    return raw[start : start + count].reshape(shape)


@dataclass
class EmbeddingIndex:
    """The catalog's embeddings, one unit row per catalog row. A row that is
    not unit length within 1e-6 (a NaN row included) raises ValueError."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):  # a huge row's norm is inf, and fails
            norms = np.linalg.norm(self.vectors, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise ValueError("index rows must be unit length")

    def __len__(self) -> int:
        return len(self.vectors)

    @cached_property
    def twins(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The distinct vectors, in first-occurrence order, and each row's
        position among them; None when no two rows are equal.

        Rows are compared by their bytes with -0.0 folded into 0.0, in a dict
        (np.unique would load numpy.ma, a cost every recommend would pay).
        """
        width = self.vectors.shape[1] * self.vectors.itemsize
        blob = (self.vectors + 0.0).tobytes()
        first_row: dict[bytes, int] = {}
        twin_of = [
            first_row.setdefault(blob[start : start + width], row)
            for row, start in enumerate(range(0, len(blob), width))
        ]
        if len(first_row) == len(self):
            return None
        firsts = np.fromiter(first_row.values(), dtype=np.int64, count=len(first_row))
        distinct = aligned_empty((len(firsts), self.vectors.shape[1]))
        np.take(self.vectors, firsts, axis=0, out=distinct)
        return distinct, np.searchsorted(firsts, twin_of)


@dataclass(frozen=True, eq=False)
class CustomerProfiles:
    """Every customer with a purchase, as arrays in customer-code order.

    Profile ``p`` belongs to the log's customer code ``owners[p]``. Its
    distinct purchases are the index rows ``rows[starts[p] : starts[p] +
    sizes[p]]``, ascending, and ``vectors[p]`` is their normalized mean.
    ``usable[p]`` is False in the degenerate case where the purchase vectors
    cancel to (near) zero; such a customer is served like one without
    purchases, and its vector row is zero.
    """

    owners: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    vectors: np.ndarray
    usable: np.ndarray


def build_index(
    articles: list[PreparedArticle],
    params: enc.EncoderParams,
    vocab: Vocabulary,
) -> EmbeddingIndex:
    """Embed every article as a unit vector, the mean of its encoder states
    over its non-PAD positions, preserving input order.

    Articles are grouped by live length, in input
    order within a length, and each group runs through the encoder in
    passes of ``encoder.rows_per_pass(length)`` rows cut to that length, so
    no PAD position is embedded; the pooled vectors go back to their input
    rows. A row is computed as it would be alone at its own length, so its
    vector does not depend on the other rows of its pass, nor on which
    thread ran the pass.

    When the plan holds at least ``HELPER_MIN_PASSES`` passes and the
    process may run on more than one CPU, one helper thread takes passes
    from the plan beside the calling thread, each writing its rows of the
    pooled matrix; ``passes.run_passes`` stops both threads at the first
    failure and joins the helper before raising it, and runs every pass on
    the calling thread when no helper can be started. A degenerate vector
    is reported for the first such article in input order.
    """
    if not articles:
        raise EmptyCorpusError("cannot build an index over zero articles")
    c = params.config
    batch = encode_single([vocab.word_ids(a.text) for a in articles], c.max_len)
    lengths = batch.attn_mask.sum(axis=1)
    plan = []
    for width in sorted(set(lengths.tolist())):
        group = np.flatnonzero(lengths == width)
        step = enc.rows_per_pass(width)
        plan += [(width, group[start : start + step]) for start in range(0, len(group), step)]
    pooled = np.empty((len(articles), c.d_model))

    def embed(item: tuple[int, np.ndarray]) -> None:
        width, rows = item
        hidden = enc.forward(params, batch[rows, :width], record=False).hidden_states
        pooled[rows] = hidden.sum(axis=1) / width

    helper = len(plan) >= HELPER_MIN_PASSES and usable_cpus() > 1
    run_passes(plan, embed, None, helper, "titlerec-embed")
    norms = np.linalg.norm(pooled, axis=1)
    degenerate = np.flatnonzero(~(norms >= NORM_FLOOR))  # a nan norm fails too
    if degenerate.size:
        first = int(degenerate[0])
        raise DegenerateEmbeddingError(
            f"article {articles[first].article_id}: embedding norm {norms[first]} "
            f"below {NORM_FLOOR}"
        )
    vectors = np.divide(pooled, norms[:, None], out=aligned_empty(pooled.shape))
    return EmbeddingIndex(vectors)


def top_rows(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best columns of each row of ``sims`` (queries x rows), by
    descending similarity and then ascending column, as ``(columns,
    similarities)``, each queries x k; ``1 <= k <= rows``.

    One partition finds every row's k-th best similarity. The columns at or
    above it, boundary ties included, are laid out as rows again, so one
    row-wise lexsort orders them all as a full sort would (a flat lexsort
    with the row as a third key is ~10x slower).
    """
    width = sims.shape[1]
    kth = np.partition(sims, width - k, axis=1)[:, width - k]
    pool = np.flatnonzero(sims >= kth[:, None])  # (2-D np.nonzero is ~8x slower)
    member, column = np.divmod(pool, width)
    counts = np.bincount(member, minlength=len(sims))
    place = np.arange(len(pool)) - np.repeat(np.cumsum(counts) - counts, counts)
    # padding sorts after every pool entry, and each row's pool holds at least k
    shape = (len(sims), int(counts.max(initial=0)))
    scores = np.full(shape, -np.inf)
    scores[member, place] = sims.ravel()[pool]
    columns = np.full(shape, width)
    columns[member, place] = column
    order = np.lexsort((columns, -scores), axis=1)[:, :k]
    return np.take_along_axis(columns, order, axis=1), np.take_along_axis(scores, order, axis=1)


def similarities(index: EmbeddingIndex, queries: np.ndarray) -> np.ndarray:
    """Cosine similarities of unit query rows to every index row (queries x rows).

    Each query gets its own matrix-vector product, written into its row, so
    a score never depends on the other queries. Identical index rows are
    scored once, from ``twins``, and share that float: BLAS rounds a
    matrix's last ``rows mod 4`` rows differently, so a title repeated there
    would otherwise score an ulp off its twin.
    """
    twins = index.twins
    matrix = index.vectors if twins is None else twins[0]
    scores = np.empty((len(queries), len(matrix)))
    for out, query in zip(scores, queries):
        np.matmul(matrix, query, out=out)
    return scores if twins is None else scores[:, twins[1]]


def customer_profiles(log: PurchaseLog, index: EmbeddingIndex) -> CustomerProfiles:
    """Profiles of every customer with a purchase in ``log``, whose article
    codes are index rows: its article table must have a row per index row.

    The distinct (customer, row) purchases come from one sort of the log's
    codes, by customer and then row. A profile vector is the mean of
    the customer's rows in that order divided by its norm: the rows are
    summed one after another, as ``np.mean`` over the customer's rows sums
    them, and each norm is the ``sqrt(mean.dot(mean))`` that
    ``np.linalg.norm`` takes, so the vector equals that per-customer
    arithmetic bit for bit.
    """
    if len(log.article_ids) != len(index):
        raise ValueError(
            f"the log's article table has {len(log.article_ids)} ids, the index {len(index)} rows"
        )
    n = len(index)
    keys = np.sort(log.customers * n + log.articles)
    # (np.unique would load numpy.ma, a cost every recommend would pay)
    owners, rows = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    sizes = np.diff(starts, append=len(rows))
    # the j-th rows of every customer with more than j, added in turn
    sums = index.vectors[rows[starts]]
    for j in range(1, int(sizes.max(initial=1))):
        more = sizes > j
        sums[more] += index.vectors[rows[starts[more] + j]]
    means = sums / sizes[:, None]
    norms = np.sqrt([mean.dot(mean) for mean in means])
    usable = norms >= NORM_FLOOR
    vectors = np.zeros_like(means)
    np.divide(means, norms[:, None], out=vectors, where=usable[:, None])
    return CustomerProfiles(owners[starts], starts, sizes, rows, vectors, usable)


def serve(
    customers: list[str],
    log: PurchaseLog,
    index: EmbeddingIndex,
    popularity: list[int],
    n: int = 12,
) -> np.ndarray:
    """Exactly ``n`` distinct picks for each customer, in input order: row
    ``i`` of the returned int array holds customer ``i``'s picks as index
    rows. ``log``'s article codes and ``popularity`` are index rows.

    A customer with a usable profile gets their ``n`` nearest unpurchased
    rows, by descending similarity and then ascending row (article id).
    Every other customer (no purchase, a degenerate profile, or never seen
    in ``log``) gets the popularity head, extended from the catalog in row
    order; they all share one row.
    Raises InsufficientCandidatesError naming the first customer, in input
    order, left with fewer than ``n`` candidates.
    """
    if n < 1:
        raise KTooLargeError(f"n={n} must be at least 1")
    profiles = customer_profiles(log, index)
    head = list(dict.fromkeys([*popularity, *range(len(index))]))[:n]
    usable = np.flatnonzero(profiles.usable)
    owners = [log.customer_ids[c] for c in profiles.owners[usable].tolist()]
    profile_of = dict(zip(owners, usable.tolist()))
    chosen = np.array([profile_of.get(c, -1) for c in customers], dtype=np.int64)

    picks = np.zeros((len(customers), n), dtype=np.int64)
    found = np.full(len(customers), len(head))  # candidates each customer has
    picks[chosen < 0, : len(head)] = head
    warm = np.flatnonzero(chosen >= 0)
    k = min(n, len(index))
    block = max(1, BLOCK_SCORES // max(len(index), 1))
    for first in range(0, len(warm), block):
        at = warm[first : first + block]
        members = chosen[at]
        sims = similarities(index, profiles.vectors[members])
        sizes = profiles.sizes[members]
        owner = np.repeat(np.arange(len(at)), sizes)
        offsets = np.repeat(profiles.starts[members] - np.cumsum(sizes) + sizes, sizes)
        sims[owner, profiles.rows[offsets + np.arange(len(owner))]] = -np.inf
        columns, scores = top_rows(sims, k)
        picks[at, :k] = columns
        # purchases (-inf) sort last, so a row with fewer than n finite
        # scores holds every unpurchased row there is
        found[at] = np.isfinite(scores).sum(axis=1)
    short = np.flatnonzero(found < n)
    if short.size:
        position = int(short[0])
        raise InsufficientCandidatesError(
            f"only {found[position]} of {n} candidates available for {customers[position]}"
        )
    return picks


def popularity_ranking(log: PurchaseLog) -> list[int]:
    """The article codes bought, by purchase count descending, ties by code
    (so by id) ascending."""
    counts = np.bincount(log.articles, minlength=len(log.article_ids))
    order = np.argsort(-counts, kind="stable")
    return order[: np.count_nonzero(counts)].tolist()


# --- index persistence ---


def _head(article_ids: Sequence[str], dim: int) -> bytes:
    """The bytes the TRECIDX1 layout puts before the payload of ``dim``-wide
    rows labelled ``article_ids``."""
    header = struct.pack("<2IB", len(article_ids), dim, len(METRIC_TAG))
    return INDEX_MAGIC + header + METRIC_TAG + "".join(article_ids).encode("ascii")


def _tail(digests: tuple[str, str], payload: bytes | memoryview) -> bytes:
    """The source block after ``payload``, computed from the checkpoint and
    prepared-articles files whose sha256 hex ``digests`` are given."""
    return SOURCE_MAGIC + b"".join(map(bytes.fromhex, digests)) + hashlib.sha256(payload).digest()


def save_index(
    index: EmbeddingIndex, article_ids: Sequence[str], path: str | Path, digests: tuple[str, str]
) -> None:
    """Write ``index`` to ``path`` atomically in the TRECIDX1 layout, its
    rows labelled with the catalog's ``article_ids``, one per row, and its
    source block naming the sha256 hex ``digests`` of the checkpoint and of
    the prepared-articles file it was built from."""
    if len(article_ids) != len(index) or not all(
        len(a) == 10 and a.isascii() for a in article_ids
    ):
        raise ArtifactFormatError(
            f"an index of {len(index)} rows needs as many article ids of 10 ascii characters"
        )
    payload = np.ascontiguousarray(index.vectors, dtype="<f8").tobytes()
    head = _head(article_ids, index.vectors.shape[1])
    atomic_write_bytes(path, b"".join([head, payload, _tail(digests, payload)]))


def load_index(
    path: str | Path, article_ids: Sequence[str], dim: int, digests: tuple[str, str]
) -> EmbeddingIndex | None:
    """The index stored at ``path`` when the file is, byte for byte, what
    ``save_index`` would write for ``dim``-wide vectors over the catalog's
    ``article_ids`` built from the files of these sha256 hex ``digests``;
    None for any other file, and when there is none."""
    head = _head(article_ids, dim)
    end = len(head) + 8 * len(article_ids) * dim
    blob = Path(path).read_bytes() if Path(path).is_file() else b""  # no file, no bytes
    payload = memoryview(blob)[len(head) : end]
    if not blob.startswith(head) or blob[end:] != _tail(digests, payload):
        return None
    vectors = aligned_empty((len(article_ids), dim))
    vectors[...] = np.frombuffer(payload, dtype="<f8").reshape(vectors.shape)
    try:
        return EmbeddingIndex(vectors)
    except ValueError:  # save_index writes unit rows only
        return None
