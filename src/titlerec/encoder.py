"""Small bidirectional transformer encoder in plain numpy, run over batches.

The model is the usual recipe: summed token/position/segment embeddings,
a stack of post-norm attention + feed-forward blocks, a per-position
vocabulary head and a single-logit pair head read from the CLS state.
Everything runs at float64 and the backward pass is written out by hand,
so analytic gradients can be checked against finite differences to tight
tolerance.

Special functions. numpy is the only dependency. The GELU gate is the
normal CDF through ``erf``, a port of Cephes' ``ndtr.c`` erf, the routine
scipy compiles for real ``erf``, so results equal scipy's bit for bit. For
|x| <= 1, where nearly all GELU inputs fall, it is one rational polynomial
in x^2, evaluated over the whole array by Horner's rule. Beyond that it is
``1 - erfc(x)``, whose ``e^(-x^2)`` factor must come from libm's ``exp``
(``math.exp``) one value at a time: ``np.exp`` differs from libm in the
last bit on some inputs, and that bit survives into the result. The pair
head's ``sigmoid`` uses libm's ``exp`` for the same reason; it runs on one
logit per pair row.

Batches. ``forward`` takes B rows of T tokens at once, as a
``TokenBatch`` of (B, T) arrays (token ids, segment ids and a live mask);
a single ``TokenSequence`` is accepted as a 1-row batch. The width T may
be anything from 1 to ``max_len``: the batch reads the first T rows of the
position table, and positions past T get no position gradient. Training
runs every pass at ``max_len``; embedding cuts each pass to the live
length of its rows (see ``index.build_index``). Activations are (B, T, d)
and every matrix product is a stacked per-row product, so a row goes
through exactly the operations it would go through alone: its hidden
states are bit-identical whatever its batch neighbours are.

Padding is masked per row: each row's PAD keys get a score of -inf before
the softmax, which makes their attention weight exactly zero, so hidden
states at live positions are also bit-identical no matter what token ids
sit in the padded tail.

Losses are per row as well. Masked-token targets are (row, position,
label) triples and pair labels are one per row (-1 for a row without a
pair term), so one pass may mix masked titles and title pairs.
``loss_and_grads`` returns the summed losses of the pass and the summed
gradients of all its rows.

The heads read only the masked targets and the CLS state of pair rows, so
a training pass may run its last layer at those positions only:
``read_positions`` lists each row's reads, padded to the pass's largest
count m with the row's lowest unread positions, and ``forward(reads=)``
runs the last layer's queries, attention rows, output projection, layer
norms and feed-forward block over B x m positions, with keys and values
over all T. The losses and every gradient stay bit-identical to the full
pass under two rules. m is at least 2: a product over one row per batch
row is a matrix-vector product, which BLAS rounds differently. And the
backward products by a transposed weight (``d @ W.T``: feed-forward
``w2`` and ``w1``, attention ``w_o`` and ``w_q``) run at full width with
zeros at the unread positions, and the read rows are gathered from the
result: BLAS picks its kernel by size, and over 2 to 8 rows it rounds some
shapes differently from the full-width product. Dropout masks are drawn
at full width and gathered, so the random stream does not move. The loss
functions refuse a target or pair CLS outside a trace's reads.

Parameters. ``EncoderParams`` holds every tensor as a reshaped view of
one contiguous float64 buffer, ``flat``, laid out back to back in
``parameter_shapes`` order (the checkpoint's order too). Gradients and the
optimizer's moments are arenas of the same layout (``zero_grads``), so an
optimizer step is a few whole-buffer operations instead of a loop over
~40 tensors. ``tensors`` is a read-only mapping: a tensor is changed in
place (``params[name][...] = x``) and cannot be rebound to an array
outside the arena. ``init_params``, ``load_checkpoint``, ``copy`` and
construction from a plain mapping each fill a fresh arena.

Pass budget. Callers feed at most ``rows_per_pass(width)`` rows, about
``PASS_TOKEN_BUDGET`` tokens, to one forward/backward pass of that width,
whatever their batch size. That bounds the activations a pass holds: 16
rows at width 16, 5 rows at width 48, 51 rows of a 5-token title.

Checkpoint layout (version TRENC001, little-endian):
    magic            8 bytes  b"TRENC001"
    config           6 x uint32 (vocab_size, d_model, n_heads, n_layers,
                     d_ff, max_len) + 2 x float64 (dropout_rate,
                     layer_norm_epsilon)
    tensor count     uint32
    per tensor       uint16 name length, utf-8 name, uint8 ndim,
                     ndim x uint32 dims, float64 data in C order
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .ioutil import atomic_write_bytes
from .errors import (
    ArtifactFormatError,
    CheckpointMismatchError,
    InvalidConfigError,
    NoRecordedForwardError,
    PositionOutOfRangeError,
    ShapeMismatchError,
    UnreadPositionError,
)
from .tokenizer import TokenBatch, TokenSequence

CHECKPOINT_MAGIC = b"TRENC001"

INIT_SCALE = 0.02
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Tokens one forward/backward pass may hold; see rows_per_pass.
PASS_TOKEN_BUDGET = 256


def rows_per_pass(width: int) -> int:
    """Rows of ``width`` tokens that fit the pass budget (at least one)."""
    return max(1, PASS_TOKEN_BUDGET // width)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    max_len: int = 48
    dropout_rate: float = 0.0
    layer_norm_epsilon: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_len < 5:
            raise InvalidConfigError(f"max_len must be >= 5, got {self.max_len}")
        if self.d_model % self.n_heads != 0:
            raise InvalidConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.layer_norm_epsilon <= 0.0:
            raise InvalidConfigError("layer_norm_epsilon must be positive")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


class EncoderParams:
    """Named parameter tensors, all views of one flat float64 arena.

    ``flat`` holds the tensors back to back in ``tensors`` order. ``tensors``
    is a read-only mapping: a tensor is written in place (``t[...] = x``),
    never rebound, so it cannot leave the arena. Built from a mapping of
    arrays, the arena gets a copy of each.
    """

    def __init__(self, config: EncoderConfig, tensors: Mapping[str, np.ndarray]):
        self._lay_out(config, {name: np.shape(t) for name, t in tensors.items()}, None)
        for name, tensor in tensors.items():
            self.tensors[name][...] = tensor

    @classmethod
    def _on(cls, config: EncoderConfig, shapes: Mapping[str, tuple[int, ...]], flat):
        """Params over ``flat`` (a fresh uninitialized arena when None)."""
        params = cls.__new__(cls)
        params._lay_out(config, shapes, flat)
        return params

    def _lay_out(self, config, shapes, flat) -> None:
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.config = config
        self.flat = np.empty(sum(sizes)) if flat is None else flat
        views = {}
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            views[name] = self.flat[offset : offset + size].reshape(shape)
            offset += size
        self.tensors = MappingProxyType(views)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: t.shape for name, t in self.tensors.items()}

    def copy(self) -> "EncoderParams":
        return EncoderParams._on(self.config, self.shapes(), self.flat.copy())


@dataclass
class ForwardTrace:
    """Hidden states (B, T, d) of one forward pass, plus the cache the
    backward pass needs when the pass was recorded. ``reads`` holds the
    (B, m) positions the last layer computed when the pass was cut to
    them (see ``read_positions``); its hidden states are zero elsewhere."""

    hidden_states: np.ndarray
    cache: dict | None = field(default=None, repr=False)
    reads: np.ndarray | None = field(default=None, repr=False)


def parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes; also fixes serialization order."""
    c = config
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (c.vocab_size, c.d_model),
        "position_embedding": (c.max_len, c.d_model),
        "segment_embedding": (2, c.d_model),
    }
    for i in range(c.n_layers):
        p = f"layer{i}"
        shapes[f"{p}.attn.w_q"] = (c.d_model, c.d_model)
        shapes[f"{p}.attn.b_q"] = (c.d_model,)
        shapes[f"{p}.attn.w_k"] = (c.d_model, c.d_model)
        shapes[f"{p}.attn.b_k"] = (c.d_model,)
        shapes[f"{p}.attn.w_v"] = (c.d_model, c.d_model)
        shapes[f"{p}.attn.b_v"] = (c.d_model,)
        shapes[f"{p}.attn.w_o"] = (c.d_model, c.d_model)
        shapes[f"{p}.attn.b_o"] = (c.d_model,)
        shapes[f"{p}.ln1.gain"] = (c.d_model,)
        shapes[f"{p}.ln1.bias"] = (c.d_model,)
        shapes[f"{p}.ffn.w1"] = (c.d_model, c.d_ff)
        shapes[f"{p}.ffn.b1"] = (c.d_ff,)
        shapes[f"{p}.ffn.w2"] = (c.d_ff, c.d_model)
        shapes[f"{p}.ffn.b2"] = (c.d_model,)
        shapes[f"{p}.ln2.gain"] = (c.d_model,)
        shapes[f"{p}.ln2.bias"] = (c.d_model,)
    shapes["mlm_head.weight"] = (c.d_model, c.vocab_size)
    shapes["mlm_head.bias"] = (c.vocab_size,)
    shapes["np_head.weight"] = (c.d_model, 1)
    shapes["np_head.bias"] = (1,)
    return shapes


def init_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    """Gaussian(0, 0.02) weight matrices, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    params = EncoderParams._on(config, parameter_shapes(config), None)
    for name, tensor in params.tensors.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("gain",):
            tensor.fill(1.0)
        elif leaf in ("bias", "b_q", "b_k", "b_v", "b_o", "b1", "b2"):
            tensor.fill(0.0)
        else:
            tensor[...] = rng.normal(0.0, INIT_SCALE, size=tensor.shape)
    return params


def zero_grads(params: EncoderParams) -> EncoderParams:
    """A zeroed arena in the layout of ``params``, for gradients or moments."""
    return EncoderParams._on(params.config, params.shapes(), np.zeros_like(params.flat))


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and 1 - erfc(x)
# beyond, with erfc(x) = e^(-x^2) P(x) / Q(x). U and Q have an implied
# leading coefficient of 1.
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_SQRT_2 = float(np.sqrt(2.0))


def _horner(z, coefs: tuple[float, ...], monic: bool = False):
    """Cephes ``p1evl`` (``monic``) or ``polevl`` at ``z``, one rounding per step."""
    if monic:
        p = z + coefs[0]
    else:
        p = z * coefs[0]
        p += coefs[1]
    for c in coefs[1 if monic else 2 :]:
        p *= z
        p += c
    return p


def _libm_exp(v: float) -> float:
    """libm's e^v, with an overflow read as inf."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _erf_unit(x: np.ndarray) -> np.ndarray:
    """Cephes erf where every |x| <= 1: x T(x^2) / U(x^2)."""
    z = x * x
    p = _horner(z, _ERF_T)
    p *= x
    p /= _horner(z, _ERF_U, monic=True)
    return p


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """Cephes erf of a 1-d array of |x| > 1 (or nan): +-(1 - erfc(|x|)).

    erfc(a) = e^(-a^2) P(a) / Q(a), with e^(-a^2) from libm one value at a
    time. From a = 6 on, erfc(a) < 2^-54, so 1 - erfc(a) rounds to exactly 1
    whatever erfc's last bits are: Cephes' other branch for erfc (a >= 8)
    and its underflow rule never change an erf result, so they are left
    out. A nan input gives a plain nan, as in Cephes.
    """
    a = np.abs(x)
    y = np.minimum(a, 1.0)  # 1.0, or a plain nan for a nan
    rows = np.flatnonzero(a < 6.0)
    b = a[rows]
    e = np.fromiter(map(math.exp, (-b * b).tolist()), np.float64, len(b))
    y[rows] = 1.0 - e * _horner(b, _ERFC_P) / _horner(b, _ERFC_Q, monic=True)
    np.negative(y, out=y, where=x < 0.0)
    return y


def erf(x) -> np.ndarray:
    """The error function, equal bit for bit to Cephes' (and so scipy's) erf.

    The common case, every |x| <= 1, is the Cephes rational polynomial run
    in place over the whole array. Otherwise the values outside that range
    go through ``1 - erfc``, whose exponential needs libm's ``exp``: the
    vectorized ``np.exp`` differs from it in the last bit on some inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    # a nan makes both reductions nan, which fails the test
    if x.max(initial=0.0) <= 1.0 and x.min(initial=0.0) >= -1.0:
        return _erf_unit(x)
    flat = x.reshape(-1)
    out = _erf_unit(np.clip(flat, -1.0, 1.0))
    outside = np.flatnonzero(~(np.abs(flat) <= 1.0))
    out[outside] = _erf_tail(flat[outside])
    return out.reshape(x.shape)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) per element with libm's ``exp``, equal to scipy's expit.

    Meant for the few pair logits of a pass; a huge negative logit gives 0.0.
    """
    z = np.asarray(z, dtype=np.float64)
    values = [1.0 / (1.0 + _libm_exp(-v)) for v in z.reshape(-1).tolist()]
    return np.array(values, dtype=np.float64).reshape(z.shape)


def gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, the gate of GELU: 0.5 (1 + erf(x / sqrt 2))."""
    cdf = erf(x / _SQRT_2)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x: np.ndarray) -> np.ndarray:
    return x * gelu_cdf(x)


def gelu_grad(x: np.ndarray, cdf: np.ndarray | None = None) -> np.ndarray:
    """d gelu / dx; pass the forward's ``gelu_cdf(x)`` to skip recomputing it."""
    if cdf is None:
        cdf = gelu_cdf(x)
    # cdf + x pdf(x), pdf(x) = exp(-0.5 x x) / sqrt(2 pi), built in one buffer
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad /= _SQRT_2PI
    grad *= x
    grad += cdf
    return grad


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Per-position normalization. Returns (out, x_hat, inv_std) for backward.

    A mean is ``np.add.reduce`` over the width divided by the width, the
    sum and division ``ndarray.mean`` makes, without its Python wrapper.
    """
    width = x.shape[-1]
    x_hat = x - np.add.reduce(x, axis=-1, keepdims=True) / width
    var = np.add.reduce(x_hat * x_hat, axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + eps)
    x_hat *= inv
    out = x_hat * gain
    out += bias
    return out, x_hat, inv


def layer_norm_backward(d_out, x_hat, inv, gain):
    """Gradients of layer_norm: returns (d_x, d_gain, d_bias)."""
    width = x_hat.shape[-1]
    d_x = d_out * gain
    m1 = np.add.reduce(d_x, axis=-1, keepdims=True) / width
    m2 = np.add.reduce(d_x * x_hat, axis=-1, keepdims=True) / width
    # inv * (d_hat - m1 - x_hat * m2), in place
    d_x -= m1
    d_x -= x_hat * m2
    d_x *= inv
    return d_x, _rows(d_out * x_hat).sum(axis=0), _rows(d_out).sum(axis=0)


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, kept as an axis of 1.

    The rows are copied to columns and reduced across them: on rows of a
    few dozen values that beats ``ndarray.max``, and a max is exact in any
    order.
    """
    columns = np.ascontiguousarray(_rows(x).T)
    return np.maximum.reduce(columns, axis=0).reshape(x.shape[:-1] + (1,))


def _rows(x: np.ndarray) -> np.ndarray:
    """(B, T, n) -> (B*T, n): every position as one row."""
    return x.reshape(-1, x.shape[-1])


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)


def _as_batch(rows: TokenBatch | TokenSequence) -> TokenBatch:
    """A ``TokenBatch`` as is; a single ``TokenSequence`` as a 1-row batch."""
    if isinstance(rows, TokenSequence):
        return TokenBatch.stack([rows], len(rows))
    return rows


def read_positions(targets, np_labels, width: int) -> np.ndarray | None:
    """The positions of each row the loss heads read, for ``forward(reads=)``.

    ``targets`` are (row, position, label) triples and ``np_labels`` holds
    one pair label per row (-1 for none), as for ``loss_and_grads``.
    Returns a (B, m) array of each row's sorted, distinct positions: its
    masked-token targets, plus position 0 for a pair row. A row that needs
    fewer than m is padded with its lowest unread positions, whose
    gradient is zero. m is the most positions any row needs, but at least
    2 (see *Batches*); when m reaches ``width`` the result is None, meaning
    every position.
    """
    labels = np.atleast_1d(np.asarray(np_labels, dtype=np.int64))
    targets = _mlm_targets(targets, len(labels), width)
    need = np.zeros((len(labels), width), dtype=bool)
    need[targets[:, 0], targets[:, 1]] = True
    need[labels >= 0, 0] = True
    m = max(2, int(need.sum(axis=1).max(initial=0)))
    if m >= width:
        return None
    # a stable sort puts each row's needed positions first, in order
    return np.sort(np.argsort(~need, axis=1, kind="stable")[:, :m], axis=1)


def _read_picks(reads, n_rows: int, width: int) -> np.ndarray:
    """(B, m) indices into ``_rows`` of a (B, width, n) array: each row's
    reads, after checking they are distinct, sorted and in range."""
    if (
        reads.ndim != 2
        or reads.shape[0] != n_rows
        or not 2 <= reads.shape[1] <= width
        or not np.issubdtype(reads.dtype, np.integer)
    ):
        raise ShapeMismatchError(
            f"reads must be ({n_rows}, m) integer positions with 2 <= m <= {width}"
        )
    if n_rows and (
        reads[:, 0].min() < 0 or reads[:, -1].max() >= width or (np.diff(reads, axis=1) <= 0).any()
    ):
        raise PositionOutOfRangeError(
            f"each row's reads must be sorted, distinct positions in [0, {width})"
        )
    return np.arange(n_rows)[:, None] * width + reads


def _gather(x: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """(B, T, n) -> (B, m, n): the rows of ``_rows(x)`` that ``picks`` names."""
    return _rows(x)[picks]


def _scatter(x: np.ndarray, picks: np.ndarray, width: int) -> np.ndarray:
    """(B, m, n) -> (B, width, n): ``x`` at its picks, zero everywhere else."""
    b, _, n = x.shape
    out = np.zeros((b * width, n))
    out[picks] = x
    return out.reshape(b, width, n)


def _times_transposed(d: np.ndarray, weight: np.ndarray, picks, width: int) -> np.ndarray:
    """``d @ weight.T``. With ``picks``, ``d`` holds read positions only and
    the product still runs at full width (zeros elsewhere) and is gathered
    back, so each row is rounded as in the full pass (see *Batches*)."""
    if picks is None:
        return d @ weight.T
    return _gather(_scatter(d, picks, width) @ weight.T, picks)


def _dropout_mask(rng, shape, rate: float, picks) -> np.ndarray:
    """A full-width keep mask scaled by 1/(1-rate), gathered to ``picks`` if
    given: the draw is the same either way."""
    keep = rng.random(shape) >= rate
    if picks is not None:
        keep = _gather(keep, picks)
    return keep / (1.0 - rate)


def forward(
    params: EncoderParams,
    rows: TokenBatch | TokenSequence,
    record: bool = True,
    rng: np.random.Generator | None = None,
    reads: np.ndarray | None = None,
) -> ForwardTrace:
    """Run the encoder over a batch of rows of one width, 1 to ``max_len``.

    With ``record`` the trace keeps every intermediate needed by
    ``loss_and_grads``; embedding-only callers switch it off. Dropout is
    applied only when both ``rng`` is given and the config rate is nonzero,
    so inference is deterministic by default. ``reads`` (from
    ``read_positions``) cuts the last layer's per-position work to each
    row's read positions; its keys and values still cover every position,
    and its hidden states are zero at the others.
    """
    c = params.config
    batch = _as_batch(rows)
    width = batch.max_len
    if not 1 <= width <= c.max_len:
        raise ShapeMismatchError(f"sequence length {width} outside [1, max_len {c.max_len}]")
    ids = batch.ids
    if ids.size and (ids.min() < 0 or ids.max() >= c.vocab_size):
        raise ShapeMismatchError(f"token ids must lie in [0, {c.vocab_size})")
    picks = None
    if reads is not None:
        reads = np.asarray(reads)
        picks = _read_picks(reads, len(batch), width)
    segments = batch.segments
    # (B, 1, 1, T): broadcast over heads and query positions
    pad_keys = ~batch.attn_mask.astype(bool)[:, None, None, :]

    drop_rate = c.dropout_rate if rng is not None else 0.0

    x = (
        params["token_embedding"][ids]
        + params["position_embedding"][:width]
        + params["segment_embedding"][segments]
    )
    cache: dict | None = None
    if record:
        cache = {"ids": ids, "segments": segments, "picks": picks, "layers": []}

    scale = 1.0 / np.sqrt(c.d_head)
    for i in range(c.n_layers):
        p = f"layer{i}"
        # the last layer of a pass with reads runs its queries at them only
        layer_picks = picks if i == c.n_layers - 1 else None
        x_q = x if layer_picks is None else _gather(x, layer_picks)
        q = _split_heads(x_q @ params[f"{p}.attn.w_q"] + params[f"{p}.attn.b_q"], c.n_heads)
        k = _split_heads(x @ params[f"{p}.attn.w_k"] + params[f"{p}.attn.b_k"], c.n_heads)
        v = _split_heads(x @ params[f"{p}.attn.w_v"] + params[f"{p}.attn.b_v"], c.n_heads)
        # softmax over keys, in place: scores become the attention weights
        attn = q @ k.transpose(0, 1, 3, 2)
        attn *= scale
        np.copyto(attn, -np.inf, where=pad_keys)
        # exp(-inf) underflows to exactly 0, so PAD keys get weight 0.0
        attn -= _row_max(attn)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(attn @ v)
        attn_out = ctx @ params[f"{p}.attn.w_o"] + params[f"{p}.attn.b_o"]
        drop1 = None
        if drop_rate > 0.0:
            drop1 = _dropout_mask(rng, x.shape, drop_rate, layer_picks)
            attn_out = attn_out * drop1
        ln1_out, ln1_hat, ln1_inv = layer_norm(
            x_q + attn_out, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"], c.layer_norm_epsilon
        )
        h1 = ln1_out @ params[f"{p}.ffn.w1"] + params[f"{p}.ffn.b1"]
        cdf = gelu_cdf(h1)
        ffn_out = (h1 * cdf) @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]
        drop2 = None
        if drop_rate > 0.0:
            drop2 = _dropout_mask(rng, x.shape, drop_rate, layer_picks)
            ffn_out = ffn_out * drop2
        ln2_out, ln2_hat, ln2_inv = layer_norm(
            ln1_out + ffn_out,
            params[f"{p}.ln2.gain"],
            params[f"{p}.ln2.bias"],
            c.layer_norm_epsilon,
        )
        if cache is not None:
            # ln1_out and the GELU output are recomputed from ln1_hat and cdf
            cache["layers"].append(
                {
                    "x_in": x,
                    "x_q": x_q,
                    "q": q,
                    "k": k,
                    "v": v,
                    "attn": attn,
                    "ctx": ctx,
                    "drop1": drop1,
                    "ln1_hat": ln1_hat,
                    "ln1_inv": ln1_inv,
                    "h1": h1,
                    "cdf": cdf,
                    "drop2": drop2,
                    "ln2_hat": ln2_hat,
                    "ln2_inv": ln2_inv,
                }
            )
        x = ln2_out

    if picks is not None:
        x = _scatter(x, picks, width)
    return ForwardTrace(hidden_states=x, cache=cache, reads=reads)


def _mlm_targets(targets, n_rows: int, max_len: int) -> np.ndarray:
    """(M, 3) int array of (row, position, label).

    (position, label) pairs are accepted for a 1-row batch.
    """
    arr = np.asarray(targets, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    if arr.ndim == 2 and arr.shape[1] == 2 and n_rows == 1:
        arr = np.column_stack([np.zeros(len(arr), dtype=np.int64), arr])
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ShapeMismatchError("masked-token targets must be (row, position, label) triples")
    if arr[:, 0].min() < 0 or arr[:, 0].max() >= n_rows:
        raise ShapeMismatchError(f"target rows must lie in [0, {n_rows})")
    if arr[:, 1].min() < 0 or arr[:, 1].max() >= max_len:
        raise PositionOutOfRangeError(f"target positions must lie in [0, {max_len})")
    return arr


def _pair_labels(np_labels, n_rows: int) -> np.ndarray:
    """(B,) int array of pair labels, -1 where a row has no pair term.

    None means no row has one; a plain int is accepted for a 1-row batch.
    """
    if np_labels is None:
        return np.full(n_rows, -1, dtype=np.int64)
    arr = np.atleast_1d(np.asarray(np_labels, dtype=np.int64))
    if arr.shape != (n_rows,):
        raise ShapeMismatchError(f"need one pair label per row ({n_rows}), got {arr.shape}")
    return arr


def _head_terms(params: EncoderParams, trace: ForwardTrace, targets, np_labels):
    """Both heads over a pass: summed losses plus what their gradients need.

    The masked-token term is the NLL of each target's softmax row; the pair
    term is log(1 + e^z) - label*z, the exact binary cross-entropy of
    sigmoid(z), finite for any finite logit. A pass cut to its reads
    refuses a target or pair CLS outside them.
    """
    h_final = trace.hidden_states
    b, t, _ = h_final.shape
    targets = _mlm_targets(targets, b, t)
    labels = _pair_labels(np_labels, b)
    pair_rows = np.flatnonzero(labels >= 0)
    if trace.reads is not None:
        readable = np.zeros((b, t), dtype=bool)
        readable[np.arange(b)[:, None], trace.reads] = True
        if not (readable[targets[:, 0], targets[:, 1]].all() and readable[pair_rows, 0].all()):
            raise UnreadPositionError(
                "a masked-token target or pair CLS lies outside the pass's read positions"
            )
    h_mlm = h_final[targets[:, 0], targets[:, 1]]
    mlm_sum = 0.0
    probs = None
    if len(targets):
        logits = h_mlm @ params["mlm_head.weight"] + params["mlm_head.bias"]
        m = logits.max(axis=-1, keepdims=True)
        shifted = np.exp(logits - m)
        total = shifted.sum(axis=-1, keepdims=True)
        picked = logits[np.arange(len(targets)), targets[:, 2]]
        mlm_sum = float(np.sum(m[:, 0] + np.log(total[:, 0]) - picked))
        probs = shifted / total
    y = labels[pair_rows].astype(np.float64)
    h_cls = h_final[pair_rows, 0]
    z = h_cls @ params["np_head.weight"][:, 0] + params["np_head.bias"][0]
    np_sum = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return mlm_sum, np_sum, (targets, h_mlm, probs, pair_rows, y, h_cls, z)


def sequence_loss(
    params: EncoderParams,
    trace: ForwardTrace,
    mlm_targets,
    np_labels,
) -> tuple[float, float]:
    """Loss terms of a forward pass: (sum of masked-token NLLs, sum of pair BCEs).

    ``mlm_targets`` are (row, position, label) triples, or (position, label)
    pairs for a 1-row batch. ``np_labels`` holds one label per row (-1 for
    a row without a pair term); None means no pair terms, and a plain int
    is accepted for a 1-row batch. A trace cut to its reads raises
    ``UnreadPositionError`` for a target or pair CLS outside them.
    """
    mlm_sum, np_sum, _ = _head_terms(params, trace, mlm_targets, np_labels)
    return mlm_sum, np_sum


def loss_and_grads(
    params: EncoderParams,
    trace: ForwardTrace,
    mlm_targets,
    np_labels=None,
    mlm_scale: float = 1.0,
    np_scale: float = 1.0,
    into: EncoderParams | None = None,
) -> tuple[float, float, EncoderParams]:
    """Losses plus gradients of mlm_scale*mlm_sum + np_scale*np_sum.

    Targets and labels are as for ``sequence_loss``. Gradients are summed
    over every row of the recorded pass; the scales let a training step
    weight the pass (for example 1/total masked positions of the step).
    They are added in place to ``into``, an arena in the layout of
    ``params`` (see ``zero_grads``) holding earlier passes' gradients, which
    is returned; without it they go to a fresh zeroed arena. So a
    multi-pass step holds one gradient arena for all its passes.
    """
    if trace.cache is None:
        raise NoRecordedForwardError("forward was run without record=True")
    c = params.config
    cache = trace.cache
    h_final = trace.hidden_states
    mlm_sum, np_sum, heads = _head_terms(params, trace, mlm_targets, np_labels)
    targets, h_mlm, probs, pair_rows, y, h_cls, z = heads
    grads = zero_grads(params) if into is None else into
    if not len(targets) and not len(pair_rows):
        return 0.0, 0.0, grads

    def put(name: str, grad: np.ndarray) -> None:
        target = grads[name]
        target += grad

    d_h = np.zeros_like(h_final)
    w_mlm = params["mlm_head.weight"]
    if len(targets):
        d_logits = probs
        d_logits[np.arange(len(targets)), targets[:, 2]] -= 1.0
        d_logits *= mlm_scale
        put("mlm_head.weight", h_mlm.T @ d_logits)
        put("mlm_head.bias", d_logits.sum(axis=0))
        np.add.at(d_h, (targets[:, 0], targets[:, 1]), d_logits @ w_mlm.T)

    w_np = params["np_head.weight"][:, 0]
    d_z = (sigmoid(z) - y) * np_scale
    put("np_head.weight", (h_cls.T @ d_z)[:, None])
    put("np_head.bias", d_z.sum())
    d_h[pair_rows, 0] += d_z[:, None] * w_np

    width = h_final.shape[1]
    scale = 1.0 / np.sqrt(c.d_head)
    for i in reversed(range(c.n_layers)):
        p = f"layer{i}"
        lc = cache["layers"][i]
        layer_picks = cache["picks"] if i == c.n_layers - 1 else None
        if layer_picks is not None:
            d_h = _gather(d_h, layer_picks)
        d_res2, d_gain, d_bias = layer_norm_backward(
            d_h, lc["ln2_hat"], lc["ln2_inv"], params[f"{p}.ln2.gain"]
        )
        put(f"{p}.ln2.gain", d_gain)
        put(f"{p}.ln2.bias", d_bias)

        d_ffn_out = d_res2 if lc["drop2"] is None else d_res2 * lc["drop2"]
        h1, cdf = lc["h1"], lc["cdf"]
        put(f"{p}.ffn.w2", _rows(h1 * cdf).T @ _rows(d_ffn_out))
        put(f"{p}.ffn.b2", _rows(d_ffn_out).sum(axis=0))
        d_h1 = _times_transposed(d_ffn_out, params[f"{p}.ffn.w2"], layer_picks, width)
        d_h1 *= gelu_grad(h1, cdf)
        ln1_out = params[f"{p}.ln1.gain"] * lc["ln1_hat"] + params[f"{p}.ln1.bias"]
        put(f"{p}.ffn.w1", _rows(ln1_out).T @ _rows(d_h1))
        put(f"{p}.ffn.b1", _rows(d_h1).sum(axis=0))
        d_ln1_out = d_res2 + _times_transposed(d_h1, params[f"{p}.ffn.w1"], layer_picks, width)

        d_res1, d_gain, d_bias = layer_norm_backward(
            d_ln1_out, lc["ln1_hat"], lc["ln1_inv"], params[f"{p}.ln1.gain"]
        )
        put(f"{p}.ln1.gain", d_gain)
        put(f"{p}.ln1.bias", d_bias)

        d_attn_out = d_res1 if lc["drop1"] is None else d_res1 * lc["drop1"]
        put(f"{p}.attn.w_o", _rows(lc["ctx"]).T @ _rows(d_attn_out))
        put(f"{p}.attn.b_o", _rows(d_attn_out).sum(axis=0))
        d_ctx = _split_heads(
            _times_transposed(d_attn_out, params[f"{p}.attn.w_o"], layer_picks, width),
            c.n_heads,
        )

        attn = lc["attn"]
        d_v = _merge_heads(attn.transpose(0, 1, 3, 2) @ d_ctx)
        # softmax rows, in place: PAD-key columns have weight 0, so grad 0
        d_scores = d_ctx @ lc["v"].transpose(0, 1, 3, 2)
        d_scores -= np.sum(d_scores * attn, axis=-1, keepdims=True)
        d_scores *= attn
        d_q = _merge_heads((d_scores @ lc["k"]) * scale)
        d_k = _merge_heads((d_scores.transpose(0, 1, 3, 2) @ lc["q"]) * scale)
        del d_scores

        x_in, x_q = _rows(lc["x_in"]), _rows(lc["x_q"])
        for name, x_proj, d_proj in (("q", x_q, d_q), ("k", x_in, d_k), ("v", x_in, d_v)):
            put(f"{p}.attn.w_{name}", x_proj.T @ _rows(d_proj))
            put(f"{p}.attn.b_{name}", _rows(d_proj).sum(axis=0))
        if layer_picks is not None:
            # back to full width; the query product runs there anyway
            d_res1 = _scatter(d_res1, layer_picks, width)
            d_q = _scatter(d_q, layer_picks, width)
        d_x = d_res1
        for name, d_proj in (("q", d_q), ("k", d_k), ("v", d_v)):
            d_x += d_proj @ params[f"{p}.attn.w_{name}"].T
        d_h = d_x

    d_rows = _rows(d_h)
    np.add.at(grads["token_embedding"], cache["ids"].ravel(), d_rows)
    # Two segment rows: each sums its positions' gradients onto itself in
    # position order, as np.add.at would, with one reduction.
    segments = cache["segments"].ravel()
    table = grads["segment_embedding"]
    for s in range(len(table)):
        table[s] = np.add.reduce(np.concatenate([table[s : s + 1], d_rows[segments == s]]), axis=0)
    # positions past a narrower pass's width get no gradient
    positions = grads["position_embedding"][: d_h.shape[1]]
    positions += d_h.sum(axis=0)
    return mlm_sum, np_sum, grads


# --- checkpoint io ---


def save_checkpoint(params: EncoderParams, path: str | Path) -> None:
    """Write params to ``path`` atomically in the TRENC001 layout."""
    c = params.config
    chunks = [
        CHECKPOINT_MAGIC,
        struct.pack(
            "<6I2d",
            c.vocab_size,
            c.d_model,
            c.n_heads,
            c.n_layers,
            c.d_ff,
            c.max_len,
            c.dropout_rate,
            c.layer_norm_epsilon,
        ),
        struct.pack("<I", len(params.tensors)),
    ]
    for name, tensor in params.tensors.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(chunks))


class ByteReader:
    """Cursor over a binary blob that fails loudly on truncation."""

    def __init__(self, blob: bytes, source: str):
        self.blob = blob
        self.source = source
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise ArtifactFormatError(f"{self.source}: truncated at byte {self.offset}")
        piece = self.blob[self.offset : self.offset + n]
        self.offset += n
        return piece

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str | Path, expected_config: EncoderConfig | None = None) -> EncoderParams:
    """Read a TRENC001 checkpoint; any structural inconsistency fails loudly.

    ``expected_config`` must match the stored config in every field but
    ``dropout_rate``, which only shapes training.
    """
    reader = ByteReader(Path(path).read_bytes(), str(path))
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise ArtifactFormatError(f"{path}: bad magic, not a checkpoint file")
    v, d_model, n_heads, n_layers, d_ff, max_len, dropout, eps = reader.unpack("<6I2d")
    try:
        config = EncoderConfig(v, d_model, n_heads, n_layers, d_ff, max_len, dropout, eps)
    except InvalidConfigError as exc:
        raise ArtifactFormatError(f"{path}: invalid stored config ({exc})") from None
    if expected_config is not None and (
        replace(config, dropout_rate=expected_config.dropout_rate) != expected_config
    ):
        raise CheckpointMismatchError(
            f"{path}: stored config {config} != expected {expected_config}"
        )
    (count,) = reader.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.take(name_len).decode("utf-8")
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}I")
        size = int(np.prod(shape)) if ndim else 1
        tensors[name] = np.frombuffer(reader.take(size * 8), dtype="<f8").reshape(shape)
    expected_shapes = parameter_shapes(config)
    if set(tensors) != set(expected_shapes):
        raise CheckpointMismatchError(f"{path}: tensor names do not match the stored config")
    for name, shape in expected_shapes.items():
        if tensors[name].shape != shape:
            raise CheckpointMismatchError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, expected {shape}"
            )
    # the arena copies each tensor in, in parameter_shapes order
    return EncoderParams(config, {name: tensors[name] for name in expected_shapes})
