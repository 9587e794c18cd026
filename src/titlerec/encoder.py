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

Blocks. The encoder is a chain of block functions, each beside its
backward (``_embed_backward`` and so on): the embedding sum (``_embed``),
self-attention plus its residual (``_attention``), the GELU feed-forward
plus its residual (``_feed_forward``), layer norm (``_norm``) and the two
heads (``_head_terms``, ``_heads_backward``). A block's forward returns
``(out, saved)`` (the heads return their two loss sums and ``saved``); its
backward takes the gradient of ``out`` and ``saved``, appends the block's
parameter gradients to the pass's list of adds (see *Gradient adds*) and
returns the gradient of its input. ``forward`` is the embedding sum and
then one loop over the layers (attention, norm, feed-forward, norm);
``loss_and_grads`` runs the heads' backward and then the same blocks'
backwards in reverse.

Batches. ``forward`` takes B rows of T tokens at once, as a
``TokenBatch`` of (B, T) arrays (token ids, segment ids and a live mask).
The width T may be anything from 1 to ``max_len``: the batch reads the
first T rows of the position table, and positions past T get no position
gradient. Training runs every pass at ``max_len``; embedding cuts each
pass to the live length of its rows (see ``index.build_index``).
Activations are (B, T, d) and every matrix product is a stacked per-row
product, so a row goes through exactly the operations it would go through
alone: its hidden states are bit-identical whatever its batch neighbours
are.

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
over all T: ``forward`` hands the reads to that layer's attention and
feed-forward blocks and scatters the layer's output back to full width,
and ``loss_and_grads`` gathers the heads' gradient back to the reads. The
losses and every gradient stay bit-identical to the full pass under two
rules. m is at least 2: a product over one row per batch row is a
matrix-vector product, which BLAS rounds differently. And the
backward products by a transposed weight (``d @ W.T``: feed-forward
``w2`` and ``w1``, attention ``w_o`` and ``w_q``) run at full width with
zeros at the unread positions, and the read rows are gathered from the
result: BLAS picks its kernel by size, and over 2 to 8 rows it rounds some
shapes differently from the full-width product. The loss functions
refuse a target or pair CLS outside a trace's reads.

Parameters. ``EncoderConfig`` is the model's shape and nothing else.
``EncoderParams(config, flat)`` holds every tensor as a reshaped view of
one contiguous float64 buffer, ``flat``, laid out back to back in
``parameter_shapes`` order (the checkpoint's order too); without ``flat``
it lays them out over a fresh arena. Gradients and the optimizer's moments
are arenas of the same layout (``zero_grads``), so an optimizer step is a
few whole-buffer operations instead of a loop over ~40 tensors.
``tensors`` is a read-only mapping: a tensor is changed in place
(``params[name][...] = x``) and cannot be rebound to an array outside the
arena. Layer norm's epsilon is the constant ``LAYER_NORM_EPSILON``.

Gradient adds. ``loss_and_grads`` returns a pass's parameter gradients
as a list of adds ``(name, value, indices)``, one per tensor, in the order
the backward computed them. ``EncoderParams.add`` adds such a list into an
arena in place: ``value`` into the tensor's leading rows when ``indices``
is None (the position table's rows past a narrower pass's width get
nothing), else ``np.add.at`` of ``value`` at the tensor's flat
``indices``, the token and segment tables' scatter (see
``_element_indices``). Sums of floats depend on their order, so a caller
adds its passes' lists in pass order (``objectives.batch_loss_and_grads``
through ``passes.run_passes``): every tensor then takes the same adds in
the same order whichever thread ran which pass.

Pass budget. Callers feed at most ``rows_per_pass(width)`` rows, about
``PASS_TOKEN_BUDGET`` tokens, to one forward/backward pass of that width,
whatever their batch size. That bounds the activations a pass holds: 16
rows at width 16, 5 rows at width 48, 51 rows of a 5-token title.
Embedding and training may each run two passes at once, one per thread
(``passes.run_passes``), so the process may hold twice that. A backward
spends its trace: ``loss_and_grads`` takes the cache off the trace and
drops each block's saved arrays as soon as that block's backward returns,
so a pass's activations shrink while its list of adds grows; the
masked-token head's weight gradient, the largest add, is made last. That
list, about one gradient arena of products, lives from its backward until
it is added, which waits for the passes before it.

Checkpoint layout (version TRENC002, little-endian): the shape, then the
arena. The shape fixes every tensor's name, shape and place in the arena.
    magic            8 bytes  b"TRENC002"
    shape            6 x uint32 (vocab_size, d_model, n_heads, n_layers,
                     d_ff, max_len)
    arena            ``flat`` as float64, ``parameter_count`` values
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .ioutil import ByteReader, atomic_write_bytes
from .errors import (
    ArtifactFormatError,
    InvalidConfigError,
    NoRecordedForwardError,
    PositionOutOfRangeError,
    ShapeMismatchError,
    UnreadPositionError,
)
from .tokenizer import TokenBatch

CHECKPOINT_MAGIC = b"TRENC002"

INIT_SCALE = 0.02
LAYER_NORM_EPSILON = 1e-5
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Tokens one forward/backward pass may hold; see rows_per_pass.
PASS_TOKEN_BUDGET = 256

# One gradient add of a pass: tensor name, value and the flat indices of a
# scatter-add, or None (see *Gradient adds*).
GradAdd = tuple[str, np.ndarray, np.ndarray | None]


def rows_per_pass(width: int) -> int:
    """Rows of ``width`` tokens that fit the pass budget (at least one)."""
    return max(1, PASS_TOKEN_BUDGET // width)


@dataclass(frozen=True)
class EncoderConfig:
    """The model's shape: it fixes every tensor's shape (``parameter_shapes``)."""

    vocab_size: int
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    max_len: int

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

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


class EncoderParams:
    """Named parameter tensors, all views of one flat float64 arena.

    The tensors of ``parameter_shapes(config)`` are laid out back to back,
    in that order, over ``flat``: the given 1-d float64 array of
    ``parameter_count(config)`` values (not copied), or a fresh
    uninitialized one when it is None. ``tensors`` is a read-only mapping:
    a tensor is written in place (``t[...] = x``), never rebound, so it
    cannot leave the arena.
    """

    def __init__(self, config: EncoderConfig, flat: np.ndarray | None = None):
        self.config = config
        self.flat = np.empty(parameter_count(config)) if flat is None else flat
        views = {}
        offset = 0
        for name, shape in parameter_shapes(config).items():
            size = math.prod(shape)
            views[name] = self.flat[offset : offset + size].reshape(shape)
            offset += size
        self.tensors = MappingProxyType(views)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def add(self, adds: list[GradAdd]) -> None:
        """Add a pass's gradient adds into this arena in place, in list
        order (see *Gradient adds*)."""
        for name, value, indices in adds:
            tensor = self.tensors[name]
            if indices is None:
                tensor[: len(value)] += value
            else:
                np.add.at(tensor.reshape(-1), indices, value)


@dataclass
class ForwardTrace:
    """Hidden states (B, T, d) of one forward pass, plus the cache the
    backward pass needs when the pass was recorded: the embedding sum's
    saved arrays, one (attention, ln1, feed-forward, ln2) tuple of saved
    arrays per layer, and the last layer's row picks (None for a full
    pass). ``loss_and_grads`` spends the cache: it takes it off the trace
    and sets ``spent``. ``reads`` holds the (B, m) positions the last layer
    computed when the pass was cut to them (see ``read_positions``); its
    hidden states are zero elsewhere."""

    hidden_states: np.ndarray
    cache: tuple | None = field(default=None, repr=False)
    reads: np.ndarray | None = field(default=None, repr=False)
    spent: bool = field(default=False, repr=False)


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


def parameter_count(config: EncoderConfig) -> int:
    """Floats in the arena of ``config``: its tensors' sizes summed.

    Every layer holds as many floats, so the count comes from a one- and a
    two-layer model; a stored ``n_layers`` of 2**32 - 1 costs nothing to
    count (listing its tensors would exhaust memory).
    """
    one, two = (
        sum(math.prod(shape) for shape in parameter_shapes(replace(config, n_layers=n)).values())
        for n in (1, 2)
    )
    return one + (config.n_layers - 1) * (two - one)


def init_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    """Gaussian(0, 0.02) weight matrices, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    params = EncoderParams(config)
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
    return EncoderParams(params.config, np.zeros_like(params.flat))


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


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx of GELU(x) = x cdf(x), given the forward's ``cdf = gelu_cdf(x)``."""
    # cdf + x pdf(x), pdf(x) = exp(-0.5 x x) / sqrt(2 pi), built in one buffer
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad /= _SQRT_2PI
    grad *= x
    grad += cdf
    return grad


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-position normalization with ``LAYER_NORM_EPSILON``. Returns
    (out, x_hat, inv_std) for backward.

    A mean is ``np.add.reduce`` over the width divided by the width, the
    sum and division ``ndarray.mean`` makes, without its Python wrapper.
    """
    width = x.shape[-1]
    x_hat = x - np.add.reduce(x, axis=-1, keepdims=True) / width
    var = np.add.reduce(x_hat * x_hat, axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPSILON)
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
    labels = np.asarray(np_labels, dtype=np.int64)
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


def _element_indices(rows: np.ndarray, width: int) -> np.ndarray:
    """The flat indices of every element of rows ``rows`` of a C-contiguous
    table ``width`` wide, row by row.

    ``np.add.at(table.reshape(-1), _element_indices(rows, width),
    values.reshape(-1))`` is ``np.add.at(table, rows, values)``: every
    element takes the same adds in the same order, and numpy's ``add.at`` is
    several times faster over a 1-d array than over rows.
    """
    return (rows.reshape(-1, 1).astype(np.intp) * width + np.arange(width)).reshape(-1)


def _add_projection_grads(grads: list[GradAdd], weight: str, bias: str, x, d_y) -> None:
    """Append the gradients of ``y = x @ weight + bias`` given ``d_y``,
    the gradient of ``y``, to ``grads`` as adds to the ``weight`` and
    ``bias`` tensors."""
    grads.append((weight, _rows(x).T @ _rows(d_y), None))
    grads.append((bias, _rows(d_y).sum(axis=0), None))


# --- the blocks and their backwards (see *Blocks*) ---


def _embed(params: EncoderParams, batch: TokenBatch):
    """Token + position + segment rows of a batch of width 1 to ``max_len``."""
    c = params.config
    width = batch.max_len
    if not 1 <= width <= c.max_len:
        raise ShapeMismatchError(f"sequence length {width} outside [1, max_len {c.max_len}]")
    ids, segments = batch.ids, batch.segments
    if ids.size and (ids.min() < 0 or ids.max() >= c.vocab_size):
        raise ShapeMismatchError(f"token ids must lie in [0, {c.vocab_size})")
    if segments.size and (segments.min() < 0 or segments.max() > 1):
        raise ShapeMismatchError("segment ids must be 0 or 1")
    x = (
        params["token_embedding"][ids]
        + params["position_embedding"][:width]
        + params["segment_embedding"][segments]
    )
    return x, (ids, segments)


def _embed_backward(grads: list[GradAdd], d_x: np.ndarray, saved) -> None:
    """Append the three tables' gradients; the sum has no input to pass on."""
    ids, segments = saved
    d_flat = d_x.reshape(-1)
    for name, rows in (("token_embedding", ids), ("segment_embedding", segments)):
        grads.append((name, d_flat, _element_indices(rows, d_x.shape[-1])))
    # (T, d): positions past a narrower pass's width get no gradient
    grads.append(("position_embedding", d_x.sum(axis=0), None))


def _attention(params: EncoderParams, p: str, x: np.ndarray, pad_keys, picks):
    """Self-attention with its residual: ``x_q + attention(x)``.

    The queries, and so the output, are at ``picks`` when given (``x_q`` is
    ``x`` gathered there), else at every position; keys and values cover
    every position of ``x``. ``pad_keys`` (B, 1, 1, T) marks each row's PAD
    keys.
    """
    c = params.config
    x_q = x if picks is None else _gather(x, picks)
    q = _split_heads(x_q @ params[p + "attn.w_q"] + params[p + "attn.b_q"], c.n_heads)
    k = _split_heads(x @ params[p + "attn.w_k"] + params[p + "attn.b_k"], c.n_heads)
    v = _split_heads(x @ params[p + "attn.w_v"] + params[p + "attn.b_v"], c.n_heads)
    # softmax over keys, in place: scores become the attention weights
    weights = q @ k.transpose(0, 1, 3, 2)
    weights *= 1.0 / math.sqrt(c.d_head)
    np.copyto(weights, -np.inf, where=pad_keys)
    # exp(-inf) underflows to exactly 0, so PAD keys get weight 0.0
    weights -= _row_max(weights)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(weights @ v)
    out = ctx @ params[p + "attn.w_o"] + params[p + "attn.b_o"]
    return x_q + out, (x, x_q, q, k, v, weights, ctx, picks)


def _attention_backward(params: EncoderParams, grads, p: str, d_out: np.ndarray, saved):
    """Gradient of ``x`` at every position, whatever the picks."""
    x, x_q, q, k, v, weights, ctx, picks = saved
    c = params.config
    width = x.shape[1]
    scale = 1.0 / math.sqrt(c.d_head)
    _add_projection_grads(grads, p + "attn.w_o", p + "attn.b_o", ctx, d_out)
    d_ctx = _split_heads(_times_transposed(d_out, params[p + "attn.w_o"], picks, width), c.n_heads)
    d_v = _merge_heads(weights.transpose(0, 1, 3, 2) @ d_ctx)
    # softmax rows, in place: PAD-key columns have weight 0, so grad 0
    d_scores = d_ctx @ v.transpose(0, 1, 3, 2)
    d_scores -= np.sum(d_scores * weights, axis=-1, keepdims=True)
    d_scores *= weights
    d_q = _merge_heads((d_scores @ k) * scale)
    d_k = _merge_heads((d_scores.transpose(0, 1, 3, 2) @ q) * scale)
    del d_scores
    _add_projection_grads(grads, p + "attn.w_q", p + "attn.b_q", x_q, d_q)
    _add_projection_grads(grads, p + "attn.w_k", p + "attn.b_k", x, d_k)
    _add_projection_grads(grads, p + "attn.w_v", p + "attn.b_v", x, d_v)
    # the block's saved arrays go before the full-width products below
    del saved, x, x_q, q, k, v, weights, ctx, d_ctx
    if picks is not None:
        # back to full width; the query product runs there anyway
        d_out = _scatter(d_out, picks, width)
        d_q = _scatter(d_q, picks, width)
    d_x = d_out + d_q @ params[p + "attn.w_q"].T
    d_x += d_k @ params[p + "attn.w_k"].T
    d_x += d_v @ params[p + "attn.w_v"].T
    return d_x


def _feed_forward(params: EncoderParams, p: str, x: np.ndarray, picks, width: int):
    """The GELU feed-forward with its residual: ``x + ffn(x)``; ``x`` holds
    a pass ``width`` wide, or its ``picks`` when given."""
    h1 = x @ params[p + "ffn.w1"] + params[p + "ffn.b1"]
    cdf = gelu_cdf(h1)
    out = (h1 * cdf) @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
    return x + out, (x, h1, cdf, picks, width)


def _feed_forward_backward(params: EncoderParams, grads, p: str, d_out: np.ndarray, saved):
    x, h1, cdf, picks, width = saved
    # the GELU output is recomputed, not saved: kept alive through each
    # embedding pass, it made the benchmark's later warm recommend slower
    _add_projection_grads(grads, p + "ffn.w2", p + "ffn.b2", h1 * cdf, d_out)
    d_h1 = _times_transposed(d_out, params[p + "ffn.w2"], picks, width)
    d_h1 *= gelu_grad(h1, cdf)
    _add_projection_grads(grads, p + "ffn.w1", p + "ffn.b1", x, d_h1)
    return d_out + _times_transposed(d_h1, params[p + "ffn.w1"], picks, width)


def _norm(params: EncoderParams, name: str, x: np.ndarray):
    """``layer_norm`` with the ``name`` gain and bias."""
    gain, bias = params[name + ".gain"], params[name + ".bias"]
    out, x_hat, inv = layer_norm(x, gain, bias)
    return out, (x_hat, inv)


def _norm_backward(params: EncoderParams, grads, name: str, d_out: np.ndarray, saved):
    d_x, d_gain, d_bias = layer_norm_backward(d_out, *saved, params[name + ".gain"])
    grads.append((name + ".gain", d_gain, None))
    grads.append((name + ".bias", d_bias, None))
    return d_x


def forward(
    params: EncoderParams,
    batch: TokenBatch,
    record: bool = True,
    reads: np.ndarray | None = None,
) -> ForwardTrace:
    """Run the encoder over a batch of rows of one width, 1 to ``max_len``.

    With ``record`` the trace keeps every intermediate needed by
    ``loss_and_grads``; embedding-only callers switch it off. ``reads``
    (from ``read_positions``) cuts the last layer's per-position work to
    each row's read positions; its keys and values still cover every
    position, and its hidden states are zero at the others.
    """
    c = params.config
    x, embedded = _embed(params, batch)
    width = batch.max_len
    picks = None
    if reads is not None:
        reads = np.asarray(reads)
        picks = _read_picks(reads, len(batch), width)
    # (B, 1, 1, T): broadcast over heads and query positions
    pad_keys = ~batch.attn_mask.astype(bool)[:, None, None, :]
    layers = []
    for i in range(c.n_layers):
        p = f"layer{i}."
        # the last layer of a pass with reads runs its queries at them only
        cut = picks if i == c.n_layers - 1 else None
        x, attention = _attention(params, p, x, pad_keys, cut)
        x, norm1 = _norm(params, p + "ln1", x)
        x, ffn = _feed_forward(params, p, x, cut, width)
        x, norm2 = _norm(params, p + "ln2", x)
        if record:
            layers.append((attention, norm1, ffn, norm2))
    if picks is not None:
        x = _scatter(x, picks, width)
    cache = (embedded, layers, picks) if record else None
    return ForwardTrace(hidden_states=x, cache=cache, reads=reads)


def _mlm_targets(targets, n_rows: int, max_len: int) -> np.ndarray:
    """(M, 3) int array of (row, position, label)."""
    arr = np.asarray(targets, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ShapeMismatchError("masked-token targets must be (row, position, label) triples")
    if arr[:, 0].min() < 0 or arr[:, 0].max() >= n_rows:
        raise ShapeMismatchError(f"target rows must lie in [0, {n_rows})")
    if arr[:, 1].min() < 0 or arr[:, 1].max() >= max_len:
        raise PositionOutOfRangeError(f"target positions must lie in [0, {max_len})")
    return arr


def _pair_labels(np_labels, n_rows: int) -> np.ndarray:
    """(B,) int array of pair labels, -1 where a row has no pair term."""
    arr = np.asarray(np_labels, dtype=np.int64)
    if arr.shape != (n_rows,):
        raise ShapeMismatchError(f"need one pair label per row ({n_rows}), got {arr.shape}")
    return arr


def _head_terms(params: EncoderParams, trace: ForwardTrace, targets, np_labels):
    """Both heads over a pass: summed losses plus what their backward needs
    (None when the pass has no target and no pair row).

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
    if not len(targets) and not len(pair_rows):
        return 0.0, 0.0, None
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
    return mlm_sum, np_sum, (h_final.shape, targets, h_mlm, probs, pair_rows, y, h_cls, z)


def _heads_backward(params: EncoderParams, grads, saved, mlm_scale: float, np_scale: float):
    """Gradient of mlm_scale*mlm_sum + np_scale*np_sum by the hidden states,
    and the masked-token head's input and output gradient ``(h_mlm,
    d_logits)`` (None without a target), from which the caller takes that
    head's gradients."""
    shape, targets, h_mlm, probs, pair_rows, y, h_cls, z = saved
    d_h = np.zeros(shape)
    mlm_head = None
    if len(targets):
        d_logits = probs
        d_logits[np.arange(len(targets)), targets[:, 2]] -= 1.0
        d_logits *= mlm_scale
        mlm_head = (h_mlm, d_logits)
        flat = _element_indices(targets[:, 0] * shape[1] + targets[:, 1], shape[-1])
        np.add.at(d_h.reshape(-1), flat, (d_logits @ params["mlm_head.weight"].T).reshape(-1))
    d_z = (sigmoid(z) - y) * np_scale
    _add_projection_grads(grads, "np_head.weight", "np_head.bias", h_cls, d_z[:, None])
    d_h[pair_rows, 0] += d_z[:, None] * params["np_head.weight"][:, 0]
    return d_h, mlm_head


def loss_and_grads(
    params: EncoderParams,
    trace: ForwardTrace,
    mlm_targets,
    np_labels,
    mlm_scale: float = 1.0,
    np_scale: float = 1.0,
) -> tuple[float, float, list[GradAdd]]:
    """Losses (sum of masked-token NLLs, sum of pair BCEs) plus gradients
    of mlm_scale*mlm_sum + np_scale*np_sum.

    ``mlm_targets`` are (row, position, label) triples and ``np_labels``
    holds one label per row (-1 for a row without a pair term). A trace cut
    to its reads raises ``UnreadPositionError`` for a target or pair CLS
    outside them. Gradients are summed
    over every row of the recorded pass; the scales let a training step
    weight the pass (for example 1/total masked positions of the step).
    They are returned as the pass's list of adds (see *Gradient adds*),
    empty for a pass with no target and no pair row; ``EncoderParams.add``
    adds them into an arena in the layout of ``params`` (see
    ``zero_grads``), so a multi-pass step holds one gradient arena for all
    its passes.

    The trace is spent, as ``objectives.adam_update`` spends its gradients
    (see *Pass budget*): once the heads' checks pass, its cache is taken off
    it and ``spent`` is set, and each block's saved arrays are released as
    soon as that block's backward returns. A call that fails those checks
    leaves the trace whole; a second call on a spent trace raises
    ``NoRecordedForwardError``. To read several losses off one batch, run
    ``forward`` once per loss.
    """
    if trace.cache is None:
        raise NoRecordedForwardError(
            "the backward already ran on this trace; run forward again"
            if trace.spent
            else "forward was run without record=True"
        )
    mlm_sum, np_sum, heads = _head_terms(params, trace, mlm_targets, np_labels)
    embedded, layers, picks = trace.cache
    trace.cache, trace.spent = None, True
    grads: list[GradAdd] = []
    if heads is None:
        return mlm_sum, np_sum, grads
    d_h, mlm_head = _heads_backward(params, grads, heads, mlm_scale, np_scale)
    if picks is not None:
        d_h = _gather(d_h, picks)
    for i in reversed(range(len(layers))):
        p = f"layer{i}."
        # each block's saved arrays are popped into its backward, so they
        # go when it returns
        saved = list(layers.pop())  # attention, ln1, feed-forward, ln2
        d_h = _norm_backward(params, grads, p + "ln2", d_h, saved.pop())
        d_h = _feed_forward_backward(params, grads, p, d_h, saved.pop())
        d_h = _norm_backward(params, grads, p + "ln1", d_h, saved.pop())
        d_h = _attention_backward(params, grads, p, d_h, saved.pop())
    _embed_backward(grads, d_h, embedded)
    if mlm_head is not None:
        # last, once the blocks' saved arrays are gone: the (d, V) weight
        # gradient outweighs the (M, V) logit gradient it is made from when,
        # as in a pass of titles, fewer than d_model targets are masked
        _add_projection_grads(grads, "mlm_head.weight", "mlm_head.bias", *mlm_head)
    return mlm_sum, np_sum, grads


# --- checkpoint io ---


def save_checkpoint(params: EncoderParams, path: str | Path) -> None:
    """Write params to ``path`` atomically in the TRENC002 layout."""
    shape = struct.pack("<6I", *astuple(params.config))
    arena = params.flat.astype("<f8", copy=False).tobytes()
    atomic_write_bytes(path, CHECKPOINT_MAGIC + shape + arena)


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, str]:
    """Read a TRENC002 checkpoint, and the sha256 hex digest of its bytes;
    any structural inconsistency fails loudly.

    The stored shape must pass ``EncoderConfig``'s rules, and the file must
    hold exactly its arena. The arena is allocated only once the file is
    known to hold it, so a stored shape too large for the file reads as
    truncated. Whether that shape is the one a caller wants is the caller's
    check (``cli.cmd_recommend`` makes it, and records the digest as the
    provenance of the index it builds).
    """
    reader = ByteReader(Path(path).read_bytes(), str(path))
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise ArtifactFormatError(
            f"{path}: bad magic, not a {CHECKPOINT_MAGIC.decode()} checkpoint; "
            "re-run `titlerec train`"
        )
    try:
        config = EncoderConfig(*reader.unpack("<6I"))
    except InvalidConfigError as exc:
        raise ArtifactFormatError(f"{path}: invalid stored config ({exc})") from None
    arena = reader.array("<f8", parameter_count(config))
    reader.finish()
    params = EncoderParams(config)
    params.flat[...] = arena  # a writable copy, not a view of the file's bytes
    return params, hashlib.sha256(reader.blob).hexdigest()
