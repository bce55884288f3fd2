"""Model core: parameters, projection into entity space, NCE loss with
analytic gradients, the Adam update, and model persistence.

The projection of a token sequence s is f(s) = tanh(W h + b) with h the mean
of the tokens' embeddings, rows of word_rows (the paper's columns of W_v). An
instance's log-probability under noise-contrastive estimation is
log sigma(e+ . f) plus the sum over the z negatives of log(1 - sigma(e- . f)).
The batch loss averages the negated log-probabilities and adds (lambda / 2m)
times the squared Frobenius norms of W_v, W and W_e; b is not regularized.
"""

import dataclasses
import importlib.machinery
import importlib.util
import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, LSEError, SizeError
from .files import atomic_open, check_id, check_unique, read_lines, write_json

MAGIC = b"LSEM0001"
# The container's arrays in its order, each a ModelParams attribute in its layout
PARAM_FIELDS = ("W_v", "W", "b", "W_e")


@dataclass(frozen=True)
class Dims:
    e_v: int
    e_e: int
    vocab_size: int
    num_entities: int

    def __post_init__(self):
        if min(self.e_v, self.e_e, self.vocab_size, self.num_entities) < 1:
            raise DataError("all model dimensions must be positive")
        # the arrays init_params draws: W_v, W_e and W
        SizeError.check(vars(self), ("e_v", "vocab_size"), ("num_entities", "e_e"),
                        ("e_e", "e_v"))


@dataclass(eq=False)
class ModelParams:
    """The four learnable arrays, or the batch loss's gradients of them, or
    Adam's moments of those; iterating yields the arrays in PARAM_FIELDS
    order, the container's, with word_rows in W_v's place. Copies are
    C-contiguous, as the training step and Adam need."""

    word_rows: np.ndarray  # (|V|, e_V), row i = embedding of word id i
    W: np.ndarray    # (e_E, e_V), the word-to-entity linear map
    b: np.ndarray    # (e_E,), bias
    W_e: np.ndarray  # (|X|, e_E), row i = representation of entity i

    def __post_init__(self):
        e_e = self.b.shape[0]
        if self.W.shape != (e_e, self.word_rows.shape[1]) or self.W_e.shape[1] != e_e:
            raise DataError("parameter shapes are mutually inconsistent")

    def __iter__(self):
        return iter((self.word_rows, self.W, self.b, self.W_e))

    @property
    def W_v(self):
        """The paper's (e_V, |V|) word matrix, the container's layout: a view."""
        return self.word_rows.T

    @property
    def dims(self):
        return Dims(self.word_rows.shape[1], self.b.shape[0],
                    self.word_rows.shape[0], self.W_e.shape[0])

    @property
    def dtype(self):
        return self.word_rows.dtype

    def copy(self):
        return ModelParams(*(a.copy() for a in self))


@dataclass(eq=False)
class Gradients(ModelParams):
    """The batch loss's gradients as the training step writes them: W, b and
    W_e whole, and of W_v's only its data term S W, in word_rows, on the rows
    of the batch's u distinct word ids ids (ascending). W_v's gradient is
    decay times W_v (decay = lambda / m) with those rows added on;
    word_block forms it a block of rows at a time, so no |V|-sized gradient
    is held except by dense()."""

    ids: np.ndarray = None
    decay: float = 0.0

    def word_block(self, params, lo, out):
        """Rows lo, ..., lo + len(out) - 1 of W_v's gradient at params, into
        out (returned): decay times their rows, the batch's rows added on."""
        np.multiply(self.decay, params.word_rows[lo:lo + len(out)], out=out)
        start, end = np.searchsorted(self.ids, (lo, lo + len(out)))
        out[self.ids[start:end] - lo] += self.word_rows[start:end]
        return out

    def dense(self, params):
        """The gradients at params as a ModelParams, W_v's whole."""
        return ModelParams(self.word_block(params, 0, np.empty_like(params.word_rows)),
                           self.W, self.b, self.W_e)


def init_params(dims, seed, dtype=np.float64):
    """Glorot-uniform init for the three matrices, zero bias.

    Each matrix is drawn i.i.d. uniform in +-sqrt(6 / (rows + cols)); draws
    happen in the fixed order W_v, W, W_e so a seed pins all parameters.
    word_rows is a view of the drawn W_v; copy() makes it C-contiguous."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def glorot(rows, cols):
        bound = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype, copy=False)

    W_v = glorot(dims.e_v, dims.vocab_size)
    W = glorot(dims.e_e, dims.e_v)
    W_e = glorot(dims.num_entities, dims.e_e)
    b = np.zeros(dims.e_e, dtype=dtype)
    return ModelParams(W_v.T, W, b, W_e)


def project(params, token_ids):
    """f(s) = tanh(W h + b) with h the mean embedding row of the tokens.

    Every output component lies strictly inside (-1, 1).
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.size == 0:
        raise LSEError("cannot project empty string")
    h = params.word_rows[ids].mean(axis=0)
    return np.tanh(params.W @ h + params.b)


def _sigmoid(x):
    """Logistic function of the float array x, in x's dtype: 1 / (1 + e^-x)
    for x >= 0 and e^x / (1 + e^x) below, so no exponential overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1, e) / (1 + e)


# Bytes per gather of the negatives' rows of W_e, and per block that
# save_model writes: 256 KiB keeps each (chunk, z, e_E) block and the
# einsums over it in cache (25 instances in float32 and 12 in float64 at the
# default z and e_E).
_CHUNK_BYTES = 1 << 18

# Most instances per block of the training step's error G, a block of whole
# negatives chunks (500 in float32 and 504 in float64): few, for speed.
_ERROR_ROWS = 512

# Words per block of the training step's S^T T: OpenBLAS sums a longer
# inner dimension in an order that depends on its thread count, even in
# float32.
_WORD_BLOCK = 256

# Bytes per block of the Adam update; AdamState holds two such buffers.
_ADAM_BLOCK_BYTES = 1 << 16


def _check_ids(index, rows):
    """An IndexError unless every id in index lies in [0, rows): neither the
    sparsetools kernels nor np.take in clip mode check bounds."""
    if index.min() < 0 or index.max() >= rows:
        raise IndexError(f"id out of range for {rows} rows")


def _incidence(index, rows):
    """CSR indptr and indices of the (m, k) id matrix index: row i lists the
    ids index[i, 0], ..., index[i, k - 1] in order, each checked to lie in
    [0, rows); int32 when index is and m k fits, so int32 ids go uncopied."""
    m, k = index.shape
    _check_ids(index, rows)
    dtype = np.int32 if index.dtype == np.int32 and m * k < 2 ** 31 else np.intp
    return (np.arange(0, m * k + 1, k, dtype=dtype),
            index.reshape(-1).astype(dtype, copy=False))


def _sparsetools():
    """SciPy's compiled sparsetools kernels, loaded by themselves: importing
    them through scipy.sparse runs that package's __init__, which imports
    some 300 modules and adds about 16 MB of resident memory. The module is
    kept in sys.modules under its own name, so later calls and a later
    import of scipy.sparse reuse it."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy_dir, "sparse")])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _gather_sum(table, index, out):
    """Fill out, a C-contiguous (m, d) array of table's dtype, and return it:
    row i becomes table[index[i, 0]] + ... + table[index[i, k - 1]], added
    one at a time in that order onto zero (out is zeroed first, whatever it
    held): one CSR product, without building the (m, k, d) gather. This is
    table[index].sum(axis=1) bit for bit, except that a sum of negative
    zeros only is +0.0. A bad id leaves out untouched."""
    m, k = index.shape
    indptr, indices = _incidence(index, len(table))
    out[...] = 0
    _sparsetools().csr_matvecs(m, len(table), table.shape[1], indptr, indices,
                               np.ones(m * k, dtype=table.dtype),
                               table.reshape(-1), out.reshape(-1, copy=False))
    return out


def _flat_views(arrays):
    """1-D views of arrays in C order; a ValueError for one with none (a
    Fortran-ordered matrix), so no update can go into a flat copy."""
    return [a.reshape(-1, copy=False) for a in arrays]


def _scatter_add(out, index, coef, rows):
    """np.add.at(out, index, coef[..., None] * rows[:, None, :]) for a
    C-contiguous 2-D out, an (m, k) index, coef broadcasting to it and rows
    (m, d) of out's dtype, bit for bit, as one CSC product: every element of
    out receives its addends in (i, k) order, each product rounded before it
    is added."""
    m = len(index)
    data = np.broadcast_to(coef, index.shape).astype(out.dtype).reshape(-1)
    _sparsetools().csc_matvecs(len(out), m, out.shape[1],
                               *_incidence(index, len(out)), data,
                               rows.reshape(-1), out.reshape(-1, copy=False))


def batch_loss(params, batch, weight_decay):
    """Mean negated instance log-probability plus the weight-decay term."""
    return batch_loss_and_gradients(params, batch, weight_decay)[0]


def batch_loss_and_gradients(params, batch, weight_decay, out=None):
    """One forward/backward pass; returns (loss, Gradients).

    The loss is the mean negated instance log-probability plus the
    weight-decay term, and the gradients are exact for it: sech^2 = 1 - f^2
    reuses the forward tanh, the positive dot gets 1 - sigma and each
    negative dot -sigma (cneg; chunk by chunk, Vneg = sum_k cneg_k e_k is
    added onto the positive's term and the sum scaled by sech^2), and the
    (lambda / m) theta term covers the three matrices and not b; W_e's
    gradient is (lambda / m) theta with the batch's terms then added onto
    its rows, and W_v's is returned as its data term on the batch's words
    (see Gradients). Every id is range-checked before the forward pass. The
    scatters are CSC products (_scatter_add) into W_e's regularizer term
    and into a zeroed S; each element receives its addends in index order,
    as from np.add.at, so reruns are bit-identical.

    The projection is linear up to the tanh, so each of the batch's u
    distinct n-gram ids is projected once: their rows T of word_rows give
    P = T W^T, and an instance's pre-activation is the mean of its words'
    rows of P. The error G is scattered onto the words (S = -A^T G / (m n)
    for the (m, u) incidence A), the W gradient is S^T T, summed
    _WORD_BLOCK words at a time, and the W_v gradient's rows ids get S W.
    The GEMMs cost u e_V e_E, against m e_V e_E for projecting the m mean
    embeddings; the two agree to rounding.

    The gradients go into out (allocated when None), Gradients like
    params, all C-contiguous (a ValueError otherwise); train passes the same
    out on every step. Nothing is |V|-sized: each squared norm of the
    weight-decay term is one einsum over its flat view. The activations are
    views of one block of max(m e_E, u e_V) + u e_E values: T, F, T again
    and S W in the first part, P and then S in the rest. The rows stay in
    it after the step, so the next step reuses out's block when it is large
    enough and otherwise lets it go before making its own. F stays whole for the W_e scatters.
    The negatives' rows of W_e are taken a chunk of about _CHUNK_BYTES at a
    time into one buffer, made once per step and freed before the W_e
    scatters. G is built, finished, scattered onto S and summed into the b
    gradient a block of whole chunks (as many as _ERROR_ROWS instances hold,
    at least one) at a time in another, the running b sum added onto a
    block's first row, so S and b get their addends in whole-batch order.
    The README's Defaults gives the step's measured memory and times.
    """
    ngrams, positives, negatives = batch.ngrams, batch.positives, batch.negatives
    m, n = ngrams.shape
    e_e, e_v = params.W.shape
    _check_ids(ngrams, len(params.word_rows))      # np.take would clip them
    _check_ids(positives, len(params.W_e))
    _check_ids(negatives, len(params.W_e))
    ids, inv = np.unique(ngrams, return_inverse=True)
    inv = inv.reshape(ngrams.shape)                # (M, n) rows of T
    u = len(ids)
    if out is None:
        out = Gradients(np.empty((0, e_v), dtype=params.dtype),
                        *map(np.empty_like, (params.W, params.b, params.W_e)))
    sq_norms = sum(float(np.einsum("i,i->", theta, theta)) for theta in _flat_views(
        (params.word_rows, params.W_e, params.W)))
    wide = max(m * e_e, u * e_v)                   # T, F, then T and S W
    # the rows of the step before lie in its block: reuse it when it is
    # large enough, else let it go before the next one is made
    block, out.word_rows = out.word_rows.base, None
    if block is None or len(block) < wide + u * e_e:
        del block
        block = np.empty(wide + u * e_e, dtype=params.dtype)

    def activation(start, rows, e):
        return block[start:start + rows * e].reshape(rows, e)

    T = np.take(params.word_rows, ids, axis=0, out=activation(0, u, e_v), mode="clip")
    P = np.matmul(T, params.W.T, out=activation(wide, u, e_e))  # (u, e_E)
    F = _gather_sum(P, inv, activation(0, m, e_e))  # over T
    F /= n
    F += params.b
    np.tanh(F, out=F)                              # (M, e_E)
    S = P                                          # A^T G, over P
    S.fill(0)
    dpos, cpos = np.empty((2, m), dtype=F.dtype)
    dneg, cneg = np.empty((2, *negatives.shape), dtype=F.dtype)
    z = negatives.shape[1]
    chunk = max(1, _CHUNK_BYTES // (z * e_e * F.itemsize))  # instances per gather
    step = chunk * max(1, _ERROR_ROWS // chunk)    # G blocks of whole chunks
    buf = np.empty((min(m, step), e_e), dtype=F.dtype)
    negbuf = np.empty((min(m, chunk), z, e_e), dtype=F.dtype)
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        Fb, nb, dn, cn = F[rows], negatives[rows], dneg[rows], cneg[rows]
        G = np.take(params.W_e, positives[rows], axis=0, out=buf[:len(Fb)], mode="clip")  # Epos
        dpos[rows] = np.einsum("me,me->m", G, Fb)
        cpos[rows] = 1.0 - _sigmoid(dpos[rows])
        G *= cpos[rows, None]
        for c in range(0, len(Fb), chunk):
            s = slice(c, c + chunk)
            Eneg = np.take(params.W_e, nb[s], axis=0, out=negbuf[:len(nb[s])],
                           mode="clip")                # (chunk, z, e_E)
            dn[s] = np.einsum("mke,me->mk", Eneg, Fb[s])
            cn[s] = -_sigmoid(dn[s])
            G[s] += np.einsum("mk,mke->me", cn[s], Eneg)  # V = cpos e+ + Vneg
            G[s] *= 1.0 - Fb[s] * Fb[s]            # d logp / d preactivation
        _scatter_add(S, inv[rows], 1, G)
        if lo:                                     # the b sum, in whole-batch order
            G[0] += out.b
        np.sum(G, axis=0, out=out.b)
    del negbuf, Eneg                               # before the W_e scatters
    logp = -np.logaddexp(0.0, -dpos) - np.logaddexp(0.0, dneg).sum(axis=1)
    loss = float(-logp.mean() + 0.5 * weight_decay / m * sq_norms)

    inv_m = 1.0 / m
    reg = weight_decay * inv_m
    np.multiply(reg, params.W_e, out=out.W_e)
    _scatter_add(out.W_e, positives[:, None], (-inv_m * cpos)[:, None], F)
    _scatter_add(out.W_e, negatives, -inv_m * cneg, F)
    out.b *= -inv_m
    S *= -inv_m / n
    T = np.take(params.word_rows, ids, axis=0, out=activation(0, u, e_v), mode="clip")  # F
    np.matmul(S[:_WORD_BLOCK].T, T[:_WORD_BLOCK], out=out.W)
    for lo in range(_WORD_BLOCK, u, _WORD_BLOCK):
        out.W += S[lo:lo + _WORD_BLOCK].T @ T[lo:lo + _WORD_BLOCK]
    out.W += reg * params.W
    out.word_rows = np.matmul(S, params.W, out=T)  # over T
    out.ids, out.decay = ids, reg
    return loss, out


def max_relative_fd_error(params, batch, weight_decay, eps=1e-5):
    """Max per-coordinate relative error of the analytic gradients against
    central differences of batch_loss; coordinates where both are below
    1e-8 in magnitude count as exact, and a non-finite analytic gradient or
    difference as an infinite error. Each coordinate of a C-ordered copy of
    params is perturbed in turn, so params may be in any layout."""
    params = params.copy()
    grads = batch_loss_and_gradients(params, batch, weight_decay)[1].dense(params)
    worst = 0.0
    for theta, grad in zip(params, grads):
        flat, analytic = _flat_views((theta, grad))
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = batch_loss(params, batch, weight_decay)
            flat[i] = orig - eps
            down = batch_loss(params, batch, weight_decay)
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            if not (math.isfinite(analytic[i]) and math.isfinite(fd)):
                return math.inf
            denom = max(abs(analytic[i]), abs(fd))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst


class AdamState:
    """Adam accumulators at Kingma & Ba's constants; the moments m and v are
    ModelParams that start at zero, and t increments per update. buffers
    are the update's two block buffers of _ADAM_BLOCK_BYTES each, or of one
    row of W_v if that is longer, made once here so that no update
    allocates."""

    alpha = 0.001
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params):
        self.t = 0
        self.m = ModelParams(*map(np.zeros_like, params))
        self.v = ModelParams(*map(np.zeros_like, params))
        self.buffers = np.empty((2, max(_ADAM_BLOCK_BYTES // params.dtype.itemsize,
                                        params.word_rows.shape[1])), dtype=params.dtype)


def _adam_blocks(params, grads, state):
    """(theta, g, m, v): flat blocks of each parameter, its gradient and its
    two moments, in the order word_rows, W, b, W_e, each at most as long as
    a block buffer. word_rows goes in blocks of whole rows, whose gradient
    grads.word_block forms in den, which adam_step overwrites only after
    g's last use; the other gradients are grads' own arrays."""
    buf = state.buffers[1]
    rows = len(buf) // params.word_rows.shape[1]
    for lo in range(0, len(params.word_rows), rows):
        theta, m, v = (a[lo:lo + rows] for a in (params.word_rows, state.m.word_rows,
                                                 state.v.word_rows))
        g = grads.word_block(params, lo, buf[:theta.size].reshape(theta.shape))
        yield _flat_views((theta, g, m, v))
    for arrays in zip(*((a.W, a.b, a.W_e) for a in (params, grads, state.m, state.v))):
        flat = _flat_views(arrays)
        for lo in range(0, flat[0].size, len(buf)):
            yield [a[lo:lo + len(buf)] for a in flat]


def adam_step(params, grads, state):
    """One bias-corrected Adam update of params, in place, from the
    Gradients that batch_loss_and_gradients returned at these params.

    The update runs over _adam_blocks, so W_v's gradient is formed one
    block of rows at a time from the parameters not yet updated, and writes
    its temporaries into state's block buffers, so it allocates nothing
    |V|-sized; the expressions are elementwise and keep their operations
    and order, so the bytes are those of whole-array updates with the dense
    gradient. Every array must be C-contiguous (a ValueError otherwise)."""
    state.t += 1
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    for theta, g, m, v in _adam_blocks(params, grads, state):
        tmp, den = state.buffers[:2, :len(theta)]
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, g, out=tmp)
        v *= state.beta2
        v += np.multiply(1.0 - state.beta2, np.multiply(g, g, out=tmp), out=tmp)
        np.multiply(state.alpha, np.divide(m, b1c, out=tmp), out=tmp)
        np.sqrt(np.divide(v, b2c, out=den), out=den)
        den += state.eps
        theta -= np.divide(tmp, den, out=tmp)


@dataclass
class TrainConfig:
    """Training configuration.

    weight_decay is the L2 coefficient (the config-file key is "lambda").
    precision selects the training dtype, which is also the dtype the model
    is saved in, loaded in and scored in.
    validation_cutoff is the NDCG cutoff used for best-epoch selection.
    """

    e_v: int = 300
    e_e: int = 256
    n: int = 4
    z: int = 10
    m: int = 4096
    weight_decay: float = 0.01
    epochs: int = 15
    seed: int = 0
    precision: str = "float32"
    validation_cutoff: int = 100

    # Fields whose config-file and manifest key is not their name.
    _RENAMED = {"weight_decay": "lambda"}

    def __post_init__(self):
        if min(self.e_v, self.e_e, self.n, self.z, self.m, self.epochs) < 1:
            raise DataError("dimensions, window, negatives, batch size and epochs must be positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise DataError("weight decay must be non-negative and finite, "
                            f"got {self.weight_decay!r}")
        if self.precision not in ("float32", "float64"):
            raise DataError("precision must be float32 or float64")
        if self.validation_cutoff < 1:
            raise DataError("validation cutoff must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")

    def as_dict(self):
        return {self._RENAMED.get(f.name, f.name): getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_file(cls, path):
        """Parse a flat key = value file, one key per field; blank lines and
        # comments ignored. A bad key or value is a DataError naming the
        file and line."""
        fields = {cls._RENAMED.get(f.name, f.name): f for f in dataclasses.fields(cls)}
        values = {}
        first_line = {}
        for number, line in read_lines(path):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{number}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise DataError(f"{path}:{number}: unknown config key {key!r}")
            check_unique(first_line, key, path, number, "key {!r}")
            kind = fields[key].type
            try:
                values[fields[key].name] = kind(value)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise DataError(f"{path}:{number}: config key {key!r} must be "
                                f"{what}, got {value!r}") from None
        try:
            return cls(**values)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc


# Array encodings of the container, by the header's dtype.
_CONTAINER_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


def save_model(path, params, vocab_sha256="", entity_ids=(), config=None):
    """Write the binary container: magic, header length, JSON header, then
    the four arrays row-major little-endian in the order W_v, W, b, W_e, in
    the params' dtype (float32 or float64, named by the header's dtype). A
    pretty-printed .meta.json sidecar mirrors the header. Each file is
    written to a temporary file first and renamed into place. Arrays go out
    in blocks of rows of about _CHUNK_BYTES, each made C-contiguous on its
    own, so the W_v of a trained model is never copied whole."""
    dims = params.dims
    dtype = params.dtype.name
    header = {
        "format": "lse-model",
        "dims": {"e_v": dims.e_v, "e_e": dims.e_e,
                 "vocab_size": dims.vocab_size, "num_entities": dims.num_entities},
        "dtype": dtype,
        "vocab_sha256": vocab_sha256,
        "entity_ids": list(entity_ids),
        "config": dict(config) if config else {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in (getattr(params, name) for name in PARAM_FIELDS):
            rows = max(1, _CHUNK_BYTES // (arr.nbytes // len(arr)))
            for lo in range(0, len(arr), rows):
                fh.write(np.ascontiguousarray(arr[lo:lo + rows],
                                              dtype=_CONTAINER_DTYPES[dtype]))
    write_json(f"{path}.meta.json", header)


def _read_header(path, blob):
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: model header is not UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != "lse-model":
        raise DataError(f"{path}: header format is not lse-model")
    try:
        d = header["dims"]
        dims = Dims(int(d["e_v"]), int(d["e_e"]), int(d["vocab_size"]),
                    int(d["num_entities"]))
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: model header lacks valid dims ({exc!r})") from exc
    ids = header.get("entity_ids")
    if not isinstance(ids, list) or len(ids) != dims.num_entities:
        raise DataError(f"{path}: header needs one entity id for each of the "
                        f"{dims.num_entities} entities")
    if not all(isinstance(eid, str) for eid in ids) or len(set(ids)) != len(ids):
        raise DataError(f"{path}: header entity_ids must be distinct strings")
    for eid in ids:
        check_id(eid, path, "header entity id")
    dtype = header.get("dtype")
    if not isinstance(dtype, str) or dtype not in _CONTAINER_DTYPES:
        raise DataError(f"{path}: header dtype must be float32 or float64, "
                        f"got {dtype!r}")
    return header, dims, _CONTAINER_DTYPES[dtype]


def load_model(path, digest=None):
    """Read a model container; returns (ModelParams, header dict), the
    arrays in the container's dtype, each read straight into its own array
    (word_rows as a view of the W_v read), and feeds every byte read to digest.

    The header must fit in the file, be lse-model JSON with dtype float32
    or float64 and positive dims, and list one distinct entity id per row
    that passes check_id; the file must hold the bytes that its dims and
    dtype imply, checked before any allocation; and every array value must
    be finite and small enough that scoring in the dtype cannot overflow.
    Each failure is a DataError naming the file."""
    update = (lambda data: None) if digest is None else digest.update
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: not a model container")
        field = fh.read(8)
        if len(field) != 8:
            raise DataError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<Q", field)
        if hlen > size - len(MAGIC) - 8:
            raise DataError(f"{path}: header length {hlen} exceeds the file")
        header, d, dtype = _read_header(path, blob := fh.read(hlen))
        update(MAGIC + field + blob)
        shapes = {"W_v": (d.e_v, d.vocab_size), "W": (d.e_e, d.e_v), "b": (d.e_e,),
                  "W_e": (d.num_entities, d.e_e)}
        need = sum(math.prod(shape) for shape in shapes.values()) * dtype.itemsize
        if (have := size - fh.tell()) != need:
            what = "truncated arrays" if have < need else "trailing bytes after the arrays"
            raise DataError(f"{path}: {what}: the header's dims and dtype need {need} "
                            f"bytes after it, the file holds {have}")
        # below this magnitude no projection or cosine overflows in the dtype
        limit = np.sqrt(np.finfo(dtype).max / (max(d.e_v, d.e_e) + 1))
        arrays = []
        for name in PARAM_FIELDS:
            raw = np.empty(shapes[name], dtype=dtype)
            fh.readinto(raw)
            update(raw)
            # min and max propagate NaN and reach any infinity, so both are
            # finite exactly when every element is, with no temporary array
            lo, hi = raw.min(), raw.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DataError(f"{path}: array {name} holds a non-finite value")
            if max(-lo, hi) > limit:
                raise DataError(f"{path}: array {name} holds a value beyond {limit:.3g}")
            arrays.append(raw)
    return ModelParams(arrays[0].T, *arrays[1:]), header
