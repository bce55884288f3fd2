"""Model core: parameters, projection into entity space, NCE loss with
analytic gradients, the Adam update, and model persistence.

The projection of a token sequence s is f(s) = tanh(W h + b) with h the mean
of the tokens' embedding columns of W_v. An instance's log-probability under
noise-contrastive estimation is log sigma(e+ . f) plus the sum over the z
negatives of log(1 - sigma(e- . f)). The batch loss averages the negated
log-probabilities and adds (lambda / 2m) times the squared Frobenius norms of
W_v, W and W_e; the bias b is not regularized.
"""

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, LSEError
from .files import atomic_open, check_unique, read_lines

MAGIC = b"LSEM0001"
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


class ModelParams:
    """The four learnable arrays, or the batch loss's gradients of them.

    W_v: (e_V, |V|), column i = embedding of word id i.
    W:   (e_E, e_V), the word-to-entity linear map.
    b:   (e_E,), bias.
    W_e: (|X|, e_E), row i = representation of entity i.
    """

    def __init__(self, W_v, W, b, W_e):
        self.W_v = W_v
        self.W = W
        self.b = b
        self.W_e = W_e
        e_v, vocab = W_v.shape
        e_e = b.shape[0]
        if W.shape != (e_e, e_v) or W_e.shape[1] != e_e:
            raise DataError("parameter shapes are mutually inconsistent")

    @property
    def dims(self):
        return Dims(self.W_v.shape[0], self.b.shape[0],
                    self.W_v.shape[1], self.W_e.shape[0])

    @property
    def dtype(self):
        return self.W_v.dtype

    def copy(self):
        return ModelParams(self.W_v.copy(), self.W.copy(),
                           self.b.copy(), self.W_e.copy())

    def astype(self, dtype):
        return ModelParams(self.W_v.astype(dtype), self.W.astype(dtype),
                           self.b.astype(dtype), self.W_e.astype(dtype))


def init_params(dims, seed, dtype=np.float64):
    """Glorot-uniform init for the three matrices, zero bias.

    Each matrix is drawn i.i.d. uniform in +-sqrt(6 / (rows + cols)); draws
    happen in the fixed order W_v, W, W_e so a seed pins all parameters.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def glorot(rows, cols):
        bound = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype)

    W_v = glorot(dims.e_v, dims.vocab_size)
    W = glorot(dims.e_e, dims.e_v)
    W_e = glorot(dims.num_entities, dims.e_e)
    b = np.zeros(dims.e_e, dtype=dtype)
    return ModelParams(W_v, W, b, W_e)


def project(params, token_ids):
    """f(s) = tanh(W h + b) with h the mean embedding column of the tokens.

    Every output component lies strictly inside (-1, 1).
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.size == 0:
        raise LSEError("cannot project empty string")
    h = params.W_v[:, ids].mean(axis=1)
    return np.tanh(params.W @ h + params.b)


def _sigmoid(x):
    """Logistic function in x's float dtype (float64 for any other input)."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sq_norms(params):
    return (float(np.sum(params.W_v * params.W_v))
            + float(np.sum(params.W_e * params.W_e))
            + float(np.sum(params.W * params.W)))


# Bytes per gather of the negatives' rows of W_e: about 1 MB keeps each
# (chunk, z, e_E) block and the einsums over it in cache (102 instances in
# float32 and 51 in float64 at the default z and e_E).
_CHUNK_BYTES = 1 << 20


def _incidence(index, rows):
    """CSR indptr and indices of the (m, k) id matrix index: row i lists the
    ids index[i, 0], ..., index[i, k - 1] in order. The sparsetools kernels
    do not check bounds, so an id outside [0, rows) is an IndexError here."""
    m, k = index.shape
    if index.min() < 0 or index.max() >= rows:
        raise IndexError(f"id out of range for {rows} rows")
    return (np.arange(0, m * k + 1, k, dtype=np.intp),
            index.reshape(-1).astype(np.intp))


def _gather_sum(table, index):
    """Row i is table[index[i, 0]] + ... + table[index[i, k - 1]], added one
    at a time in that order onto zero: one CSR product, without building the
    (m, k, d) gather. This is table[index].sum(axis=1) bit for bit, except
    that a sum of negative zeros only is +0.0."""
    from scipy.sparse import _sparsetools
    m, k = index.shape
    out = np.zeros((m, table.shape[1]), dtype=table.dtype)
    _sparsetools.csr_matvecs(m, len(table), table.shape[1],
                             *_incidence(index, len(table)),
                             np.ones(m * k, dtype=table.dtype),
                             table.reshape(-1), out.reshape(-1))
    return out


def _scatter_add(out, index, coef, rows):
    """np.add.at(out, index, coef[..., None] * rows[:, None, :]) for a
    C-contiguous 2-D out, an (m, k) index, coef broadcasting to it and rows
    (m, d) of out's dtype, bit for bit, as one CSC product: every element of
    out receives its addends in (i, k) order, each product rounded before it
    is added."""
    from scipy.sparse import _sparsetools
    if not out.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous")
    m = len(index)
    data = np.broadcast_to(coef, index.shape).astype(out.dtype).reshape(-1)
    _sparsetools.csc_matvecs(len(out), m, out.shape[1],
                             *_incidence(index, len(out)), data,
                             rows.reshape(-1), out.reshape(-1))


def _forward(params, batch):
    """Mean token embeddings H, projections F, the positives' rows Epos of
    W_e and their NCE dot products dpos. The CSR gather reads contiguous
    rows, so the batch's distinct columns of W_v are copied out first
    (never all |V| of them)."""
    ngrams = batch.ngrams
    ids, slots = np.unique(ngrams, return_inverse=True)
    H = _gather_sum(params.W_v.T[ids], slots.reshape(ngrams.shape))
    H /= ngrams.shape[1]                           # (M, e_V), the mean
    F = np.tanh(H @ params.W.T + params.b)         # (M, e_E)
    Epos = params.W_e[batch.positives]             # (M, e_E)
    dpos = np.einsum("me,me->m", Epos, F)
    return H, F, Epos, dpos


def _negative_rows(W_e, negatives):
    """(s, W_e[negatives[s]]) for consecutive slices s of the instances,
    each gather about _CHUNK_BYTES (at least one instance), so the negatives
    are never gathered all at once."""
    step = max(1, _CHUNK_BYTES // (negatives.shape[1] * W_e.shape[1] * W_e.itemsize))
    for lo in range(0, len(negatives), step):
        s = slice(lo, lo + step)
        yield s, W_e[negatives[s]]                 # (chunk, z, e_E)


def batch_loss(params, batch, weight_decay):
    """Mean negated instance log-probability plus the weight-decay term."""
    return batch_loss_and_gradients(params, batch, weight_decay)[0]


def batch_loss_and_gradients(params, batch, weight_decay):
    """One forward/backward pass; returns (loss, gradients as ModelParams).

    The loss is the mean negated instance log-probability plus the
    weight-decay term, and the gradients are exact for it. The per-instance
    pieces are sech^2 = 1 - f^2 reusing the forward tanh, a coefficient
    1 - sigma for the positive dot and -sigma per negative dot (cneg, folded
    into Vneg = sum_k cneg_k e_k chunk by chunk), and a sparse scatter-add
    into the touched columns of W_v and rows of W_e; the (lambda / m) theta
    regularizer term is dense over the three matrices and absent for b.
    The scatters are CSC products (_scatter_add): the token rows into a
    zero (|V|, e_V) buffer that is then added to the regularizer of W_v,
    and the positives, then the negatives, straight into the regularizer
    of W_e. Each element receives its addends in index order, as one
    np.add.at per scatter would give them, so the gradients are
    bit-identical to that and across reruns.
    """
    ngrams, positives, negatives = batch.ngrams, batch.positives, batch.negatives
    m = len(batch)
    if m == 0:
        raise DataError("batch is empty")
    n = ngrams.shape[1]
    H, F, Epos, dpos = _forward(params, batch)
    dneg = np.empty(negatives.shape, dtype=F.dtype)
    cneg = np.empty_like(dneg)
    Vneg = np.empty_like(F)
    for s, Eneg in _negative_rows(params.W_e, negatives):
        dneg[s] = np.einsum("mke,me->mk", Eneg, F[s])
        cneg[s] = -_sigmoid(dneg[s])
        Vneg[s] = np.einsum("mk,mke->me", cneg[s], Eneg)
    logp = -np.logaddexp(0.0, -dpos) - np.logaddexp(0.0, dneg).sum(axis=1)
    loss = float(-logp.mean() + 0.5 * weight_decay / m * _sq_norms(params))

    cpos = 1.0 - _sigmoid(dpos)                    # (M,)
    V = cpos[:, None] * Epos + Vneg
    G = V * (1.0 - F * F)                          # d logp / d preactivation

    inv_m = 1.0 / m
    reg = weight_decay * inv_m
    g_b = -inv_m * G.sum(axis=0)
    g_W = -inv_m * (G.T @ H) + reg * params.W

    per_token = (G @ params.W) * (-inv_m / n)      # (M, e_V)
    token_rows = np.zeros(params.W_v.shape[::-1], dtype=per_token.dtype)
    _scatter_add(token_rows, ngrams, 1, per_token)
    g_Wv = reg * params.W_v
    g_Wv += token_rows.T
    g_We = reg * params.W_e
    _scatter_add(g_We, positives[:, None], (-inv_m * cpos)[:, None], F)
    _scatter_add(g_We, negatives, -inv_m * cneg, F)

    return loss, ModelParams(g_Wv, g_W, g_b, g_We)


def max_relative_fd_error(params, batch, weight_decay, eps=1e-5):
    """Max per-coordinate relative error of the analytic gradients against
    central differences of batch_loss; coordinates where both are below
    1e-8 in magnitude count as exact, and a non-finite analytic gradient or
    difference as an infinite error. Each coordinate of params is perturbed
    in place and restored."""
    grads = batch_loss_and_gradients(params, batch, weight_decay)[1]
    worst = 0.0
    for name in PARAM_FIELDS:
        flat = getattr(params, name).reshape(-1)
        analytic = getattr(grads, name).reshape(-1)
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
    """Adam accumulators at Kingma & Ba's constants; moments start at zero,
    t increments per update."""

    alpha = 0.001
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params):
        self.t = 0
        self.m = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS}
        self.v = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS}


def adam_step(params, grads, state):
    """One bias-corrected Adam update, in place; returns (params, state)."""
    state.t += 1
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    for name in PARAM_FIELDS:
        g = getattr(grads, name)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        theta = getattr(params, name)
        theta -= state.alpha * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
    return params, state


@dataclass
class TrainConfig:
    """Training configuration.

    weight_decay is the L2 coefficient (the config-file key is "lambda").
    precision selects the training dtype, which is also the dtype the model
    is saved in (loading promotes it to float64).
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
    written to a temporary file first and renamed into place."""
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
        for name in PARAM_FIELDS:
            arr = np.ascontiguousarray(getattr(params, name),
                                       dtype=_CONTAINER_DTYPES[dtype])
            fh.write(arr.tobytes())
    with atomic_open(f"{path}.meta.json", "wb") as fh:
        fh.write(json.dumps(header, indent=2, sort_keys=True).encode("utf-8") + b"\n")


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
    dtype = header.get("dtype")
    if not isinstance(dtype, str) or dtype not in _CONTAINER_DTYPES:
        raise DataError(f"{path}: header dtype must be float32 or float64, "
                        f"got {dtype!r}")
    return header, dims, _CONTAINER_DTYPES[dtype]


def load_model(path):
    """Read a model container; returns (ModelParams, header dict), the
    arrays as float64 whatever the container's dtype (float32 promotes
    exactly).

    The header must fit in the file, be lse-model JSON with dtype float32
    or float64 and positive dims, and list one distinct string entity id
    per entity row, and every array value must be finite; every failure is
    a DataError naming the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not a model container")
        field = fh.read(8)
        if len(field) != 8:
            raise DataError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<Q", field)
        if hlen > size - len(MAGIC) - 8:
            raise DataError(f"{path}: header length {hlen} exceeds the file")
        header, d, dtype = _read_header(path, fh.read(hlen))
        shapes = {"W_v": (d.e_v, d.vocab_size),
                  "W": (d.e_e, d.e_v),
                  "b": (d.e_e,),
                  "W_e": (d.num_entities, d.e_e)}
        arrays = {}
        for name in PARAM_FIELDS:
            shape = shapes[name]
            count = int(np.prod(shape))
            buf = fh.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise DataError(f"{path}: truncated array {name}")
            raw = np.frombuffer(buf, dtype=dtype)
            # min and max propagate NaN and reach any infinity, so both are
            # finite exactly when every element is, with no temporary array
            if not (np.isfinite(raw.min()) and np.isfinite(raw.max())):
                raise DataError(f"{path}: array {name} holds a non-finite value")
            # the one copy: writable, owning its memory, float64
            arrays[name] = raw.astype(np.float64).reshape(shape)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after arrays")
    return ModelParams(arrays["W_v"], arrays["W"], arrays["b"], arrays["W_e"]), header
