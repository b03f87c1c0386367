"""Small trainable embedding and the tuple-based metric-learning loop.

The model is a linear (or one-hidden-layer ReLU) map followed by l2
normalization. Losses operate on embedding triples and return analytic
gradients; backprop through the normalization is the tangent-space projection
(I - z z^T)/||u||. Training is single-threaded and fully determined by the
config seed.
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllPoolsEmpty,
    BadMagic,
    BadModel,
    BadPools,
    DegenerateOutput,
    DimMismatch,
    Diverged,
    NonFinite,
    TrailingBytes,
    TruncatedFile,
)
from .features import FeatureSet
from .mining import MiningConfig, pool_table, sample_epoch_tuples

MODEL_MAGIC = b"MOMM"
_KIND_CODES = {"linear": 0, "mlp": 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


def _layer_dims(kind, input_dim, output_dim, hidden_dim):
    """(fan_out, fan_in) of each layer: one affine map, or two around the ReLU."""
    if kind == "linear":
        return [(output_dim, input_dim)]
    return [(hidden_dim, input_dim), (output_dim, hidden_dim)]


@dataclass
class EmbeddingModel:
    """Parametric map to the unit sphere: affine (+ optional ReLU hidden layer),
    then l2 normalization."""

    kind: str  # "linear" | "mlp"
    input_dim: int
    output_dim: int
    hidden_dim: int = 0
    layers: list = field(default_factory=list)  # [[W, b], ...]

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"kind must be 'linear' or 'mlp', got {self.kind!r}")
        if self.kind == "linear" and self.hidden_dim:
            raise ValueError("linear model takes hidden_dim=0")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ValueError("mlp model needs hidden_dim >= 1")
        dims = _layer_dims(self.kind, self.input_dim, self.output_dim, self.hidden_dim)
        shapes = [((fan_out, fan_in), (fan_out,)) for fan_out, fan_in in dims]
        got = [(w.shape, b.shape) for w, b in self.layers]
        if got != shapes:
            raise ValueError(f"parameter shapes {got} do not match architecture {shapes}")

    @classmethod
    def initialize(cls, kind, input_dim, output_dim, hidden_dim=0, seed=0):
        """Fine-tuning-style init: the starting embedding preserves the input
        geometry as far as the architecture allows.

        Linear models start at the identity (square) or a seeded orthonormal
        projection (reducing), so the epoch-0 embedding equals the normalized
        input features. MLP layers get seeded Gaussians scaled by
        1/sqrt(fan_in); biases are zero. Raises BadModel, naming the sizes,
        when numpy cannot allocate the layers.
        """
        rng = np.random.default_rng(seed)
        try:
            if kind == "linear":
                if output_dim == input_dim:
                    w = np.eye(output_dim)
                elif output_dim < input_dim:
                    q, _ = np.linalg.qr(rng.normal(size=(input_dim, output_dim)))
                    w = q.T
                else:
                    q, _ = np.linalg.qr(rng.normal(size=(output_dim, input_dim)))
                    w = q
                layers = [[w, np.zeros(output_dim)]]
            else:
                layers = [
                    [rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)), np.zeros(fan_out)]
                    for fan_out, fan_in in _layer_dims(kind, input_dim, output_dim, hidden_dim)
                ]
        except (ValueError, MemoryError):  # numpy: too many dimensions, too big, or no memory
            raise BadModel(f"a {kind} model with input_dim={input_dim}, output_dim={output_dim}"
                           f" and hidden_dim={hidden_dim} does not fit in memory") from None
        return cls(kind, input_dim, output_dim, hidden_dim, layers)


def _forward_cache(model: EmbeddingModel, x: np.ndarray):
    """Batched forward pass, a ReLU between layers, keeping each layer's
    input and the normalization for the backward pass."""
    inputs = []
    pre = x
    for i, (w, b) in enumerate(model.layers):
        inputs.append(np.maximum(pre, 0.0) if i else pre)
        pre = inputs[i] @ w.T + b
    norms = np.linalg.norm(pre, axis=1)
    if np.any(norms < 1e-12):
        bad = int(np.flatnonzero(norms < 1e-12)[0])
        raise DegenerateOutput(f"pre-normalization norm below 1e-12 for input row {bad}")
    z = pre / norms[:, None]
    return z, (inputs, z, norms)


def forward(model: EmbeddingModel, x: np.ndarray) -> np.ndarray:
    """Embed one vector or a batch; rows come out unit-norm."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != model.input_dim:
        raise DimMismatch(f"model expects input_dim={model.input_dim}, features have d={arr.shape[-1]}")
    single = arr.ndim == 1
    z, _ = _forward_cache(model, arr[None, :] if single else arr)
    return z[0] if single else z


def _backward(model: EmbeddingModel, cache, dz: np.ndarray, grads: list) -> None:
    """Accumulate parameter gradients for dLoss/dz into `grads` (same shapes
    as model.layers). Normalization backprop: dpre = (dz - (dz.z) z)/||pre||;
    a ReLU passes the gradient where its output, the next layer's input, is
    positive."""
    inputs, z, norms = cache
    dpre = (dz - np.sum(dz * z, axis=1, keepdims=True) * z) / norms[:, None]
    for i in reversed(range(len(model.layers))):
        grads[i][0] += dpre.T @ inputs[i]
        grads[i][1] += dpre.sum(axis=0)
        if i:
            dpre = (dpre @ model.layers[i][0]) * (inputs[i] > 0.0)


def _contrastive_batch(zr, zp, zn, margin):
    """Pair loss ||zr-zp||^2 + [m - ||zr-zn||]_+^2 with gradients per row.

    Subgradient 0 at the hinge kink and at zn == zr (where the distance is
    not differentiable)."""
    dp = zr - zp
    dn = zr - zn
    dist_n = np.linalg.norm(dn, axis=1)
    hinge = np.maximum(margin - dist_n, 0.0)
    losses = np.sum(dp * dp, axis=1) + hinge**2
    safe = dist_n > 1e-12
    coef = np.zeros_like(dist_n)
    coef[safe] = 2.0 * hinge[safe] / dist_n[safe]
    g_r = 2.0 * dp - coef[:, None] * dn
    g_p = -2.0 * dp
    g_n = coef[:, None] * dn
    return losses, g_r, g_p, g_n


def _triplet_batch(zr, zp, zn, margin):
    """Standard squared-distance triplet: [m + ||zr-zp||^2 - ||zr-zn||^2]_+."""
    dp = zr - zp
    dn = zr - zn
    act = margin + np.sum(dp * dp, axis=1) - np.sum(dn * dn, axis=1)
    losses = np.maximum(act, 0.0)
    on = (act > 0.0).astype(np.float64)[:, None]
    g_r = on * 2.0 * (dp - dn)
    g_p = on * (-2.0 * dp)
    g_n = on * 2.0 * dn
    return losses, g_r, g_p, g_n


def _triplet_literal_batch(zr, zp, zn, margin):
    """Hinge-squared variant with an unsquared negative distance:
    [m + ||zr-zp||^2 - ||zr-zn||]_+^2."""
    dp = zr - zp
    dn = zr - zn
    dist_n = np.linalg.norm(dn, axis=1)
    act = np.maximum(margin + np.sum(dp * dp, axis=1) - dist_n, 0.0)
    losses = act**2
    safe = dist_n > 1e-12
    inv = np.zeros_like(dist_n)
    inv[safe] = 1.0 / dist_n[safe]
    two_act = (2.0 * act)[:, None]
    g_r = two_act * (2.0 * dp - inv[:, None] * dn)
    g_p = two_act * (-2.0 * dp)
    g_n = two_act * (inv[:, None] * dn)
    return losses, g_r, g_p, g_n


_LOSSES = {
    "contrastive": _contrastive_batch,
    "triplet": _triplet_batch,
    "triplet-literal": _triplet_literal_batch,
}


def sgd_momentum_step(params: list, grads: list, velocity: list, lr: float, momentum: float):
    """In-place v <- momentum*v - lr*g; theta <- theta + v."""
    for layer, layer_grads, layer_velocity in zip(params, grads, velocity):
        for theta, g, v in zip(layer, layer_grads, layer_velocity):
            v *= momentum
            v -= lr * g
            theta += v


@dataclass
class TrainConfig:
    loss: str = "contrastive"
    weighted: bool = True
    margin: float = 0.7
    lr0: float = 0.01
    lr_decay: float = 0.1
    lr_decay_every: int = 10
    momentum: float = 0.9
    batch_size: int = 42
    epochs: int = 30
    seed: int = 0
    weight_normalization: str = "per-anchor-max"  # or "none"

    def __post_init__(self):
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {sorted(_LOSSES)}, got {self.loss!r}")
        if not self.margin > 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if not self.lr0 > 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_decay_every < 1:
            raise ValueError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_normalization not in ("per-anchor-max", "none"):
            raise ValueError("weight_normalization must be 'per-anchor-max' or 'none'")


def train(
    features: FeatureSet,
    pools: list,
    model: EmbeddingModel,
    train_config: TrainConfig,
    mining_config: MiningConfig,
):
    """Train the model in place on frozen pools; returns (model, epoch log).

    Each epoch re-embeds the training pool with the current parameters,
    samples one tuple per anchor (hard negatives in the current space),
    shuffles, and runs momentum-SGD minibatches. Log rows carry epoch,
    mean_loss, lr, tuples_used.
    """
    if not pools:
        raise AllPoolsEmpty("no pools to train on")
    if features.d != model.input_dim:
        raise DimMismatch(f"model expects input_dim={model.input_dim}, features have d={features.d}")
    weighting = train_config.weight_normalization if train_config.weighted else "unit"
    table = pool_table(pools, weighting)
    members = table.members
    if members[0] < 0 or members[-1] >= features.n:
        bad = members[0] if members[0] < 0 else members[-1]
        raise BadPools(f"pool member id {bad} out of range [0, {features.n})")

    loss_fn = _LOSSES[train_config.loss]
    velocity = [[np.zeros_like(w), np.zeros_like(b)] for w, b in model.layers]
    shuffle_rng = np.random.default_rng([train_config.seed, 1])
    log = []
    for epoch in range(train_config.epochs):
        lr = train_config.lr0 * train_config.lr_decay ** (epoch // train_config.lr_decay_every)
        z_pool = np.zeros((features.n, model.output_dim))
        z_pool[members] = forward(model, features.data[members])
        (anchors, positives, negatives, weights), _ = sample_epoch_tuples(
            table, z_pool, mining_config, seed=[train_config.seed, 2, epoch]
        )
        if not anchors.size:
            log.append({"epoch": epoch, "mean_loss": 0.0, "lr": lr, "tuples_used": 0})
            continue
        order = shuffle_rng.permutation(anchors.size)
        total = 0.0
        for start in range(0, anchors.size, train_config.batch_size):
            batch = order[start : start + train_config.batch_size]
            w = weights[batch]
            zr, cr = _forward_cache(model, features.data[anchors[batch]])
            zp, cp = _forward_cache(model, features.data[positives[batch]])
            zn, cn = _forward_cache(model, features.data[negatives[batch]])
            losses, g_r, g_p, g_n = loss_fn(zr, zp, zn, train_config.margin)
            scale = (w / batch.size)[:, None]
            grads = [[np.zeros_like(wm), np.zeros_like(bm)] for wm, bm in model.layers]
            _backward(model, cr, g_r * scale, grads)
            _backward(model, cp, g_p * scale, grads)
            _backward(model, cn, g_n * scale, grads)
            sgd_momentum_step(model.layers, grads, velocity, lr, train_config.momentum)
            total += float(np.sum(losses * w))
        mean_loss = total / anchors.size
        if not np.isfinite(mean_loss):
            raise Diverged(f"mean loss became non-finite at epoch {epoch}")
        log.append({"epoch": epoch, "mean_loss": mean_loss, "lr": lr, "tuples_used": anchors.size})
    return model, log


def save_model(model: EmbeddingModel, path) -> None:
    """Binary format: MOMM, u32 kind code, u32 in/out/hidden dims, then all
    parameters as float32 LE, layer by layer (weights row-major, then bias)."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(
            struct.pack(
                "<IIII",
                _KIND_CODES[model.kind],
                model.input_dim,
                model.output_dim,
                model.hidden_dim,
            )
        )
        for w, b in model.layers:
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.asarray(b, dtype="<f4").tobytes())


def load_model(path) -> EmbeddingModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if len(magic) < 4:
            raise TruncatedFile(f"{path}: shorter than the 4-byte magic")
        if magic != MODEL_MAGIC:
            raise BadMagic(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        header = fh.read(16)
        if len(header) < 16:
            raise TruncatedFile(f"{path}: header truncated")
        code, d_in, d_out, hidden = struct.unpack("<IIII", header)
        if code not in _CODE_KINDS:
            raise BadMagic(f"{path}: unknown model kind code {code}")
        kind = _CODE_KINDS[code]
        if (kind == "mlp") != (hidden > 0):
            raise BadModel(f"{path}: a {kind} model cannot have hidden_dim={hidden}")
        dims = _layer_dims(kind, d_in, d_out, hidden)
        # the size the header promises against the bytes left, before any read
        if os.fstat(fh.fileno()).st_size - fh.tell() < sum((o * i + o) * 4 for o, i in dims):
            raise TruncatedFile(f"{path}: parameter payload truncated")
        layers = []
        for fan_out, fan_in in dims:
            blob = fh.read((fan_out * fan_in + fan_out) * 4)
            flat = np.frombuffer(blob, dtype="<f4").astype(np.float64)
            if not np.isfinite(flat).all():
                raise NonFinite(f"{path}: a model parameter is NaN or infinite")
            layers.append(
                [flat[: fan_out * fan_in].reshape(fan_out, fan_in), flat[fan_out * fan_in :]]
            )
        if fh.read(1):
            raise TrailingBytes(f"{path}: bytes after the parameter payload")
    return EmbeddingModel(kind, d_in, d_out, hidden, layers)


def save_train_log(log: list, path) -> None:
    """CSV: epoch,mean_loss,lr,tuples_used."""
    with open(path, "w") as fh:
        fh.write("epoch,mean_loss,lr,tuples_used\n")
        for row in log:
            fh.write(
                f"{row['epoch']},{row['mean_loss']:.9g},{row['lr']:.9g},{row['tuples_used']}\n"
            )
