"""Small trainable embedding and the tuple-based metric-learning loop.

The model is a linear (or one-hidden-layer ReLU) map followed by l2
normalization. Losses operate on embedding triples and return analytic
gradients; backprop through the normalization is the tangent-space projection
(I - z z^T)/||u||. Training takes a round's mining.Pools, arrays that only
mining.pool_table reads, and is single-threaded and fully determined by its seed.
"""

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
    Ruled,
    read_binary,
    ruled,
    write_binary,
)
from .features import FeatureSet, check_ids
from .mining import MiningConfig, Pools, pool_table, sample_epoch_tuples

MODEL_MAGIC = b"MOMM"
_FLOAT32_MAX = np.finfo(np.float32).max  # model.bin stores float32: a larger weight saves as inf
_KINDS = ("linear", "mlp")  # a model file's kind code is int(hidden_dim > 0)


def _layer_dims(input_dim, output_dim, hidden_dim):
    """(fan_out, fan_in) of each layer: one affine map, or two around the ReLU."""
    if not hidden_dim:
        return [(output_dim, input_dim)]
    return [(hidden_dim, input_dim), (output_dim, hidden_dim)]


@dataclass
class ModelConfig(Ruled):
    """The architecture of an EmbeddingModel, checked with BadModel."""

    error = BadModel

    output_dim: int = ruled(16, ">= 1")
    hidden_dim: int = ruled(0, ">= 0")  # 0 = one affine layer, else a ReLU hidden layer this wide

    def initialize(self, input_dim: int, seed: int) -> "EmbeddingModel":
        return EmbeddingModel.initialize(input_dim, self.output_dim, self.hidden_dim, seed=seed)


@dataclass
class EmbeddingModel:
    """Parametric map to the unit sphere: affine (+ a ReLU hidden layer when
    hidden_dim > 0), then l2 normalization."""

    input_dim: int
    output_dim: int
    hidden_dim: int = 0  # 0 = one affine layer
    layers: list = field(default_factory=list)  # [[W, b], ...]

    def __post_init__(self):
        ModelConfig(self.output_dim, self.hidden_dim)
        dims = _layer_dims(self.input_dim, self.output_dim, self.hidden_dim)
        shapes = [((fan_out, fan_in), (fan_out,)) for fan_out, fan_in in dims]
        got = [(w.shape, b.shape) for w, b in self.layers]
        if got != shapes:
            raise ValueError(f"parameter shapes {got} do not match architecture {shapes}")

    @classmethod
    def initialize(cls, input_dim, output_dim, hidden_dim=0, seed=0):
        """Fine-tuning-style init: the starting embedding preserves the input
        geometry as far as the architecture allows.

        A model without a hidden layer starts at the identity (square) or a
        seeded orthonormal projection (reducing), so the epoch-0 embedding
        equals the normalized input features. The two layers around a hidden
        one get seeded Gaussians scaled by 1/sqrt(fan_in); biases are zero.
        Raises BadModel before allocating when the sizes break ModelConfig's
        rules, or naming them when numpy cannot allocate the layers.
        """
        ModelConfig(output_dim, hidden_dim)
        rng = np.random.default_rng(seed)
        try:
            if not hidden_dim:
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
                    for fan_out, fan_in in _layer_dims(input_dim, output_dim, hidden_dim)
                ]
        except (ValueError, MemoryError):  # numpy: too many dimensions, too big, or no memory
            raise BadModel(f"a model with input_dim={input_dim}, output_dim={output_dim}"
                           f" and hidden_dim={hidden_dim} does not fit in memory") from None
        return cls(input_dim, output_dim, hidden_dim, layers)


def _forward_cache(model: EmbeddingModel, x: np.ndarray, items=None, epoch=None):
    """Forward pass over x's leading axes, keeping each layer's input and the
    norms for the backward pass. A norm below 1e-12 is a DegenerateOutput
    naming its row's flat position, or its id in `items` and the `epoch`."""
    inputs = []
    pre = x
    for i, (w, b) in enumerate(model.layers):
        inputs.append(np.maximum(pre, 0.0) if i else pre)
        pre = inputs[i] @ w.T + b
    norms = np.linalg.norm(pre, axis=-1)
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        row = f"input row {bad[0]}" if items is None else f"item {items.flat[bad[0]]} at epoch {epoch}"
        raise DegenerateOutput(f"pre-normalization norm below 1e-12 for {row}")
    z = pre / norms[..., None]
    return z, (inputs, z, norms)


def forward(model: EmbeddingModel, x: np.ndarray) -> np.ndarray:
    """Embed one vector or a batch; rows come out unit-norm."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != model.input_dim:
        raise DimMismatch(f"model expects input_dim={model.input_dim}, features have d={arr.shape[-1]}")
    return _forward_cache(model, arr)[0]


def _backward(model: EmbeddingModel, cache, dz: np.ndarray, grads: list) -> None:
    """Accumulate parameter gradients for dLoss/dz into `grads` (same shapes
    as model.layers). Normalization backprop: dpre = (dz - (dz.z) z)/||pre||;
    a ReLU passes the gradient where its output, the next layer's input, is
    positive. A stack (..., B, d) adds each batch's product in turn, as one
    call per batch does: one product of every row would round otherwise."""
    inputs, z, norms = cache
    dpre = (dz - np.sum(dz * z, axis=-1, keepdims=True) * z) / norms[..., None]
    for i in reversed(range(len(model.layers))):
        for d_batch, x_batch in zip(*(a.reshape(-1, *a.shape[-2:]) for a in (dpre, inputs[i]))):
            grads[i][0] += d_batch.T @ x_batch
            grads[i][1] += d_batch.sum(axis=0)
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
class TrainConfig(Ruled):
    loss: str = ruled("contrastive", tuple(_LOSSES))
    margin: float = ruled(0.0, ">= 0")  # 0 = the loss's: 0.7 contrastive, else 0.5
    lr0: float = ruled(0.01, "> 0")
    lr_decay: float = ruled(0.1, "> 0")
    lr_decay_every: int = ruled(10, ">= 1")
    momentum: float = ruled(0.9, "in [0, 1)")
    batch_size: int = ruled(42, ">= 1")
    epochs: int = ruled(30, ">= 0")
    # the tuple weights of mining.pool_table
    weight_normalization: str = ruled("per-anchor-max", ("per-anchor-max", "none", "unit"))

    def __post_init__(self):
        super().__post_init__()
        if not self.margin:
            self.margin = 0.7 if self.loss == "contrastive" else 0.5


def train(
    features: FeatureSet,
    pools: Pools,
    model: EmbeddingModel,
    train_config: TrainConfig,
    mining_config: MiningConfig,
    seed=0,
):
    """Train the model in place on frozen pools; returns (model, epoch log).

    Each epoch re-embeds the training pool, samples one (anchor, positive,
    hard negative) tuple per pool as a (3, m) id stack, shuffles its columns
    and runs momentum-SGD minibatches, one pass per (3, batch) stack; `seed`
    draws the tuples and the shuffles. Log rows: epoch, mean_loss, lr, tuples_used.
    Pools of which none has both a positive and a negative raise AllPoolsEmpty.
    """
    if not pools.anchors.size:
        raise AllPoolsEmpty("no pools to train on")
    if features.d != model.input_dim:
        raise DimMismatch(f"model expects input_dim={model.input_dim}, features have d={features.d}")
    table = pool_table(pools, train_config.weight_normalization)
    if not table.anchors.size:
        raise AllPoolsEmpty(f"no pool has both a positive and a negative ({pools.anchors.size} pools)")
    members = check_ids(table.members, features.n, BadPools, "pool member id")

    loss_fn = _LOSSES[train_config.loss]
    velocity, grads = ([[np.zeros_like(w), np.zeros_like(b)] for w, b in model.layers] for _ in range(2))
    shuffle_rng = np.random.default_rng([seed, 1])
    log = []
    for epoch in range(train_config.epochs):
        lr = train_config.lr0 * train_config.lr_decay ** (epoch // train_config.lr_decay_every)
        z_pool = np.zeros((features.n, model.output_dim))
        z_pool[members] = _forward_cache(model, features.data[members], members, epoch)[0]
        (anchors, positives, negatives, weights), _ = sample_epoch_tuples(
            table, z_pool, mining_config, seed=[seed, 2, epoch]
        )
        tuples = np.stack([anchors, positives, negatives])
        order = shuffle_rng.permutation(anchors.size)
        total = 0.0
        for start in range(0, anchors.size, train_config.batch_size):
            batch = order[start : start + train_config.batch_size]
            items, w = tuples[:, batch], weights[batch]
            z, cache = _forward_cache(model, features.data[items], items, epoch)
            losses, *dz = loss_fn(*z, train_config.margin)
            for p in (p for layer in grads for p in layer):
                p.fill(0.0)
            _backward(model, cache, np.stack(dz) * (w / batch.size)[:, None], grads)
            sgd_momentum_step(model.layers, grads, velocity, lr, train_config.momentum)
            total += float(np.sum(losses * w))
        mean_loss = total / anchors.size
        if not np.isfinite(mean_loss):
            raise Diverged(f"mean loss became non-finite at epoch {epoch}")
        if not all((np.abs(p) <= _FLOAT32_MAX).all() for layer in model.layers for p in layer):
            raise Diverged(f"a model parameter left float32's range at epoch {epoch}")
        log.append({"epoch": epoch, "mean_loss": mean_loss, "lr": lr, "tuples_used": anchors.size})
    return model, log


def save_model(model: EmbeddingModel, path) -> None:
    """Binary format: MOMM, u32 kind code (1 when hidden_dim > 0, else 0),
    u32 in/out/hidden dims, then all parameters as float32 LE, layer by layer
    (weights row-major, then bias)."""
    header = (int(model.hidden_dim > 0), model.input_dim, model.output_dim, model.hidden_dim)
    write_binary(path, MODEL_MAGIC, "<IIII", header,
                 [np.ascontiguousarray(p, dtype="<f4") for layer in model.layers for p in layer])


def load_model(path) -> EmbeddingModel:
    """Read a model file written by :func:`save_model`."""

    def payload_size(code, d_in, d_out, hidden):
        if code >= len(_KINDS):
            raise BadMagic(f"{path}: unknown model kind code {code}")
        try:
            ModelConfig(d_out, hidden)
        except BadModel as exc:
            raise BadModel(f"{path}: {exc}") from None
        if code != (hidden > 0):
            raise BadModel(f"{path}: a {_KINDS[code]} model cannot have hidden_dim={hidden}")
        return sum(o * i + o for o, i in _layer_dims(d_in, d_out, hidden)) * 4

    (_, d_in, d_out, hidden), payload = read_binary(path, MODEL_MAGIC, "<IIII", payload_size)
    params = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(params).all():
        raise NonFinite(f"{path}: a model parameter is NaN or infinite")
    layers, start = [], 0
    for fan_out, fan_in in _layer_dims(d_in, d_out, hidden):
        stop = start + fan_out * fan_in
        layers.append([params[start:stop].reshape(fan_out, fan_in), params[stop : stop + fan_out]])
        start = stop + fan_out
    return EmbeddingModel(d_in, d_out, hidden, layers)


def save_train_log(log: list, path) -> None:
    """CSV: epoch,mean_loss,lr,tuples_used."""
    with open(path, "w") as fh:
        fh.write("epoch,mean_loss,lr,tuples_used\n")
        for row in log:
            fh.write(
                f"{row['epoch']},{row['mean_loss']:.9g},{row['lr']:.9g},{row['tuples_used']}\n"
            )
