import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momine.diffusion import DiffusionConfig
from momine.errors import (
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
from momine.features import SyntheticSpec, generate_synthetic, l2_normalize
from momine.mining import AnchorPools, MiningConfig
from momine.trainer import (
    MODEL_MAGIC,
    EmbeddingModel,
    TrainConfig,
    _LOSSES,
    _backward,
    _forward_cache,
    forward,
    load_model,
    save_model,
    sgd_momentum_step,
    train,
)

from helpers import raises_with_peak, train_reference


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_unit_triple(rng, d=6):
    return (unit(rng.normal(size=d)), unit(rng.normal(size=d)), unit(rng.normal(size=d)))


def tuple_loss(name):
    """The training loss `name` on one tuple: a function of (z_r, z_p, z_n,
    margin) that returns its value and the gradients w.r.t. the three
    embeddings."""
    def loss(z_r, z_p, z_n, margin):
        losses, *grads = _LOSSES[name](*map(np.atleast_2d, (z_r, z_p, z_n)), margin)
        return float(losses[0]), tuple(g[0] for g in grads)

    return loss


contrastive_loss = tuple_loss("contrastive")
triplet_loss = tuple_loss("triplet")
triplet_literal_loss = tuple_loss("triplet-literal")


def identity_model(d):
    return EmbeddingModel(input_dim=d, output_dim=d, layers=[[np.eye(d), np.zeros(d)]])


# ---- forward ---------------------------------------------------------------


def test_identity_model_passes_unit_input_through():
    model = identity_model(3)
    x = unit([1.0, 2.0, -1.0])
    assert np.allclose(forward(model, x), x, atol=1e-12)


def test_linear_model_scale_invariant():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 5))
    m1 = EmbeddingModel(5, 4, layers=[[w, np.zeros(4)]])
    m2 = EmbeddingModel(5, 4, layers=[[2.0 * w, np.zeros(4)]])
    x = rng.normal(size=5)
    assert np.allclose(forward(m1, x), forward(m2, x), atol=1e-12)


def test_forward_outputs_unit_norm():
    rng = np.random.default_rng(1)
    model = EmbeddingModel.initialize(6, 4, hidden_dim=8, seed=2)
    z = forward(model, rng.normal(size=(20, 6)))
    assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-6


def test_forward_degenerate_output():
    model = EmbeddingModel(3, 2, layers=[[np.zeros((2, 3)), np.zeros(2)]])
    with pytest.raises(DegenerateOutput):
        forward(model, np.array([1.0, 0.0, 0.0]))


def test_initialize_shapes_and_identity():
    lin = EmbeddingModel.initialize(5, 5, seed=0)
    assert np.array_equal(lin.layers[0][0], np.eye(5))
    proj = EmbeddingModel.initialize(8, 3, seed=0)
    assert np.allclose(proj.layers[0][0] @ proj.layers[0][0].T, np.eye(3), atol=1e-12)
    up = EmbeddingModel.initialize(3, 8, seed=0)
    assert np.allclose(up.layers[0][0].T @ up.layers[0][0], np.eye(3), atol=1e-12)
    mlp = EmbeddingModel.initialize(5, 3, hidden_dim=7, seed=0)
    assert [(w.shape, b.shape) for w, b in mlp.layers] == [((7, 5), (7,)), ((3, 7), (3,))]
    with pytest.raises(ValueError):
        EmbeddingModel(3, 2, layers=[[np.zeros((9, 9)), np.zeros(9)]])


# the ids name the architecture, one affine layer ("linear") or a hidden one ("mlp")
@pytest.mark.parametrize("output_dim,hidden_dim", [
    pytest.param(2**63, 0, id="linear-9223372036854775808-0"),
    pytest.param(4, 2**63, id="mlp-4-9223372036854775808"),
    pytest.param(2**63, 4, id="mlp-9223372036854775808-4"),
])
def test_initialize_of_a_size_numpy_refuses_is_a_named_error(output_dim, hidden_dim):
    # each size is too many dimensions for numpy, which refuses it before
    # allocating anything
    with pytest.raises(BadModel, match=f"^a model with input_dim=16, output_dim={output_dim} and "
                                       f"hidden_dim={hidden_dim} does not fit in memory$"):
        EmbeddingModel.initialize(16, output_dim, hidden_dim)


@pytest.mark.parametrize("output_dim,hidden_dim,field", [
    pytest.param(4, -1, "hidden_dim", id="linear-4--1-hidden_dim"),
    pytest.param(-1, 0, "output_dim", id="linear--1-0-output_dim"),
    pytest.param(0, 4, "output_dim", id="mlp-0-4-output_dim"),
])
def test_initialize_checks_the_architecture_before_allocating(output_dim, hidden_dim, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's divide-by-zero RuntimeWarning included
        with pytest.raises(BadModel) as exc:
            EmbeddingModel.initialize(8, output_dim, hidden_dim)
    assert exc.value.field == field and "does not fit" not in str(exc.value)
    value = {"output_dim": output_dim, "hidden_dim": hidden_dim}[field]
    assert str(exc.value) == f"a model cannot have {field}={value}"
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("loss,margin", [
    ("contrastive", 0.7), ("triplet", 0.5), ("triplet-literal", 0.5),
])
def test_train_config_margin_zero_is_the_loss_default(loss, margin):
    assert TrainConfig(loss=loss).margin == margin
    assert TrainConfig(loss=loss, margin=0.0).margin == margin
    assert TrainConfig(loss=loss, margin=0.3).margin == 0.3


@pytest.mark.parametrize("field,value", [
    ("margin", -1.0), ("epochs", -1),
])
def test_train_config_rejects_a_negative_margin_or_epoch_count(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("lr0", 0.0), ("lr0", -1.0), ("lr0", float("nan")), ("margin", float("nan")),
    ("momentum", float("nan")),
])
def test_train_config_rejects_a_nonpositive_or_nan_value(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


# ---- losses ----------------------------------------------------------------


def test_contrastive_zero_when_satisfied():
    z_r = unit([1.0, 0.0, 0.0])
    z_n = unit([-1.0, 0.0, 0.0])  # distance 2 > margin
    loss, grads = contrastive_loss(z_r, z_r, z_n, margin=0.7)
    assert loss == 0.0
    assert all(np.allclose(g, 0.0) for g in grads)


def test_contrastive_orthogonal_positive_and_coincident_negative():
    z_r = unit([1.0, 0.0])
    z_p = unit([0.0, 1.0])
    loss, _ = contrastive_loss(z_r, z_p, z_r, margin=0.7)
    assert loss == pytest.approx(2.0 + 0.49)


def test_triplet_zero_when_satisfied():
    z_r = unit([1.0, 0.0])
    z_n = unit([-1.0, 0.0])  # squared distance 4 > margin
    loss, grads = triplet_loss(z_r, z_r, z_n, margin=0.5)
    assert loss == 0.0
    assert all(np.allclose(g, 0.0) for g in grads)


def test_triplet_equal_positive_negative_gives_margin():
    z_r = unit([1.0, 0.0, 0.0])
    z = unit([0.0, 1.0, 0.0])
    loss, _ = triplet_loss(z_r, z, z, margin=0.5)
    assert loss == pytest.approx(0.5)


def test_triplet_literal_form_value():
    z_r = unit([1.0, 0.0])
    z_p = unit([0.0, 1.0])  # squared distance 2
    z_n = unit([-1.0, 0.0])  # distance 2 (not squared in the literal form)
    loss, _ = triplet_literal_loss(z_r, z_p, z_n, margin=0.5)
    assert loss == pytest.approx((0.5 + 2.0 - 2.0) ** 2)


def test_hinge_inactive_region_flat():
    z_r = unit([1.0, 0.0, 0.0])
    z_p = unit([1.0, 0.2, 0.0])
    z_n = unit([-1.0, 0.05, 0.0])
    base_loss, base_grads = contrastive_loss(z_r, z_p, z_n, margin=0.7)
    moved = unit([-1.0, 0.0, 0.1])
    loss2, grads2 = contrastive_loss(z_r, z_p, moved, margin=0.7)
    assert loss2 == pytest.approx(base_loss)
    assert np.allclose(base_grads[2], 0.0) and np.allclose(grads2[2], 0.0)
    assert np.allclose(base_grads[0], grads2[0])


def test_losses_never_negative():
    rng = np.random.default_rng(17)
    for _ in range(200):
        z_r, z_p, z_n = random_unit_triple(rng)
        assert contrastive_loss(z_r, z_p, z_n, 0.7)[0] >= 0.0
        assert triplet_loss(z_r, z_p, z_n, 0.5)[0] >= 0.0
        assert triplet_literal_loss(z_r, z_p, z_n, 0.5)[0] >= 0.0


def _fd_check(fn, z_r, z_p, z_n, margin, step=1e-5, tol=1e-4):
    _, (g_r, g_p, g_n) = fn(z_r, z_p, z_n, margin)
    analytic = np.concatenate([g_r, g_p, g_n])
    numeric = np.zeros_like(analytic)
    flat = np.concatenate([z_r, z_p, z_n])
    d = len(z_r)
    for idx in range(len(flat)):
        plus = flat.copy()
        minus = flat.copy()
        plus[idx] += step
        minus[idx] -= step
        lp, _ = fn(plus[:d], plus[d : 2 * d], plus[2 * d :], margin)
        lm, _ = fn(minus[:d], minus[d : 2 * d], minus[2 * d :], margin)
        numeric[idx] = (lp - lm) / (2 * step)
    denom = max(np.linalg.norm(numeric), 1e-12)
    assert np.linalg.norm(analytic - numeric) / denom < tol


def _active_margin(kind, z_r, z_p, z_n, margin):
    """Distance of the tuple from its hinge kink."""
    if kind == "contrastive":
        return abs(margin - np.linalg.norm(z_r - z_n))
    if kind == "triplet":
        return abs(margin + np.sum((z_r - z_p) ** 2) - np.sum((z_r - z_n) ** 2))
    return abs(margin + np.sum((z_r - z_p) ** 2) - np.linalg.norm(z_r - z_n))


@pytest.mark.parametrize("kind", ["contrastive", "triplet", "triplet-literal"])
def test_loss_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(3)
    margin = 0.7 if kind == "contrastive" else 0.5
    fn = tuple_loss(kind)
    checked = 0
    while checked < 100:
        z_r, z_p, z_n = random_unit_triple(rng)
        if _active_margin(kind, z_r, z_p, z_n, margin) < 1e-3:
            continue  # finite differences are meaningless across the kink
        _fd_check(fn, z_r, z_p, z_n, margin)
        checked += 1


def test_weighted_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        z_r, z_p, z_n = random_unit_triple(rng)
        if _active_margin("contrastive", z_r, z_p, z_n, 0.7) < 1e-3:
            continue
        weight = float(rng.uniform(0.1, 1.0))

        def weighted(a, b, c, m):
            loss, grads = contrastive_loss(a, b, c, m)
            return loss * weight, tuple(g * weight for g in grads)

        _fd_check(weighted, z_r, z_p, z_n, 0.7)
        checked += 1


@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_parameter_gradients_through_normalization(arch):
    # backprop through the l2 layer, checked against central differences on
    # every parameter
    rng = np.random.default_rng(5)
    if arch == "linear":
        model = EmbeddingModel(5, 4, layers=[[rng.normal(size=(4, 5)), rng.normal(size=4) * 0.1]])
    else:
        model = EmbeddingModel(
            5, 4, 6,
            layers=[
                [rng.normal(size=(6, 5)), rng.normal(size=6) * 0.1],
                [rng.normal(size=(4, 6)), rng.normal(size=4) * 0.1],
            ],
        )
    xs = rng.normal(size=(3, 3, 5))  # three tuples of (r, p, n)

    def total_loss(m):
        value = 0.0
        for x_r, x_p, x_n in xs:
            z_r, z_p, z_n = forward(m, x_r), forward(m, x_p), forward(m, x_n)
            loss, _ = contrastive_loss(z_r, z_p, z_n, 0.7)
            value += loss
        return value

    grads = [[np.zeros_like(w), np.zeros_like(b)] for w, b in model.layers]
    for x_r, x_p, x_n in xs:
        caches = []
        zs = []
        for x in (x_r, x_p, x_n):
            z, cache = _forward_cache(model, x[None, :])
            zs.append(z[0])
            caches.append(cache)
        _, gz = contrastive_loss(*zs, 0.7)
        for cache, g in zip(caches, gz):
            _backward(model, cache, g[None, :], grads)

    step = 1e-5
    for layer, (gw, gb) in enumerate(grads):
        for grad, param_idx in ((gw, 0), (gb, 1)):
            param = model.layers[layer][param_idx]
            numeric = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + step
                lp = total_loss(model)
                param[idx] = orig - step
                lm = total_loss(model)
                param[idx] = orig
                numeric[idx] = (lp - lm) / (2 * step)
                it.iternext()
            denom = max(np.linalg.norm(numeric.ravel()), 1e-12)
            assert np.linalg.norm((grad - numeric).ravel()) / denom < 1e-4


# ---- optimizer -------------------------------------------------------------


def test_sgd_no_momentum_is_plain_descent():
    params = [[np.array([[1.0, 2.0]]), np.array([0.5])]]
    grads = [[np.array([[0.1, -0.2]]), np.array([0.3])]]
    vel = [[np.zeros((1, 2)), np.zeros(1)]]
    sgd_momentum_step(params, grads, vel, lr=0.1, momentum=0.0)
    assert np.allclose(params[0][0], [[0.99, 2.02]])
    assert np.allclose(params[0][1], [0.47])


def test_sgd_velocity_drift():
    params = [[np.array([[1.0]]), np.array([0.0])]]
    grads = [[np.zeros((1, 1)), np.zeros(1)]]
    vel = [[np.array([[0.4]]), np.array([0.2])]]
    sgd_momentum_step(params, grads, vel, lr=0.1, momentum=0.5)
    assert np.allclose(params[0][0], [[1.2]])
    assert np.allclose(params[0][1], [0.1])


def test_sgd_quadratic_bowl_converges():
    # closed-form objective 0.5 * theta^T A theta with known minimum at zero
    a = np.diag([1.0, 4.0, 0.5])
    theta = np.array([[2.0, -1.5, 3.0]])
    params = [[theta, np.zeros(1)]]
    vel = [[np.zeros_like(theta), np.zeros(1)]]
    start = 0.5 * (theta @ a @ theta.T).item()
    for _ in range(100):
        grads = [[params[0][0] @ a, np.zeros(1)]]
        sgd_momentum_step(params, grads, vel, lr=0.35, momentum=0.6)
    end = 0.5 * (params[0][0] @ a @ params[0][0].T).item()
    assert end < 1e-6 * start


# ---- training loop ---------------------------------------------------------


def two_moons_run(seed=11):
    spec = SyntheticSpec(kind="moons", per_class=60, classes=2, ambient_dim=8, noise=0.15)
    fs = generate_synthetic(spec, seed)
    fn = l2_normalize(fs)
    rng = np.random.default_rng(seed + 1)
    pools = []
    for anchor in range(0, fn.n, 3):
        others = [j for j in range(fn.n) if j != anchor]
        rng.shuffle(others)
        pos = [(int(j), float(rng.uniform(0.2, 1.0))) for j in others[:5]]
        neg = [(int(j), float(rng.uniform(0.2, 1.0))) for j in others[5:12]]
        pools.append(AnchorPools(anchor_id=anchor, positives=pos, negatives=neg))
    return fn, pools


def test_train_zero_epochs_returns_model_unchanged():
    fn, pools = two_moons_run()
    model = EmbeddingModel.initialize(8, 8, seed=1)
    before = [w.copy() for w, _ in model.layers]
    cfg = TrainConfig(epochs=0)
    out, log = train(fn, pools, model, cfg, MiningConfig(hard_subset_size=5, max_neg=50), seed=3)
    assert out is model and log == []
    assert all(np.array_equal(a, w) for a, (w, _) in zip(before, model.layers))


@pytest.mark.parametrize("bad_id", [-1, 120])
def test_train_rejects_pool_ids_outside_features(bad_id):
    fn, pools = two_moons_run()  # 120 items
    pools[4].negatives.append((bad_id, 0.5))
    model = EmbeddingModel.initialize(8, 8, seed=1)
    with pytest.raises(BadPools, match=f"{bad_id} out of range"):
        train(fn, pools, model, TrainConfig(epochs=1), MiningConfig(max_neg=50), seed=3)


def test_train_without_pools_is_all_pools_empty():
    fn, _ = two_moons_run()
    model = EmbeddingModel.initialize(8, 8, seed=1)
    with pytest.raises(AllPoolsEmpty, match="^no pools to train on$"):
        train(fn, [], model, TrainConfig(epochs=1), MiningConfig(max_neg=50), seed=3)


def test_train_model_of_another_width_is_dim_mismatch():
    fn, pools = two_moons_run()  # d = 8
    model = EmbeddingModel.initialize(4, 4, seed=1)
    with pytest.raises(DimMismatch, match="^model expects input_dim=4, features have d=8$"):
        train(fn, pools, model, TrainConfig(epochs=1), MiningConfig(max_neg=50), seed=3)


def test_train_deterministic_given_seed():
    fn, pools = two_moons_run()
    mcfg = MiningConfig(hard_subset_size=5, max_neg=50)
    results = []
    for _ in range(2):
        model = EmbeddingModel.initialize(8, 8, seed=1)
        cfg = TrainConfig(loss="contrastive", margin=0.7, epochs=5, batch_size=16)
        model, log = train(fn, pools, model, cfg, mcfg, seed=42)
        results.append((model.layers[0][0].copy(), [row["mean_loss"] for row in log]))
    assert np.array_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1]


def test_train_loss_decreases_on_moons():
    fn, pools = two_moons_run()
    model = EmbeddingModel.initialize(8, 8, seed=1)
    cfg = TrainConfig(loss="contrastive", margin=0.7, epochs=30, batch_size=16, lr0=0.05)
    model, log = train(fn, pools, model, cfg, MiningConfig(hard_subset_size=5, max_neg=50), seed=7)
    assert log[-1]["mean_loss"] < log[0]["mean_loss"]
    # normalization is preserved through training
    z = forward(model, fn.data)
    assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-6
    assert log[0]["lr"] == pytest.approx(0.05)
    assert log[-1]["lr"] == pytest.approx(0.05 * 0.1**2)  # two decade drops in 30 epochs


def test_train_diverged_guard():
    fn, pools = two_moons_run()
    model = EmbeddingModel.initialize(8, 8, seed=1)
    model.layers[0][0][0, 0] = np.nan
    cfg = TrainConfig(epochs=1)
    with pytest.raises(Diverged):
        train(fn, pools, model, cfg, MiningConfig(hard_subset_size=5, max_neg=50), seed=1)


def test_train_diverges_once_a_weight_leaves_float32():
    # a step of lr0 = 1e50 takes the weights far past float32's 3.4e38,
    # while the float64 forward pass and loss stay finite
    fn, pools = two_moons_run()
    model = EmbeddingModel.initialize(8, 8, seed=1)
    cfg = TrainConfig(epochs=2, lr0=1e50)
    with pytest.raises(Diverged, match="^a model parameter left float32's range at epoch 0$"):
        train(fn, pools, model, cfg, MiningConfig(hard_subset_size=5, max_neg=50), seed=1)


# clusters 3 x 30 in d = 8, mined on a 6-NN graph; one seed drives gen, model and training
ROUND_ARGS = [
    "--seed", "5",
    "--set", "gen.kind", "clusters", "--set", "gen.classes", "3",
    "--set", "gen.per_class", "30", "--set", "gen.ambient_dim", "8",
    "--set", "gen.noise", "0.5", "--set", "graph.k", "6",
    "--set", "diffusion.alpha", "0.95", "--set", "diffusion.tolerance", "1e-8",
    "--set", "diffusion.max_iterations", "300", "--set", "anchors.count", "50",
    "--set", "mining.k_pos", "10", "--set", "mining.k_neg", "20",
    "--set", "mining.max_neg", "10", "--set", "mining.hard_subset_size", "5",
    "--set", "model.output_dim", "8", "--set", "train.batch_size", "16",
]


def test_alternate_single_round_equals_plain_train(tmp_path, capsys):
    from momine.anchors import select_anchors, stationary
    from momine.cli import main
    from momine.graph import build_reciprocal_graph, normalize_graph
    from momine.mining import build_training_pool

    out = tmp_path / "run"
    assert main(["pipeline", "--out", str(out), "--set", "train.epochs", "4"] + ROUND_ARGS) == 0
    capsys.readouterr()
    assert not (out / "pools.round2.jsonl").exists()

    spec = SyntheticSpec(kind="clusters", per_class=30, classes=3, ambient_dim=8, noise=0.5)
    fn = l2_normalize(generate_synthetic(spec, 5))
    dcfg = DiffusionConfig(alpha=0.95, tolerance=1e-8, max_iterations=300)
    mcfg = MiningConfig(k_pos=10, k_neg=20, max_neg=10, hard_subset_size=5)
    tcfg = TrainConfig(loss="contrastive", margin=0.7, epochs=4, batch_size=16)
    graph = build_reciprocal_graph(fn, 6)
    anchors = select_anchors(graph, stationary(graph)[0], 50)
    pools, _ = build_training_pool(anchors, fn, normalize_graph(graph), dcfg, mcfg)
    model = EmbeddingModel.initialize(8, 8, seed=5)
    model, _ = train(fn, pools, model, tcfg, mcfg, seed=5)
    save_model(model, tmp_path / "chain.bin")
    assert (tmp_path / "chain.bin").read_bytes() == (out / "model.bin").read_bytes()


def test_alternate_rounds_remines_from_new_embedding(tmp_path, capsys):
    import json

    from momine.cli import main

    recall = {}
    for rounds in (1, 2):
        out = tmp_path / f"r{rounds}"
        assert main(["pipeline", "--out", str(out), "--rounds", str(rounds),
                     "--set", "train.epochs", "6", "--set", "train.lr0", "0.1"] + ROUND_ARGS) == 0
        recall[rounds] = json.loads((out / "report.json").read_text())["recall_at"]["1"]
    capsys.readouterr()

    # round 2 mines on the round-1 embedding, so its pools differ
    assert (out / "pools.jsonl").read_bytes() != (out / "pools.round2.jsonl").read_bytes()
    # non-collapse guard
    assert recall[2] >= recall[1] - 0.02


# ---- model persistence -----------------------------------------------------


def test_model_file_round_trip(tmp_path):
    for hidden in (0, 5):
        model = EmbeddingModel.initialize(6, 4, hidden_dim=hidden, seed=3)
        path = tmp_path / f"hidden{hidden}.bin"
        save_model(model, path)
        first = path.read_bytes()
        assert first[4:8] == int(hidden > 0).to_bytes(4, "little")  # the kind code
        loaded = load_model(path)
        assert (loaded.input_dim, loaded.output_dim, loaded.hidden_dim) == (6, 4, hidden)
        save_model(loaded, path)
        assert path.read_bytes() == first
        for (w, b), (lw, lb) in zip(model.layers, loaded.layers):
            assert np.allclose(w, lw, atol=1e-6)
            assert np.allclose(b, lb, atol=1e-6)


FINITE_PARAMETERS = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    """Linear and MLP models of small dims whose parameters are finite float32 values."""
    d_in, d_out = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    hidden = draw(st.sampled_from([0, *range(1, 7)]))
    shapes = [(hidden, d_in), (d_out, hidden)] if hidden else [(d_out, d_in)]
    layers = [
        [draw(arrays(np.float32, shape, elements=FINITE_PARAMETERS)).astype(np.float64),
         draw(arrays(np.float32, shape[0], elements=FINITE_PARAMETERS)).astype(np.float64)]
        for shape in shapes
    ]
    return EmbeddingModel(d_in, d_out, hidden, layers)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(models())
def test_model_file_round_trip_property(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("model") / "m.bin"
    save_model(model, path)
    first = path.read_bytes()
    loaded = load_model(path)
    save_model(loaded, path)
    assert path.read_bytes() == first
    assert (loaded.input_dim, loaded.output_dim, loaded.hidden_dim) == (
        model.input_dim, model.output_dim, model.hidden_dim)
    for (w, b), (lw, lb) in zip(model.layers, loaded.layers, strict=True):
        assert np.array_equal(lw.view(np.int64), w.view(np.int64))
        assert np.array_equal(lb.view(np.int64), b.view(np.int64))


def test_model_file_errors(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        load_model(path)
    model = EmbeddingModel.initialize(4, 3, seed=0)
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(TruncatedFile):
        load_model(path)
    # a header whose dims promise more than any file holds is refused before
    # a read, so nothing of the promised size is allocated
    path.write_bytes(MODEL_MAGIC + struct.pack("<IIII", 0, 2**32 - 1, 2**32 - 1, 0))
    assert raises_with_peak(TruncatedFile, lambda: load_model(path)) < 2**20
    path.write_bytes(blob + b"\x00")
    with pytest.raises(TrailingBytes):
        load_model(path)


@pytest.mark.parametrize("code,hidden,payload", [
    (0, 3, True),  # linear with a hidden width, over a payload of the right size
    (1, 0, True),  # mlp without one, over a linear model's payload
    (1, 0, False),
])
def test_load_model_rejects_a_kind_and_hidden_width_that_disagree(tmp_path, code, hidden, payload):
    blob = b""
    if payload:
        save_model(EmbeddingModel.initialize(4, 3, seed=0), tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()[20:]
    path = tmp_path / "bad.bin"
    path.write_bytes(MODEL_MAGIC + struct.pack("<IIII", code, 4, 3, hidden) + blob)
    kind = ("linear", "mlp")[code]
    with pytest.raises(BadModel, match=f"bad.bin: a {kind} model cannot have hidden_dim={hidden}$"):
        load_model(path)


@pytest.mark.parametrize("hidden", [0, 5], ids=["linear-0", "mlp-5"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_load_model_rejects_a_non_finite_parameter(tmp_path, hidden, value):
    model = EmbeddingModel.initialize(6, 4, hidden_dim=hidden, seed=3)
    model.layers[-1][1][2] = value  # a bias of the last layer
    path = tmp_path / "bad.bin"
    save_model(model, path)
    with pytest.raises(NonFinite, match="bad.bin"):
        load_model(path)


@pytest.mark.parametrize("loss,hidden,weighting", [
    pytest.param("contrastive", 0, "per-anchor-max", id="contrastive-linear-per-anchor-max"),
    pytest.param("triplet", 6, "per-anchor-max", id="triplet-mlp-per-anchor-max"),
    pytest.param("triplet-literal", 0, "none", id="triplet-literal-linear-none"),
    pytest.param("contrastive", 6, "unit", id="contrastive-mlp-unit"),
    pytest.param("triplet", 0, "unit", id="triplet-linear-unit"),
])
def test_train_matches_tuple_reference(tmp_path, loss, hidden, weighting):
    fn, pools = two_moons_run()
    pools[2:2] = [AnchorPools(7, [], [(1, 0.5)]), AnchorPools(8, [(2, 0.3)], [])]  # skipped
    pools[5].negatives = pools[5].negatives[:2]  # fewer negatives than the window
    pools.append(AnchorPools(pools[0].anchor_id, [(50, 1.7)], [(51, 0.2)]))  # repeated anchor
    mcfg = MiningConfig(hard_subset_size=5, max_neg=50)
    tcfg = TrainConfig(loss=loss, weight_normalization=weighting, epochs=4, batch_size=16)
    runs = []
    for fit in (train, train_reference):
        model = EmbeddingModel.initialize(8, 5, hidden_dim=hidden, seed=1)
        model, log = fit(fn, pools, model, tcfg, mcfg, seed=5)
        save_model(model, tmp_path / "model.bin")
        runs.append(([p for layer in model.layers for p in layer], log,
                     (tmp_path / "model.bin").read_bytes()))
    (params, log, blob), (ref_params, ref_log, ref_blob) = runs
    assert all(np.array_equal(a, b) for a, b in zip(params, ref_params))
    assert log == ref_log and blob == ref_blob
    assert all(row["tuples_used"] == len(pools) - 2 for row in log)


def test_per_anchor_max_normalizes_over_every_pool_of_a_repeated_anchor():
    fn, _ = two_moons_run()
    mcfg = MiningConfig(hard_subset_size=2, max_neg=50)
    tcfg = TrainConfig(epochs=3, batch_size=2)
    negatives = [(20, 0.4), (21, 0.3)]
    split = [AnchorPools(0, [(1, 0.9)], negatives), AnchorPools(0, [(3, 0.3)], negatives)]
    # the same pools with the weights already divided by the anchor's max, 0.9
    scaled = [AnchorPools(0, [(1, 1.0)], negatives), AnchorPools(0, [(3, 0.3 / 0.9)], negatives)]
    models = []
    for pools, normalization in ((split, "per-anchor-max"), (scaled, "none")):
        model = EmbeddingModel.initialize(8, 8, seed=1)
        cfg = TrainConfig(**{**tcfg.__dict__, "weight_normalization": normalization})
        models.append(train(fn, pools, model, cfg, mcfg, seed=4)[0].layers[0][0])
    assert np.array_equal(models[0], models[1])
