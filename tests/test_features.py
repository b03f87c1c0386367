import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from momine.errors import (
    BadAnchors,
    BadLabels,
    BadMagic,
    BadPools,
    BadSpec,
    DimMismatch,
    NonFinite,
    RankDeficient,
    TrailingBytes,
    TruncatedFile,
    ZeroVector,
)
from momine.anchors import AnchorSet, load_anchors
from momine.diffusion import DiffusionConfig
from momine.evaluation import evaluate_embeddings, kmeans, nmi
from momine.features import (
    INTRINSIC_DIMS,
    SYNTHETIC_KINDS,
    FeatureSet,
    SyntheticSpec,
    _intrinsic_points,
    check_ids,
    generate_synthetic,
    MAGIC,
    l2_normalize,
    load_features,
    load_labels,
    pca_whiten_apply,
    pca_whiten_fit,
    save_features,
    save_labels,
)

from momine.mining import MiningConfig, build_training_pool, load_pools

from helpers import raises_with_peak


def test_normalize_three_four_five():
    fs = FeatureSet(data=np.array([[3.0, 4.0]]))
    out = l2_normalize(fs)
    assert np.allclose(out.data[0], [0.6, 0.8])


def test_normalize_unit_row_unchanged():
    fs = FeatureSet(data=np.array([[1.0, 0.0]]))
    out = l2_normalize(fs)
    assert np.array_equal(out.data[0], [1.0, 0.0])


def test_normalize_random_rows_unit_norm():
    rng = np.random.default_rng(0)
    fs = FeatureSet(data=rng.normal(size=(5, 3)))
    out = l2_normalize(fs)
    # oracle: recompute the norms after the call
    norms = np.sqrt((out.data**2).sum(axis=1))
    assert np.all(np.abs(norms - 1.0) < 1e-6)


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    once = l2_normalize(FeatureSet(data=rng.normal(size=(20, 6))))
    twice = l2_normalize(once)
    assert np.max(np.abs(twice.data - once.data)) < 1e-12


def test_normalize_zero_row_raises():
    fs = FeatureSet(data=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ZeroVector) as exc:
        l2_normalize(fs)
    assert exc.value.index == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad):
    data = np.random.default_rng(4).normal(size=(6, 4))
    data[3, 1] = bad
    with pytest.raises(NonFinite, match="row 3"):
        l2_normalize(FeatureSet(data=data))
    with pytest.raises(NonFinite):
        pca_whiten_fit(FeatureSet(data=data), 2)


def test_featureset_validation():
    with pytest.raises(ValueError):
        FeatureSet(data=np.zeros((0, 3)))
    with pytest.raises(DimMismatch):
        FeatureSet(data=np.zeros((3, 2)), labels=np.array([0, 1]))


def test_whiten_isotropic_data_is_rotation():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(4000, 3))
    data -= data.mean(axis=0)
    fs = FeatureSet(data=data)
    tr = pca_whiten_fit(fs, 3)
    out = pca_whiten_apply(fs, tr)
    # variance per retained dim is lambda/(lambda+eps), i.e. 1 up to eps
    assert np.all(np.abs(out.data.var(axis=0, ddof=1) - 1.0) < 1e-6)
    # the eigenvector basis stays orthogonal; near-isotropic data scales it
    # by ~1, so the projection is close to a rotation
    gram = tr.projection.T @ tr.projection
    off_diag = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off_diag)) < 1e-10
    assert np.all(np.abs(np.diag(gram) - 1.0) < 0.1)


def test_whiten_output_covariance_identity():
    rng = np.random.default_rng(3)
    # 2-D data concentrated on a line plus noise
    t = rng.normal(size=400)
    data = np.column_stack([t, 0.5 * t + 0.05 * rng.normal(size=400)])
    fs = FeatureSet(data=data)
    tr = pca_whiten_fit(fs, 2)
    out = pca_whiten_apply(fs, tr)
    cov = np.cov(out.data.T)
    # oracle: covariance of the transformed set
    assert np.max(np.abs(cov - np.eye(2))) < 1e-3


def test_whiten_toy_first_axis():
    fs = FeatureSet(data=np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    tr = pca_whiten_fit(fs, 1)
    axis = tr.projection[:, 0] / np.linalg.norm(tr.projection[:, 0])
    # eigen-decomposition by hand: all variance on the x axis
    assert np.allclose(np.abs(axis), [1.0, 0.0], atol=1e-12)


def test_whiten_rank_deficient():
    fs = FeatureSet(data=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(RankDeficient):
        pca_whiten_fit(fs, 2)


def test_whiten_fitting_set_unit_variance():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(300, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
    fs = FeatureSet(data=data)
    tr = pca_whiten_fit(fs, 4)
    out = pca_whiten_apply(fs, tr)
    assert np.all(np.abs(out.data.var(axis=0, ddof=1) - 1.0) < 1e-4)


def _circle_fit_residual(points):
    """Least-squares circle fit; returns (radius, max residual)."""
    x, y = points[:, 0], points[:, 1]
    a = np.column_stack([2 * x, 2 * y, np.ones(len(x))])
    b = x**2 + y**2
    (cx, cy, c), *_ = np.linalg.lstsq(a, b, rcond=None)
    r = np.sqrt(c + cx**2 + cy**2)
    residual = np.abs(np.sqrt((x - cx) ** 2 + (y - cy) ** 2) - r)
    return r, residual.max()


def test_moons_noiseless_are_unit_arcs():
    spec = SyntheticSpec(kind="moons", per_class=100, classes=2, ambient_dim=2, noise=0.0)
    fs = generate_synthetic(spec, 5)
    assert fs.n == 200 and fs.d == 2
    for cls in (0, 1):
        r, resid = _circle_fit_residual(fs.data[fs.labels == cls])
        assert abs(r - 1.0) < 1e-5
        assert resid < 1e-5


def test_generate_deterministic():
    spec = SyntheticSpec(kind="swiss-roll", per_class=40, classes=3, ambient_dim=7, noise=0.3)
    a = generate_synthetic(spec, 99)
    b = generate_synthetic(spec, 99)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.labels, b.labels)
    c = generate_synthetic(spec, 100)
    assert not np.array_equal(a.data, c.data)


def test_clusters_small_noise_kmeans_separable():
    spec = SyntheticSpec(kind="clusters", per_class=40, classes=3, ambient_dim=8, noise=0.15)
    fs = generate_synthetic(spec, 6)
    # oracle: the eval module's clustering on raw data
    assign = kmeans(fs.data, 3, seed=0)
    assert nmi(fs.labels, assign) > 0.9


def test_circles_ring_radii():
    spec = SyntheticSpec(kind="circles", per_class=50, classes=3, ambient_dim=2, noise=0.0)
    fs = generate_synthetic(spec, 7)
    for cls in range(3):
        r, resid = _circle_fit_residual(fs.data[fs.labels == cls])
        assert abs(r - (1.0 + cls)) < 1e-5 and resid < 1e-5


@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_intrinsic_points_have_the_declared_dimension(kind):
    spec = SyntheticSpec(kind=kind, per_class=5, classes=2)
    assert _intrinsic_points(spec, np.random.default_rng(0)).shape == (10, INTRINSIC_DIMS[kind])


def test_generate_bad_specs():
    with pytest.raises(BadSpec):
        generate_synthetic(SyntheticSpec(kind="blobs", per_class=10), 0)
    with pytest.raises(BadSpec):
        generate_synthetic(SyntheticSpec(kind="moons", per_class=0), 0)
    with pytest.raises(BadSpec):
        generate_synthetic(SyntheticSpec(kind="moons", per_class=10, classes=3), 0)
    with pytest.raises(BadSpec):
        generate_synthetic(SyntheticSpec(kind="swiss-roll", per_class=10, classes=2, ambient_dim=2), 0)
    with pytest.raises(BadSpec):
        generate_synthetic(SyntheticSpec(kind="moons", per_class=10, noise=-0.1), 0)


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    fs = FeatureSet(data=rng.normal(size=(4, 3)).astype(np.float32))
    path = tmp_path / "f.bin"
    save_features(fs, path)
    first = path.read_bytes()
    loaded = load_features(path)
    assert np.array_equal(loaded.data, fs.data)
    save_features(loaded, path)
    assert path.read_bytes() == first


FEATURE_MATRICES = arrays(
    np.float32,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.floats(width=32, allow_nan=False),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(FEATURE_MATRICES)
def test_feature_file_round_trip_property(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("features") / "f.bin"
    save_features(FeatureSet(data=data), path)
    first = path.read_bytes()
    assert len(first) == 12 + 4 * data.size
    loaded = load_features(path)
    assert loaded.data.shape == data.shape
    assert np.array_equal(loaded.data.view(np.int64), data.astype(np.float64).view(np.int64))
    save_features(loaded, path)
    assert path.read_bytes() == first


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        load_features(path)


def test_feature_file_truncated_payload(tmp_path):
    rng = np.random.default_rng(9)
    fs = FeatureSet(data=rng.normal(size=(10, 3)).astype(np.float32))
    path = tmp_path / "t.bin"
    save_features(fs, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 12])  # drop the last row
    with pytest.raises(TruncatedFile):
        load_features(path)
    # headers that promise more than any file holds are refused before a
    # read, so nothing of the promised size is allocated
    for n_d in (2**32 - 1, 2**20):
        path.write_bytes(MAGIC + struct.pack("<II", n_d, n_d))
        assert raises_with_peak(TruncatedFile, lambda: load_features(path)) < 2**20


def test_feature_file_trailing_bytes(tmp_path):
    fs = FeatureSet(data=np.random.default_rng(9).normal(size=(5, 3)).astype(np.float32))
    path = tmp_path / "x.bin"
    save_features(fs, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(TrailingBytes):
        load_features(path)


def test_feature_file_truncated_header(tmp_path):
    path = tmp_path / "h.bin"
    path.write_bytes(b"MOM1\x02\x00")
    with pytest.raises(TruncatedFile):
        load_features(path)


def test_labels_sidecar_round_trip(tmp_path):
    labels = np.array([3, 1, 4, 1, 5])
    path = tmp_path / "labels.txt"
    save_labels(labels, path)
    assert np.array_equal(load_labels(path, 5), labels)
    with pytest.raises(DimMismatch):
        load_labels(path, 6)


def test_labels_sidecar_non_integer_line_names_file_and_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\nx\n1\n")
    with pytest.raises(BadLabels, match=r"labels\.txt:3: .*'x'"):
        load_labels(path, 4)


def test_labels_sidecar_line_of_two_labels_names_file_and_line(tmp_path):
    # two lines of `0 1` are two lines, not four labels
    path = tmp_path / "labels.txt"
    path.write_text("\n0 1\n0 1\n")
    with pytest.raises(BadLabels, match=r"labels\.txt:2: expected one integer, got '0 1'$"):
        load_labels(path, 4)
    path.write_text("\n0\n\n1\n")  # blank lines are skipped
    assert load_labels(path, 2).tolist() == [0, 1]


@pytest.mark.parametrize("label", [str(2**63), str(-(2**63) - 1)])
def test_labels_sidecar_label_beyond_int64_names_file_and_line(tmp_path, label):
    path = tmp_path / "labels.txt"
    path.write_text(f"0\n{2**63 - 1}\n{-(2**63)}\n{label}\n")
    with pytest.raises(BadLabels, match=rf"labels\.txt:4: a label beyond 64 bits: '{label}'"):
        load_labels(path, 4)
    path.write_text(f"0\n{2**63 - 1}\n{-(2**63)}\n1\n")
    assert load_labels(path, 4).tolist() == [0, 2**63 - 1, -(2**63), 1]


@pytest.mark.parametrize("kind", ["labels", "anchors", "pools"])
def test_line_files_share_one_reader(tmp_path, kind):
    # a good line, a blank and a whitespace-only line, then a bad one
    load, error, good, bad = {
        "labels": (lambda path: load_labels(path, 2), BadLabels, "3", "x"),
        "anchors": (load_anchors, BadAnchors, "3 0.5", "3"),
        "pools": (load_pools, BadPools, '{"anchor": 0, "positives": [], "negatives": []}', "{"),
    }[kind]
    path = tmp_path / "lines.txt"
    path.write_text(f"{good}\n\n \t\n{bad}\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}:4: "):
        load(path)
    path.write_bytes(f"{good}\n".encode() + b"\xff\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}: .*0xff"):
        load(path)
    path.write_text(" \n\t\n\n")
    if kind == "labels":
        with pytest.raises(DimMismatch, match=f"^{re.escape(str(path))}: 0 labels for n=2 items$"):
            load(path)
    elif kind == "anchors":
        empty = load(path)
        assert len(empty) == 0 and empty.anchor_ids.dtype == np.int64
        assert empty.pi_values.dtype == np.float64 and empty.pi_values.shape == (0,)
    else:
        with pytest.raises(BadPools, match=f"^{re.escape(str(path))}: no pools$"):
            load(path)
        # a JSON position counts within the line, its line end left out
        path.write_text(f"{good}\n\n{good}\n \n" + '{"anchor": 1, "positives": [[3, 0.5]\n')
        with pytest.raises(BadPools) as caught:
            load(path)
        assert str(caught.value) == (f"{path}:5: JSONDecodeError: Expecting ',' delimiter: "
                                     "line 1 column 37 (char 36)")


@pytest.mark.parametrize("ids,named", [([2**64], 2**64), ([-1], -1), ([4], 4),
                                       ([3, 7, 5, -(2**63) - 1, -2], -(2**63) - 1)],
                         ids=["beyond-int64", "negative", "n", "smallest-named"])
def test_check_ids_names_the_smallest_id_outside_the_range(ids, named):
    with pytest.raises(BadPools, match=rf"^pool member id {named} out of range \[0, 4\)$"):
        check_ids(ids, 4, BadPools, "pool member id")
    assert check_ids([[3, 0], [1, 2]], 4, BadAnchors, "anchor id").tolist() == [3, 0, 1, 2]


@pytest.mark.parametrize("entry", ["FeatureSet", "load_labels", "build_training_pool",
                                   "evaluate_embeddings", "nmi"])
def test_every_labels_match_check_raises_one_message(tmp_path, entry):
    # five labels for six items, at each entry point that takes labels
    data = np.random.default_rng(3).normal(size=(6, 4))
    short = [0, 1, 0, 1, 0]
    path = tmp_path / "labels.txt"
    save_labels(np.array(short), path)
    oracle = MiningConfig(mode="baseline", oracle="negative")
    calls = {
        "FeatureSet": (lambda: FeatureSet(data, short), ""),
        "load_labels": (lambda: load_labels(path, 6), f"{path}: "),
        "build_training_pool": (lambda: build_training_pool(
            AnchorSet(np.array([0]), np.zeros(1)), l2_normalize(FeatureSet(data)), None,
            DiffusionConfig(), oracle, short), ""),
        "evaluate_embeddings": (lambda: evaluate_embeddings(data, short), ""),
        "nmi": (lambda: nmi([0, 1, 0, 1, 0, 1], short), "nmi: "),
    }
    call, where = calls[entry]
    with pytest.raises(DimMismatch, match=f"^{re.escape(where)}5 labels for n=6 items$"):
        call()
