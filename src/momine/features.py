"""Feature vectors: storage, synthetic generators, normalization, whitening, disk I/O.

Features live in memory as float64 (solvers need the headroom) and on disk as
little-endian float32. Labels are kept in a plain-text sidecar and are only
ever consumed by evaluation and oracle ablations, never by the graph, mining,
or training code paths.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLabels,
    BadSpec,
    DimMismatch,
    EmptyFeatures,
    INT64,
    NonFinite,
    RankDeficient,
    ZeroVector,
    check_fields,
    read_binary,
    read_lines,
    ruled,
    write_binary,
)

MAGIC = b"MOM1"

# each generator kind's intrinsic dimension, the fewest ambient_dim it takes
INTRINSIC_DIMS = {"moons": 2, "circles": 2, "swiss-roll": 3, "clusters": 2}
SYNTHETIC_KINDS = tuple(INTRINSIC_DIMS)

WHITEN_EPSILON = 1e-9  # eigenvalue floor and regularizer of the whitening scale


def check_labels(labels, n: int, where: str = "") -> None:
    """DimMismatch, "[<where>: ]X labels for n=Y items", unless `labels`
    holds one label per item: a sequence of exactly n."""
    if np.shape(labels) != (n,):
        raise DimMismatch(f"{where}{': ' if where else ''}{np.size(labels)} labels for n={n} items")


def check_ids(ids, n: int, error, what: str) -> np.ndarray:
    """`ids` as int64, or `error` "<what> X out of range [0, n)" for the smallest X outside."""
    try:
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    except OverflowError:  # a Python int beyond int64, so outside [0, n) too
        ids = np.asarray(ids, dtype=object).reshape(-1)
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise error(f"{what} {int(bad.min())} out of range [0, {n})")
    return ids


@dataclass
class FeatureSet:
    """An immutable n x d matrix of item features; item i is row i.

    ``labels`` is optional and exists for evaluation only.
    """

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise EmptyFeatures(f"feature matrix must be 2-D and non-empty, got {self.data.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            check_labels(self.labels, self.data.shape[0])
            self.labels.flags.writeable = False
        self.data.flags.writeable = False

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass
class WhiteningTransform:
    """Centering plus projection onto scaled principal axes."""

    mean: np.ndarray
    projection: np.ndarray  # (d, retained_dims), columns scaled by 1/sqrt(eigval + eps)


@dataclass
class SyntheticSpec:
    """Parameters for a synthetic manifold dataset; the defaults are `mom gen`'s.

    ``noise`` is the ambient Gaussian sigma applied after the (seeded) isometric
    lift into ``ambient_dim`` dimensions; for ``clusters`` it doubles as the
    blob standard deviation.
    """

    kind: str = ruled("moons", SYNTHETIC_KINDS)
    per_class: int = ruled(200, ">= 1")
    classes: int = ruled(2, ">= 1")
    ambient_dim: int = ruled(16, ">= 1")
    noise: float = ruled(0.15, ">= 0")

    def __post_init__(self):
        check_fields(self, BadSpec)
        if self.kind == "moons" and self.classes != 2:
            raise BadSpec(f"classes must be 2 for kind 'moons', got {self.classes!r}")
        if self.ambient_dim < INTRINSIC_DIMS[self.kind]:
            raise BadSpec(f"ambient_dim must be >= {INTRINSIC_DIMS[self.kind]} for kind "
                          f"{self.kind!r}, got {self.ambient_dim!r}")


def l2_normalize(features: FeatureSet) -> FeatureSet:
    """Divide every row by its Euclidean norm.

    Raises NonFinite if a row holds a NaN or infinite value (its norm is
    then not finite) and ZeroVector(i) if row i has norm below 1e-12.
    Idempotent to within float64 round-off.
    """
    norms = np.linalg.norm(features.data, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise NonFinite(f"row {int(bad[0])} has a NaN or infinite value")
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise ZeroVector(int(bad[0]))
    return FeatureSet(data=features.data / norms[:, None], labels=features.labels)


def pca_whiten_fit(features: FeatureSet, retained_dims: int) -> WhiteningTransform:
    """Fit an unsupervised PCA whitening transform on the feature set.

    Centers by the sample mean, keeps the top ``retained_dims`` principal
    axes, and scales each by 1/sqrt(eigenvalue + WHITEN_EPSILON) so the
    fitting set comes out with unit variance per retained component.
    """
    n, d = features.n, features.d
    if not 1 <= retained_dims <= min(n - 1, d):
        raise RankDeficient(
            f"retained_dims must be in [1, min(n-1, d)={min(n - 1, d)}], got {retained_dims}"
        )
    mean = features.data.mean(axis=0)
    if not np.isfinite(mean).all():
        raise NonFinite("feature values must be finite to fit whitening")
    centered = features.data - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    usable = int(np.sum(eigvals > WHITEN_EPSILON))
    if usable < retained_dims:
        raise RankDeficient(
            f"only {usable} eigenvalues exceed epsilon={WHITEN_EPSILON}, need {retained_dims}"
        )
    # canonical sign: largest-magnitude entry of each axis is positive
    for j in range(retained_dims):
        pivot = np.argmax(np.abs(eigvecs[:, j]))
        if eigvecs[pivot, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    proj = eigvecs[:, :retained_dims] / np.sqrt(eigvals[:retained_dims] + WHITEN_EPSILON)
    return WhiteningTransform(mean=mean, projection=proj)


def pca_whiten_apply(features: FeatureSet, transform: WhiteningTransform) -> FeatureSet:
    """Apply a fitted whitening transform; output is not normalized."""
    if features.d != transform.mean.shape[0]:
        raise DimMismatch(
            f"transform expects d={transform.mean.shape[0]}, got d={features.d}"
        )
    out = (features.data - transform.mean) @ transform.projection
    return FeatureSet(data=out, labels=features.labels)


def _intrinsic_points(spec: SyntheticSpec, rng: np.random.Generator):
    """Sample the low-dimensional manifold points of a spec, class by class,
    per_class points each."""
    m, c = spec.per_class, spec.classes
    if spec.kind == "moons":
        t0 = rng.uniform(0.0, np.pi, m)
        t1 = rng.uniform(0.0, np.pi, m)
        arc0 = np.column_stack([np.cos(t0), np.sin(t0)])
        arc1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
        pts = np.vstack([arc0, arc1])
    elif spec.kind == "circles":
        parts = []
        for k in range(c):
            t = rng.uniform(0.0, 2.0 * np.pi, m)
            r = 1.0 + k
            parts.append(np.column_stack([r * np.cos(t), r * np.sin(t)]))
        pts = np.vstack(parts)
    elif spec.kind == "swiss-roll":
        lo, hi = 1.5 * np.pi, 4.5 * np.pi
        edges = np.linspace(lo, hi, c + 1)
        parts = []
        for k in range(c):
            t = rng.uniform(edges[k], edges[k + 1], m)
            h = rng.uniform(0.0, 10.0, m)
            parts.append(np.column_stack([t * np.cos(t), h, t * np.sin(t)]))
        pts = np.vstack(parts)
    else:  # clusters: centers only; the ambient noise provides the blobs
        centers = rng.normal(size=(c, 2))
        # spread the centers so small-noise blobs are k-means separable
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(c)
            for j in range(i + 1, c)
        ]
        scale = 4.0 / max(min(dists), 1e-9) if dists else 1.0
        centers *= scale
        # keep every center off the origin so l2 normalization stays sane
        norms = np.linalg.norm(centers, axis=1)
        low = norms < 2.5
        if low.any():
            centers[low] += centers[low] / norms[low, None] * (2.5 - norms[low, None])
        pts = np.repeat(centers, m, axis=0)
    return pts


def generate_synthetic(spec: SyntheticSpec, seed: int) -> FeatureSet:
    """Generate a labeled synthetic dataset, deterministic per (spec, seed).

    The manifold is sampled in its intrinsic dimension, lifted into
    ``ambient_dim`` via a seeded random orthonormal matrix when the ambient
    dimension exceeds the intrinsic one, and perturbed by isotropic Gaussian
    noise. Values are quantized through float32 so the feature-file round
    trip is exact. Raises BadSpec, naming the size, when numpy cannot
    allocate the data, and naming the noise when a point leaves float32's
    range.
    """
    rng = np.random.default_rng(seed)
    try:
        pts = _intrinsic_points(spec, rng)
        labels = np.repeat(np.arange(spec.classes), spec.per_class)
        q = pts.shape[1]
        if spec.ambient_dim > q:
            basis, _ = np.linalg.qr(rng.normal(size=(spec.ambient_dim, q)))
            pts = pts @ basis.T
            # affine part of the embedding: move the manifold plane off the
            # origin (as CNN-style features are), otherwise l2 normalization
            # would collapse the lifted plane onto a circle of directions.
            # Cluster centers already sit on spread-out rays, where the purely
            # radial view is the interesting geometry, so they stay unshifted.
            if spec.kind != "clusters":
                shift = rng.normal(size=spec.ambient_dim)
                shift /= np.linalg.norm(shift)
                pts = pts + 3.0 * max(1.0, float(np.linalg.norm(pts, axis=1).max())) * shift
        with np.errstate(over="ignore"):  # a vast noise: reported below, not warned
            if spec.noise > 0:
                pts = pts + spec.noise * rng.normal(size=pts.shape)
            pts = pts.astype(np.float32).astype(np.float64)
    except (ValueError, MemoryError):  # numpy: too many dimensions, too big, or no memory
        raise BadSpec(f"{spec.classes} classes of {spec.per_class} items in "
                      f"{spec.ambient_dim} dimensions do not fit in memory") from None
    if not np.isfinite(pts).all():
        raise BadSpec(f"noise {spec.noise} takes the points past float32's range")
    return FeatureSet(data=pts, labels=labels)


def save_features(features: FeatureSet, path) -> None:
    """Write the binary feature file: MOM1, u32 n, u32 d, n*d float32 LE."""
    write_binary(path, MAGIC, "<II", (features.n, features.d), [features.data.astype("<f4")])


def load_features(path) -> FeatureSet:
    """Read a binary feature file written by :func:`save_features`."""

    def payload_size(n, d):
        if not n or not d:
            raise EmptyFeatures(f"{path}: header promises an empty {n}x{d} matrix")
        return n * d * 4

    (n, d), payload = read_binary(path, MAGIC, "<II", payload_size)
    data = np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)
    return FeatureSet(data=data)


def save_labels(labels: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)


def _label(line: str) -> int:
    token, *rest = line.split()
    if rest:
        raise BadLabels(f"expected one integer, got {line.strip()!r}")
    try:
        label = int(token)
    except ValueError:
        raise BadLabels(f"not an integer: {line.strip()!r}") from None
    if label not in INT64:
        raise BadLabels(f"a label beyond 64 bits: {line.strip()!r}")
    return label


def load_labels(path, expected_n: int) -> np.ndarray:
    """Read the label sidecar: one int64 decimal integer per line, exactly n labels."""
    labels = np.asarray(read_lines(path, BadLabels, _label), dtype=np.int64)
    check_labels(labels, expected_n, str(path))
    return labels
