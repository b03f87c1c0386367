import numpy as np
import pytest

import momine.evaluation
import momine.graph
from momine.errors import DegenerateLabels, DimMismatch, KTooLarge, NonFinite
from momine.evaluation import (
    _ranking_metrics,
    evaluate_embeddings,
    kmeans,
    nmi,
)

from momine.graph import BLOCK_ROWS, top_k

from helpers import (
    map_oracle,
    nmi_oracle,
    ranking_metrics_oracle,
    ranking_metrics_reference,
    recall_oracle,
)


def recall_at_k(z, labels, ks):
    return evaluate_embeddings(z, labels, ks=ks).recall_at


def mean_average_precision(z, labels):
    return evaluate_embeddings(z, labels).map_score


def test_recall_two_items_same_label():
    z = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
    labels = [0, 1, 0]
    assert recall_at_k(z, labels, [1])[1] == 1.0


def test_recall_separated_clusters_perfect():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(10, 3)) * 0.01 + np.array([5.0, 0, 0])
    b = rng.normal(size=(10, 3)) * 0.01 - np.array([5.0, 0, 0])
    z = np.vstack([a, b])
    labels = [0] * 10 + [1] * 10
    out = recall_at_k(z, labels, [1, 2])
    assert out[1] == 1.0 and out[2] == 1.0


def test_recall_matches_oracle():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(20, 4))
    labels = rng.integers(0, 3, size=20)
    got = recall_at_k(z, labels, [1, 3, 5])
    for k in (1, 3, 5):
        assert got[k] == pytest.approx(recall_oracle(z, labels, k), abs=1e-12)


def test_recall_monotone_in_k():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(30, 5))
    labels = rng.integers(0, 4, size=30)
    got = recall_at_k(z, labels, [1, 2, 4, 8, 16])
    values = [got[k] for k in sorted(got)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_recall_degenerate_labels():
    z = np.eye(3)
    with pytest.raises(DegenerateLabels):
        recall_at_k(z, [7, 7, 7], [1])


def test_kmeans_each_point_own_cluster():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 2))
    assign = kmeans(z, 6, seed=0)
    assert len(set(assign.tolist())) == 6
    centers_inertia = sum(
        np.linalg.norm(z[i] - z[assign == assign[i]].mean(axis=0)) for i in range(6)
    )
    assert centers_inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_two_blobs():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(25, 2)) * 0.1 + np.array([4.0, 0.0])
    b = rng.normal(size=(25, 2)) * 0.1 - np.array([4.0, 0.0])
    z = np.vstack([a, b])
    assign = kmeans(z, 2, seed=1)
    truth = np.array([0] * 25 + [1] * 25)
    agreement = max(np.mean(assign == truth), np.mean(assign == 1 - truth))
    assert agreement == 1.0


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(40, 3))
    a = kmeans(z, 5, seed=7)
    b = kmeans(z, 5, seed=7)
    assert np.array_equal(a, b)


def test_nmi_identical_partitions():
    labels = [0, 0, 1, 1, 2, 2, 2]
    assert nmi(labels, labels) == pytest.approx(1.0, abs=1e-12)
    relabeled = [5, 5, 9, 9, 1, 1, 1]
    assert nmi(labels, relabeled) == pytest.approx(1.0, abs=1e-12)


def test_nmi_constant_side_is_zero():
    assert nmi([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0
    assert nmi([0, 1, 2, 3], [5, 5, 5, 5]) == 0.0


def test_nmi_independent_partitions_zero():
    # hand contingency: every joint cell has count 1, MI = 0
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 4, size=50)
    b = rng.integers(0, 3, size=50)
    assert nmi(a, b) == nmi(b, a)
    permuted = np.array([(x + 2) % 4 for x in a])
    assert nmi(a, b) == nmi(permuted, b)
    assert nmi(a, b) == pytest.approx(nmi_oracle(a, b), abs=1e-12)


def test_nmi_length_mismatch():
    with pytest.raises(DimMismatch):
        nmi([0, 1], [0, 1, 2])


def test_map_all_relevant_first():
    z = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 0.0], [5.1, 0.0]])
    labels = [0, 0, 0, 1, 1]
    assert mean_average_precision(z, labels) == pytest.approx(1.0)


def test_map_single_relevant_rank_two():
    # one query with its single relevant at rank 2 of 3: AP = 1/2
    z = np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 0.0], [1.5, 0.0]])
    labels = [0, 1, 0, 1]
    # check query 0 directly against the definition oracle
    from helpers import ap_oracle

    assert ap_oracle(z, labels, 0) == pytest.approx(0.5)


def test_map_matches_oracle():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(15, 4))
    labels = rng.integers(0, 3, size=15)
    assert mean_average_precision(z, labels) == pytest.approx(map_oracle(z, labels), abs=1e-12)


def test_map_isometry_invariant():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(25, 6))
    labels = rng.integers(0, 4, size=25)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    rotated = z @ q
    assert abs(mean_average_precision(z, labels) - mean_average_precision(rotated, labels)) < 1e-10


def test_evaluate_embeddings_report():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(20, 3)) * 0.1 + np.array([3.0, 0, 0])
    b = rng.normal(size=(20, 3)) * 0.1 - np.array([3.0, 0, 0])
    z = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20)
    report = evaluate_embeddings(z, labels, ks=(1, 2), seed=3)
    assert report.recall_at[1] == 1.0
    assert report.nmi == pytest.approx(1.0, abs=1e-12)
    assert report.map_score > 0.9
    assert report.n_queries == 40
    assert report.seed == 3


def _grid_case(n, seed, dup=False):
    """Small-integer embeddings: every distance is exact, so equal distances
    tie exactly whatever the matrix product's blocking."""
    rng = np.random.default_rng(seed)
    z = rng.integers(-2, 3, size=(n, 3)).astype(float)
    if dup:
        z = z[rng.integers(0, n // 4, size=n)]
    return z, rng.integers(0, 3, size=n)


@pytest.mark.parametrize(
    "case",
    [
        "duplicates",
        "below_one_block",
        "ragged_last_block",
        "singleton_label",
        "continuous",
        "equal_totals",
        "many_classes",
    ],
)
def test_single_pass_matches_full_ranking(case):
    n = {"below_one_block": 40, "equal_totals": 3 * BLOCK_ROWS}.get(case, 2 * BLOCK_ROWS + 37)
    if case == "continuous":
        rng = np.random.default_rng(11)
        z, labels = rng.normal(size=(n, 5)), rng.integers(0, 4, size=n)
    else:
        z, labels = _grid_case(n, seed=n, dup=case in ("duplicates", "equal_totals"))
    if case == "singleton_label":
        labels[7] = 9  # one query without a same-label counterpart
    if case == "equal_totals":
        labels = np.arange(n) % 3  # three equal classes: one hit total per block
    if case == "many_classes":
        # uneven classes with label values outside any small code range, so
        # hit totals differ within each block
        labels = np.array([-7, 0, 300, 301, 70000, 5])[np.random.default_rng(6).integers(0, 6, n)]
    ks = [1, 2, 5, 16]
    recall, ap, n_queries = ranking_metrics_oracle(z, labels, ks)
    report = evaluate_embeddings(z, labels, ks=ks, seed=0)
    assert report.recall_at == recall
    assert report.map_score == ap
    assert report.n_queries == n_queries


def _last_bit_radii():
    """(r, s) with r*r's bit pattern even and s*s one ulp above it: points
    at those radii from the origin differ only in the lowest distance bit."""
    for r in np.linspace(0.25, 0.5, 97):
        t = r * r
        up = np.nextafter(t, np.inf)
        if t.view(np.int64) % 2 == 0 and np.sqrt(up) ** 2 == up:
            return r, np.sqrt(up)
    raise AssertionError("no last-bit pair found")


def _mixed_case(classes):
    """Continuous embeddings, n = 2 * BLOCK_ROWS + 37, in which a few queries
    see an ambiguous packed-key ranking and the others do not.

    Row 30 is an integer point whose three nearest items, rows 31 (other
    label) and 32, 33 (same label), lie at exactly distance 5 (an exact
    duplicate pair of different labels would tie for every query; the grid
    cases in test_single_pass_matches_full_ranking cover that). Rows
    300-339 are near-duplicate pairs, whose squared distance can round
    below zero. Row 400 is the origin; row 402 (other label) and row
    401 (same label) lie on different axes at radii whose squared distances
    differ only in the last bit, the other-label one closer.
    """
    n = 2 * BLOCK_ROWS + 37
    rng = np.random.default_rng(classes)
    z = rng.normal(size=(n, 5))
    labels = rng.integers(0, classes, size=n)
    z[30:34] = [[0, 0, 0, 0, 6], [1, 2, 0, 0, 6], [0, 0, 2, 0, 7], [0, 0, 0, 2, 5]]
    labels[30:34] = [0, 1, 0, 0]
    z[301:340:2] = z[300:340:2] * (1.0 + 1e-13)
    r, s = _last_bit_radii()
    z[400:403] = 0.0
    z[401, 0], z[402, 1] = s, r
    labels[400:403] = [0, 0, 1]
    return z, labels


@pytest.fixture
def fallback_calls(monkeypatch):
    """The negated distance rows that _ranking_metrics hands back to top_k."""
    calls = []

    def spy(scores, k):
        calls.append(scores.copy())
        return top_k(scores, k)

    monkeypatch.setattr(momine.evaluation, "top_k", spy)
    return calls


@pytest.mark.parametrize("classes", [2, 5])
def test_packed_ranking_matches_reference(classes, fallback_calls):
    z, labels = _mixed_case(classes)
    ks = [1, 2, 5, 16]
    recall, ap, n_queries = ranking_metrics_reference(z, labels, ks)
    report = evaluate_embeddings(z, labels, ks=ks, seed=0)
    assert report.recall_at == recall
    assert report.map_score == ap
    assert report.n_queries == n_queries
    # the ambiguous rows went back to top_k, a few at a time, so each shared
    # its block with rows ranked by the packed keys; one held a distance
    # that rounded below zero
    sizes = [len(c) for c in fallback_calls]
    assert sizes and all(0 < m < BLOCK_ROWS for m in sizes)
    assert any((c > 0).any() for c in fallback_calls)
    # rows 30 and 400 fell back
    assert sum(sizes) >= 2


def _outcome(f):
    try:
        return f()
    except ValueError as exc:  # the reference's own failure, reproduced
        return type(exc), str(exc)


@pytest.mark.parametrize("classes", [2, 5])
def test_packed_ranking_matches_reference_with_an_inf_row(classes, fallback_calls):
    # the public metrics reject the row (see the next test), so the packed
    # ranking itself is held to the reference here
    z, labels = _mixed_case(classes)
    z[5] = [np.inf, 0.0, 0.0, 0.0, 0.0]  # distances to it are +inf or NaN
    ks = [1, 2, 5, 16]
    labels = np.asarray(labels)
    with np.errstate(invalid="ignore"):
        for depths in (ks, []):
            got = _outcome(lambda: _ranking_metrics(z, labels, depths))
            assert got == _outcome(lambda: ranking_metrics_reference(z, labels, depths))
    assert any(0 < len(c) < BLOCK_ROWS for c in fallback_calls)


def test_ranking_metrics_is_the_same_at_every_worker_count(monkeypatch):
    z, labels = _mixed_case(5)
    labels = np.asarray(labels)
    ks = [1, 2, 5, 16]
    bad = z.copy()
    bad[5] = [np.inf, 0.0, 0.0, 0.0, 0.0]
    first = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(momine.graph, "WORKERS", workers)
        for depths in (ks, []):
            got = _ranking_metrics(z, labels, depths)
            assert got == first.setdefault(len(depths), got), workers
            # with an inf row, blocks of the map pass fail: the lowest failing
            # block's error surfaces, the one the reference's serial loop raises
            with np.errstate(invalid="ignore"):
                outcome = _outcome(lambda: _ranking_metrics(bad, labels, depths))
                assert outcome == _outcome(lambda: ranking_metrics_reference(bad, labels, depths))


def test_ranking_metrics_is_the_same_on_every_block_grid(monkeypatch):
    # the distances come from gram_rows, whose rows round alike in every
    # block, so no grid changes a report bit; n = 602 is not a multiple of 8
    z, labels = _mixed_case(5)
    z = np.vstack([z, z[:21] + 0.5])
    labels = np.concatenate([labels, labels[:21]])
    assert z.shape[0] % 8 == 2
    ks = [1, 2, 5, 16]
    expected = _ranking_metrics(z, labels, ks)
    assert expected == ranking_metrics_oracle(z, labels, ks)
    for rows in (1, 17, 128):
        for workers in (1, 2, 3):
            monkeypatch.setattr(momine.evaluation, "RANK_ROWS", rows)
            monkeypatch.setattr(momine.graph, "WORKERS", workers)
            assert _ranking_metrics(z, labels, ks) == expected, (rows, workers)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_metrics_reject_a_non_finite_embedding_row(value):
    z, labels = _mixed_case(2)
    z[5, 3] = z[9, 0] = value
    with pytest.raises(NonFinite, match="row 5 "):
        evaluate_embeddings(z, labels, ks=[1, 2])


def test_evaluate_without_usable_k():
    z = np.eye(4)
    with pytest.raises(KTooLarge):
        evaluate_embeddings(z, [0, 0, 1, 1], ks=(0, 4))
