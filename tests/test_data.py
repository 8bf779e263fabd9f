"""Data plumbing: IDX codec, synthetic corpus, rotations, subsets, splits, the dataset build."""
from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pt4al.config import ConfigError
from pt4al.data import (
    DatasetSpec,
    Pool,
    build_dataset,
    class_templates,
    gen_synthetic,
    imbalance_ramp,
    load_idx,
    make_imbalanced,
    rotate,
    rotate_batch,
    split_train_test,
    write_idx,
)
from pt4al.seeds import derive_seed


def make_pool(labels, size=4):
    x = np.random.default_rng(0).random((len(labels), size, size, 1))
    return Pool(np.arange(len(labels)), x, np.array(labels))


# ---------------------------------------------------------------------------
# pool invariants
# ---------------------------------------------------------------------------

def test_pool_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Pool([1, 1], np.zeros((2, 2, 2, 1)), [0, 1])


@pytest.mark.parametrize("ids, labels, named", [([0.5, 1.7, 2.2], None, "sample ids"),
                                                ([1, 1.2, 3], None, "sample ids"),
                                                ([1e20, 1, 2], None, "sample ids"),
                                                ([0, 1, 2], [0.9, 1.6, 2.0], "labels"),
                                                ([0, 1, 2], [0, -0.5, np.nan], "labels")],
                         ids=["fractional-ids", "near-duplicate-ids", "beyond-int64-ids", "fractional-labels",
                              "negative-and-nan-labels"])
def test_pool_rejects_ids_and_labels_that_are_not_whole_numbers(ids, labels, named):
    with pytest.raises(ValueError, match=f"{named} must be whole numbers"):
        Pool(ids, np.zeros((3, 2, 2, 1)), labels)


@pytest.mark.parametrize("ids, labels, named, value", [([2**70, 1], None, "sample ids", 2**70),
                                                       ([-2**63 - 1, 1], None, "sample ids", -2**63 - 1),
                                                       ([0, 1], [2**70, 0], "labels", 2**70)],
                         ids=["big-ids", "small-ids", "big-labels"])
def test_pool_rejects_python_ints_beyond_int64(ids, labels, named, value):
    # They come as an object array, which used to raise OverflowError, not ValueError.
    with pytest.raises(ValueError, match=f"{named} must be whole numbers within int64, got {value}$"):
        Pool(ids, np.zeros((2, 2, 2, 1)), labels)


def test_pool_rejects_unsigned_ids_beyond_int64():
    # uint64 2**63 used to wrap silently to id -2**63.
    with pytest.raises(ValueError, match=f"sample ids must be whole numbers within int64, got {2**63}"):
        Pool(np.array([2**63, 5], dtype=np.uint64), np.zeros((2, 2, 2, 1)))
    assert Pool(np.array([2**63 - 1, 5], dtype=np.uint64), np.zeros((2, 2, 2, 1))).ids.tolist() == [2**63 - 1, 5]


@pytest.mark.parametrize("ids, value", [([-5, 2**63 + 1], 2**63 + 1), ([2**63 - 1, -1, 2**63], 2**63)],
                         ids=["beside-negative", "beside-largest"])
def test_a_list_numpy_rounds_names_the_exact_id(ids, value):
    # numpy makes these lists float64, where 2**63 - 1, 2**63 and 2**63 + 1 all read 9.223372036854776e+18.
    with pytest.raises(ValueError, match=f"sample ids must be whole numbers within int64, got {value}$"):
        Pool(ids, np.zeros((len(ids), 2, 2, 1)))
    assert Pool([2.0, 2**63 - 1, -1], np.zeros((3, 2, 2, 1))).ids.tolist() == [2, 2**63 - 1, -1]


def test_pool_takes_whole_floats_and_empty_inputs():
    pool = Pool([0.0, 7.0, 2.0], np.zeros((3, 2, 2, 1)), [2.0, 0.0, 1.0])
    assert pool.ids.tolist() == [0, 7, 2] and pool.y.tolist() == [2, 0, 1]
    empty = Pool(np.array([]), np.zeros((0, 2, 2, 1)), [])
    assert len(empty) == 0 and empty.ids.dtype == empty.y.dtype == np.int64


def test_pool_role_label_consistency():
    x = np.zeros((2, 2, 2, 1))
    with pytest.raises(ValueError, match="labels must have shape"):
        Pool([0, 1], x, [0])
    with pytest.raises(ValueError, match="nonnegative"):
        Pool([0, 1], x, [0, -1])
    with pytest.raises(ValueError, match="images"):
        Pool([0, 1, 2], x, None)
    assert Pool([0, 1], x, None).y is None


def test_unlabeled_view_hides_labels():
    pool = make_pool([0, 1, 0])
    view = pool.unlabeled()
    assert view.y is None
    assert np.array_equal(view.ids, pool.ids)
    assert view.x is pool.x
    with pytest.raises(ValueError, match="hidden"):
        view.class_histogram(2)


def test_image_rejects_out_of_range_pixels():
    for value in (1.5, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="pixel"):
            Pool([0], np.full((1, 2, 2, 1), value), [0])


def test_pool_take_keeps_order_and_labels():
    pool = make_pool([0, 1, 2, 1])
    sub = pool.take([3, 0])
    assert sub.ids.tolist() == [3, 0]
    assert sub.y.tolist() == [1, 0]
    assert np.array_equal(sub.x, pool.x[[3, 0]])
    assert pool.n_classes == 3 and sub.class_histogram(3) == [1, 1, 0]


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------

def craft_idx_pair(tmp_path):
    """Hand-built 2-image 2x2 IDX pair with known byte values."""
    pix = [0, 51, 102, 153, 204, 255, 25, 50]
    img_bytes = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(pix)
    lab_bytes = struct.pack(">II", 0x00000801, 2) + bytes([3, 7])
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    ip.write_bytes(img_bytes)
    lp.write_bytes(lab_bytes)
    return ip, lp, pix


def test_load_idx_exact_pixel_values(tmp_path):
    ip, lp, pix = craft_idx_pair(tmp_path)
    pool = load_idx(ip, lp)
    assert len(pool) == 2
    assert pool.ids.tolist() == [0, 1]
    expected = np.array(pix, dtype=np.float64).reshape(2, 2, 2, 1) / 255.0
    assert np.array_equal(pool.x, expected)
    assert pool.y.tolist() == [3, 7]


def test_load_idx_label_magic_in_image_slot(tmp_path):
    ip, lp, _ = craft_idx_pair(tmp_path)
    with pytest.raises(ValueError, match="magic"):
        load_idx(lp, lp)


def test_load_idx_truncated_and_empty(tmp_path):
    ip, lp, _ = craft_idx_pair(tmp_path)
    short = tmp_path / "short.idx"
    short.write_bytes(ip.read_bytes()[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_idx(short, lp)
    empty = tmp_path / "empty.idx"
    empty.write_bytes(b"")
    with pytest.raises(ValueError, match="truncated"):
        load_idx(empty, lp)


def test_load_idx_count_mismatch(tmp_path):
    ip, lp, _ = craft_idx_pair(tmp_path)
    lab_bytes = struct.pack(">II", 0x00000801, 3) + bytes([3, 7, 1])
    lp3 = tmp_path / "labs3.idx"
    lp3.write_bytes(lab_bytes)
    with pytest.raises(ValueError, match="mismatch"):
        load_idx(ip, lp3)


def test_idx_round_trip_bit_exact(tmp_path):
    ip, lp, _ = craft_idx_pair(tmp_path)
    pool = load_idx(ip, lp)
    ip2, lp2 = tmp_path / "imgs2.idx", tmp_path / "labs2.idx"
    write_idx(pool, ip2, lp2)
    assert ip2.read_bytes() == ip.read_bytes()
    assert lp2.read_bytes() == lp.read_bytes()


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def test_gen_synthetic_zero_noise_identical_per_class():
    pool = gen_synthetic(5, 3, 10, 0.0, seed=4)
    x, y = pool.x, pool.y
    for c in range(3):
        cls = x[y == c]
        assert np.all(cls == cls[0])


def test_gen_synthetic_deterministic():
    a = gen_synthetic(10, 4, 12, 1.0, seed=9)
    b = gen_synthetic(10, 4, 12, 1.0, seed=9)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_gen_synthetic_validates_inputs():
    with pytest.raises(ValueError):
        gen_synthetic(5, 1, 12, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(5, 11, 12, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(0, 4, 12, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(5, 4, 8, 1.0, seed=0)


def test_rotated_templates_distinct_from_every_template():
    # Pretext identifiability over the whole supported class range.
    for classes in (2, 4, 10):
        templates = class_templates(classes, 12)
        flat = templates.reshape(classes, -1)
        for c in range(classes):
            for k in (1, 2, 3):
                rot = np.rot90(templates[c], k=k, axes=(0, 1)).reshape(-1)
                dists = np.linalg.norm(flat - rot, axis=1)
                assert np.min(dists) > 0.0


def test_templates_pairwise_distinct():
    templates = class_templates(10, 12).reshape(10, -1)
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.linalg.norm(templates[i] - templates[j]) > 0.0


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def test_rotate_identity():
    img = np.random.default_rng(0).random((6, 6, 1))
    assert np.array_equal(rotate(img, 0), img)


def test_rotate_two_by_two_quarter_turn():
    a, b, c, d = 0.1, 0.2, 0.3, 0.4
    img = np.array([[a, b], [c, d]])[:, :, None]
    out = rotate(img, 1)[:, :, 0]
    assert np.array_equal(out, np.array([[b, d], [a, c]]))


def test_rotate_matches_index_map_oracle():
    # Oracle: rotate coordinate indices directly, new[r][c] = old[c][n-1-r].
    rng = np.random.default_rng(3)
    pix = rng.random((5, 5, 2))
    n = 5
    oracle = np.empty_like(pix)
    for r in range(n):
        for c in range(n):
            oracle[r, c] = pix[c, n - 1 - r]
    assert np.array_equal(rotate(pix, 1), oracle)


def test_rotate_four_times_is_identity_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(20):
        img = rng.random((7, 7, 1))
        out = img
        for _ in range(4):
            out = rotate(out, 1)
        assert np.array_equal(out, img)


def test_rotate_rejects_non_square_and_bad_orientation():
    with pytest.raises(ValueError):
        rotate(np.zeros((2, 3, 1)), 1)
    sq = np.zeros((2, 2, 1))
    with pytest.raises(ValueError):
        rotate(sq, 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_rotate_preserves_pixel_multiset(n, y, seed):
    pix = np.random.default_rng(seed).random((n, n, 1))
    out = rotate(pix, y)
    assert np.array_equal(np.sort(out.ravel()), np.sort(pix.ravel()))


def test_rotate_batch_agrees_with_per_image_rotate():
    rng = np.random.default_rng(1)
    x = rng.random((4, 6, 6, 1))
    for y in range(4):
        batch = rotate_batch(x, y)
        for i in range(4):
            assert np.array_equal(batch[i], rotate(x[i], y))


# ---------------------------------------------------------------------------
# imbalanced subsets
# ---------------------------------------------------------------------------

def test_make_imbalanced_exact_histogram():
    pool = make_pool([i % 4 for i in range(100)])
    out = make_imbalanced(pool, [5, 10, 15, 20], seed=3)
    assert out.class_histogram(4) == [5, 10, 15, 20]
    assert len(set(out.ids.tolist())) == 50


def test_make_imbalanced_full_counts_is_identity_as_set():
    pool = make_pool([i % 2 for i in range(10)])
    out = make_imbalanced(pool, [5, 5], seed=1)
    assert sorted(out.ids.tolist()) == sorted(pool.ids.tolist())


def test_make_imbalanced_insufficient_class():
    pool = make_pool([0, 0, 1])
    with pytest.raises(ValueError, match="class 1"):
        make_imbalanced(pool, [2, 2], seed=0)


def test_make_imbalanced_deterministic():
    pool = make_pool([i % 3 for i in range(60)])
    a = make_imbalanced(pool, [3, 6, 9], seed=12)
    b = make_imbalanced(pool, [3, 6, 9], seed=12)
    assert np.array_equal(a.ids, b.ids)


def test_imbalance_ramp_matches_scaled_pattern():
    assert imbalance_ramp(4, 0.1) == [50, 100, 150, 200]
    assert imbalance_ramp(10, 0.01) == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_split_stratified_counts():
    pool = make_pool([i % 4 for i in range(100)])
    train, test = split_train_test(pool, 0.2, seed=5)
    assert len(train) == 80 and len(test) == 20
    assert train.class_histogram(4) == [20, 20, 20, 20]
    assert test.class_histogram(4) == [5, 5, 5, 5]


def test_split_is_a_partition():
    pool = make_pool([i % 3 for i in range(50)])
    train, test = split_train_test(pool, 0.3, seed=6)
    train_ids, test_ids = set(train.ids.tolist()), set(test.ids.tolist())
    assert train_ids | test_ids == set(pool.ids.tolist())
    assert train_ids & test_ids == set()


def test_split_deterministic():
    pool = make_pool([i % 3 for i in range(50)])
    a = split_train_test(pool, 0.25, seed=7)
    b = split_train_test(pool, 0.25, seed=7)
    assert np.array_equal(a[0].ids, b[0].ids) and np.array_equal(a[1].ids, b[1].ids)


def test_split_rejects_bad_fraction():
    pool = make_pool([0, 1])
    for frac in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            split_train_test(pool, frac, seed=0)



# ---------------------------------------------------------------------------
# the dataset build
# ---------------------------------------------------------------------------

def composed_build(spec: DatasetSpec, seed: int) -> tuple[Pool, Pool]:
    """The build as whole-corpus steps: corpus, imbalance subsample, split, then the split checks."""
    spec.validate()
    if spec.kind == "synthetic":
        pool = gen_synthetic(spec.n_per_class, spec.classes, spec.size, spec.noise, derive_seed(seed, "data"))
    else:
        pool = load_idx(spec.images, spec.labels)
    key = "imbalance_counts" if spec.imbalance_counts is not None else "imbalance_factor"
    if getattr(spec, key) is not None:
        try:
            counts = spec.imbalance_counts or imbalance_ramp(pool.n_classes, spec.imbalance_factor)
            pool = make_imbalanced(pool, counts, derive_seed(seed, "imbalance"))
        except ValueError as exc:
            raise ConfigError(f"dataset.{key}: {exc}") from exc
    train, test = split_train_test(pool, spec.test_fraction, derive_seed(seed, "split"))
    if len(train) == 0 or len(test) == 0:
        raise ConfigError(f"dataset.test_fraction {spec.test_fraction} leaves the "
                          f"{'train' if len(train) == 0 else 'test'} split of {len(pool)} samples empty")
    if test.y.max() >= train.n_classes:
        raise ConfigError(f"dataset.test_fraction {spec.test_fraction} puts every sample of label "
                          f"{test.y.max()} in the test split, where the main model cannot predict it")
    return train, test


def outcome(build, spec, seed):
    """The pools' ids, labels and pixel bytes, or the ConfigError text."""
    try:
        return [(pool.ids.tolist(), pool.y.tolist(), pool.x.shape, pool.x.tobytes()) for pool in build(spec, seed)]
    except ConfigError as exc:
        return str(exc)


@st.composite
def synthetic_specs(draw):
    classes = draw(st.integers(2, 5))
    n_per_class = draw(st.integers(1, 30))
    imbalance = draw(st.sampled_from(["none", "counts", "factor"]))
    counts = factor = None
    if imbalance == "counts":
        # One entry more than the classes, or a count above the class size, misfits.
        length = draw(st.sampled_from([classes, classes, classes, classes + 1]))
        counts = tuple(draw(st.lists(st.integers(1, n_per_class + 1), min_size=length, max_size=length)))
    elif imbalance == "factor":
        factor = draw(st.floats(0.0005, 0.012))
    return DatasetSpec(classes=classes, n_per_class=n_per_class, size=draw(st.integers(10, 13)),
                       noise=draw(st.sampled_from([0.0, 0.5, 0.7, 1.0, 2.0])),
                       test_fraction=draw(st.floats(0.01, 0.99)), imbalance_counts=counts, imbalance_factor=factor)


@settings(max_examples=80, deadline=None)
@given(synthetic_specs(), st.integers(0, 2**31 - 1))
def test_build_equals_the_whole_corpus_composition(spec, seed):
    # The build draws the splits from the labels and each sample straight into its split;
    # the pools, and the message of every spoiled split or misfit, are the composition's.
    # About 30-45% of the draws build pools; the rest raise one of the build's messages.
    assert outcome(build_dataset, spec, seed) == outcome(composed_build, spec, seed)


@pytest.mark.parametrize("imbalance", [{}, {"imbalance_counts": (30, 12, 40)}, {"imbalance_factor": 0.04},
                                       {"imbalance_counts": (30, 70, 40)}, {"test_fraction": 0.9}],
                         ids=["plain", "counts", "factor", "counts-misfit", "fraction"])
def test_idx_build_equals_the_whole_corpus_composition(tmp_path, imbalance):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx(gen_synthetic(60, 3, 10, 1.0, seed=2), images, labels)
    spec = DatasetSpec(kind="idx", images=str(images), labels=str(labels), **imbalance)
    for seed in (0, 1, 5):
        assert outcome(build_dataset, spec, seed) == outcome(composed_build, spec, seed)


def traced_build_ratio(spec: DatasetSpec) -> float:
    """tracemalloc peak of a warm `build_dataset` over the pixel bytes of the pools it returns."""
    build_dataset(spec, 0)  # first-use allocations
    tracemalloc.start()
    try:
        train, test = build_dataset(spec, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (train.x.nbytes + test.x.nbytes)


def test_synthetic_build_holds_each_split_once():
    """The default spec's build holds the two splits and one piece of base images.

    Ratio of peak to train + test pixels (5.76 MB): 2.04 when the whole
    corpus was generated and then split (corpus, train copy and test copy at
    once), 1.19 when each sample is drawn into its split.
    """
    assert traced_build_ratio(DatasetSpec()) < 1.3


def test_idx_build_holds_each_split_once(tmp_path):
    """An IDX split is gathered as uint8 and converted to float once.

    2,000 10x10 images (1.6 MB of float pixels): 2.05 when the whole corpus
    was converted to float and then split, 1.17 with the uint8 gather.
    """
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx(gen_synthetic(500, 4, 10, 1.0, seed=1), images, labels)
    assert traced_build_ratio(DatasetSpec(kind="idx", images=str(images), labels=str(labels))) < 1.3
