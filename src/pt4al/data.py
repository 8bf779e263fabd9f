"""Dataset plumbing: IDX ingestion, synthetic corpus, rotations, splits, CSV output.

All operations are pure and deterministic per seed; pools are never
mutated in place.
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass(eq=False)
class Pool:
    """Samples as parallel arrays, validated once on construction.

    `ids` is int64[N] and unique, `x` is float64[N, H, W, C] with finite
    pixels in [0, 1], and `y` is int64[N] with nonnegative labels, or None
    when the labels are hidden.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.x = np.asarray(self.x, dtype=np.float64)
        n = len(self.ids)
        if self.ids.ndim != 1 or self.x.ndim != 4 or len(self.x) != n:
            raise ValueError(f"pool needs ids (N,) and images (N, H, W, C), got {self.ids.shape} and {self.x.shape}")
        # A sort, not np.unique, which imports numpy.ma (16-18 ms) on first use.
        if np.any(np.diff(np.sort(self.ids)) == 0):
            raise ValueError("duplicate sample ids in pool")
        # NaN fails both comparisons, so this also rejects non-finite pixels.
        if n and not (self.x.min() >= 0.0 and self.x.max() <= 1.0):
            raise ValueError("pixel values must be finite and within [0, 1]")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.int64)
            if self.y.shape != (n,):
                raise ValueError(f"labels must have shape ({n},), got {self.y.shape}")
            if n and self.y.min() < 0:
                raise ValueError("labels must be nonnegative")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, positions) -> Pool:
        """The samples at `positions`, in that order."""
        positions = np.asarray(positions, dtype=np.int64)
        return Pool(self.ids[positions], self.x[positions], None if self.y is None else self.y[positions])

    def unlabeled(self) -> Pool:
        """The same samples with their labels hidden."""
        return Pool(self.ids, self.x, None)

    @property
    def n_classes(self) -> int:
        """One more than the largest label."""
        return int(self._labels().max()) + 1

    def class_histogram(self, n_classes: int) -> list[int]:
        """Number of samples per label 0..n_classes-1."""
        return np.bincount(self._labels(), minlength=n_classes).tolist()

    def _labels(self) -> np.ndarray:
        if self.y is None:
            raise ValueError("pool labels are hidden")
        return self.y


def write_csv(path, header, rows) -> None:
    """The one CSV dialect of every output file: a header row, UTF-8, "\\n" line ends.

    Floats (np.float64 included, as a float subclass) are written with 12
    significant digits; every other cell as it is.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)


# ---------------------------------------------------------------------------
# IDX binary format (big-endian, standard MNIST layout)
# ---------------------------------------------------------------------------

def _read_exact(data: bytes, offset: int, count: int, path) -> bytes:
    if offset + count > len(data):
        raise ValueError(f"{path}: truncated IDX file")
    return data[offset:offset + count]


def load_idx(images_path, labels_path) -> Pool:
    """Decode an IDX image/label file pair into a labeled pool.

    Pixel bytes are scaled by 1/255; decoding is bit-exact and validated
    against the standard magic numbers.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    img_data = images_path.read_bytes()
    lab_data = labels_path.read_bytes()

    magic, = struct.unpack(">I", _read_exact(img_data, 0, 4, images_path))
    if magic != IMAGE_MAGIC:
        raise ValueError(f"{images_path}: bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}")
    n, rows, cols = struct.unpack(">III", _read_exact(img_data, 4, 12, images_path))
    payload = _read_exact(img_data, 16, n * rows * cols, images_path)

    lmagic, = struct.unpack(">I", _read_exact(lab_data, 0, 4, labels_path))
    if lmagic != LABEL_MAGIC:
        raise ValueError(f"{labels_path}: bad label magic 0x{lmagic:08x}, expected 0x{LABEL_MAGIC:08x}")
    ln, = struct.unpack(">I", _read_exact(lab_data, 4, 4, labels_path))
    if ln != n:
        raise ValueError(f"count mismatch: {n} images vs {ln} labels")
    labels = np.frombuffer(_read_exact(lab_data, 8, ln, labels_path), dtype=np.uint8)

    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows, cols, 1).astype(np.float64) / 255.0
    return Pool(np.arange(n), pixels, labels)


def write_idx(pool: Pool, images_path, labels_path) -> None:
    """Inverse of load_idx for pools whose pixels are multiples of 1/255."""
    if len(pool) == 0:
        raise ValueError("cannot write an empty pool")
    x, y = pool.x, pool.y
    if y is None:
        raise ValueError("IDX export requires labels on every sample")
    if x.shape[3] != 1:
        raise ValueError("IDX export supports single-channel images only")
    n, rows, cols = x.shape[0], x.shape[1], x.shape[2]
    data = np.round(x[:, :, :, 0] * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        fh.write(data.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, n))
        fh.write(y.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

MAX_CLASSES = 10
_MARKER_VALUE = 0.95
_BACKGROUND = 0.1
_BODY_GAIN = 0.8
_NOISE_GAIN = 0.2
_MIX_GAIN = 0.48
_DUPLICATE_FRAC = 0.35
_JUNK_FRAC = 0.025
_JUNK_NOISE = 0.08


def _check_synthetic(n_per_class: int, classes: int, size: int, noise: float) -> None:
    """Raise ValueError unless `gen_synthetic` can build a corpus from these values."""
    if not 2 <= classes <= MAX_CLASSES:
        raise ValueError(f"classes must be within [2, {MAX_CLASSES}], got {classes}")
    if size < 10:
        raise ValueError(f"size must be >= 10, got {size}")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if noise < 0:
        raise ValueError("noise level must be >= 0")


def _body_masks(classes: int, size: int) -> np.ndarray:
    """Per-class body patterns on the interior (size-6)^2 region, values {0, 1}."""
    m = size - 6
    b = max(1, m // 4)
    w3 = max(1, m // 3)
    c0 = (m - w3) // 2
    gi, gj = np.mgrid[0:m, 0:m]
    shapes = [
        (gi >= b) & (gi < m - b) & (gj >= b) & (gj < m - b),                # filled block
        (gi < b) | (gi >= m - b) | (gj < b) | (gj >= m - b),                # hollow ring
        ((gi >= c0) & (gi < c0 + w3)) | ((gj >= c0) & (gj < c0 + w3)),      # plus cross
        (np.abs(gi - gj) < b) | (np.abs(gi + gj - (m - 1)) < b),            # diagonal X
        (gi // b) % 2 == 0,                                                 # horizontal stripes
        (gj // b) % 2 == 0,                                                 # vertical stripes
        ((gi // b + gj // b) % 2) == 0,                                     # checkerboard
        (gi >= c0) & (gi < c0 + w3),                                        # center band
        ((gi < b) | (gi >= m - b)) & ((gj < b) | (gj >= m - b)),            # corner dots
        ((gi < m // 2) & (gj < m // 2)) | ((gi >= m - b) & (gj >= m - b)),  # big + small dot
    ]
    return np.stack([shapes[c].astype(np.float64) for c in range(classes)])


def class_templates(classes: int, size: int) -> np.ndarray:
    """Noise-free class images (classes, size, size, 1).

    Every template carries the same top-left L marker (rows and columns
    0..1), which pins the orientation for the rotation pretext task, plus
    a class-specific body pattern. The marker guarantees that no rotation
    of any template coincides with any template. `classes` and `size` must
    pass `_check_synthetic`.
    """
    bodies = _body_masks(classes, size)
    templates = np.full((classes, size, size, 1), _BACKGROUND)
    templates[:, 0:2, :, :] = _MARKER_VALUE
    templates[:, :, 0:2, :] = _MARKER_VALUE
    templates[:, 3:size - 3, 3:size - 3, 0] += _BODY_GAIN * bodies
    templates = np.clip(templates, 0.0, 1.0)
    _check_rotation_distinct(templates)
    return templates


def _check_rotation_distinct(templates: np.ndarray) -> None:
    # Pretext identifiability: no rotated template may equal any template.
    flat = templates.reshape(len(templates), -1)
    for c in range(len(templates)):
        for k in range(1, 4):
            rot = np.rot90(templates[c], k=k, axes=(0, 1)).reshape(-1)
            if np.min(np.linalg.norm(flat - rot, axis=1)) <= 1e-9:
                raise RuntimeError(f"template {c} rotated {90 * k} degrees collides with the template set")


def gen_synthetic(n_per_class: int, classes: int, size: int, noise: float, seed: int) -> Pool:
    """Rotation-sensitive labeled corpus with a per-sample difficulty spectrum.

    The difficulty ecology mirrors real pools. A fixed fraction of samples
    sits at difficulty 0 (exact class templates, i.e. redundant
    near-duplicates); the rest draws a difficulty scalar d that scales a
    mild isotropic pixel-noise term plus a bounded blend of the body
    pattern toward another class's body, so hard samples sit near class
    boundaries. A tiny fraction is inherently ambiguous: markerless
    class-centroid bodies whose labels carry no visual signal, which no
    model can resolve and which permanently bait uncertainty-style
    samplers. At noise 0 every sample equals its class template exactly.
    """
    _check_synthetic(n_per_class, classes, size, noise)
    templates = class_templates(classes, size)
    bodies = _body_masks(classes, size)
    lo, hi = 3, size - 3
    n = classes * n_per_class
    labels = np.repeat(np.arange(classes), n_per_class)
    u = np.empty(n)
    partner = np.empty(n, dtype=np.int64)
    junk = np.empty(n, dtype=bool)
    eps = np.empty((n, size, size, 1))
    # The draws stay per sample and in this order: integers() and the
    # ziggurat normal consume a variable number of words, so the stream
    # cannot be drawn array-wise without changing every sample.
    rng = np.random.default_rng(seed)
    junk_p = _JUNK_FRAC * min(noise, 1.0)
    for i in range(n):
        u[i] = rng.random()
        partner[i] = rng.integers(0, classes - 1)
        rng.standard_normal(out=eps[i])
        junk[i] = rng.random() < junk_p
    partner += partner >= labels

    # Pixel arithmetic on whole arrays, in the same operation order as the
    # per-sample formula, (template + body blend) + noise, so every pixel
    # keeps its bits. The noise buffer becomes the corpus, and the base
    # images are built one class at a time to keep the peak memory low.
    d = np.maximum(0.0, u - _DUPLICATE_FRAC) / (1.0 - _DUPLICATE_FRAC)
    mix = np.minimum(_MIX_GAIN, _MIX_GAIN * noise * d)
    gain = _NOISE_GAIN * noise * d
    # Junk samples: class-averaged body under a crisp marker. Trivial for
    # the rotation task but carries no class signal, so labels look
    # conflicting and posteriors stay maximally uncertain.
    junk_base = np.full((size, size, 1), _BACKGROUND)
    junk_base[0:2, :, :] = _MARKER_VALUE
    junk_base[:, 0:2, :] = _MARKER_VALUE
    junk_base[lo:hi, lo:hi, 0] += _BODY_GAIN * bodies.mean(axis=0)
    gain[junk] = _JUNK_NOISE * noise
    pixels = eps
    pixels *= gain[:, None, None, None]
    for c in range(classes):
        rows = slice(c * n_per_class, (c + 1) * n_per_class)
        base = np.repeat(templates[c:c + 1], n_per_class, axis=0)
        base[:, lo:hi, lo:hi, 0] += (_BODY_GAIN * mix[rows])[:, None, None] * (bodies[partner[rows]] - bodies[c])
        base[junk[rows]] = junk_base
        pixels[rows] += base
    np.clip(pixels, 0.0, 1.0, out=pixels)
    return Pool(np.arange(n), pixels, labels)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def rotate(image: np.ndarray, y: int) -> np.ndarray:
    """Exact counter-clockwise rotation of one (H, W, C) image by y * 90 degrees (y in 0..3)."""
    return rotate_batch(np.asarray(image)[None], y)[0]


def rotate_batch(x: np.ndarray, y: int) -> np.ndarray:
    """rotate() applied over a (B, H, W, C) array."""
    if x.shape[1] != x.shape[2]:
        raise ValueError(f"rotation requires square images, got {x.shape[1]}x{x.shape[2]}")
    if y not in (0, 1, 2, 3):
        raise ValueError(f"orientation index must be 0..3, got {y}")
    return np.ascontiguousarray(np.rot90(x, k=y, axes=(1, 2)))


# ---------------------------------------------------------------------------
# subsets and splits
# ---------------------------------------------------------------------------

def imbalance_ramp(classes: int, factor: float) -> list[int]:
    """Linear per-class count ramp 500, 1000, ... scaled by `factor`."""
    counts = [int(round(500 * (c + 1) * factor)) for c in range(classes)]
    if any(c < 1 for c in counts):
        raise ValueError(f"imbalance factor {factor} produces empty classes")
    return counts


def make_imbalanced(pool: Pool, counts, seed: int) -> Pool:
    """Seeded subsample with exactly `counts[c]` samples of each class c."""
    if pool.y is None:
        raise ValueError("imbalanced subsampling requires a fully labeled pool")
    n_classes = pool.n_classes
    if len(counts) != n_classes:
        raise ValueError(f"counts has {len(counts)} entries but pool has {n_classes} classes")
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    for c in range(n_classes):
        avail = np.flatnonzero(pool.y == c)
        want = int(counts[c])
        if want < 0:
            raise ValueError("counts must be nonnegative")
        if want > len(avail):
            raise ValueError(f"class {c}: requested {want} samples but only {len(avail)} available")
        keep.append(avail[rng.choice(len(avail), size=want, replace=False)])
    return pool.take(np.sort(np.concatenate(keep)))


def split_train_test(pool: Pool, test_fraction: float, seed: int) -> tuple[Pool, Pool]:
    """Disjoint, exhaustive, per-class stratified split, deterministic per seed."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must lie in (0, 1), got {test_fraction}")
    if pool.y is None:
        raise ValueError("a stratified split requires labels")
    rng = np.random.default_rng(seed)
    is_test = np.zeros(len(pool), dtype=bool)
    for label in np.flatnonzero(np.bincount(pool.y)):
        positions = np.flatnonzero(pool.y == label)
        k = int(test_fraction * len(positions) + 0.5)
        is_test[positions[rng.permutation(len(positions))[:k]]] = True
    return pool.take(np.flatnonzero(~is_test)), pool.take(np.flatnonzero(is_test))
