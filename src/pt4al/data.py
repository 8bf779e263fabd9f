"""Dataset plumbing: IDX ingestion, synthetic corpus, rotations, splits.

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

ROLE_LABELED = "labeled"
ROLE_UNLABELED = "unlabeled"
ROLE_TEST = "test"


@dataclass
class Image:
    """Pixel grid (H, W, C) with float64 values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError(f"image must be (H, W, C), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("pixel values must be finite and within [0, 1]")
        self.pixels = arr

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass
class Sample:
    id: int
    image: Image
    label: int | None = None


@dataclass
class Pool:
    """Ordered collection of samples with a role tag.

    Role "labeled" requires every sample to carry a label; "unlabeled"
    requires labels to be hidden. Ids must be unique.
    """

    samples: list[Sample]
    role: str = ROLE_LABELED

    def __post_init__(self):
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sample ids in pool")
        if self.role == ROLE_LABELED and any(s.label is None for s in self.samples):
            raise ValueError("labeled pool contains samples without labels")
        if self.role == ROLE_UNLABELED and any(s.label is not None for s in self.samples):
            raise ValueError("unlabeled pool contains revealed labels")

    def __len__(self) -> int:
        return len(self.samples)

    def ids(self) -> list[int]:
        return [s.id for s in self.samples]

    def labels(self) -> list[int | None]:
        return [s.label for s in self.samples]

    def stack(self):
        """(X, y) arrays in pool order; y is None if any label is hidden."""
        x = np.stack([s.image.pixels for s in self.samples])
        if any(s.label is None for s in self.samples):
            return x, None
        return x, np.array([s.label for s in self.samples], dtype=np.int64)

    def class_histogram(self, n_classes: int) -> list[int]:
        hist = [0] * n_classes
        for s in self.samples:
            if s.label is not None:
                hist[s.label] += 1
        return hist


def unlabeled_view(pool: Pool) -> Pool:
    """Same samples with labels hidden, tagged as the unlabeled pool."""
    return Pool([Sample(s.id, s.image, None) for s in pool.samples], ROLE_UNLABELED)


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

    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows, cols).astype(np.float64) / 255.0
    samples = [Sample(i, Image(pixels[i][:, :, None]), int(labels[i])) for i in range(n)]
    return Pool(samples, ROLE_LABELED)


def write_idx(pool: Pool, images_path, labels_path) -> None:
    """Inverse of load_idx for pools whose pixels are multiples of 1/255."""
    if len(pool) == 0:
        raise ValueError("cannot write an empty pool")
    x, y = pool.stack()
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
    of any template coincides with any template.
    """
    if not 2 <= classes <= MAX_CLASSES:
        raise ValueError(f"classes must be within [2, {MAX_CLASSES}], got {classes}")
    if size < 10:
        raise ValueError(f"size must be >= 10, got {size}")
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
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if noise < 0:
        raise ValueError("noise level must be >= 0")
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
    samples = [Sample(i, Image(pixels[i]), int(c)) for i, c in enumerate(labels)]
    return Pool(samples, ROLE_LABELED)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def rotate(image: Image, y: int) -> Image:
    """Exact counter-clockwise rotation by y * 90 degrees (y in 0..3)."""
    if image.height != image.width:
        raise ValueError(f"rotation requires square images, got {image.height}x{image.width}")
    if y not in (0, 1, 2, 3):
        raise ValueError(f"orientation index must be 0..3, got {y}")
    return Image(np.ascontiguousarray(np.rot90(image.pixels, k=y, axes=(0, 1))))


def rotate_batch(x: np.ndarray, y: int) -> np.ndarray:
    """rotate() applied over a (B, H, W, C) array."""
    if x.shape[1] != x.shape[2]:
        raise ValueError("rotation requires square images")
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
    labels = pool.labels()
    if any(l is None for l in labels):
        raise ValueError("imbalanced subsampling requires a fully labeled pool")
    n_classes = max(labels) + 1
    if len(counts) != n_classes:
        raise ValueError(f"counts has {len(counts)} entries but pool has {n_classes} classes")
    positions_by_class = {c: [i for i, l in enumerate(labels) if l == c] for c in range(n_classes)}
    rng = np.random.default_rng(seed)
    keep: list[int] = []
    for c in range(n_classes):
        avail = positions_by_class[c]
        want = int(counts[c])
        if want < 0:
            raise ValueError("counts must be nonnegative")
        if want > len(avail):
            raise ValueError(f"class {c}: requested {want} samples but only {len(avail)} available")
        chosen = rng.choice(len(avail), size=want, replace=False)
        keep.extend(avail[i] for i in chosen)
    keep.sort()
    return Pool([pool.samples[i] for i in keep], pool.role)


def split_train_test(pool: Pool, test_fraction: float, seed: int) -> tuple[Pool, Pool]:
    """Disjoint, exhaustive, per-class stratified split, deterministic per seed."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must lie in (0, 1), got {test_fraction}")
    groups: dict = {}
    for i, s in enumerate(pool.samples):
        groups.setdefault(s.label, []).append(i)
    rng = np.random.default_rng(seed)
    test_positions: set[int] = set()
    for label in sorted(groups, key=lambda l: (l is None, l)):
        positions = groups[label]
        k = int(test_fraction * len(positions) + 0.5)
        perm = rng.permutation(len(positions))
        test_positions.update(positions[perm[i]] for i in range(k))
    train = [s for i, s in enumerate(pool.samples) if i not in test_positions]
    test = [s for i, s in enumerate(pool.samples) if i in test_positions]
    return Pool(train, pool.role), Pool(test, ROLE_TEST)


def write_pool_manifest(path, pools: list[tuple[Pool, str]]) -> None:
    """CSV manifest `id,label,split` covering the given pools."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "split"])
        for pool, split in pools:
            for s in pool.samples:
                writer.writerow([s.id, "" if s.label is None else s.label, split])
