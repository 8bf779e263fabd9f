"""Dataset plumbing: the spec and its build, IDX ingestion, synthetic corpus, rotations, splits, CSV.

All operations are pure and deterministic per seed and never mutate a
pool. One caller does, on a pool it owns: `run_al` moves each round's picks
into the labeled prefix of its train pool (`loop._label_rows`).

`build_dataset` holds each split's pixels once. `split_positions` draws the
imbalance subsample and the stratified split from the labels alone, so the
checks on the splits run before any pixel exists. Synthetic samples are
then drawn straight into their split's rows, and an IDX split gathers its
uint8 pixels before the float conversion; no whole float corpus is made.
`gen_synthetic` and `load_idx` use the same generator and decoder and
return the whole corpus.
"""
from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, check_fields, declare
from .seeds import derive_seed

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def whole_numbers(values, name: str) -> np.ndarray:
    """`values` as int64; ValueError naming `name` unless every value is a whole number that int64 holds."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
        arr = np.asarray(values, dtype=object)  # float64 reads 2**63 - 1, 2**63 and 2**63 + 1 alike
    if arr.dtype.kind in "fuO":  # an unsigned value past int64 would wrap; int64 cannot take a Python int past it
        with np.errstate(invalid="ignore"):  # NaN fails both bounds, and as an object it warns
            bad = ~((arr >= -2**63) & (arr < 2**63))
        held = np.where(bad, 0, arr).astype(np.float64)
        bad |= held != np.trunc(held)
        if bad.any():
            raise ValueError(f"{name} must be whole numbers within int64, got {arr[bad].item(0)!r}")
    return np.asarray(arr, dtype=np.int64)


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
        self.ids = whole_numbers(self.ids, "sample ids")
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
            self.y = whole_numbers(self.y, "labels")
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
        raise ConfigError(f"{path}: truncated IDX file")
    return data[offset:offset + count]


def _check_size(data: bytes, header: int, count: int, path) -> None:
    if len(data) != header + count:
        fault = "truncated IDX file" if len(data) < header + count else "IDX file longer than its header says"
        raise ConfigError(f"{path}: {fault}: {len(data)} bytes where its header says {header + count}")


def _read_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Decode an IDX image/label file pair into its uint8 pixels (N, H, W, 1) and int64 labels (N,).

    Each file must be exactly as long as its header says. An unreadable file and every format
    fault raise ConfigError naming the file, or both files for a count mismatch.
    """
    try:
        img_data, lab_data = Path(images_path).read_bytes(), Path(labels_path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{exc.filename}: cannot read dataset file: {exc.strerror}") from exc

    magic, = struct.unpack(">I", _read_exact(img_data, 0, 4, images_path))
    if magic != IMAGE_MAGIC:
        raise ConfigError(f"{images_path}: bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}")
    n, rows, cols = struct.unpack(">III", _read_exact(img_data, 4, 12, images_path))
    if n and not rows * cols:
        raise ConfigError(f"{images_path}: {n} images of {rows}x{cols} pixels hold no pixels")
    _check_size(img_data, 16, n * rows * cols, images_path)

    lmagic, = struct.unpack(">I", _read_exact(lab_data, 0, 4, labels_path))
    if lmagic != LABEL_MAGIC:
        raise ConfigError(f"{labels_path}: bad label magic 0x{lmagic:08x}, expected 0x{LABEL_MAGIC:08x}")
    ln, = struct.unpack(">I", _read_exact(lab_data, 4, 4, labels_path))
    if ln != n:
        raise ConfigError(f"count mismatch: {images_path} holds {n} images, {labels_path} {ln} labels")
    _check_size(lab_data, 8, ln, labels_path)
    labels = np.frombuffer(lab_data, dtype=np.uint8, offset=8).astype(np.int64)
    return np.frombuffer(img_data, dtype=np.uint8, offset=16).reshape(n, rows, cols, 1), labels


def _idx_pixels(payload: np.ndarray) -> np.ndarray:
    """uint8 pixels scaled by 1/255 into a new float64 array; decoding is bit-exact."""
    pixels = payload.astype(np.float64)
    pixels /= 255.0
    return pixels


def load_idx(images_path, labels_path) -> Pool:
    """Decode an IDX image/label file pair into a labeled pool, pixel bytes scaled by 1/255 bit-exactly.

    An unreadable file and every format fault raise ConfigError naming the file (`_read_idx`).
    """
    payload, labels = _read_idx(images_path, labels_path)
    return Pool(np.arange(len(labels)), _idx_pixels(payload), labels)


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
_BASE_ROWS = 256


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
    be within their `DatasetSpec` declarations.
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
            rot = rotate_batch(templates[c:c + 1], k).reshape(-1)
            if np.min(np.linalg.norm(flat - rot, axis=1)) <= 1e-9:
                raise RuntimeError(f"template {c} rotated {90 * k} degrees collides with the template set")


def gen_synthetic(n_per_class: int, classes: int, size: int, noise: float, seed: int) -> Pool:
    """Rotation-sensitive labeled corpus with a per-sample difficulty spectrum.

    The difficulty ecology mirrors real pools. A fixed fraction of samples
    sits at difficulty 0 (exact class templates, i.e. redundant
    near-duplicates); the rest draws a difficulty scalar d that scales a
    mild isotropic pixel-noise term plus a bounded blend of the body
    pattern toward another class's body, so hard samples sit near class
    boundaries. A tiny fraction is inherently ambiguous: class-centroid
    bodies under the same crisp marker, so the rotation task finds them
    easy, whose labels carry no visual signal; no model can resolve them,
    and they permanently bait uncertainty-style samplers. At noise 0 every
    sample equals its class template exactly.
    """
    check_fields(DatasetSpec(n_per_class=n_per_class, classes=classes, size=size, noise=noise))
    everything = np.arange(classes * n_per_class)
    pixels, = _synthetic_pixels(n_per_class, classes, size, noise, seed, [everything])
    return Pool(everything, pixels, _synthetic_labels(n_per_class, classes))


def _synthetic_labels(n_per_class: int, classes: int) -> np.ndarray:
    """The synthetic corpus's labels: `n_per_class` of class 0, then of class 1, and so on."""
    return np.repeat(np.arange(classes), n_per_class)


def _synthetic_pixels(n_per_class: int, classes: int, size: int, noise: float, seed: int,
                      parts: list[np.ndarray]) -> list[np.ndarray]:
    """The pixels of the synthetic corpus's samples at each part's positions, one new array per part.

    Each part's positions ascend. Every sample is drawn, in corpus order,
    straight into its row of its part's array; a sample in no part is drawn
    into one scratch row, so the stream and every kept pixel stay those of
    the whole corpus.
    """
    templates = class_templates(classes, size)
    bodies = _body_masks(classes, size)
    lo, hi = 3, size - 3
    n = classes * n_per_class
    outs = [np.empty((len(positions), size, size, 1)) for positions in parts]
    outs.append(np.empty((1, size, size, 1)))
    part = np.full(n, len(parts))
    row = np.zeros(n, dtype=np.int64)
    for k, positions in enumerate(parts):
        part[positions] = k
        row[positions] = np.arange(len(positions))
    part, row = part.tolist(), row.tolist()
    u = np.empty(n)
    partner = np.empty(n, dtype=np.int64)
    junk = np.empty(n, dtype=bool)
    # The draws stay per sample and in this order: integers() and the
    # ziggurat normal consume a variable number of words, so the stream
    # cannot be drawn array-wise without changing every sample.
    rng = np.random.default_rng(seed)
    junk_p = _JUNK_FRAC * min(noise, 1.0)
    for i in range(n):
        u[i] = rng.random()
        partner[i] = rng.integers(0, classes - 1)
        rng.standard_normal(out=outs[part[i]][row[i]])
        junk[i] = rng.random() < junk_p
    partner += partner >= _synthetic_labels(n_per_class, classes)

    # Pixel arithmetic on whole arrays, in the same operation order as the
    # per-sample formula, (template + body blend) + noise, so every pixel
    # keeps its bits. Each part's noise becomes its pixels, and the base
    # images are built for at most _BASE_ROWS samples of one class at a
    # time, to keep the peak memory low.
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
    for pixels, positions in zip(outs, parts):
        pixels *= gain[positions][:, None, None, None]
        # The positions ascend and the corpus is ordered by class, so each
        # class's rows are one run of the part.
        bounds = np.searchsorted(positions, np.arange(classes + 1) * n_per_class).tolist()
        for c in range(classes):
            for start in range(bounds[c], bounds[c + 1], _BASE_ROWS):
                stop = min(start + _BASE_ROWS, bounds[c + 1])
                samples = positions[start:stop]
                base = np.repeat(templates[c:c + 1], stop - start, axis=0)
                base[:, lo:hi, lo:hi, 0] += ((_BODY_GAIN * mix[samples])[:, None, None]
                                             * (bodies[partner[samples]] - bodies[c]))
                base[junk[samples]] = junk_base
                pixels[start:stop] += base
        np.clip(pixels, 0.0, 1.0, out=pixels)
    return outs[:-1]


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
# subsets, splits and the dataset build
# ---------------------------------------------------------------------------

def imbalance_ramp(classes: int, factor: float) -> list[int]:
    """Linear per-class count ramp 500, 1000, ... scaled by `factor`."""
    counts = [500 * (c + 1) * factor for c in range(classes)]
    if not math.isfinite(counts[-1]):
        c = next(c for c, count in enumerate(counts) if not math.isfinite(count))
        raise ValueError(f"imbalance factor {factor} is too large: the count of class {c}, "
                         f"500 x {c + 1} x {factor}, leaves the float range")
    counts = [int(round(count)) for count in counts]
    if any(c < 1 for c in counts):
        raise ValueError(f"imbalance factor {factor} produces empty classes")
    return counts


def split_positions(y: np.ndarray, test_fraction: float | None, split_seed: int,
                    counts=None, imbalance_seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Positions into the labels `y` of the train samples and of the test samples, each ascending.

    Every draw of the dataset build is made here, from the labels alone, so
    the pixels can be made per split. With `counts`, a seeded subsample
    (`imbalance_seed`) first keeps exactly `counts[c]` samples of each class
    c. The kept samples are then split per class: round(test_fraction x the
    class's size) go to test, drawn with `split_seed`. `test_fraction` None
    skips the split and returns every kept sample as train.
    """
    check_fields(DatasetSpec(test_fraction=test_fraction, imbalance_counts=None if counts is None else tuple(counts)))
    keep = np.arange(len(y))
    if counts is not None:
        n_classes = int(y.max()) + 1
        if len(counts) != n_classes:
            raise ValueError(f"counts has {len(counts)} entries but pool has {n_classes} classes")
        rng = np.random.default_rng(imbalance_seed)
        kept: list[np.ndarray] = []
        for c in range(n_classes):
            avail = np.flatnonzero(y == c)
            want = int(counts[c])
            if want > len(avail):
                raise ValueError(f"class {c}: requested {want} samples but only {len(avail)} available")
            kept.append(avail[rng.choice(len(avail), size=want, replace=False)])
        keep = np.sort(np.concatenate(kept))
    if test_fraction is None:
        return keep, keep[:0]
    kept_y = y[keep]
    rng = np.random.default_rng(split_seed)
    is_test = np.zeros(len(keep), dtype=bool)
    for label in np.flatnonzero(np.bincount(kept_y)):
        positions = np.flatnonzero(kept_y == label)
        k = int(test_fraction * len(positions) + 0.5)
        is_test[positions[rng.permutation(len(positions))[:k]]] = True
    return keep[~is_test], keep[is_test]


def make_imbalanced(pool: Pool, counts, seed: int) -> Pool:
    """Seeded subsample with exactly `counts[c]` samples of each class c."""
    return pool.take(split_positions(pool._labels(), None, 0, counts, seed)[0])


def split_train_test(pool: Pool, test_fraction: float, seed: int) -> tuple[Pool, Pool]:
    """Disjoint, exhaustive, per-class stratified split, deterministic per seed."""
    if pool.y is None:
        raise ValueError("a stratified split requires labels")
    train, test = split_positions(pool.y, test_fraction, seed)
    return pool.take(train), pool.take(test)


@dataclass(frozen=True)
class DatasetSpec:
    """Where the corpus comes from and how it is split.

    Its declared bounds are the only ones: `gen_synthetic` and `split_positions` (so
    `make_imbalanced` and `split_train_test`) check their arguments against them.
    """

    kind: str = declare("synthetic", ("synthetic", "idx"))
    classes: int = declare(4, f"[2, {MAX_CLASSES}]")
    n_per_class: int = declare(1250, "[1, inf)")
    size: int = declare(12, "[10, inf)")
    noise: float = declare(1.0, "[0, inf)")
    test_fraction: float = declare(0.2, "(0, 1)")
    images: str | None = None
    labels: str | None = None
    imbalance_counts: tuple[int, ...] | None = declare(None, "[1, inf)")
    imbalance_factor: float | None = declare(None, "(0, inf)")

    def validate(self) -> None:
        """Check the declared values, then the idx paths (both set for idx, none otherwise) and the imbalance key."""
        check_fields(self)
        if self.kind == "idx" and (self.images is None or self.labels is None):
            raise ConfigError("idx dataset requires both image and label paths")
        for key in ("images", "labels"):
            if self.kind != "idx" and getattr(self, key) is not None:
                raise ConfigError(f'dataset.{key} is set, but a "{self.kind}" dataset reads no files')
        if self.imbalance_counts is not None and self.imbalance_factor is not None:
            raise ConfigError("set either imbalance_counts or imbalance_factor, not both")


def build_dataset(spec: DatasetSpec, seed: int) -> tuple[Pool, Pool]:
    """Materialize (train pool, test pool) from the dataset spec.

    `split_positions` picks both splits from the labels first, and every
    check runs before any pixel exists. Each split's pixels are then made
    once: synthetic samples are drawn straight into their split's rows, and
    an IDX split's uint8 pixels are gathered before the float conversion.
    The pools equal `split_train_test` of the whole corpus (after
    `make_imbalanced` when an imbalance key is set), bit for bit.
    """
    spec.validate()
    if spec.kind == "synthetic":
        y = _synthetic_labels(spec.n_per_class, spec.classes)
    else:
        payload, y = _read_idx(spec.images, spec.labels)
        # minlength 2: a pool of one label misses the second one.
        missing = np.flatnonzero(np.bincount(y, minlength=2) == 0).tolist()
        if missing:
            shown = ", ".join(map(str, missing[:5])) + (f", ... ({len(missing)} labels)" if len(missing) > 5 else "")
            raise ConfigError(f"{spec.labels}: labels must be 0..C-1 for some C >= 2, each present; missing {shown}")
    key = "imbalance_counts" if spec.imbalance_counts is not None else "imbalance_factor"
    counts = spec.imbalance_counts
    try:
        if spec.imbalance_factor is not None:
            counts = imbalance_ramp(int(y.max()) + 1, spec.imbalance_factor)
        train, test = split_positions(y, spec.test_fraction, derive_seed(seed, "split"),
                                      counts, derive_seed(seed, "imbalance"))
    except ValueError as exc:
        raise ConfigError(f"dataset.{key}: {exc}") from exc
    if len(train) == 0 or len(test) == 0:
        raise ConfigError(f"dataset.test_fraction {spec.test_fraction} leaves the "
                          f"{'train' if len(train) == 0 else 'test'} split of {len(train) + len(test)} samples empty")
    if y[test].max() > y[train].max():
        raise ConfigError(f"dataset.test_fraction {spec.test_fraction} puts every sample of label "
                          f"{y[test].max()} in the test split, where the main model cannot predict it")
    if spec.kind == "synthetic":
        pixels = _synthetic_pixels(spec.n_per_class, spec.classes, spec.size, spec.noise,
                                   derive_seed(seed, "data"), [train, test])
    else:
        pixels = [_idx_pixels(payload[positions]) for positions in (train, test)]
    return Pool(train, pixels[0], y[train]), Pool(test, pixels[1], y[test])
