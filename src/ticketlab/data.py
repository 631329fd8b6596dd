"""Dataset ingestion and summarization.

Covers IDX image/label files, deterministic synthetic fixtures, and the
distilled-data providers: random per-class subsets, class means, and
per-class k-means herding.  Externally distilled data plugs in through the
DSTL file format (save_distilled / load_distilled).
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .nn import is_whole, require

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

DSTL_MAGIC = b"DSTL"
DSTL_VERSION = 1
PROVENANCE_CODES = {"random": 0, "classMean": 1, "kmeansHerding": 2, "external": 3}
_CODE_TO_PROVENANCE = {v: k for k, v in PROVENANCE_CODES.items()}


class FormatError(ValueError):
    """Malformed IDX or DSTL file."""


def atomic_write(path, blob):
    """Write bytes through a temporary file in the same directory and a
    rename, creating the directory; on failure no file is left behind."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class LabeledDataset:
    """Examples of shape (N, *dims), integer labels, class count."""

    examples: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.examples = np.asarray(self.examples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.examples.shape[0] != self.labels.shape[0]:
            raise ValueError("examples/labels count mismatch")
        if self.examples.shape[0] < 1:
            raise ValueError("dataset must be non-empty")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("label out of range")

    @property
    def size(self) -> int:
        return self.examples.shape[0]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass
class DistilledDataset(LabeledDataset):
    """A synthetic summary of a larger dataset: ipc examples of every class."""

    provenance: str = "external"
    ipc: int = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        if self.provenance not in PROVENANCE_CODES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        counts = self.class_counts()
        if counts.min() != counts.max():
            raise ValueError(f"classes hold {counts.min()} to {counts.max()} examples")
        self.ipc = int(counts[0])
        if not np.all(np.isfinite(self.examples)):
            raise ValueError("distilled examples must be finite")


# ---------------------------------------------------------------------------
# IDX files

def _read_exact(f, n, what):
    """The next n bytes of f, checked against the file's size before reading."""
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"truncated file while reading {what}")
    return f.read(n)


def _load_idx_array(path, expected_magic):
    with open(path, "rb") as f:
        magic, = struct.unpack(">I", _read_exact(f, 4, "magic"))
        if magic != expected_magic:
            raise FormatError(f"bad magic 0x{magic:08x} in {path}")
        ndim = magic & 0xFF
        dims = struct.unpack(f">{ndim}I", _read_exact(f, 4 * ndim, "dimensions"))
        payload = _read_exact(f, math.prod(dims), "payload")
        if f.read(1):
            raise FormatError(f"trailing bytes in {path}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Parse an IDX image/label file pair; pixels scaled by 1/255, classes
    up to the highest label."""
    images = _load_idx_array(images_path, IMAGE_MAGIC)
    labels = _load_idx_array(labels_path, LABEL_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise FormatError("image/label counts differ")
    try:
        return LabeledDataset(images.astype(np.float64) / 255.0,
                              labels.astype(np.int64), int(labels.max(initial=0)) + 1)
    except ValueError as e:
        raise FormatError(f"{labels_path}: {e}") from None


def write_idx(data: LabeledDataset, images_path, labels_path):
    """Inverse of load_idx; values are rounded back to bytes.  The image
    magic declares three dimensions, so the images must be (N, H, W)."""
    if data.examples.ndim != 3:
        raise ValueError(f"IDX images must be (N, H, W), got shape {data.examples.shape}")
    if data.labels.max() > 255:
        raise ValueError(f"IDX labels must be at most 255, got {data.labels.max()}")
    images = np.clip(np.round(data.examples * 255.0), 0, 255).astype(np.uint8)
    atomic_write(images_path, struct.pack(">4I", IMAGE_MAGIC, *images.shape)
                 + images.tobytes())
    atomic_write(labels_path, struct.pack(">2I", LABEL_MAGIC, data.size)
                 + data.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Synthetic fixtures

def synth_dataset(kind, num_classes, per_class, noise, seed,
                  input_shape=(2,)) -> LabeledDataset:
    """Deterministic synthetic dataset.

    gaussianBlobs: class means on a circle of radius 3 (embedded in a random
    2-plane when the input has more than two dimensions) plus isotropic
    Gaussian noise.  spirals: interleaved 2-D spiral arms.  The class
    geometry does not depend on the seed, so draws with different seeds
    share the same underlying distribution.
    """
    check_synth(kind, num_classes, per_class, noise, seed, input_shape)
    rng = np.random.default_rng(seed)
    dim = int(np.prod(input_shape))
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class)

    if kind == "gaussianBlobs":
        if dim == 2:
            basis = np.eye(2)
        else:
            raw = np.random.default_rng([0, dim]).standard_normal((2, dim))
            q, _ = np.linalg.qr(raw.T)
            basis = q.T  # orthonormal 2-plane to carry the circle
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means = 3.0 * (np.stack([np.cos(angles), np.sin(angles)], axis=1) @ basis)
        x = means[labels] + noise * rng.standard_normal((n, dim))
    else:
        t = np.tile(np.linspace(0.25, 1.0, per_class), num_classes)
        theta = 3.0 * np.pi * t + 2.0 * np.pi * labels / num_classes
        r = 3.0 * t
        x = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        x += noise * rng.standard_normal((n, 2))
    return LabeledDataset(x.reshape((n,) + tuple(input_shape)), labels, num_classes)


def check_synth(kind, num_classes, per_class, noise, seed, input_shape=(2,)):
    """Raise one ValueError naming every rule the synth_dataset arguments
    break; each message starts with the argument's name."""
    whole = all(is_whole(d, 1) for d in input_shape)
    dim = int(np.prod(input_shape)) if whole else None
    require([
        (kind in ("gaussianBlobs", "spirals"), "kind must be gaussianBlobs or spirals"),
        (num_classes >= 1, "num_classes must be >= 1"),
        (per_class >= 1, "per_class must be >= 1"),
        (np.isfinite(noise), "noise must be finite"),
        (seed >= 0, "seed must be >= 0"),
        (whole, "input_shape must be positive integers"),
        (kind != "spirals" or not whole or dim == 2,
         "kind spirals needs an input_shape of 2 values"),
        (kind != "gaussianBlobs" or not whole or dim >= 2,
         "kind gaussianBlobs needs an input_shape of at least 2 values"),
    ])


# ---------------------------------------------------------------------------
# Distillers

def _per_class(data: LabeledDataset, ipc, provenance, pick) -> DistilledDataset:
    """The DistilledDataset of `ipc` examples per class, class by class:
    pick(c, idx) gives the (ipc, *dims) examples of class c, whose members
    are data.examples[idx]."""
    images = []
    for c in range(data.num_classes):
        idx = np.flatnonzero(data.labels == c)
        if ipc > idx.size:
            raise ValueError(f"ipc={ipc} exceeds class size {idx.size}")
        images.append(pick(c, idx))
    return DistilledDataset(np.concatenate(images),
                            np.repeat(np.arange(data.num_classes), ipc),
                            data.num_classes, provenance=provenance)


def distill_random(data: LabeledDataset, ipc: int, seed: int) -> DistilledDataset:
    """Uniform per-class sample without replacement."""
    rng = np.random.default_rng(seed)  # one stream, drawn class by class
    return _per_class(data, ipc, "random", lambda c, idx: data.examples[
        np.sort(rng.choice(idx, size=ipc, replace=False))])


def distill_class_mean(data: LabeledDataset) -> DistilledDataset:
    """One synthetic image per class: the arithmetic mean of the class."""
    return _per_class(data, 1, "classMean",
                      lambda c, idx: data.examples[idx].mean(axis=0, keepdims=True))


def _sq_dists(points, centers, columns=None, out=None):
    """(n, k) squared distances, written one center column at a time (all k,
    or those listed in `columns`) through one reused (n, d) buffer.  Each
    sum runs in the same order as in an (n, k, d) broadcast, so near-ties
    in argmin resolve as they would there."""
    if out is None:
        out = np.empty((points.shape[0], centers.shape[0]))
    buf = np.empty_like(points)
    for j in range(centers.shape[0]) if columns is None else columns:
        np.subtract(points, centers[j], out=buf)
        np.square(buf, out=buf)
        buf.sum(axis=1, out=out[:, j])
    return out


def _kmeans_plus_plus(points, k, rng):
    """k-means++ style seeding; deterministic given the rng state."""
    centers = [points[rng.integers(points.shape[0])]]
    d2 = np.full(points.shape[0], np.inf)  # to the nearest chosen center
    for _ in range(1, k):
        d2 = np.minimum(d2, ((points - centers[-1]) ** 2).sum(axis=1))
        total = d2.sum()
        if total == 0.0:
            centers.append(points[int(np.argmin(d2))])
            continue
        r = rng.random() * total
        centers.append(points[int(np.searchsorted(np.cumsum(d2), r))])
    return np.stack(centers)


def _kmeans(points, k, iterations, rng):
    """Lloyd's algorithm from k-means++ seeds, for at most `iterations`
    rounds.  A round maps centers to centers without touching the rng, so
    once a round leaves the centers unchanged every later round would too,
    and the loop stops there.  Each round recomputes the distance columns
    of the centers that the previous round moved, and only those."""
    centers = _kmeans_plus_plus(points, k, rng)
    d2 = np.empty((points.shape[0], k))
    moved = None  # all centers
    for _ in range(iterations):
        _sq_dists(points, centers, moved, out=d2)
        assign = np.argmin(d2, axis=1)  # ties go to the lowest center index
        previous = centers.copy()
        for j in range(k):
            members = points[assign == j]
            if members.shape[0] == 0:
                # re-seed an empty cluster from the farthest point
                far = int(np.argmax(np.min(d2, axis=1)))
                centers[j] = points[far]
            else:
                centers[j] = members.mean(axis=0)
        moved = np.flatnonzero((centers != previous).any(axis=1))
        if moved.size == 0:
            break
    return centers


def kmeans_objective(points, centers):
    """Total within-cluster squared distance; herding quality measure."""
    return float(np.min(_sq_dists(points, centers), axis=1).sum())


def distill_kmeans_herding(data: LabeledDataset, ipc: int, iterations: int = 50,
                           seed: int = 0) -> DistilledDataset:
    """Per-class k-means centroids (k = ipc) as synthetic images.

    `iterations` (0: k-means++ seeds only) caps the Lloyd rounds per class;
    a class stops at the first round whose centers equal the previous ones,
    where every later round would return the same centers."""
    if not is_whole(iterations, 0):
        raise ValueError(f"iterations must be an integer >= 0, got {iterations!r}")
    def pick(c, idx):
        points = data.examples[idx].reshape(idx.size, -1)
        centers = _kmeans(points, ipc, iterations, np.random.default_rng([seed, c]))
        return centers.reshape((ipc,) + data.examples.shape[1:])

    return _per_class(data, ipc, "kmeansHerding", pick)


# ---------------------------------------------------------------------------
# DSTL distilled-data files (little-endian)

def save_distilled(dsyn: DistilledDataset, path):
    """Write the DSTL format: magic, version, counts, dims, provenance,
    float32 payload in class-major order, u16 labels."""
    order = np.argsort(dsyn.labels, kind="stable")
    examples = dsyn.examples[order]
    labels = dsyn.labels[order]
    dims = examples.shape[1:]
    atomic_write(path, b"".join([
        DSTL_MAGIC,
        struct.pack("<IIII", DSTL_VERSION, dsyn.num_classes, dsyn.ipc, len(dims)),
        struct.pack(f"<{len(dims)}I", *dims),
        struct.pack("<B", PROVENANCE_CODES[dsyn.provenance]),
        examples.astype("<f4").tobytes(),
        labels.astype("<u2").tobytes()]))


def load_distilled(path) -> DistilledDataset:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != DSTL_MAGIC:
            raise FormatError(f"bad magic in {path}")
        version, num_classes, ipc, rank = struct.unpack(
            "<IIII", _read_exact(f, 16, "header"))
        if version != DSTL_VERSION:
            raise FormatError(f"unsupported DSTL version {version}")
        dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "dims"))
        code, = struct.unpack("<B", _read_exact(f, 1, "provenance"))
        if code not in _CODE_TO_PROVENANCE:
            raise FormatError(f"unknown provenance code {code}")
        n = num_classes * ipc
        per = math.prod(dims)
        payload = _read_exact(f, 4 * n * per, "image payload")
        label_bytes = _read_exact(f, 2 * n, "labels")
        if f.read(1):
            raise FormatError(f"trailing bytes in {path}")
    with np.errstate(invalid="ignore"):  # a signaling NaN: rejected below as non-finite
        examples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    labels = np.frombuffer(label_bytes, dtype="<u2").astype(np.int64)
    if np.any(np.diff(labels) < 0):
        raise FormatError("labels must be class-major ascending")
    try:
        return DistilledDataset(examples.reshape((n,) + dims), labels, num_classes,
                                provenance=_CODE_TO_PROVENANCE[code])
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None
