"""Synthetic open-set datasets and a loader for IDX-format image files.

A :class:`DatasetSplit` is the unit of data the whole pipeline operates
on: a feature matrix with stable integer example ids (row indices), true
class labels, a designated set of known classes, and four disjoint id
pools (labeled, unlabeled, test, discarded).  The labeled and test pools
contain known classes only; the unlabeled pool mixes known and unknown
classes so that the unknown fraction equals the requested openness ratio
to within one example.

``make_blobs`` generates Gaussian clusters whose means sit on a
hypersphere, giving a single separability knob (radius / cluster_std).
``load_idx`` reads the classic big-endian IDX image/label pair and builds
the same split structure from real data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "BlobSpec",
    "DatasetSplit",
    "IdxFormatError",
    "make_blobs",
    "blob_class_means",
    "load_idx",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised when an IDX file is malformed; messages carry byte offsets."""


@dataclass(frozen=True)
class BlobSpec:
    """Geometry of a synthetic open-set blob dataset."""

    num_known: int = 4
    num_unknown: int = 4
    dim: int = 16
    per_class: int = 250
    radius: float = 6.0
    cluster_std: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.num_known < 2:
            raise ValueError("num_known must be at least 2")
        if self.num_unknown < 0:
            raise ValueError("num_unknown must be nonnegative")
        if self.dim <= 0 or self.per_class <= 0:
            raise ValueError("dim and per_class must be positive")
        if self.cluster_std <= 0 or self.radius <= 0:
            raise ValueError("cluster_std and radius must be positive")


@dataclass
class DatasetSplit:
    """Feature store plus disjoint id pools for one open-set experiment.

    Example ids are row indices into ``features`` / ``true_labels`` and
    never change; querying only moves ids between pools.
    """

    features: np.ndarray
    true_labels: np.ndarray
    known_classes: tuple[int, ...]
    labeled_ids: np.ndarray
    unlabeled_ids: np.ndarray
    test_ids: np.ndarray
    openness: float
    discarded_ids: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    @property
    def num_classes(self) -> int:
        return len(self.known_classes)

    def is_known(self, class_ids) -> np.ndarray:
        return np.isin(class_ids, self.known_classes)

    def model_labels(self, ids: np.ndarray) -> np.ndarray:
        """Map known-class ids to contiguous model indices 0..C-1."""
        classes = np.asarray(self.known_classes)
        raw = self.true_labels[ids]
        if not np.all(np.isin(raw, classes)):
            raise ValueError("encountered an unknown-class label where a known one is required")
        return np.searchsorted(classes, raw)

    def labeled_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.features[self.labeled_ids], self.model_labels(self.labeled_ids)

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.features[self.test_ids], self.model_labels(self.test_ids)

    def unlabeled_features(self) -> np.ndarray:
        return self.features[self.unlabeled_ids]

    def unknown_unlabeled_mask(self) -> np.ndarray:
        return ~self.is_known(self.true_labels[self.unlabeled_ids])

    def total_examples(self) -> int:
        return (
            len(self.labeled_ids)
            + len(self.unlabeled_ids)
            + len(self.test_ids)
            + len(self.discarded_ids)
        )

    def validate(self, check_openness: bool = True) -> None:
        """Disjointness and purity always hold; the openness check only
        applies to freshly generated splits (querying skews the pool)."""
        pools = [self.labeled_ids, self.unlabeled_ids, self.test_ids, self.discarded_ids]
        all_ids = np.concatenate(pools)
        if len(np.unique(all_ids)) != len(all_ids):
            raise ValueError("id pools overlap")
        for name, ids in (("labeled", self.labeled_ids), ("test", self.test_ids)):
            if len(ids) and not np.all(self.is_known(self.true_labels[ids])):
                raise ValueError(f"{name} pool contains unknown-class examples")
        n_unl = len(self.unlabeled_ids)
        if check_openness and n_unl:
            frac = self.unknown_unlabeled_mask().sum() / n_unl
            # one-example slack on the configured openness ratio
            if abs(frac * n_unl - self.openness * n_unl) > 1.0 + 1e-9:
                raise ValueError(
                    f"unlabeled unknown fraction {frac:.4f} is off the configured "
                    f"openness {self.openness:.4f} by more than one example"
                )


def blob_class_means(spec: BlobSpec) -> np.ndarray:
    """Deterministic class means: greedy farthest-point picks from a seeded
    candidate cloud on the hypersphere, maximizing pairwise separation."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(2)[0])
    k = spec.num_known + spec.num_unknown
    cands = rng.normal(size=(max(256, 64 * k), spec.dim))
    cands /= np.linalg.norm(cands, axis=1, keepdims=True)
    chosen = [0]
    dists = np.linalg.norm(cands - cands[0], axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(dists))
        chosen.append(nxt)
        dists = np.minimum(dists, np.linalg.norm(cands - cands[nxt], axis=1))
    return spec.radius * cands[chosen]


def _openness_subsample(
    n_known_unlabeled: int, unknown_ids: np.ndarray, r: float, rng: np.random.Generator
) -> np.ndarray:
    """Pick the unknown ids whose count makes the unknown fraction r."""
    if not 0 <= r < 1:
        raise ValueError(f"openness ratio must lie in [0, 1), got {r}")
    if r == 0:
        return np.array([], dtype=int)
    target = int(round(r * n_known_unlabeled / (1.0 - r)))
    if target > len(unknown_ids):
        r_max = len(unknown_ids) / (len(unknown_ids) + n_known_unlabeled)
        raise ValueError(
            f"openness ratio {r} infeasible: needs {target} unknown examples but only "
            f"{len(unknown_ids)} exist; achievable range is [0, {r_max:.4f}]"
        )
    return np.sort(rng.choice(unknown_ids, size=target, replace=False))


def _assemble_split(
    features: np.ndarray,
    labels: np.ndarray,
    known_classes: tuple[int, ...],
    r: float,
    init_labeled_fraction: float,
    test_fraction: float,
    rng: np.random.Generator,
) -> DatasetSplit:
    if not 0 <= init_labeled_fraction < 1 or not 0 <= test_fraction < 1:
        raise ValueError("fractions must lie in [0, 1)")
    labeled, test, unl_known = [], [], []
    for cls in known_classes:
        ids = np.flatnonzero(labels == cls)
        ids = rng.permutation(ids)
        n_test = int(round(test_fraction * len(ids)))
        n_lab = int(round(init_labeled_fraction * len(ids)))
        if n_test + n_lab > len(ids):
            raise ValueError("test and labeled fractions exhaust a class")
        test.append(ids[:n_test])
        labeled.append(ids[n_test : n_test + n_lab])
        unl_known.append(ids[n_test + n_lab :])
    unl_known = np.concatenate(unl_known)
    unknown_ids = np.flatnonzero(~np.isin(labels, known_classes))
    unl_unknown = _openness_subsample(len(unl_known), unknown_ids, r, rng)
    split = DatasetSplit(
        features=features,
        true_labels=labels,
        known_classes=tuple(sorted(known_classes)),
        labeled_ids=np.sort(np.concatenate(labeled)).astype(int),
        unlabeled_ids=np.sort(np.concatenate([unl_known, unl_unknown])).astype(int),
        test_ids=np.sort(np.concatenate(test)).astype(int),
        openness=r,
    )
    split.validate()
    return split


def make_blobs(
    spec: BlobSpec,
    r: float,
    init_labeled_fraction: float = 0.05,
    test_fraction: float = 0.2,
) -> DatasetSplit:
    """Generate Gaussian clusters and split them into an open-set pool.

    Known classes feed the labeled/test/unlabeled pools at the given
    fractions; unknown classes appear only in the unlabeled pool,
    subsampled so their fraction there equals ``r`` within one example.
    Fully deterministic for a given spec.seed.
    """
    spec.validate()
    means = blob_class_means(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(2)[1])
    k = spec.num_known + spec.num_unknown
    features = np.concatenate(
        [
            means[c] + spec.cluster_std * rng.normal(size=(spec.per_class, spec.dim))
            for c in range(k)
        ]
    )
    labels = np.repeat(np.arange(k), spec.per_class)
    known = tuple(range(spec.num_known))
    return _assemble_split(
        features, labels, known, r, init_labeled_fraction, test_fraction, rng
    )


def _read_idx(path, expected_magic: int, what: str) -> np.ndarray:
    buf = Path(path).read_bytes()
    if len(buf) < 4:
        raise IdxFormatError(f"{what} file {path}: truncated before magic at offset 0")
    (magic,) = struct.unpack(">I", buf[:4])
    if magic != expected_magic:
        raise IdxFormatError(
            f"{what} file {path}: bad magic 0x{magic:08x} at offset 0, "
            f"expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(buf) < header_end:
        raise IdxFormatError(
            f"{what} file {path}: truncated header, needs {header_end} bytes, "
            f"got {len(buf)}"
        )
    dims = struct.unpack(f">{ndim}I", buf[4:header_end])
    n_bytes = int(np.prod(dims))
    if len(buf) != header_end + n_bytes:
        raise IdxFormatError(
            f"{what} file {path}: expected {n_bytes} data bytes from offset "
            f"{header_end}, file has {len(buf) - header_end}"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=header_end).reshape(dims)


def load_idx(
    images_path,
    labels_path,
    known_classes,
    r: float,
    seed: int = 0,
    init_labeled_fraction: float = 0.05,
    test_fraction: float = 0.2,
) -> DatasetSplit:
    """Load a big-endian IDX image/label pair into an open-set split.

    Pixels are scaled to [0, 1] and flattened.  Classes in
    ``known_classes`` form the known set; every other label is treated as
    unknown and only enters the unlabeled pool, subsampled to openness r.
    """
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    features = images.reshape(images.shape[0], -1).astype(float) / 255.0
    labels = labels.astype(int)
    known = tuple(sorted(int(c) for c in known_classes))
    present = set(np.unique(labels).tolist())
    if present.issubset(set(known)) and r > 0:
        raise ValueError(
            "all classes in the file are known; openness ratio must be 0"
        )
    rng = np.random.default_rng(seed)
    return _assemble_split(
        features, labels, known, r, init_labeled_fraction, test_fraction, rng
    )
