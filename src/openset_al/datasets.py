"""Synthetic open-set datasets and a loader for IDX-format image files.

A :class:`DatasetSplit` is the unit of data the whole pipeline operates
on: a feature matrix with stable integer example ids (row indices), true
class labels, a designated set of known classes, and one :class:`Pool`
status per example, which keeps the pools disjoint.  The labeled and test
pools contain known classes only; the unlabeled pool mixes known and
unknown classes so that the unknown fraction equals the requested
openness ratio to within one example.

``make_blobs`` generates Gaussian clusters whose means sit on a
hypersphere, giving a single separability knob (radius / cluster_std).
``load_idx`` reads the classic big-endian IDX image/label pair and builds
the same split structure from real data.  ``_check_field`` is the one
statement of each config field's type rule: ``BlobSpec``, ``TrainConfig``
and the CLI's config reader all apply it.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, fields
from enum import IntEnum
from pathlib import Path

import numpy as np

__all__ = [
    "BlobSpec",
    "DatasetSplit",
    "IdxFormatError",
    "Pool",
    "make_blobs",
    "blob_class_means",
    "load_idx",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised when an IDX file is malformed; messages carry byte offsets."""


def _check_field(label: str, default, value) -> None:
    """ValueError naming ``label`` unless ``value`` fits the type of the
    field's ``default``, NumPy's scalars included: a bool field takes a
    bool, a str field a str, an int field an integer (no float or bool), a
    float field a finite number (no bool) and a tuple field integers.  Any
    other default (None, a dict) takes any value."""
    if isinstance(default, tuple):
        for v in value:
            _check_field(label, 0, v)
        return
    kind = np.dtype(type(value)).kind  # b bool, i/u integer, f float, U str
    if isinstance(default, bool):
        fits, want = kind == "b", "true or false"
    elif isinstance(default, str):
        fits, want = kind == "U", "a string"
    elif isinstance(default, int):
        fits, want = kind in "iu", "an integer"
    elif isinstance(default, float):
        # an int compares to a float exactly, so one past a float's range fails
        fits = (kind == "f" and np.isfinite(value)) or (
            kind in "iu" and abs(int(value)) <= sys.float_info.max
        )
        want = "a finite number"
    else:
        return
    if not fits:
        raise ValueError(f"{label} must be {want}, got {value!r}")


def _check_field_types(config) -> None:
    """``_check_field`` on each field of the dataclass ``config``, in order."""
    for f in fields(config):
        _check_field(f.name, f.default, getattr(config, f.name))


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
        _check_field_types(self)
        if self.num_known < 2:
            raise ValueError("num_known must be at least 2")
        if self.num_unknown < 0:
            raise ValueError("num_unknown must be nonnegative")
        if self.dim <= 0 or self.per_class <= 0:
            raise ValueError("dim and per_class must be positive")
        if not (self.cluster_std > 0 and self.radius > 0):
            raise ValueError("cluster_std and radius must be positive")
        k = self.num_known + self.num_unknown
        if self.dim == 1 and k > 2:
            # the sphere in one dimension is two points, so a third class
            # would share a mean with one of the first two
            raise ValueError(f"dim 1 holds 2 distinct class means, not the {k} classes asked for")


class Pool(IntEnum):
    """Pool membership of one example; UNUSED marks unknowns left out by subsampling."""

    UNUSED = 0
    LABELED = 1
    UNLABELED = 2
    TEST = 3
    DISCARDED = 4


@dataclass
class DatasetSplit:
    """Feature store plus an int8 :class:`Pool` status per example.

    Example ids are row indices into ``features`` / ``true_labels`` and
    never change; querying only changes the status of queried ids.
    ``true_labels`` holds class ids in the smallest signed integer dtype
    that holds them all: int8 for up to 128 blob classes, int16 for IDX
    labels; ``model_labels`` maps them to intp model indices.

    ``make_blobs`` and ``load_idx`` assemble it valid, and ``oracle_label``
    keeps it so; ``validate`` checks one built by hand, and a run calls it
    once, on the split it starts from.
    """

    features: np.ndarray
    true_labels: np.ndarray
    known_classes: tuple[int, ...]
    status: np.ndarray

    def ids(self, pool: Pool) -> np.ndarray:
        """Ascending ids of the examples in ``pool``."""
        return np.flatnonzero(self.status == pool)

    @property
    def labeled_ids(self) -> np.ndarray:
        return self.ids(Pool.LABELED)

    @property
    def unlabeled_ids(self) -> np.ndarray:
        return self.ids(Pool.UNLABELED)

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
        ids = self.labeled_ids
        return self.features[ids], self.model_labels(ids)

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ids = self.ids(Pool.TEST)
        return self.features[ids], self.model_labels(ids)

    def unlabeled_features(self) -> np.ndarray:
        return self.features[self.unlabeled_ids]

    def unknown_unlabeled_mask(self) -> np.ndarray:
        return ~self.is_known(self.true_labels[self.unlabeled_ids])

    def validate(self) -> None:
        """ValueError unless the features hold one 2-D row per label, the
        status one Pool value per example, and the labeled and test pools
        known classes only, at least one example each."""
        status, n = self.status, len(self.true_labels)
        if np.ndim(self.features) != 2 or len(self.features) != n:
            raise ValueError(f"features must be 2-D with {n} rows, not {np.shape(self.features)}")
        if status.shape != (n,) or status.dtype != np.int8:
            raise ValueError(f"status must be {n} int8 values, got {status.dtype} {status.shape}")
        invalid = np.flatnonzero((status < min(Pool)) | (status > max(Pool)))
        if invalid.size:
            raise ValueError(f"status of ids {invalid[:5].tolist()} is not a Pool value")
        for pool in (Pool.LABELED, Pool.TEST):
            ids = self.ids(pool)
            if not ids.size:
                raise ValueError(f"the {pool.name.lower()} pool is empty")
            if not np.all(self.is_known(self.true_labels[ids])):
                raise ValueError(f"{pool.name.lower()} pool contains unknown-class examples")


def _id_array(ids, what: str) -> np.ndarray:
    """``ids`` as a 1-D intp array; other shapes, non-numbers (booleans and
    strings, alone or beside numbers) and non-whole floats (nan, +-inf),
    which a cast would misread, raise."""
    array = np.asarray(ids)
    if array.ndim != 1:
        raise ValueError(f"{what} must be a 1-D array, not shape {array.shape}")
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be integers, not {array.dtype}: {array[:5].tolist()}")
    if array is not ids:
        # a bool beside numbers converts to a number
        flags = [v for v in ids if isinstance(v, (bool, np.bool_))]
        if flags:
            raise ValueError(f"{what} must be integers, not bool: {flags[:5]}")
    if array.dtype.kind == "f":
        whole = np.isfinite(array) & (array == np.floor(array))
        if not whole.all():
            raise ValueError(f"{what} must be whole numbers: {array[~whole].tolist()}")
    return array.astype(np.intp, copy=False)


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


def _label_dtype(num_classes: int) -> np.dtype:
    """Smallest signed integer dtype that holds class ids 0..num_classes-1
    (one that holds -num_classes holds num_classes - 1)."""
    return np.min_scalar_type(-num_classes)


def _unknown_count(r: float, n_known_unlabeled: int, n_unknown: int) -> int:
    """Unknown examples that make the unknown fraction r of an unlabeled
    pool beside ``n_known_unlabeled`` known ones; a ratio outside [0, 1),
    or one needing more than ``n_unknown``, raises ValueError."""
    if not 0 <= r < 1:
        raise ValueError(f"openness ratio must lie in [0, 1), got {r}")
    target = int(round(r * n_known_unlabeled / (1.0 - r)))
    if target > n_unknown:
        r_max = n_unknown / (n_unknown + n_known_unlabeled)
        raise ValueError(
            f"openness ratio {r} infeasible: needs {target} unknown examples but only "
            f"{n_unknown} exist; achievable range is [0, {r_max:.4f}]"
        )
    return target


def _class_count(fraction: float, size: int) -> int:
    """Examples a pool that takes ``fraction`` of each known class gets
    from a class of ``size``."""
    return int(round(fraction * size))


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
    status = np.full(len(labels), Pool.UNUSED, dtype=np.int8)
    for cls in known_classes:
        ids = rng.permutation(np.flatnonzero(labels == cls))
        n_test = _class_count(test_fraction, len(ids))
        n_lab = _class_count(init_labeled_fraction, len(ids))
        if n_test + n_lab > len(ids):
            raise ValueError("test and labeled fractions exhaust a class")
        status[ids[:n_test]] = Pool.TEST
        status[ids[n_test : n_test + n_lab]] = Pool.LABELED
        status[ids[n_test + n_lab :]] = Pool.UNLABELED
    n_known_unlabeled = np.count_nonzero(status == Pool.UNLABELED)
    unknown_ids = np.flatnonzero(~np.isin(labels, known_classes))
    target = _unknown_count(r, n_known_unlabeled, len(unknown_ids))
    status[rng.choice(unknown_ids, size=target, replace=False)] = Pool.UNLABELED
    return DatasetSplit(features, labels, tuple(sorted(known_classes)), status)


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
    means = blob_class_means(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(2)[1])
    k = spec.num_known + spec.num_unknown
    # class by class, one draw scaled and shifted in place: bitwise
    # means[c] + cluster_std * rng.normal(size=(per_class, dim)) per class
    features = rng.standard_normal((k, spec.per_class, spec.dim))
    features *= spec.cluster_std
    features += means[:, None, :]
    labels = np.repeat(np.arange(k, dtype=_label_dtype(k)), spec.per_class)
    known = tuple(range(spec.num_known))
    return _assemble_split(
        features.reshape(-1, spec.dim), labels, known, r, init_labeled_fraction, test_fraction, rng
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
    The known classes must be at least two whole numbers (not booleans or
    strings), distinct, and each present in the label file, else
    ValueError names the offending classes.
    """
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    features = images.reshape(images.shape[0], -1).astype(float)
    features /= 255.0
    labels = labels.astype(_label_dtype(256))  # uint8 class ids 0..255
    known = tuple(sorted(_id_array(list(known_classes), "known classes").tolist()))
    repeated = sorted({c for c in known if known.count(c) > 1})
    if repeated:
        raise ValueError(f"known classes repeat {repeated}")
    absent = sorted(set(known) - set(np.unique(labels).tolist()))
    if absent:
        raise ValueError(f"known classes {absent} do not occur in {labels_path}")
    if len(known) < 2:
        raise ValueError(f"need at least 2 known classes, got {list(known)}")
    rng = np.random.default_rng(seed)
    return _assemble_split(
        features, labels, known, r, init_labeled_fraction, test_fraction, rng
    )
