"""Dataset generation and IDX loading tests, including counting checks
and format-error paths exercised with hand-written binary files."""

import struct

import numpy as np
import pytest

from openset_al.datasets import (
    BlobSpec,
    IdxFormatError,
    blob_class_means,
    load_idx,
    make_blobs,
)


def write_idx_images(path, images):
    """Independent minimal IDX writer used as the round-trip oracle."""
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


class TestMakeBlobs:
    def test_zero_openness_has_no_unknowns(self):
        spec = BlobSpec(num_known=3, num_unknown=2, dim=4, per_class=30, seed=0)
        split = make_blobs(spec, r=0.0)
        assert split.unknown_unlabeled_mask().sum() == 0

    def test_counting_check_half_openness(self):
        """4+4 classes at 250/class with no labeled or test split: the
        unlabeled pool holds 1000 known and 1000 unknown examples."""
        spec = BlobSpec(num_known=4, num_unknown=4, dim=16, per_class=250, seed=1)
        split = make_blobs(spec, r=0.5, init_labeled_fraction=0.0, test_fraction=0.0)
        unknown = split.unknown_unlabeled_mask()
        assert (~unknown).sum() == 1000
        assert abs(int(unknown.sum()) - 1000) <= 1

    def test_deterministic(self):
        spec = BlobSpec(num_known=2, num_unknown=2, dim=8, per_class=40, seed=7)
        s1 = make_blobs(spec, r=0.4)
        s2 = make_blobs(spec, r=0.4)
        assert s1.features.tobytes() == s2.features.tobytes()
        np.testing.assert_array_equal(s1.labeled_ids, s2.labeled_ids)
        np.testing.assert_array_equal(s1.unlabeled_ids, s2.unlabeled_ids)

    def test_infeasible_openness_names_achievable_range(self):
        spec = BlobSpec(num_known=4, num_unknown=1, dim=4, per_class=50, seed=2)
        with pytest.raises(ValueError, match="achievable range"):
            make_blobs(spec, r=0.8, init_labeled_fraction=0.0, test_fraction=0.0)

    def test_split_invariants(self):
        spec = BlobSpec(num_known=3, num_unknown=3, dim=8, per_class=60, seed=3)
        split = make_blobs(spec, r=0.3)
        split.validate()
        assert split.total_examples() <= 6 * 60
        labeled_labels = split.true_labels[split.labeled_ids]
        assert np.all(split.is_known(labeled_labels))

    def test_class_means_close_to_spec(self):
        """Empirical per-class means within 3 std / sqrt(n) of the target
        means in Euclidean norm (scaled by sqrt(dim))."""
        spec = BlobSpec(num_known=3, num_unknown=2, dim=6, per_class=200, seed=4)
        means = blob_class_means(spec)
        split = make_blobs(spec, r=0.0, init_labeled_fraction=0.0, test_fraction=0.0)
        for cls in range(3):
            emp = split.features[split.true_labels == cls].mean(axis=0)
            tol = 3 * spec.cluster_std / np.sqrt(spec.per_class) * np.sqrt(spec.dim)
            assert np.linalg.norm(emp - means[cls]) < tol

    def test_means_live_on_the_sphere(self):
        spec = BlobSpec(num_known=4, num_unknown=4, dim=16, radius=6.0, seed=5)
        means = blob_class_means(spec)
        np.testing.assert_allclose(np.linalg.norm(means, axis=1), 6.0, atol=1e-9)
        # pairwise separation should be a reasonable fraction of the diameter
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 0.5 * spec.radius

    def test_feature_values_finite(self):
        split = make_blobs(BlobSpec(seed=6), r=0.2)
        assert np.all(np.isfinite(split.features))


class TestLoadIdx:
    @pytest.fixture
    def idx_files(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(200, 4, 4), dtype=np.uint8)
        labels = np.repeat(np.arange(10), 20).astype(np.uint8)
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, labels)
        return img_path, lab_path, images, labels

    def test_roundtrip_and_scaling(self, idx_files):
        img_path, lab_path, images, labels = idx_files
        split = load_idx(
            img_path, lab_path, known_classes=range(5), r=0.4, seed=0,
            init_labeled_fraction=0.1, test_fraction=0.2,
        )
        assert split.features.shape == (200, 16)
        assert split.features.min() >= 0.0 and split.features.max() <= 1.0
        i = int(split.labeled_ids[0])
        np.testing.assert_allclose(
            split.features[i], images[i].reshape(-1) / 255.0, atol=1e-12
        )

    def test_openness_fraction(self, idx_files):
        img_path, lab_path, _, _ = idx_files
        split = load_idx(
            img_path, lab_path, known_classes=range(5), r=0.4, seed=0,
            init_labeled_fraction=0.0, test_fraction=0.0,
        )
        unknown = split.unknown_unlabeled_mask()
        n = len(split.unlabeled_ids)
        assert abs(unknown.sum() - 0.4 * n) <= 1.0 + 1e-9

    def test_bad_magic_names_offset(self, idx_files, tmp_path):
        img_path, lab_path, _, _ = idx_files
        bad = tmp_path / "bad.idx"
        data = bytearray(img_path.read_bytes())
        data[3] = 0x42
        bad.write_bytes(bytes(data))
        with pytest.raises(IdxFormatError, match="offset 0"):
            load_idx(bad, lab_path, known_classes=range(5), r=0.0)

    def test_truncated_file(self, idx_files, tmp_path):
        img_path, lab_path, _, _ = idx_files
        trunc = tmp_path / "trunc.idx"
        trunc.write_bytes(img_path.read_bytes()[:-7])
        with pytest.raises(IdxFormatError, match="data bytes"):
            load_idx(trunc, lab_path, known_classes=range(5), r=0.0)

    def test_count_mismatch(self, idx_files, tmp_path):
        img_path, _, _, _ = idx_files
        short = tmp_path / "short_labels.idx"
        write_idx_labels(short, np.zeros(150, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx(img_path, short, known_classes=range(5), r=0.0)

    def test_all_known_requires_zero_openness(self, idx_files):
        img_path, lab_path, _, _ = idx_files
        with pytest.raises(ValueError, match="must be 0"):
            load_idx(img_path, lab_path, known_classes=range(10), r=0.2)
        split = load_idx(img_path, lab_path, known_classes=range(10), r=0.0)
        assert split.unknown_unlabeled_mask().sum() == 0

    def test_label_magic_checked(self, idx_files, tmp_path):
        img_path, lab_path, _, _ = idx_files
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(img_path, img_path, known_classes=range(5), r=0.0)
