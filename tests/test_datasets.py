"""Dataset generation and IDX loading tests, including counting checks
and format-error paths exercised with hand-written binary files."""

import dataclasses

import numpy as np
import pytest
from helpers import write_idx_images, write_idx_labels

from openset_al.datasets import (
    BlobSpec,
    IdxFormatError,
    Pool,
    blob_class_means,
    load_idx,
    make_blobs,
)


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
        assert split.status.shape == (6 * 60,)
        assert np.count_nonzero(split.status == Pool.UNUSED) > 0
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


class TestBlobSpec:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    @pytest.mark.parametrize("field", ["radius", "cluster_std"])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            BlobSpec(**{field: value}).validate()


class TestValidate:
    @pytest.fixture
    def split(self):
        spec = BlobSpec(num_known=2, num_unknown=2, dim=4, per_class=20, seed=8)
        return make_blobs(spec, r=0.5)

    def test_status_of_wrong_length_rejected(self, split):
        for status in (split.status[:-1], np.append(split.status, np.int8(Pool.UNUSED))):
            with pytest.raises(ValueError, match="must be 80 int8 values"):
                dataclasses.replace(split, status=status).validate()

    @pytest.mark.parametrize(
        "features",
        [
            lambda f: f[:-1],
            lambda f: np.vstack([f, f[:1]]),
            lambda f: f[:, 0],
            lambda f: f[:, :, None],
        ],
        ids=["short", "long", "1-D", "3-D"],
    )
    def test_feature_store_not_one_row_per_label_rejected(self, split, features):
        """Ids index the features' rows; a store with rows missing used to
        validate, and the first pool pass then raised IndexError."""
        with pytest.raises(ValueError, match="features must be 2-D with 80 rows"):
            dataclasses.replace(split, features=features(split.features)).validate()

    def test_status_of_wrong_dtype_rejected(self, split):
        with pytest.raises(ValueError, match="int64"):
            dataclasses.replace(split, status=split.status.astype(np.int64)).validate()

    @pytest.mark.parametrize("value", [7, 5, -1])
    def test_non_pool_status_value_rejected(self, split, value):
        status = split.status.copy()
        status[3] = value
        with pytest.raises(ValueError, match=r"ids \[3\] is not a Pool value"):
            dataclasses.replace(split, status=status).validate()

    def test_unknown_class_in_labeled_pool_rejected(self, split):
        status = split.status.copy()
        status[split.true_labels >= 2] = Pool.LABELED
        with pytest.raises(ValueError, match="labeled pool contains unknown"):
            dataclasses.replace(split, status=status).validate(check_openness=False)


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
        with pytest.raises(ValueError, match=r"achievable range is \[0, 0\.0000\]"):
            load_idx(img_path, lab_path, known_classes=range(10), r=0.2)
        split = load_idx(img_path, lab_path, known_classes=range(10), r=0.0)
        assert split.unknown_unlabeled_mask().sum() == 0

    @pytest.mark.parametrize(
        "known, message",
        [
            ([0, 0], r"repeat \[0\]"),
            ([2, 1, 2, 1], r"repeat \[1, 2\]"),
            ([0, 7, 10, 12], r"\[10, 12\] do not occur"),
            ([3], "at least 2 known classes"),
            ([], "at least 2 known classes"),
        ],
    )
    def test_known_classes_are_distinct_present_and_two(self, idx_files, known, message):
        """A repeated or absent class would give the model an output no
        example trains, and one class no second to tell it from."""
        img_path, lab_path, _, _ = idx_files
        with pytest.raises(ValueError, match=message):
            load_idx(img_path, lab_path, known_classes=known, r=0.0)

    def test_label_magic_checked(self, idx_files, tmp_path):
        img_path, lab_path, _, _ = idx_files
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(img_path, img_path, known_classes=range(5), r=0.0)
