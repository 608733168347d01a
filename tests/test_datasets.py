"""Dataset generation and IDX loading tests, including counting checks
and format-error paths exercised with hand-written binary files."""

import dataclasses

import numpy as np
import pytest
from helpers import traced_peak, write_idx_images, write_idx_labels
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_al.datasets import (
    BlobSpec,
    DatasetSplit,
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

    @settings(max_examples=60, deadline=None)
    @given(
        num_known=st.integers(2, 5),
        num_unknown=st.integers(0, 5),
        per_class=st.integers(1, 40),
        labeled=st.floats(0.0, 0.4),
        test=st.floats(0.0, 0.4),
        share=st.floats(0.0, 1.0),
    )
    def test_unknown_share_within_one_example_of_r(
        self, num_known, num_unknown, per_class, labeled, test, share
    ):
        """The unlabeled pool's unknown count lies within one example of r
        times its size, for any feasible r: the guarantee a split carries
        from here on, which nothing downstream re-checks."""
        kept = per_class - round(labeled * per_class) - round(test * per_class)
        n_known = num_known * kept
        n_unknown = num_unknown * per_class
        r = share * n_unknown / (n_unknown + n_known) if n_unknown + n_known else 0.0
        r = min(r, 0.99)  # all-unknown pools: r = 1 lies outside [0, 1)
        spec = BlobSpec(
            num_known=num_known, num_unknown=num_unknown, dim=3, per_class=per_class, seed=9
        )
        split = make_blobs(spec, r, init_labeled_fraction=labeled, test_fraction=test)
        unknown = int(split.unknown_unlabeled_mask().sum())
        assert len(split.unlabeled_ids) - unknown == n_known
        assert abs(unknown - r * len(split.unlabeled_ids)) <= 1.0

    def test_spec_checked_once(self, monkeypatch):
        calls = []
        real = BlobSpec.validate

        def counted(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(BlobSpec, "validate", counted)
        make_blobs(BlobSpec(num_known=2, num_unknown=2, dim=4, per_class=20), r=0.5)
        assert len(calls) == 1

    def test_split_not_revalidated(self, monkeypatch):
        """An assembled split holds ``DatasetSplit.validate``'s checks by
        construction; a run checks it once, where it starts."""

        def refuse(split):
            raise AssertionError("the split was validated")

        monkeypatch.setattr(DatasetSplit, "validate", refuse)
        make_blobs(BlobSpec(num_known=2, num_unknown=2, dim=4, per_class=20), r=0.5)

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


def list_and_concatenate_features(spec):
    """The blob features as one array per class, then concatenated."""
    means = blob_class_means(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(2)[1])
    return np.concatenate(
        [
            means[c] + spec.cluster_std * rng.normal(size=(spec.per_class, spec.dim))
            for c in range(spec.num_known + spec.num_unknown)
        ]
    )


class TestBlobStorage:
    """Each split stores its examples once: features drawn in place, and
    labels in the smallest signed dtype that holds every class id."""

    @pytest.mark.parametrize(
        "spec",
        [
            BlobSpec(num_known=4, num_unknown=4, dim=16, per_class=50, cluster_std=1.7, seed=3),
            BlobSpec(
                num_known=10, num_unknown=10, dim=32, per_class=40, radius=4.0,
                cluster_std=0.6, seed=5,
            ),
        ],
        ids=["8-classes-dim16", "20-classes-dim32"],
    )
    def test_features_and_labels_match_the_per_class_formula(self, spec):
        split = make_blobs(spec, r=0.5)
        assert split.features.tobytes() == list_and_concatenate_features(spec).tobytes()
        k = spec.num_known + spec.num_unknown
        np.testing.assert_array_equal(split.true_labels, np.repeat(np.arange(k), spec.per_class))
        assert split.true_labels.dtype == np.int8

    def test_labels_of_130_classes_are_int16(self):
        spec = BlobSpec(num_known=65, num_unknown=65, dim=8, per_class=20, seed=1)
        split = make_blobs(spec, r=0.5)
        assert split.true_labels.dtype == np.int16
        np.testing.assert_array_equal(split.true_labels, np.repeat(np.arange(130), 20))

    def test_traced_peak_is_about_one_feature_store(self):
        """The per-class list beside its concatenation held 2x the bytes."""
        spec = BlobSpec(num_known=10, num_unknown=10, dim=32, per_class=1000, seed=2)
        nbytes = 20 * 1000 * 32 * 8
        assert make_blobs(spec, r=0.5).features.nbytes == nbytes
        assert traced_peak(make_blobs, spec, 0.5) <= 1.25 * nbytes


class TestBlobSpec:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    @pytest.mark.parametrize("field", ["radius", "cluster_std"])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            BlobSpec(**{field: value}).validate()

    def test_one_dimension_holds_two_classes(self):
        """The sphere in one dimension is two points: a third class would
        be drawn from the same mean as one of the first two."""
        means = blob_class_means(BlobSpec(num_known=2, num_unknown=0, dim=1))
        assert sorted(means[:, 0]) == [-6.0, 6.0]
        with pytest.raises(ValueError, match="dim 1 holds 2 distinct class means, not the 3"):
            BlobSpec(num_known=2, num_unknown=1, dim=1).validate()


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
            dataclasses.replace(split, status=status).validate()


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

    @pytest.mark.parametrize(
        "known, message",
        [
            ([1.7, 2], r"whole numbers: \[1\.7\]"),
            ([0.5, 1.5], r"whole numbers: \[0\.5, 1\.5\]"),
            (["1", "2"], r"integers, not <U1: \['1', '2'\]"),
            ([True, 2], r"integers, not bool: \[True\]"),
        ],
        ids=["fractional", "halves", "strings", "boolean"],
    )
    def test_non_whole_known_class_rejected(self, idx_files, known, message):
        """[1.7, 2] and [True, 2] used to load as classes (1, 2), and
        [0.5, 1.5] as (0, 1)."""
        img_path, lab_path, _, _ = idx_files
        with pytest.raises(ValueError, match="known classes must be " + message):
            load_idx(img_path, lab_path, known_classes=known, r=0.0)

    def test_pixels_scaled_in_one_float_array(self, tmp_path):
        """2,000 28x28 images: the features are bitwise the cast divided by
        255, and the cast is divided in place, so the peak holds one float
        array without resting on numpy eliding a temporary quotient.  The
        labels are int16."""
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        labels = np.repeat(np.arange(10), 200)
        write_idx_images(tmp_path / "images.idx", images)
        write_idx_labels(tmp_path / "labels.idx", labels)
        args = (tmp_path / "images.idx", tmp_path / "labels.idx", range(5), 0.0)
        split = load_idx(*args)
        expected = images.reshape(2000, -1).astype(float) / 255.0
        assert split.features.tobytes() == expected.tobytes()
        assert split.true_labels.dtype == np.int16
        np.testing.assert_array_equal(split.true_labels, labels)
        assert traced_peak(load_idx, *args) <= 1.5 * expected.nbytes

    def test_label_magic_checked(self, idx_files, tmp_path):
        img_path, lab_path, _, _ = idx_files
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(img_path, img_path, known_classes=range(5), r=0.0)
