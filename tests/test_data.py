import numpy as np
import pytest

from soqal.data import (
    Dataset,
    gen_synthetic,
    load_csv,
    split,
    standardize,
)
from soqal.errors import ConfigError
from soqal.metrics import auc_ovr
from soqal.network import Network, train_epoch


class TestGenSynthetic:
    def test_blob_sizes_and_balance(self):
        data = gen_synthetic("gaussian-blobs", 101, 3, 3, 2.0, seed=0)
        assert len(data.labels) == 101
        counts = np.bincount(data.labels)
        assert counts.max() - counts.min() <= 1

    def test_same_seed_identical_bytes(self):
        a = gen_synthetic("gaussian-blobs", 50, 2, 2, 2.0, seed=1)
        b = gen_synthetic("gaussian-blobs", 50, 2, 2, 2.0, seed=1)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_zero_separation_classes_indistinguishable(self):
        data = gen_synthetic("gaussian-blobs", 4000, 2, 2, 0.0, seed=2)
        gap = data.features[data.labels == 0].mean(axis=0) - data.features[
            data.labels == 1
        ].mean(axis=0)
        # Class-conditional distributions coincide, so no classifier can
        # beat AUC 0.5 in expectation.
        assert np.linalg.norm(gap) < 0.1

    def test_wide_separation_trains_to_high_auc(self):
        data = gen_synthetic("gaussian-blobs", 300, 2, 2, 10.0, seed=3)
        features = standardize(data.features, np.arange(200))
        net = Network.initialize(2, 2, [16], dropout_rate=0.1, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(60):
            train_epoch(net, features[:200], data.labels[:200], 1e-2, 32, rng)
        probs, _, _ = net.forward_batch(features[200:])
        assert auc_ovr(probs, data.labels[200:]) >= 0.99

    def test_ring_vs_blob_shape(self):
        data = gen_synthetic("ring-vs-blob", 200, 2, 2, 4.0, seed=4)
        radii = np.linalg.norm(data.features, axis=1)
        assert radii[data.labels == 1].mean() > radii[data.labels == 0].mean() + 2.0

    def test_sine_classes_separate_vertically(self):
        data = gen_synthetic("noisy-sine-classes", 300, 3, 2, 3.0, seed=5)
        means = [data.features[data.labels == c, 1].mean() for c in range(3)]
        assert means[0] < means[1] < means[2]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            gen_synthetic("mystery", 100, 2, 2, 1.0, seed=0)


class TestLoadCsv:
    def test_label_mapping_first_appearance(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("x1,x2,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        data = load_csv(str(path))
        assert data.n_classes == 2
        np.testing.assert_array_equal(data.labels, [0, 1, 0])
        np.testing.assert_allclose(data.features, [[1, 2], [3, 4], [5, 6]])

    def test_nan_cell_error_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n1.0,2.0,a\n3.0,nan,b\n")
        with pytest.raises(ConfigError, match=r"row 2.*'x2'"):
            load_csv(str(path))

    def test_non_numeric_cell_error_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\noops,2.0,a\n3.0,4.0,b\n")
        with pytest.raises(ConfigError, match=r"row 1.*'x1'"):
            load_csv(str(path))

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("x1,x2\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="label"):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_csv(str(path))

    def test_label_only_file_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\na\nb\n")
        with pytest.raises(ConfigError) as exc:
            load_csv(str(path))
        assert str(exc.value) == f"{path}: no feature column besides 'label'"

    def test_one_class_file_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x1,label\n1.0,a\n2.0,a\n")
        with pytest.raises(ConfigError) as exc:
            load_csv(str(path))
        assert str(exc.value) == f"{path}: every row has label 'a'; need 2 classes or more"

    @pytest.mark.parametrize(
        "text",
        ["", "x1,x2\n1.0,2.0\n", "x1,label\n", "x1,label\n1.0\n", "x1,label\nnan,a\n"],
        ids=["empty", "no-label-column", "no-rows", "short-row", "nan-cell"],
    )
    def test_every_error_starts_with_the_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_csv(str(path))
        assert str(exc.value).startswith(f"{path}: ")

    def test_byte_order_mark_loads_as_the_plain_file(self, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start with a BOM, which must not
        become part of the first column's name."""
        rng = np.random.default_rng(3)
        rows = [f"{i % 2},{rng.normal()!r},{rng.normal()!r}" for i in range(60)]
        text = "label,x1,x2\n" + "\n".join(rows) + "\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(text.encode("utf-8-sig"))
        assert bom.read_bytes().startswith(b"\xef\xbb\xbflabel,")
        expected, loaded = load_csv(str(plain)), load_csv(str(bom))
        np.testing.assert_array_equal(loaded.features, expected.features)
        np.testing.assert_array_equal(loaded.labels, expected.labels)
        assert loaded.n_classes == expected.n_classes == 2

    def test_round_trip(self, tmp_path):
        original = gen_synthetic("gaussian-blobs", 40, 2, 3, 2.0, seed=6)
        path = tmp_path / "round.csv"
        header = [f"x{i}" for i in range(original.n_features)] + ["label"]
        lines = [",".join(header)] + [
            ",".join([repr(float(v)) for v in row] + [str(int(label))])
            for row, label in zip(original.features, original.labels)
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = load_csv(str(path))
        np.testing.assert_array_equal(loaded.features, original.features)
        np.testing.assert_array_equal(loaded.labels, original.labels)
        assert loaded.n_classes == original.n_classes


class TestSplit:
    def test_exact_sizes(self):
        data = gen_synthetic("gaussian-blobs", 100, 2, 2, 2.0, seed=7)
        parts = split(data, (0.6, 0.2, 0.2), seed=0)
        assert (len(parts.train), len(parts.val), len(parts.test)) == (60, 20, 20)

    def test_disjoint_cover(self):
        data = gen_synthetic("gaussian-blobs", 157, 3, 3, 2.0, seed=8)
        parts = split(data, (0.5, 0.25, 0.25), seed=1)
        merged = np.concatenate([parts.train, parts.val, parts.test])
        assert len(merged) == 157
        assert len(np.unique(merged)) == 157
        assert set(parts.init_labelled) <= set(parts.train)

    def test_stratified_within_one_instance(self):
        data = gen_synthetic("gaussian-blobs", 120, 3, 3, 2.0, seed=9)
        parts = split(data, (0.6, 0.2, 0.2), seed=2)
        assert parts.stratified
        for subset, frac in ((parts.train, 0.6), (parts.val, 0.2), (parts.test, 0.2)):
            for c in range(3):
                ideal = frac * int((data.labels == c).sum())
                actual = int((data.labels[subset] == c).sum())
                assert abs(actual - ideal) <= 1.0

    def test_two_seeds_differ_same_sizes(self):
        data = gen_synthetic("gaussian-blobs", 90, 2, 2, 2.0, seed=10)
        a = split(data, (0.6, 0.2, 0.2), seed=3)
        b = split(data, (0.6, 0.2, 0.2), seed=4)
        assert len(a.train) == len(b.train)
        assert not np.array_equal(a.train, b.train)

    def test_tiny_class_falls_back_unstratified(self):
        features = np.random.default_rng(11).standard_normal((30, 2))
        labels = np.zeros(30, dtype=int)
        labels[0] = 1  # one instance cannot stratify over three splits
        data = Dataset(features=features, labels=labels, n_classes=2)
        parts = split(data, (0.6, 0.2, 0.2), seed=5)
        assert not parts.stratified

    def test_init_labelled_fraction(self):
        data = gen_synthetic("gaussian-blobs", 200, 2, 2, 2.0, seed=12)
        parts = split(data, (0.6, 0.2, 0.2), seed=6, init_labelled_frac=0.1)
        assert len(parts.init_labelled) == 12  # 0.1 of 120

    def test_init_labelled_count_does_not_round_up_on_float_noise(self):
        # 0.55 * 180 is a hair above 99, so its ceiling would seed 100.
        data = gen_synthetic("gaussian-blobs", 300, 2, 2, 2.0, seed=12)
        parts = split(data, (0.6, 0.2, 0.2), seed=6, init_labelled_frac=0.55)
        assert len(parts.train) == 180
        assert len(parts.init_labelled) == 99


class TestStandardize:
    def test_train_statistics_only(self):
        rng = np.random.default_rng(14)
        features = rng.normal(5.0, 3.0, size=(100, 4))
        train_idx = np.arange(60)
        scaled = standardize(features, train_idx)
        np.testing.assert_allclose(scaled[train_idx].mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled[train_idx].std(axis=0), 1.0, atol=1e-9)
        # Held-out rows use the train statistics, not their own.
        mean = features[train_idx].mean(axis=0)
        std = features[train_idx].std(axis=0)
        np.testing.assert_allclose(scaled[60:], (features[60:] - mean) / std)

    def test_constant_feature_survives(self):
        features = np.ones((10, 2))
        features[:, 1] = np.arange(10)
        scaled = standardize(features, np.arange(10))
        assert np.all(np.isfinite(scaled))
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    @pytest.mark.parametrize("scale", [1e200, 1e308], ids=["std-overflows", "mean-overflows"])
    def test_feature_too_large_to_standardize_rejected_by_index(self, scale):
        features = np.random.default_rng(15).uniform(0.5, 1.0, size=(20, 3))
        features[:, 1] *= scale
        with pytest.raises(ConfigError, match="^feature 1 is too large to standardize"):
            standardize(features, np.arange(12))
