import numpy as np
import pytest

from soqal.config import ExperimentConfig, OracleSection, validate
from soqal.data import Dataset, gen_synthetic
from soqal.errors import ConfigError
from soqal.oracle import Oracle, build_neighbor_table, pca_project


def two_point_dataset():
    return Dataset(
        features=np.array([[0.0, 0.0], [1.0, 1.0]]),
        labels=np.array([0, 1]),
        n_classes=2,
    )


def neighbor_ids(table):
    """Id of the nearest different-class instance, for every id in the table."""
    return np.array([table.ids[table.neighbor_row(i)] for i in table.ids])


class TestLabel:
    def test_noise_free_is_identity(self):
        oracle = Oracle(OracleSection(), n_classes=3)
        rng = np.random.default_rng(0)
        for label in range(3):
            assert oracle.label(0, label, rng) == label

    def test_zero_gamma_never_flips(self):
        oracle = Oracle(OracleSection(kind="random-flip", gamma=0.0), n_classes=4)
        rng = np.random.default_rng(1)
        assert all(oracle.label(i, 2, rng) == 2 for i in range(1000))

    def test_gamma_one_always_flips_to_other_class(self):
        oracle = Oracle(OracleSection(kind="random-flip", gamma=1.0), n_classes=5)
        rng = np.random.default_rng(2)
        answers = {oracle.label(i, 3, rng) for i in range(2000)}
        assert 3 not in answers
        assert answers == {0, 1, 2, 4}  # every other class reachable

    def test_flip_frequency_matches_gamma(self):
        oracle = Oracle(OracleSection(kind="random-flip", gamma=0.2), n_classes=3)
        rng = np.random.default_rng(3)
        flips = sum(oracle.label(i, 1, rng) != 1 for i in range(100_000))
        assert abs(flips / 100_000 - 0.2) < 0.01

    def test_nn_flip_returns_neighbor_class(self):
        table = build_neighbor_table(two_point_dataset(), 2, np.arange(2))
        oracle = Oracle(
            OracleSection(kind="nn-flip", gamma=1.0), n_classes=2, neighbor_table=table
        )
        rng = np.random.default_rng(4)
        assert oracle.label(0, 0, rng) == 1
        assert oracle.label(1, 1, rng) == 0

    def test_nn_flip_without_table_rejected(self):
        with pytest.raises(ConfigError):
            Oracle(OracleSection(kind="nn-flip", gamma=0.5), n_classes=2)

    def test_bad_config_values_rejected(self):
        with pytest.raises(ConfigError):
            validate(ExperimentConfig(oracle=OracleSection(kind="telepathy")))
        with pytest.raises(ConfigError):
            validate(ExperimentConfig(oracle=OracleSection(gamma=1.5)))
        with pytest.raises(ConfigError):
            validate(ExperimentConfig(oracle=OracleSection(embed_dims=0)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown oracle kind"):
            Oracle(OracleSection(kind="telepathy", gamma=1.0), n_classes=2)


def brute_force_neighbors(projected, labels):
    out = []
    for i in range(len(labels)):
        best, best_dist = None, np.inf
        for j in range(len(labels)):
            if labels[j] == labels[i]:
                continue
            dist = float(np.sum((projected[i] - projected[j]) ** 2))
            if dist < best_dist:
                best, best_dist = j, dist
        out.append(best)
    return np.asarray(out)


class TestNeighborTable:
    def test_two_points_are_mutual_neighbors(self):
        table = build_neighbor_table(two_point_dataset(), 2, np.arange(2))
        np.testing.assert_array_equal(neighbor_ids(table), [1, 0])
        labels = [table.labels[table.neighbor_row(i)] for i in (0, 1)]
        np.testing.assert_array_equal(labels, [1, 0])

    def test_full_rank_projection_matches_raw_space_search(self):
        data = gen_synthetic("gaussian-blobs", 60, 2, 3, class_separation=1.0, seed=5)
        table = build_neighbor_table(data, 3, np.arange(data.n_instances))
        raw = brute_force_neighbors(data.features - data.features.mean(axis=0), data.labels)
        np.testing.assert_array_equal(neighbor_ids(table), raw)

    def test_matches_brute_force_in_projected_space(self):
        data = gen_synthetic("gaussian-blobs", 40, 2, 5, class_separation=1.5, seed=6)
        table = build_neighbor_table(data, 2, np.arange(data.n_instances))
        projected = pca_project(data.features, 2)
        np.testing.assert_array_equal(
            neighbor_ids(table), brute_force_neighbors(projected, data.labels)
        )

    def test_neighbor_class_always_differs(self):
        data = gen_synthetic("gaussian-blobs", 90, 3, 4, class_separation=0.5, seed=7)
        table = build_neighbor_table(data, 2, np.arange(data.n_instances))
        for instance_id in table.ids:
            row = table.neighbor_row(instance_id)
            assert table.ids[row] != instance_id
            assert table.labels[row] != data.labels[instance_id]

    def test_deterministic_given_inputs(self):
        data = gen_synthetic("gaussian-blobs", 50, 2, 4, class_separation=1.0, seed=8)
        a = build_neighbor_table(data, 2, np.arange(data.n_instances))
        b = build_neighbor_table(data, 2, np.arange(data.n_instances))
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(neighbor_ids(a), neighbor_ids(b))

    def test_custom_instance_ids_are_preserved(self):
        features = np.random.default_rng(12).standard_normal((25, 2))
        features[[10, 20]] = two_point_dataset().features
        labels = np.arange(25) % 2
        labels[[10, 20]] = [0, 1]
        data = Dataset(features=features, labels=labels, n_classes=2)
        table = build_neighbor_table(data, 2, np.array([10, 20]))
        assert table.ids[table.neighbor_row(10)] == 20
        assert table.ids[table.neighbor_row(20)] == 10
        assert table.labels[table.neighbor_row(10)] == 1
        assert table.labels[table.neighbor_row(20)] == 0
        for missing in (0, 30):  # a dataset row outside the table, and no row at all
            with pytest.raises(ConfigError):
                table.neighbor_row(missing)

    def test_single_class_rejected(self):
        data = Dataset(
            features=np.random.default_rng(9).standard_normal((6, 2)),
            labels=np.zeros(6, dtype=int),
            n_classes=1,
        )
        with pytest.raises(ConfigError):
            build_neighbor_table(data, 2, np.arange(data.n_instances))


class TestPcaProject:
    def test_projection_is_centered(self):
        rng = np.random.default_rng(10)
        projected = pca_project(rng.standard_normal((100, 5)), 2)
        np.testing.assert_allclose(projected.mean(axis=0), 0.0, atol=1e-9)

    def test_full_rank_preserves_pairwise_distances(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((30, 4))
        projected = pca_project(x, 4)
        for i in range(0, 30, 5):
            for j in range(0, 30, 7):
                raw = np.linalg.norm(x[i] - x[j])
                proj = np.linalg.norm(projected[i] - projected[j])
                assert proj == pytest.approx(raw, rel=1e-9)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            pca_project(np.zeros((5, 3)), 4)
