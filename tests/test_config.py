import pytest

from soqal.config import (
    ExperimentConfig,
    apply_setting,
    canonical_lines,
    config_hash,
    parse_config_text,
    validate,
)
from soqal.errors import ConfigError


class TestDefaults:
    def test_headline_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.active_learning.mc_passes == 20
        assert cfg.active_learning.period == 5
        assert cfg.active_learning.b_frac == 0.02
        assert cfg.active_learning.init_labelled_frac == 0.1
        assert cfg.strategy.hellinger_threshold == 0.15
        assert cfg.seeds == (0, 1, 2, 3, 4)
        assert cfg.network.hidden == (32, 32)
        assert cfg.network.dropout == 0.3
        assert cfg.training.epochs == 50
        validate(cfg)

    def test_absent_keys_keep_defaults(self):
        cfg = parse_config_text("strategy.name = no-oracle\n")
        assert cfg.strategy.hellinger_threshold == 0.15
        assert cfg.active_learning.mc_passes == 20


class TestParsing:
    def test_full_document(self):
        text = """
        # comment line
        dataset.kind = gaussian-blobs
        dataset.n = 500
        network.hidden = 16,8
        training.epochs = 12
        active_learning.T = 10
        strategy.S = 0.3
        strategy.epsilon.d = 0.8
        oracle.gamma = 0.4
        seeds = 7,8,9
        """
        cfg = parse_config_text(text)
        assert cfg.dataset.n == 500
        assert cfg.network.hidden == (16, 8)
        assert cfg.training.epochs == 12
        assert cfg.active_learning.mc_passes == 10
        assert cfg.strategy.hellinger_threshold == 0.3
        assert cfg.strategy.epsilon_decay == 0.8
        assert cfg.oracle.gamma == 0.4
        assert cfg.seeds == (7, 8, 9)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="unknown key: stratgy"):
            parse_config_text("stratgy = soqal\n")

    def test_unparseable_value_named(self):
        with pytest.raises(ConfigError, match="dataset.n"):
            parse_config_text("dataset.n = lots\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("dataset.kind gaussian-blobs\n")

    def test_boolean_parsing(self):
        assert parse_config_text("gate.detached = true\n").network.gate_detached
        assert not parse_config_text("gate.detached = false\n").network.gate_detached
        with pytest.raises(ConfigError):
            parse_config_text("gate.detached = maybe\n")

    def test_serialize_round_trip(self):
        cfg = apply_setting(ExperimentConfig(), "strategy.S", "0.35")
        cfg = apply_setting(cfg, "oracle.kind", "random-flip")
        again = parse_config_text("\n".join(canonical_lines(cfg)))
        assert again == cfg


class TestValidate:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("network.dropout", "1.0"),
            ("strategy.S", "1.5"),
            ("oracle.gamma", "-0.1"),
            ("active_learning.b", "2.0"),
            ("active_learning.T", "0"),
            ("training.epochs", "0"),
            ("strategy.name", "psychic"),
            ("active_learning.acquisition", "vibes"),
            ("gate.chernoff_mode", "quickest"),
            ("dataset.kind", "mystery"),
            ("oracle.kind", "telepathy"),
            ("oracle.gamma", "1.5"),
            ("oracle.embed_dims", "0"),
        ],
    )
    def test_out_of_range_values_rejected(self, key, value):
        cfg = apply_setting(ExperimentConfig(), key, value)
        with pytest.raises(ConfigError, match="invalid value"):
            validate(cfg)


class TestHash:
    def test_stable_across_output_dir(self):
        cfg = ExperimentConfig()
        moved = apply_setting(cfg, "output_dir", "elsewhere")
        assert config_hash(cfg) == config_hash(moved)

    def test_sensitive_to_experiment_keys(self):
        cfg = ExperimentConfig()
        assert config_hash(cfg) != config_hash(apply_setting(cfg, "strategy.S", "0.2"))
        assert config_hash(cfg) != config_hash(apply_setting(cfg, "seeds", "1,2"))

    def test_reparse_preserves_hash(self):
        cfg = apply_setting(ExperimentConfig(), "oracle.gamma", "0.8")
        again = parse_config_text("\n".join(canonical_lines(cfg)))
        assert config_hash(again) == config_hash(cfg)
