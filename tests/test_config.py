import math
import re
from pathlib import Path

import pytest

from soqal.config import (
    _KNOWN_KEYS,
    KEY_ALIASES,
    TEXT_FORMS,
    ExperimentConfig,
    apply_setting,
    canonical_lines,
    config_hash,
    load_config,
    parse_config_text,
    validate,
)
from soqal.engine import EpochRecord
from soqal.errors import ConfigError
from soqal.gate import GateStats

ROOT = Path(__file__).resolve().parent.parent


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

    def test_repeated_key_takes_its_last_value(self):
        cfg = parse_config_text("dataset.n = 500\nstrategy.S = 0.3\ndataset.n = 700\n")
        assert (cfg.dataset.n, cfg.strategy.hellinger_threshold) == (700, 0.3)

    def test_error_names_the_line_of_a_repeated_key(self):
        with pytest.raises(ConfigError, match=r"^line 3: key dataset.n: cannot parse"):
            parse_config_text("dataset.n = 500\n\ndataset.n = lots\n")

    def test_boolean_parsing(self):
        assert parse_config_text("gate.detached = true\n").network.gate_detached
        assert not parse_config_text("gate.detached = false\n").network.gate_detached
        with pytest.raises(ConfigError, match="gate.detached"):
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
            ("dataset.train_frac", "0.0"),
            ("dataset.val_frac", "-0.2"),
            ("dataset.test_frac", "0.0"),
            ("dataset.features", "0"),
            ("seeds", "3,3"),
            ("seeds", "-1"),
            ("seeds", "0,1,0"),
            ("seeds", ""),
            ("dataset.separation", "nan"),
            ("dataset.separation", "inf"),
            ("dataset.separation", "-inf"),
            ("training.learning_rate", "inf"),
            ("training.learning_rate", "nan"),
            ("network.hidden", ""),
            ("network.hidden", "0"),
            ("network.hidden", "32,0"),
            ("network.hidden", "-3"),
            ("dataset.n", "19"),
            ("dataset.classes", "1"),
            ("active_learning.init_labelled_frac", "0"),
            ("strategy.epsilon0", "1.5"),
            ("strategy.epsilon.d", "0"),
        ],
    )
    def test_out_of_range_values_rejected(self, key, value):
        cfg = apply_setting(ExperimentConfig(), key, value)
        with pytest.raises(ConfigError, match=f"invalid value for key: {re.escape(key)}$"):
            validate(cfg)

    def test_train_split_of_no_rows_rejected(self):
        # 1000 rows: 0.01, 500.0 and 499.99 round to 0, 500 and 500 rows.
        cfg = ExperimentConfig()
        for key, value in [("dataset.train_frac", "0.00001"), ("dataset.val_frac", "0.5"),
                           ("dataset.test_frac", "0.49999")]:
            cfg = apply_setting(cfg, key, value)
        with pytest.raises(ConfigError, match="invalid value for key: dataset.train_frac$"):
            validate(cfg)
        validate(apply_setting(cfg, "dataset.n", "200000"))  # 2 train rows

    def test_fractions_not_summing_to_one_rejected(self):
        cfg = apply_setting(ExperimentConfig(), "dataset.train_frac", "0.5")
        key = "dataset.train_frac/val_frac/test_frac"
        with pytest.raises(ConfigError, match=f"invalid value for key: {re.escape(key)}$"):
            validate(cfg)

    @pytest.mark.parametrize(
        "kind,classes,features,key",
        [
            ("gaussian-blobs", "3", "2", "dataset.features"),
            ("ring-vs-blob", "3", "3", "dataset.classes"),
            ("ring-vs-blob", "2", "1", "dataset.features"),
            ("noisy-sine-classes", "2", "1", "dataset.features"),
        ],
    )
    def test_synthetic_shape_rules_name_the_key(self, kind, classes, features, key):
        cfg = apply_setting(ExperimentConfig(), "dataset.kind", kind)
        cfg = apply_setting(cfg, "dataset.classes", classes)
        cfg = apply_setting(cfg, "dataset.features", features)
        with pytest.raises(ConfigError, match=f"invalid value for key: {re.escape(key)}$"):
            validate(cfg)

    def test_csv_source_skips_synthetic_shape_rules(self):
        cfg = ExperimentConfig()
        for name, value in {"dataset.source": "csv", "dataset.csv_path": "d.csv",
                            "dataset.kind": "unused", "dataset.features": "0",
                            "dataset.n": "5", "dataset.classes": "1"}.items():
            cfg = apply_setting(cfg, name, value)
        validate(cfg)

    def test_load_config_leaves_validation_to_the_caller(self, tmp_path):
        path = tmp_path / "wide.cfg"
        path.write_text("strategy.S = 1.5\n")
        cfg = load_config(str(path))
        assert cfg.strategy.hellinger_threshold == 1.5
        with pytest.raises(ConfigError, match="strategy.S"):
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

    def test_pinned_hashes(self):
        assert config_hash(ExperimentConfig()) == "7f42bb7c9bf4"
        assert config_hash(load_config(str(ROOT / "configs" / "example.cfg"))) == "18d91c15499f"

    def test_reparse_preserves_hash(self):
        cfg = apply_setting(ExperimentConfig(), "oracle.gamma", "0.8")
        again = parse_config_text("\n".join(canonical_lines(cfg)))
        assert config_hash(again) == config_hash(cfg)


class TestKeyTable:
    def test_one_key_per_config_field(self):
        leaves = set()
        for top, default in ExperimentConfig._field_defaults.items():
            if hasattr(default, "_fields"):  # a section
                leaves |= {(top, name) for name in default._fields}
            else:
                leaves.add((None, top))
        assert len(leaves) == len(_KNOWN_KEYS) == 33
        assert {(section, attr) for section, attr, _ in _KNOWN_KEYS.values()} == leaves
        assert {annotation for *_, annotation in _KNOWN_KEYS.values()} <= set(TEXT_FORMS)
        # Each alias renames an existing field, whose `section.field` is then no key.
        plain = {attr if section is None else f"{section}.{attr}" for section, attr in leaves}
        assert len(KEY_ALIASES) == 7
        assert set(KEY_ALIASES) <= plain
        assert set(KEY_ALIASES.values()) <= set(_KNOWN_KEYS)
        assert not set(KEY_ALIASES) & set(_KNOWN_KEYS)

    def test_readme_table_lists_every_key_with_its_default(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `([^`]+)` \| (?:`([^`]*)`)? *\|", readme, re.MULTILINE))
        defaults = dict(line.split(" = ", 1) for line in canonical_lines(ExperimentConfig()))
        defaults["output_dir"] = ExperimentConfig().output_dir
        assert rows == defaults
        assert set(rows) == set(_KNOWN_KEYS)


@pytest.mark.parametrize("value", [
    *ExperimentConfig()[:6],  # the six sections
    ExperimentConfig(),
    EpochRecord(1, 0.5, 0.4, 0.9, 0.2, math.nan, math.nan, 0.0, 10, 90),
    GateStats(0.1, 0.01, 0.7, 0.02, 0.8, 0.2, 0.6, True),
], ids=lambda value: type(value).__name__)
def test_config_sections_and_records_are_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.unknown = 1
