"""Experiment configuration: flat ``key = value`` text with dotted keys.

The format is intentionally tiny and diff-friendly: one assignment per
line, ``#`` comments, no sections.  Every key has a default; unknown keys
are rejected by name.  A canonical serialization (sorted keys, output
directory excluded) feeds both provenance comments and the config hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from .errors import ConfigError

SWEEPABLE = {
    "S": "strategy.S",
    "gamma": "oracle.gamma",
    "init_labelled_frac": "active_learning.init_labelled_frac",
    "S_entropy": "strategy.S_entropy",
    "epsilon.d": "strategy.epsilon.d",
}

ACQUISITION_NAMES = ("bald-mcd", "entropy", "random")


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"  # synthetic | csv
    kind: str = "gaussian-blobs"
    n: int = 1000
    classes: int = 2
    features: int = 2
    separation: float = 2.0
    csv_path: str = ""
    label_column: str = "label"
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2


@dataclass(frozen=True)
class NetworkConfig:
    hidden: tuple[int, ...] = (32, 32)
    dropout: float = 0.3
    gate_detached: bool = False


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 50
    learning_rate: float = 1e-2
    batch_size: int = 32


@dataclass(frozen=True)
class ActiveLearningConfig:
    mc_passes: int = 20  # T
    period: int = 5  # acquire when epoch is a multiple of this
    b_frac: float = 0.02  # fraction of the remaining unlabelled pool; 0 disables
    init_labelled_frac: float = 0.1
    acquisition: str = "bald-mcd"


@dataclass(frozen=True)
class StrategyConfig:
    name: str = "soqal"
    hellinger_threshold: float = 0.15  # S
    entropy_threshold: float = 0.5  # S_entropy
    epsilon0: float = 1.0
    epsilon_decay: float = 0.9


@dataclass(frozen=True)
class OracleSection:
    kind: str = "noise-free"
    gamma: float = 0.0
    embed_dims: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DataConfig = field(default_factory=DataConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    active_learning: ActiveLearningConfig = field(default_factory=ActiveLearningConfig)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    oracle: OracleSection = field(default_factory=OracleSection)
    chernoff_mode: str = "full-bound"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "results"


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


# key -> (section, attribute, parser): each parser maps the raw string to
# the field's value.  Kept explicit so "unknown key" errors can name the key.
_KNOWN_KEYS: dict[str, tuple] = {
    "dataset.source": ("dataset", "source", str),
    "dataset.kind": ("dataset", "kind", str),
    "dataset.n": ("dataset", "n", int),
    "dataset.classes": ("dataset", "classes", int),
    "dataset.features": ("dataset", "features", int),
    "dataset.separation": ("dataset", "separation", float),
    "dataset.csv_path": ("dataset", "csv_path", str),
    "dataset.label_column": ("dataset", "label_column", str),
    "dataset.train_frac": ("dataset", "train_frac", float),
    "dataset.val_frac": ("dataset", "val_frac", float),
    "dataset.test_frac": ("dataset", "test_frac", float),
    "network.hidden": ("network", "hidden", _parse_int_list),
    "network.dropout": ("network", "dropout", float),
    "gate.detached": ("network", "gate_detached", "bool"),
    "training.epochs": ("training", "epochs", int),
    "training.learning_rate": ("training", "learning_rate", float),
    "training.batch_size": ("training", "batch_size", int),
    "active_learning.T": ("active_learning", "mc_passes", int),
    "active_learning.period": ("active_learning", "period", int),
    "active_learning.b": ("active_learning", "b_frac", float),
    "active_learning.init_labelled_frac": (
        "active_learning",
        "init_labelled_frac",
        float,
    ),
    "active_learning.acquisition": ("active_learning", "acquisition", str),
    "strategy.name": ("strategy", "name", str),
    "strategy.S": ("strategy", "hellinger_threshold", float),
    "strategy.S_entropy": ("strategy", "entropy_threshold", float),
    "strategy.epsilon0": ("strategy", "epsilon0", float),
    "strategy.epsilon.d": ("strategy", "epsilon_decay", float),
    "oracle.kind": ("oracle", "kind", str),
    "oracle.gamma": ("oracle", "gamma", float),
    "oracle.embed_dims": ("oracle", "embed_dims", int),
    "gate.chernoff_mode": (None, "chernoff_mode", str),
    "seeds": (None, "seeds", _parse_int_list),
    "output_dir": (None, "output_dir", str),
}


def apply_setting(config: ExperimentConfig, key: str, raw: str) -> ExperimentConfig:
    """Return a new config with one dotted key set from its string form."""
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"unknown key: {key}")
    section, attr, parser = _KNOWN_KEYS[key]
    try:
        value = _parse_bool(raw, key) if parser == "bool" else parser(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError):
        raise ConfigError(f"key {key}: cannot parse value {raw!r}") from None
    if section is None:
        return replace(config, **{attr: value})
    return replace(config, **{section: replace(getattr(config, section), **{attr: value})})


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    config = base or ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        config = apply_setting(config, key.strip(), raw.strip())
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        config = parse_config_text(fh.read())
    validate(config)
    return config


def validate(config: ExperimentConfig) -> None:
    """Reject out-of-range values with the offending key in the message."""
    checks = [
        (config.dataset.source in ("synthetic", "csv"), "dataset.source"),
        (config.dataset.n >= 10 * config.dataset.classes, "dataset.n"),
        (config.dataset.classes >= 2, "dataset.classes"),
        (0.0 <= config.network.dropout < 1.0, "network.dropout"),
        (len(config.network.hidden) >= 1, "network.hidden"),
        (config.training.epochs >= 1, "training.epochs"),
        (config.training.batch_size >= 1, "training.batch_size"),
        (config.training.learning_rate >= 0.0, "training.learning_rate"),
        (config.active_learning.mc_passes >= 1, "active_learning.T"),
        (config.active_learning.period >= 1, "active_learning.period"),
        (0.0 <= config.active_learning.b_frac <= 1.0, "active_learning.b"),
        (
            0.0 < config.active_learning.init_labelled_frac <= 1.0,
            "active_learning.init_labelled_frac",
        ),
        (
            config.active_learning.acquisition in ACQUISITION_NAMES,
            "active_learning.acquisition",
        ),
        (0.0 <= config.strategy.hellinger_threshold <= 1.0, "strategy.S"),
        (0.0 <= config.strategy.entropy_threshold <= 1.0, "strategy.S_entropy"),
        (0.0 <= config.strategy.epsilon0 <= 1.0, "strategy.epsilon0"),
        (0.0 < config.strategy.epsilon_decay <= 1.0, "strategy.epsilon.d"),
        (0.0 <= config.oracle.gamma <= 1.0, "oracle.gamma"),
        (config.oracle.embed_dims >= 1, "oracle.embed_dims"),
        (config.chernoff_mode in ("full-bound", "exponent-only"), "gate.chernoff_mode"),
        (len(config.seeds) >= 1, "seeds"),
        (
            abs(
                config.dataset.train_frac
                + config.dataset.val_frac
                + config.dataset.test_frac
                - 1.0
            )
            < 1e-9,
            "dataset.train_frac/val_frac/test_frac",
        ),
    ]
    from .oracle import ORACLE_KINDS
    from .strategy import STRATEGY_NAMES

    checks.append((config.strategy.name in STRATEGY_NAMES, "strategy.name"))
    checks.append((config.oracle.kind in ORACLE_KINDS, "oracle.kind"))
    checks.append((config.dataset.kind in _dataset_kinds(config), "dataset.kind"))
    for ok, key in checks:
        if not ok:
            raise ConfigError(f"invalid value for key: {key}")


def _dataset_kinds(config: ExperimentConfig) -> tuple[str, ...]:
    from .data import SYNTHETIC_KINDS

    if config.dataset.source == "csv":
        return (config.dataset.kind,)  # kind unused for csv input
    return SYNTHETIC_KINDS


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_lines(config: ExperimentConfig) -> list[str]:
    """Sorted ``key = value`` lines covering every known key but the output
    directory, so the hash identifies the experiment, not where its files land.
    """
    lines = []
    for key, (section, attr, _) in sorted(_KNOWN_KEYS.items()):
        if key == "output_dir":
            continue
        holder = config if section is None else getattr(config, section)
        lines.append(f"{key} = {_format_value(getattr(holder, attr))}")
    return lines


def config_hash(config: ExperimentConfig) -> str:
    digest = hashlib.sha256("\n".join(canonical_lines(config)).encode("utf-8"))
    return digest.hexdigest()[:12]
