"""Experiment configuration: flat ``key = value`` text with dotted keys.

The format is intentionally tiny and diff-friendly: one assignment per
line, ``#`` comments, no sections.  Each key is one field of a NamedTuple
section, whose default is the key's default and whose annotation names its
type; `KEY_ALIASES` spells the keys that are not ``section.field``.
Unknown keys are rejected by name.  A canonical serialization (sorted keys,
output directory excluded) feeds both provenance comments and the config
hash.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple

from .errors import ConfigError

ACQUISITION_NAMES = ("bald-mcd", "entropy", "random")


class DataConfig(NamedTuple):
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


class NetworkConfig(NamedTuple):
    hidden: tuple[int, ...] = (32, 32)
    dropout: float = 0.3
    gate_detached: bool = False


class TrainingConfig(NamedTuple):
    epochs: int = 50
    learning_rate: float = 1e-2
    batch_size: int = 32


class ActiveLearningConfig(NamedTuple):
    mc_passes: int = 20
    period: int = 5  # acquire when epoch is a multiple of this
    # fraction of the remaining unlabelled pool; 0 disables
    b_frac: float = 0.02
    init_labelled_frac: float = 0.1
    acquisition: str = "bald-mcd"


class StrategyConfig(NamedTuple):
    name: str = "soqal"
    hellinger_threshold: float = 0.15
    entropy_threshold: float = 0.5
    epsilon0: float = 1.0
    epsilon_decay: float = 0.9


class OracleSection(NamedTuple):
    kind: str = "noise-free"
    gamma: float = 0.0
    embed_dims: int = 2


class ExperimentConfig(NamedTuple):
    dataset: DataConfig = DataConfig()
    network: NetworkConfig = NetworkConfig()
    training: TrainingConfig = TrainingConfig()
    active_learning: ActiveLearningConfig = ActiveLearningConfig()
    strategy: StrategyConfig = StrategyConfig()
    oracle: OracleSection = OracleSection()
    chernoff_mode: str = "full-bound"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "results"


# The keys spelled other than ``section.field`` (``field`` for a top-level field).
KEY_ALIASES = {
    "network.gate_detached": "gate.detached",
    "active_learning.mc_passes": "active_learning.T",
    "active_learning.b_frac": "active_learning.b",
    "strategy.hellinger_threshold": "strategy.S",
    "strategy.entropy_threshold": "strategy.S_entropy",
    "strategy.epsilon_decay": "strategy.epsilon.d",
    "chernoff_mode": "gate.chernoff_mode",
}


def field_annotations(cls) -> dict[str, str]:
    """Each field of the NamedTuple `cls` and its annotation as written, which
    NamedTuple keeps as a `ForwardRef` of the string."""
    return {name: ref.__forward_arg__ for name, ref in cls.__annotations__.items()}


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# Each field annotation's spelling and its inverse parse: the one definition
# of how a typed value is written and read as text, in `# cfg` lines, `--set`
# values and every CSV cell.  Writers and readers pick an entry by the
# field's annotation, never by the value's runtime type.
TEXT_FORMS = {
    "int": (str, int),
    "float": (lambda value: repr(float(value)), float),
    "str": (str, str),
    "bool": (lambda value: "true" if value else "false", _parse_bool),
    "tuple[int, ...]": (lambda value: ",".join(map(str, value)),
                        lambda raw: tuple(int(part) for part in raw.split(",") if part.strip())),
}


def spell(annotation: str, value) -> str:
    return TEXT_FORMS[annotation][0](value)


def parse(annotation: str, raw: str):
    return TEXT_FORMS[annotation][1](raw)


def _key_table() -> dict[str, tuple]:
    """key -> (section, attribute, annotation) for every config field.

    A key is ``section.field`` (``field`` for a top-level field) unless
    `KEY_ALIASES` names another.
    """
    table = {}
    for top, top_annotation in field_annotations(ExperimentConfig).items():
        default = ExperimentConfig._field_defaults[top]
        if hasattr(default, "_fields"):  # a section
            members = [(top, *item) for item in field_annotations(type(default)).items()]
        else:
            members = [(None, top, top_annotation)]
        for section, attr, annotation in members:
            key = attr if section is None else f"{section}.{attr}"
            table[KEY_ALIASES.get(key, key)] = (section, attr, annotation)
    return table


_KNOWN_KEYS = _key_table()


def value_separator(key: str) -> str:
    """What separates a list of `key`'s values: `;` where a value is a list itself."""
    return ";" if key in _KNOWN_KEYS and _KNOWN_KEYS[key][2] == "tuple[int, ...]" else ","


def _parse_setting(key: str, raw: str):
    """`key`'s typed value from its string form."""
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"unknown key: {key}")
    try:
        return parse(_KNOWN_KEYS[key][2], raw)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key}: cannot parse value {raw!r}") from None


def _with_values(config: ExperimentConfig, values: dict) -> ExperimentConfig:
    """`config` with each key of `values` set to its typed value: one
    `_replace` per section touched and one for the whole."""
    top, sections = {}, {}
    for key, value in values.items():
        section, attr, _ = _KNOWN_KEYS[key]
        (top if section is None else sections.setdefault(section, {}))[attr] = value
    for section, attrs in sections.items():
        top[section] = getattr(config, section)._replace(**attrs)
    return config._replace(**top)


def apply_setting(config: ExperimentConfig, key: str, raw: str) -> ExperimentConfig:
    """Return a new config with one dotted key set from its string form."""
    return _with_values(config, {key: _parse_setting(key, raw)})


def parse_config_text(text: str) -> ExperimentConfig:
    """The config of ``key = value`` lines over the defaults; a repeated
    key takes its last value."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        try:
            values[key.strip()] = _parse_setting(key.strip(), raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return _with_values(ExperimentConfig(), values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_config_text(fh.read())
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def validate(config: ExperimentConfig) -> None:
    """The library's only range check: reject out-of-range values, naming the key."""
    from .data import SYNTHETIC_KINDS, _largest_remainder
    from .gate import CHERNOFF_MODES
    from .oracle import ORACLE_KINDS
    from .strategy import STRATEGY_NAMES

    d, seeds = config.dataset, config.seeds
    checks = [
        (d.source in ("synthetic", "csv"), "dataset.source"),
        (d.source != "csv" or d.csv_path != "", "dataset.csv_path"),
        (d.source == "csv" or d.kind in SYNTHETIC_KINDS, "dataset.kind"),
        (math.isfinite(d.separation), "dataset.separation"),
        (d.train_frac > 0.0, "dataset.train_frac"),
        (d.val_frac > 0.0, "dataset.val_frac"),
        (d.test_frac > 0.0, "dataset.test_frac"),
        (
            abs(d.train_frac + d.val_frac + d.test_frac - 1.0) < 1e-9,
            "dataset.train_frac/val_frac/test_frac",
        ),
        (0.0 <= config.network.dropout < 1.0, "network.dropout"),
        (len(config.network.hidden) >= 1 and min(config.network.hidden) >= 1, "network.hidden"),
        (config.training.epochs >= 1, "training.epochs"),
        (config.training.batch_size >= 1, "training.batch_size"),
        (0.0 <= config.training.learning_rate < math.inf, "training.learning_rate"),
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
        (config.strategy.name in STRATEGY_NAMES, "strategy.name"),
        (0.0 <= config.strategy.hellinger_threshold <= 1.0, "strategy.S"),
        (0.0 <= config.strategy.entropy_threshold <= 1.0, "strategy.S_entropy"),
        (0.0 <= config.strategy.epsilon0 <= 1.0, "strategy.epsilon0"),
        (0.0 < config.strategy.epsilon_decay <= 1.0, "strategy.epsilon.d"),
        (config.oracle.kind in ORACLE_KINDS, "oracle.kind"),
        (0.0 <= config.oracle.gamma <= 1.0, "oracle.gamma"),
        (config.oracle.embed_dims >= 1, "oracle.embed_dims"),
        (config.chernoff_mode in CHERNOFF_MODES, "gate.chernoff_mode"),
        # One run and one result file per seed: none repeated, none negative.
        (len(seeds) >= 1 and len(set(seeds)) == len(seeds) and min(seeds) >= 0, "seeds"),
    ]
    if d.source == "synthetic":  # the generators' shapes; a CSV brings its own
        checks += [
            (d.classes >= 2, "dataset.classes"),
            (d.n >= 10 * d.classes, "dataset.n"),
            (d.features >= 1, "dataset.features"),
            (d.kind != "gaussian-blobs" or d.features >= d.classes, "dataset.features"),
            (d.kind != "ring-vs-blob" or d.classes == 2, "dataset.classes"),
            (d.kind == "gaussian-blobs" or d.features >= 2, "dataset.features"),  # 2-D kinds
            # noisy-sine-classes offsets the top class by separation * (classes - 1).
            (d.kind != "noisy-sine-classes" or math.isfinite(d.separation * (d.classes - 1)),
             "dataset.separation"),
        ]
    # A `# cfg` line is read back through `str.splitlines`: a text value
    # holding any line break it splits on would not survive it.
    checks += [(value.splitlines() in ([], [value]), key)
               for key, value in settings(config).items() if _KNOWN_KEYS[key][2] == "str"]
    for ok, key in checks:
        if not ok:
            raise ConfigError(f"invalid value for key: {key}")
    # With valid fractions, split's train part is their largest-remainder
    # share of n rows; a CSV's is known only once it is loaded.
    fractions = [d.train_frac, d.val_frac, d.test_frac]
    if d.source == "synthetic" and _largest_remainder(d.n, fractions)[0] < 1:
        raise ConfigError("invalid value for key: dataset.train_frac")


def settings(config: ExperimentConfig) -> dict:
    """Each key's typed value, in key order, but the output directory's: the
    hash identifies the experiment, not where its files land."""
    return {key: getattr(config if section is None else getattr(config, section), attr)
            for key, (section, attr, _) in sorted(_KNOWN_KEYS.items()) if key != "output_dir"}


def canonical_lines(config: ExperimentConfig) -> list[str]:
    """The ``key = value`` lines of `settings`, which the hash covers."""
    return [f"{key} = {spell(_KNOWN_KEYS[key][2], value)}"
            for key, value in settings(config).items()]


def config_hash(config: ExperimentConfig) -> str:
    return lines_hash(canonical_lines(config))


def lines_hash(lines: list[str]) -> str:
    """The config hash of a config's rendered `canonical_lines`."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]
