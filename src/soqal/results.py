"""Result-file schema: provenance-commented CSVs, byte-stable per rerun.

Every file starts with ``#`` comment lines carrying the artifact version,
the config hash, and the full resolved configuration, then a fixed header::

    seed,epoch,train_loss,gate_loss,val_auc,d_hellinger,chernoff_bound,
    beta_star,cum_ask_rate,n_labelled,n_unlabelled,test_auc,config_hash,
    artifact_version

Per-epoch rows leave ``test_auc`` empty; one final row (``epoch = final``)
carries the test AUC and the run's final ask-rate.  ``config.spell`` writes
each cell from the annotation of its `EpochRecord` field (floats with
``repr``): a row zips its record with the one list of those annotations,
so identical runs produce identical bytes.  The writer is the one
definition of the format: the reader re-renders what it parsed and accepts
only the same text.
"""

from __future__ import annotations

import os
from itertools import zip_longest
from typing import NamedTuple

from . import __version__
from .config import ExperimentConfig, canonical_lines, field_annotations, lines_hash, parse, spell
from .config import parse_config_text
from .engine import EpochRecord, ResultLog, ask_rate
from .errors import ConfigError

# The annotation of each EpochRecord field, which picks its cells' spelling.
_RECORD_TYPES = list(field_annotations(EpochRecord).values())
RESULT_COLUMNS = ["seed", *EpochRecord._fields, "test_auc", "config_hash", "artifact_version"]


def provenance_comments(config: ExperimentConfig) -> tuple[str, list[str]]:
    """The config hash and the comment lines naming the config, from one
    rendering of its canonical lines."""
    lines = canonical_lines(config)
    digest = lines_hash(lines)
    return digest, [f"# soqal-results v{__version__}", f"# config_hash = {digest}",
                    *(f"# cfg {line}" for line in lines)]


def _result_table(
    config: ExperimentConfig, seed: int, epochs: list[EpochRecord],
    test_auc: float, final_rate: float, stratified: bool,
) -> tuple[str, list[str], list[list[str]]]:
    """The config hash, comment lines and rows of a result file: the format's one definition."""
    digest, comments = provenance_comments(config)
    rows = [[spell("int", seed), *map(spell, _RECORD_TYPES, rec), "", digest, __version__]
            for rec in epochs]
    if epochs:  # the reader also re-renders a file in which it found none
        last = epochs[-1]._replace(cum_ask_rate=final_rate)
        cells = ("final" if name == "epoch" else spell(annotation, value)
                 if name in ("cum_ask_rate", "n_labelled", "n_unlabelled") else ""
                 for name, annotation, value in zip(EpochRecord._fields, _RECORD_TYPES, last))
        rows.append([spell("int", seed), *cells, spell("float", test_auc), digest, __version__])
    comments.append(f"# stratified_split = {spell('bool', stratified)}")
    return digest, comments, rows


def write_result_csv(log: ResultLog, config: ExperimentConfig, path: str) -> None:
    """Write one run's log as a provenance-commented result table."""
    _, comments, rows = _result_table(
        config, log.seed, log.epochs, log.test_auc, ask_rate(log), log.stratified_split
    )
    write_table(path, RESULT_COLUMNS, rows, comments)


class ResultFile(NamedTuple):
    """Parsed view of one results CSV."""

    seed: int
    config: ExperimentConfig  # rebuilt from the `# cfg` lines
    config_hash: str
    epoch_rows: list[dict[str, float]]  # keyed by EpochRecord field
    test_auc: float
    final_ask_rate: float


def read_result_csv(path: str) -> ResultFile:
    """Parse a result file, re-render it from the parsed values and require
    the same text, so a file is accepted only if this version writes it.

    Parsing stops at the final row, so a row after it re-renders differently.
    """
    with open(path, encoding="utf-8", newline="") as fh:  # no newline translation
        lines = fh.read().splitlines(keepends=True)
    header = ",".join(RESULT_COLUMNS)
    at = next((i for i, line in enumerate(lines) if line.rstrip("\r\n") == header), len(lines))
    try:  # the other lines blanked, so an error names the file's line number
        config = parse_config_text(
            "".join(line[6:] if line.startswith("# cfg ") else "\n" for line in lines[:at])
        )
    except ConfigError as exc:
        raise ConfigError(f"{path} {exc}") from None
    seed, epoch_rows, test_auc, final_rate = 0, [], float("nan"), float("nan")
    for n, line in enumerate(lines[at + 1 :], start=at + 2):
        cells = line.rstrip("\r\n").split(",")
        if len(cells) != len(RESULT_COLUMNS):
            raise ConfigError(
                f"{path} line {n}: {len(cells)} cells, expected {len(RESULT_COLUMNS)}"
            )
        row = dict(zip(RESULT_COLUMNS, cells))

        def number(name: str, annotation: str = "float"):
            try:
                return parse(annotation, row[name])
            except ValueError:
                raise ConfigError(
                    f"{path} line {n}: column {name}: not a number: {row[name]!r}"
                ) from None

        if n == at + 2:
            seed = number("seed", "int")
        if row["epoch"] == "final":
            test_auc, final_rate = number("test_auc"), number("cum_ask_rate")
            break
        epoch_rows.append({name: number(name, annotation)
                           for name, annotation in zip(EpochRecord._fields, _RECORD_TYPES)})
        epoch_rows[-1]["epoch"] = len(epoch_rows)  # by position: a gap or repeat re-renders
    stratified = f"# stratified_split = {spell('bool', False)}\n" not in lines[:at]
    records = [EpochRecord(**row) for row in epoch_rows]
    digest, comments, rows = _result_table(config, seed, records, test_auc, final_rate, stratified)
    pairs = zip_longest(_table_text(RESULT_COLUMNS, rows, comments).splitlines(True), lines)
    for n, pair in enumerate(pairs, start=1):
        if pair[0] != pair[1]:
            expected, found = ("end of file" if s is None else repr(s) for s in pair)
            raise ConfigError(f"{path} line {n}: expected {expected}, found {found}")
    if not epoch_rows:
        n = len(lines) + 1
        raise ConfigError(f"{path} line {n}: expected an epoch row, found end of file")
    return ResultFile(seed, config, digest, epoch_rows, test_auc, final_rate)


def write_table(
    path: str, columns: list[str], rows: list[list[str]], comments: list[str]
) -> None:
    """Write comment lines, a header and rows; atomic rename so partial
    writes never land."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_table_text(columns, rows, comments))
    os.replace(tmp, path)


def _table_text(columns: list[str], rows: list[list[str]], comments: list[str]) -> str:
    lines = [*comments, ",".join(columns), *(",".join(row) for row in rows)]
    return "\n".join(lines) + "\n"
