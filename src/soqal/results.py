"""Result-file schema: provenance-commented CSVs, byte-stable per rerun.

Every file starts with ``#`` comment lines carrying the artifact version,
the config hash, and the full resolved configuration, then a fixed header::

    seed,epoch,train_loss,gate_loss,val_auc,d_hellinger,chernoff_bound,
    beta_star,cum_ask_rate,n_labelled,n_unlabelled,test_auc,config_hash,
    artifact_version

Per-epoch rows leave ``test_auc`` empty; one final row (``epoch = final``)
carries the test AUC and the run's final ask-rate.  Floats are written with
``repr`` so identical runs produce identical bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from . import __version__
from .config import ExperimentConfig, canonical_lines, config_hash
from .engine import EpochRecord, ResultLog, ask_rate
from .errors import DataLoadError, UndefinedMetricError

RESULT_COLUMNS = [
    "seed",
    *(f.name for f in fields(EpochRecord)),
    "test_auc",
    "config_hash",
    "artifact_version",
]


def format_float(value: float) -> str:
    return repr(float(value))


def _parse_float(cell: str) -> float:
    return float("nan") if cell == "" else float(cell)


def _epoch_cells(rec: EpochRecord) -> list[str]:
    """One cell per EpochRecord field: ints with str, floats with format_float."""
    cells = []
    for f in fields(rec):
        value = getattr(rec, f.name)
        cells.append(str(value) if f.type in (int, "int") else format_float(value))
    return cells


def provenance_comments(config: ExperimentConfig) -> list[str]:
    lines = [
        f"# soqal-results v{__version__}",
        f"# config_hash = {config_hash(config)}",
    ]
    lines.extend(f"# cfg {line}" for line in canonical_lines(config))
    return lines


def write_result_csv(log: ResultLog, config: ExperimentConfig, path: str) -> None:
    """Write one run's log as a provenance-commented result table."""
    try:
        final_rate = ask_rate(log)
    except UndefinedMetricError:
        final_rate = float("nan")
    digest = config_hash(config)
    rows = [
        [str(log.seed), *_epoch_cells(rec), "", digest, __version__]
        for rec in log.epochs
    ]
    last = log.epochs[-1]
    final = {
        "epoch": "final",
        "cum_ask_rate": format_float(final_rate),
        "n_labelled": str(last.n_labelled),
        "n_unlabelled": str(last.n_unlabelled),
    }
    rows.append(
        [
            str(log.seed),
            *(final.get(f.name, "") for f in fields(EpochRecord)),
            format_float(log.test_auc),
            digest,
            __version__,
        ]
    )
    comments = provenance_comments(config)
    comments.append(f"# stratified_split = {str(log.stratified_split).lower()}")
    write_table(path, RESULT_COLUMNS, rows, comments)


@dataclass
class ResultFile:
    """Parsed view of one results CSV."""

    seed: int
    config_hash: str
    artifact_version: str
    cfg: dict[str, str]  # dotted key -> raw value, from provenance comments
    epoch_rows: list[dict[str, float]] = field(default_factory=list)
    test_auc: float = float("nan")
    final_ask_rate: float = float("nan")


def read_result_csv(path: str) -> ResultFile:
    cfg: dict[str, str] = {}
    header: list[str] | None = None
    out: ResultFile | None = None
    last_line = final_line = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("cfg ") and "=" in body:
                    key, _, value = body[4:].partition("=")
                    cfg[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                if header != RESULT_COLUMNS:
                    raise DataLoadError(f"unexpected result header in {path}")
                continue
            if final_line:
                raise DataLoadError(
                    f"{path} line {lineno}: row after the final row (line {final_line})"
                )
            last_line = lineno
            if len(cells) != len(header):
                raise DataLoadError(
                    f"{path} line {lineno}: {len(cells)} cells, "
                    f"expected {len(header)}"
                )
            row = dict(zip(header, cells))

            def number(name: str, parse=_parse_float):
                try:
                    return parse(row[name])
                except ValueError:
                    raise DataLoadError(
                        f"{path} line {lineno}: column {name}: not a number: {row[name]!r}"
                    ) from None

            if out is None:
                out = ResultFile(
                    seed=number("seed", int),
                    config_hash=row["config_hash"],
                    artifact_version=row["artifact_version"],
                    cfg=cfg,
                )
            if row["epoch"] == "final":
                final_line = lineno
                out.test_auc = number("test_auc")
                out.final_ask_rate = number("cum_ask_rate")
            else:
                want = len(out.epoch_rows) + 1
                if row["epoch"] != str(want):
                    raise DataLoadError(
                        f"{path} line {lineno}: epoch '{row['epoch']}', expected {want}"
                    )
                out.epoch_rows.append({f.name: number(f.name) for f in fields(EpochRecord)})
    if out is None or header is None:
        raise DataLoadError(f"no result rows in {path}")
    if not final_line:
        raise DataLoadError(f"{path} line {last_line + 1}: no final row")
    return out


def write_table(
    path: str, columns: list[str], rows: list[list[str]], comments: list[str]
) -> None:
    """Write comment lines, a header and rows; atomic rename so partial
    writes never land."""
    lines = list(comments)
    lines.append(",".join(columns))
    lines.extend(",".join(row) for row in rows)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
