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

import math
import os
from dataclasses import dataclass, field

from . import __version__
from .config import ExperimentConfig, canonical_lines, config_hash
from .engine import ResultLog, ask_rate
from .errors import DataLoadError, UndefinedMetricError

RESULT_COLUMNS = [
    "seed",
    "epoch",
    "train_loss",
    "gate_loss",
    "val_auc",
    "d_hellinger",
    "chernoff_bound",
    "beta_star",
    "cum_ask_rate",
    "n_labelled",
    "n_unlabelled",
    "test_auc",
    "config_hash",
    "artifact_version",
]


def format_float(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return repr(float(value))


def _parse_float(cell: str) -> float:
    return float("nan") if cell == "" else float(cell)


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
    rows = []
    for rec in log.epochs:
        rows.append(
            [
                str(log.seed),
                str(rec.epoch),
                format_float(rec.train_loss),
                format_float(rec.gate_loss),
                format_float(rec.val_auc),
                format_float(rec.d_hellinger),
                format_float(rec.chernoff_bound),
                format_float(rec.beta_star),
                format_float(rec.cum_ask_rate),
                str(rec.n_labelled),
                str(rec.n_unlabelled),
                "",
                log.config_hash,
                __version__,
            ]
        )
    last = log.epochs[-1]
    rows.append(
        [
            str(log.seed),
            "final",
            "",
            "",
            "",
            "",
            "",
            "",
            format_float(final_rate),
            str(last.n_labelled),
            str(last.n_unlabelled),
            format_float(log.test_auc),
            log.config_hash,
            __version__,
        ]
    )
    comments = provenance_comments(config)
    comments.append(f"# stratified_split = {str(log.stratified_split).lower()}")
    write_table(path, RESULT_COLUMNS, rows, comments)


@dataclass
class ResultFile:
    """Parsed view of one results CSV."""

    path: str
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
    with open(path, encoding="utf-8") as fh:
        for raw_line in fh:
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
            row = dict(zip(header, cells))
            if out is None:
                out = ResultFile(
                    path=path,
                    seed=int(row["seed"]),
                    config_hash=row["config_hash"],
                    artifact_version=row["artifact_version"],
                    cfg=cfg,
                )
            if row["epoch"] == "final":
                out.test_auc = _parse_float(row["test_auc"])
                out.final_ask_rate = _parse_float(row["cum_ask_rate"])
            else:
                out.epoch_rows.append(
                    {
                        "epoch": float(row["epoch"]),
                        "train_loss": _parse_float(row["train_loss"]),
                        "gate_loss": _parse_float(row["gate_loss"]),
                        "val_auc": _parse_float(row["val_auc"]),
                        "d_hellinger": _parse_float(row["d_hellinger"]),
                        "chernoff_bound": _parse_float(row["chernoff_bound"]),
                        "beta_star": _parse_float(row["beta_star"]),
                        "cum_ask_rate": _parse_float(row["cum_ask_rate"]),
                        "n_labelled": float(row["n_labelled"]),
                        "n_unlabelled": float(row["n_unlabelled"]),
                    }
                )
    if out is None or header is None:
        raise DataLoadError(f"no result rows in {path}")
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
