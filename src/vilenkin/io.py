"""File formats: grid functions and martingales as JSON, tables as CSV.

Grid file: {"m": [...], "resolution": N, "values": [[re, im], ...]} with
values.length = M_N and flat index sum_j x_j M_j.  Martingale file:
{"m": [...], "levels": [...], "entries": [grid, ...]}.  CSV is UTF-8 with a
header row, comma separator, minimal quoting, LF line ends and floats at 17
significant digits; ``write_csv`` is its only writer.  JSON reports are
``to_json`` text: indented by 2, numpy scalars as plain numbers.  The
writers take open text streams; opening and naming files is the caller's.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import InvalidParamsError, VilenkinError
from .group import GroupSpec, make_group
from .hardy import StepMartingale
from .spectral import GridFunction
from .verify import VerificationRecord

FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT % float(x)
    return str(x)


def grid_to_dict(f: GridFunction) -> dict:
    return {
        "m": list(f.group.m[: f.resolution]),
        "resolution": f.resolution,
        "values": [[float(v.real), float(v.imag)] for v in f.values],
    }


def _json_list(xs, types: tuple) -> bool:
    """xs is a list whose items are all of exactly these types: a JSON bool is no number."""
    return isinstance(xs, list) and all(type(x) in types for x in xs)


def grid_from_dict(obj: dict, group: GroupSpec | None = None) -> GridFunction:
    if not isinstance(obj, dict) or not {"m", "resolution", "values"} <= obj.keys():
        raise InvalidParamsError('a grid file is a JSON object with "m", "resolution" and "values"')
    N, m, values = obj["resolution"], obj["m"], obj["values"]
    if type(N) is not int or N < 0:
        raise InvalidParamsError(f"grid file resolution must be a nonnegative integer, got {N!r}")
    if not (_json_list(m, (int,)) and isinstance(values, list)
            and all(_json_list(v, (int, float)) and len(v) == 2 for v in values)):
        raise InvalidParamsError(
            'grid file "m" must list integers and "values" must hold [re, im] pairs of numbers')
    try:
        vals = np.array([complex(re, im) for re, im in values])
    except OverflowError:
        raise InvalidParamsError("grid file values must be finite (no NaN or inf)") from None
    if len(m) < N:
        raise InvalidParamsError("radix list shorter than the resolution")
    g = group if group is not None else make_group(m)
    if list(g.m[:N]) != m[:N]:
        raise InvalidParamsError(
            f"grid file radices {m[:N]} do not match the group's radices {list(g.m[:N])}")
    if not np.isfinite(vals).all():
        raise InvalidParamsError("grid file values must be finite (no NaN or inf)")
    return GridFunction(g, N, vals)


def save_grid(f: GridFunction, out: TextIO) -> None:
    """Write f as a grid file to an open text stream."""
    out.write(json.dumps(grid_to_dict(f)))


def _load_json(path: str | Path, what: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParamsError(f"cannot read {what} file {str(path)!r}: {exc.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParamsError(f"{what} file {str(path)!r} is not valid JSON: {exc}") from None


def load_grid(path: str | Path, group: GroupSpec | None = None) -> GridFunction:
    return grid_from_dict(_load_json(path, "grid"), group)


def martingale_to_dict(mart: StepMartingale) -> dict:
    return {
        "m": list(mart.group.m),
        "levels": list(mart.levels),
        "entries": [grid_to_dict(e) for e in mart.entries],
    }


def martingale_from_dict(obj: dict) -> StepMartingale:
    if not isinstance(obj, dict) or not {"m", "levels", "entries"} <= obj.keys():
        raise InvalidParamsError(
            'a martingale file is a JSON object with "m", "levels" and "entries"')
    if not isinstance(obj["entries"], list):
        raise InvalidParamsError('martingale file "entries" must be a list of grids')
    m, levels = obj["m"], obj["levels"]
    if not (_json_list(m, (int,)) and _json_list(levels, (int,))):
        raise InvalidParamsError('martingale file "m" and "levels" must list integers')
    g = make_group(m)
    entries = tuple(grid_from_dict(e, g) for e in obj["entries"])
    return StepMartingale(group=g, levels=tuple(levels), entries=entries)


def save_martingale(mart: StepMartingale, out: TextIO) -> None:
    """Write mart as a martingale file to an open text stream."""
    out.write(json.dumps(martingale_to_dict(mart)))


def load_martingale(path: str | Path) -> StepMartingale:
    obj = _load_json(path, "martingale")
    try:
        return martingale_from_dict(obj)
    except VilenkinError as exc:
        raise InvalidParamsError(f"martingale file {str(path)!r}: {exc}") from None


def write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row and the rows to an open text stream, one line each."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])


def kernel_csv_rows(f: GridFunction) -> list[list]:
    return [[i, v.real, v.imag] for i, v in enumerate(f.values)]


def to_json(obj) -> str:
    return json.dumps(obj, indent=2, default=_json_default)


def records_to_json(records: Sequence[VerificationRecord]) -> str:
    return to_json([r.to_dict() for r in records])


def _json_default(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def records_csv_rows(records: Sequence[VerificationRecord]) -> tuple[list[str], list[list]]:
    header = ["suite", "claim", "params", "kind", "value", "bound", "margin", "passed", "tolerance"]
    rows = []
    for r in records:
        rows.append([
            r.suite, r.claim, json.dumps(r.params, sort_keys=True, default=_json_default),
            r.kind, r.value,
            "" if r.bound is None else r.bound,
            "" if r.margin is None else r.margin,
            "" if r.passed is None else r.passed,
            r.tolerance,
        ])
    return header, rows
