"""Serialization: deterministic report JSON and CSV series.

Report JSON is byte-reproducible for a fixed config and seed: keys are
sorted, floats go through repr (a non-finite one, which strict JSON
lacks, as null), and wall-clock metadata lives in a sidecar
`<name>.meta.json` so the report file itself never changes between
identical runs.  CSV cells that are floats are written through
repr as well, so they read back at full precision.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np


def to_jsonable(obj):
    """Recursively strip numpy and dataclass wrappers for json.dump."""
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_report(report: dict, path, meta: dict | None = None) -> None:
    """Write the report deterministically; timestamps go to the sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(to_jsonable(report), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    side = dict(meta or {})
    side["written_at"] = datetime.now(timezone.utc).isoformat()
    with open(path.with_suffix(".meta.json"), "w") as f:
        json.dump(to_jsonable(side), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def write_csv(path, header: list, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            # repr of the builtin float round-trips at full precision
            writer.writerow(
                [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
            )


def trajectory_to_csv(record, path) -> None:
    rows = zip(
        record.times, record.energy, record.charge, record.distance, record.v_residual
    )
    write_csv(path, ["t", "E", "Q", "d", "v_residual"], rows)
