"""Frozen calibration constants.

Most bounds in this toolkit (hyperbolicity constants, bounded geodesic
image constants, consistency constants, quasi-geodesic constants of
constructed paths, fit tolerances) are uniform but unspecified in the
underlying theory.  They are measured once by a deterministic
calibration sweep (`coarsegeo.harness.calibrate`) and frozen into a
versioned JSON file shipped with the package.  Library code must read
constants through :class:`Constants`; asking for a value that was never
calibrated is a hard error rather than a silent default.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

SCHEMA_VERSION = 1

_ENV_OVERRIDE = "COARSEGEO_CONSTANTS"


class MissingConstantError(KeyError):
    """A constant was requested before calibration provided it."""


@dataclass
class Constants:
    """Read-mostly store of frozen calibration values."""

    values: dict[str, float] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        try:
            return self.values[name]
        except KeyError:
            raise MissingConstantError(
                f"constant {name!r} is not in the calibration file; "
                f"run the 'calibrate' verb first"
            ) from None

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "meta": self.meta,
            "values": self.values,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Constants":
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported constants schema: {doc.get('schema_version')}")
        return cls(values=dict(doc["values"]), meta=dict(doc.get("meta", {})))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Constants":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


_cached: Constants | None = None


def default_constants() -> Constants:
    """The constants file shipped in coarsegeo/data, or the env override."""
    global _cached
    if _cached is not None:
        return _cached
    override = os.environ.get(_ENV_OVERRIDE)
    if override:
        _cached = Constants.load(override)
        return _cached
    ref = resources.files("coarsegeo").joinpath("data/constants.json")
    if not ref.is_file():
        raise MissingConstantError(
            "no calibration file found; run 'coarsegeo calibrate' and install the output"
        )
    _cached = Constants.from_json(json.loads(ref.read_text()))
    return _cached


def reset_cache() -> None:
    global _cached
    _cached = None
