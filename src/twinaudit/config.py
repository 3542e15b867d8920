"""Runtime configuration: one optional file, environment overrides on top."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import AbstractSet, Any, Mapping, Optional, Union

import yaml

__all__ = [
    "AppConfig",
    "DataFileError",
    "known_fields",
    "load_config",
    "read_data_file",
    "typed_value",
]

ENV_CONFIG = "TWINAUDIT_CONFIG"
ENV_STORE = "TWINAUDIT_STORE"
ENV_MANAGER = "TWINAUDIT_MANAGER_URL"
ENV_FEED = "TWINAUDIT_FEED"


@dataclass(frozen=True)
class AppConfig:
    store_path: str = "twinaudit-store"
    manager_url: Optional[str] = None  # None runs an embedded manager
    feed_path: Optional[str] = None

    @property
    def store(self) -> Path:
        return Path(self.store_path)


_SETTINGS = frozenset(AppConfig.__dataclass_fields__)


class DataFileError(ValueError):
    """A settings, inventory, profile or advisory feed file that cannot be
    used; the message names the file."""


def read_data_file(path: Union[str, Path]) -> Any:
    """The value a YAML (.yaml or .yml, in any case) or else JSON file holds.

    Raises DataFileError for a file that cannot be read or parsed.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() in (".yaml", ".yml"):
            return yaml.safe_load(text)
        return json.loads(text)
    except (OSError, ValueError, yaml.YAMLError) as err:
        # YAML's own messages span lines and quote the text back.
        mark = getattr(err, "problem_mark", None)
        reason = f"line {mark.line + 1}: {err.problem}" if mark else " ".join(str(err).split())
        raise DataFileError(f"{path}: {reason}") from err


_KIND_NAMES = {str: "a string", list: "a list"}


def typed_value(value: Any, kind: type, what: str, error: type[ValueError]) -> Any:
    """value, if it is a `kind` (str or list); else raises error naming
    `what` and the value. For the readers of inventory and profile files."""
    if not isinstance(value, kind):
        raise error(f"{what} must be {_KIND_NAMES[kind]}, not {value!r}")
    return value


def known_fields(doc: dict, fields: AbstractSet[str], what: str, error: type[ValueError]) -> None:
    """Raises error, naming `what` and the keys, if doc has keys outside
    `fields`. For the same readers as typed_value."""
    unknown = doc.keys() - fields
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise error(f"unknown field{'s' if len(unknown) > 1 else ''} {names} in {what}")


def load_config(
    path: Optional[str] = None,
    env: Optional[Mapping[str, str]] = None,
) -> AppConfig:
    """File values first (YAML or JSON by suffix; an empty file sets
    nothing), then env overrides."""
    env = os.environ if env is None else env
    path = path or env.get(ENV_CONFIG)

    config = AppConfig()
    if path:
        data = read_data_file(path)
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise DataFileError(f"{path}: expected a mapping at top level")
        known_fields(data, _SETTINGS, f"settings file {path}", DataFileError)
        for key, value in data.items():
            if value is not None or key == "store_path":  # manager_url, feed_path may be null
                typed_value(value, str, f"{path}: {key}", DataFileError)
        config = replace(config, **data)

    if env.get(ENV_STORE):
        config = replace(config, store_path=env[ENV_STORE])
    if env.get(ENV_MANAGER):
        config = replace(config, manager_url=env[ENV_MANAGER])
    if env.get(ENV_FEED):
        config = replace(config, feed_path=env[ENV_FEED])
    return config
