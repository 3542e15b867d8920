"""Evidence records produced by host-snapshot scanners."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional


class EvidenceCategory(str, Enum):
    CRYPTO_LIBRARY = "CRYPTO_LIBRARY"
    CERTIFICATE = "CERTIFICATE"
    ALGORITHM = "ALGORITHM"
    OPENSSL_CONFIG = "OPENSSL_CONFIG"
    KERNEL_SETTING = "KERNEL_SETTING"
    SYSTEM_LOG_EVENT = "SYSTEM_LOG_EVENT"
    SOFTWARE_COMPONENT = "SOFTWARE_COMPONENT"


@dataclass(frozen=True)
class EvidenceRecord:
    """One observed fact, pinned to the snapshot path that evidenced it."""

    category: EvidenceCategory
    name: str
    host: str
    source_path: str
    version: str = ""
    attributes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "attributes", tuple(sorted(tuple(a) for a in self.attributes))
        )

    def attribute(self, key: str) -> Optional[str]:
        for name, value in self.attributes:
            if name == key:
                return value
        return None

    def sort_key(self) -> tuple:
        return (self.category.value, self.name, self.version, self.source_path, self.attributes)


def make_record(
    category: EvidenceCategory,
    name: str,
    host: str,
    source_path: str,
    version: str = "",
    attributes: Optional[Mapping[str, str]] = None,
) -> EvidenceRecord:
    return EvidenceRecord(
        category=category,
        name=name,
        host=host,
        source_path=source_path,
        version=version,
        attributes=tuple((attributes or {}).items()),
    )


@dataclass(frozen=True)
class EvidenceBundle:
    """Everything one scan pass observed on one host, in canonical order."""

    host: str
    records: tuple[EvidenceRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "records", tuple(sorted(self.records, key=lambda r: r.sort_key()))
        )
