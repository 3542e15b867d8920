"""Evidence records produced by host-snapshot scanners."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Optional


class EvidenceCategory(str, Enum):
    CRYPTO_LIBRARY = "CRYPTO_LIBRARY"
    CERTIFICATE = "CERTIFICATE"
    ALGORITHM = "ALGORITHM"
    OPENSSL_CONFIG = "OPENSSL_CONFIG"
    KERNEL_SETTING = "KERNEL_SETTING"
    SYSTEM_LOG_EVENT = "SYSTEM_LOG_EVENT"
    SOFTWARE_COMPONENT = "SOFTWARE_COMPONENT"


@dataclass(frozen=True, slots=True, init=False)
class EvidenceRecord:
    """One observed fact, pinned to the snapshot path that evidenced it.

    Like the document model's value types, it has one hand-written
    constructor that stores each field through its slot setter. It sorts
    the attributes and computes the canonical sort_key once, there.
    """

    category: EvidenceCategory
    name: str
    host: str
    source_path: str
    version: str = ""
    attributes: tuple[tuple[str, str], ...] = ()
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        category: EvidenceCategory,
        name: str,
        host: str,
        source_path: str,
        version: str = "",
        attributes: Iterable[tuple[str, str]] = (),
    ) -> None:
        (
            set_category, set_name, set_host, set_source_path, set_version, set_attributes,
            set_sort_key,
        ) = _RECORD_SLOTS
        attributes = tuple(sorted(map(tuple, attributes)))
        set_category(self, category)
        set_name(self, name)
        set_host(self, host)
        set_source_path(self, source_path)
        set_version(self, version)
        set_attributes(self, attributes)
        set_sort_key(self, (category.value, name, version, source_path, attributes))

    def attribute(self, key: str) -> Optional[str]:
        for name, value in self.attributes:
            if name == key:
                return value
        return None


_RECORD_SLOTS = tuple(EvidenceRecord.__dict__[f.name].__set__ for f in fields(EvidenceRecord))

# The key that orders records canonically (bundles, CBOM sections).
by_sort_key = attrgetter("sort_key")

# Joins an ALGORITHM record's "sources" paths. A snapshot key never holds
# NUL (no file or tar member name can), whereas a comma is a legal name.
SOURCES_SEPARATOR = "\0"


def make_record(
    category: EvidenceCategory,
    name: str,
    host: str,
    source_path: str,
    version: str = "",
    attributes: Optional[Mapping[str, str]] = None,
) -> EvidenceRecord:
    return EvidenceRecord(
        category, name, host, source_path, version, attributes.items() if attributes else ()
    )


@dataclass(frozen=True)
class EvidenceBundle:
    """Everything one scan pass observed on one host, in canonical order."""

    host: str
    records: tuple[EvidenceRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(sorted(self.records, key=by_sort_key)))
