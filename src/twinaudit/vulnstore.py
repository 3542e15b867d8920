"""Offline vulnerability store fed from NDJSON advisory snapshots.

One advisory per line: {"cve", "summary", "cvss": {"score", "vector"},
"affects": [{"name", "introduced", "fixed"}]}. Ranges are half-open:
introduced is inclusive, fixed exclusive; a missing bound leaves that side
open. Lookups normalize package names (case and -/_ separators) so feed and
inventory spellings do not have to agree.

The store indexes advisories by CVE id and by normalized package name, so a
lookup tests only the advisories that name the package: its cost follows
the inventory, not the size of the feed. It also keeps a content digest:
a running sha256 over every line it has indexed, length-framed, in order.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional, Union

from .bom.model import CVE_RE, Severity, severity_for_score
from .config import DataFileError


class FeedError(ValueError):
    """Malformed feed line; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"feed line {line_number}: {message}")


def normalize_package_name(name: str) -> str:
    return name.strip().lower().replace("_", "-")


Version = tuple[tuple[int, str], ...]


def parse_version(text: str) -> Version:
    """Dotted segments as (numeric, suffix) pairs: "1.2rc1" -> ((1,""),(2,"rc1")).

    Missing digits count as 0, so purely alphabetic segments order by suffix
    alone. Comparisons pad the shorter version with (0, ""), making
    "1.2" == "1.2.0" and "1.2" < "1.2a".
    """
    segments = []
    for part in text.strip().split("."):
        digits = ""
        for ch in part:
            if ch.isdigit():
                digits += ch
            else:
                break
        suffix = part[len(digits):]
        segments.append((int(digits) if digits else 0, suffix))
    return tuple(segments)


def _compare_parsed(pa: Version, pb: Version) -> int:
    width = max(len(pa), len(pb))
    pa += ((0, ""),) * (width - len(pa))
    pb += ((0, ""),) * (width - len(pb))
    return (pa > pb) - (pa < pb)


@dataclass(frozen=True)
class VersionRange:
    introduced: Optional[str] = None
    fixed: Optional[str] = None
    # Bounds parsed once at construction; equality and repr use the texts.
    _introduced: Optional[Version] = field(init=False, repr=False, compare=False)
    _fixed: Optional[Version] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, bound in (("_introduced", self.introduced), ("_fixed", self.fixed)):
            object.__setattr__(self, name, None if bound is None else parse_version(bound))

    def contains(self, version: str, parsed: Optional[Version] = None) -> bool:
        """Whether the range holds `version`; `parsed`, when given, is its
        parse_version, so a caller testing many ranges parses it once."""
        if not version:
            # Unversioned inventory entries only match advisories that affect
            # every version of the package.
            return self.introduced is None and self.fixed is None
        if parsed is None:
            parsed = parse_version(version)
        if self._introduced is not None and _compare_parsed(parsed, self._introduced) < 0:
            return False
        if self._fixed is not None and _compare_parsed(parsed, self._fixed) >= 0:
            return False
        return True


@dataclass(frozen=True)
class AffectedPackage:
    name: str
    ranges: tuple[VersionRange, ...]


@dataclass(frozen=True)
class Advisory:
    cve_id: str
    summary: str
    cvss_score: float
    cvss_vector: str
    severity: Severity
    affects: tuple[AffectedPackage, ...]


def _parse_record(line_number: int, data: dict) -> Advisory:
    cve = data.get("cve")
    if not isinstance(cve, str) or not CVE_RE.match(cve):
        raise FeedError(line_number, f"bad cve id {cve!r}")
    cvss = data.get("cvss")
    if not isinstance(cvss, dict):
        raise FeedError(line_number, "missing cvss object")
    score = cvss.get("score")
    if not isinstance(score, (int, float)) or isinstance(score, bool):
        raise FeedError(line_number, "cvss.score must be a number")
    score = float(score)
    if not 0.0 <= score <= 10.0:
        raise FeedError(line_number, f"cvss.score {score} outside [0,10]")
    vector = cvss.get("vector", "")
    if not isinstance(vector, str):
        raise FeedError(line_number, "cvss.vector must be a string")
    raw_affects = data.get("affects")
    if not isinstance(raw_affects, list) or not raw_affects:
        raise FeedError(line_number, "affects must be a non-empty list")
    affects = []
    for entry in raw_affects:
        if not isinstance(entry, dict):
            raise FeedError(line_number, "affects entries must be objects")
        name = entry.get("name")
        if not isinstance(name, str) or not name.strip():
            raise FeedError(line_number, "affects entry missing package name")
        introduced = entry.get("introduced")
        fixed = entry.get("fixed")
        for label, bound in (("introduced", introduced), ("fixed", fixed)):
            if bound is not None and (not isinstance(bound, str) or not bound.strip()):
                raise FeedError(line_number, f"{label} bound must be a non-empty string")
        affects.append(
            AffectedPackage(
                name=normalize_package_name(name),
                ranges=(VersionRange(introduced=introduced, fixed=fixed),),
            )
        )
    # One package may appear in several lines' worth of entries; merge ranges.
    merged: dict[str, list[VersionRange]] = {}
    for pkg in affects:
        merged.setdefault(pkg.name, []).extend(pkg.ranges)
    return Advisory(
        cve_id=cve,
        summary=str(data.get("summary", "")),
        cvss_score=score,
        cvss_vector=vector,
        severity=severity_for_score(score),
        affects=tuple(
            AffectedPackage(name=name, ranges=tuple(ranges))
            for name, ranges in sorted(merged.items())
        ),
    )


class VulnerabilityStore:
    """In-memory advisories keyed by CVE id and indexed by package name.

    Re-ingesting a CVE replaces its advisory in place, and the package index
    follows: names the old record affected and the new one does not lose it.
    """

    def __init__(self) -> None:
        self._advisories: dict[str, Advisory] = {}
        # Normalized package name -> (CVE id, that package's ranges) for each
        # advisory naming it, in CVE-id order.
        self._by_package: dict[str, list[tuple[str, tuple[VersionRange, ...]]]] = {}
        # The absolute path of each feed file loaded, in load order.
        self.feeds: list[str] = []
        self._content = hashlib.sha256()

    def __len__(self) -> int:
        return len(self._advisories)

    def __contains__(self, cve_id: str) -> bool:
        return cve_id in self._advisories

    def get(self, cve_id: str) -> Optional[Advisory]:
        return self._advisories.get(cve_id)

    def advisories(self) -> list[Advisory]:
        return [self._advisories[k] for k in sorted(self._advisories)]

    def ingest_lines(self, lines: Iterable[str]) -> int:
        """Parse and index advisories; returns how many records were read."""
        count = 0
        for i, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FeedError(i, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(data, dict):
                raise FeedError(i, "record must be a JSON object")
            self._put(_parse_record(i, data))
            encoded = line.encode("utf-8", "surrogatepass")
            self._content.update(b"%d:" % len(encoded))
            self._content.update(encoded)
            count += 1
        return count

    def digest(self) -> str:
        """The hex sha256 over the lines indexed so far, in order: equal for
        two stores fed the same lines, by load_feed or ingest_lines."""
        return self._content.hexdigest()

    def _put(self, advisory: Advisory) -> None:
        cve_id = advisory.cve_id
        old = self._advisories.get(cve_id)
        if old is not None:
            for pkg in old.affects:
                entries = self._by_package[pkg.name]
                del entries[bisect_left(entries, cve_id, key=itemgetter(0))]
                if not entries:
                    del self._by_package[pkg.name]
        self._advisories[cve_id] = advisory
        for pkg in advisory.affects:
            entries = self._by_package.setdefault(pkg.name, [])
            insort(entries, (cve_id, pkg.ranges), key=itemgetter(0))

    def load_feed(self, path: Union[str, Path]) -> int:
        """ingest_lines over an NDJSON file, whose absolute path is then
        added to `feeds`; a FeedError names the file.

        Raises DataFileError, naming the file, for one that cannot be read.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                count = self.ingest_lines(fh)
        except FeedError as err:
            err.args = (f"{path}: {err}",)
            raise
        except (OSError, UnicodeDecodeError) as err:
            raise DataFileError(f"{path}: {getattr(err, 'strerror', None) or err}") from err
        self.feeds.append(os.path.abspath(path))
        return count

    def findings_for(self, name: str, version: str) -> list[Advisory]:
        """All advisories affecting the package at that version, by CVE id."""
        entries = self._by_package.get(normalize_package_name(name), ())
        if not entries:
            return []
        parsed = parse_version(version)
        return [
            self._advisories[cve_id]
            for cve_id, ranges in entries
            if any(r.contains(version, parsed) for r in ranges)
        ]
