"""Scaled estate generator for the benchmark.

Generates the `smb` fixture with the run's seed, copies each host snapshot
k times under renamed hostnames (rewriting `facts.json`), and writes an
inventory for the fixture's own profile. Every copy carries the same
evidence as its original, so the published per-group targets scale by k.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from twinaudit.fixtures.catalog import GROUP_TARGETS, SMB_HOSTS, SMB_RELATIONSHIPS
from twinaudit.fixtures.generator import bump_patch, generate

# Web-server pins that no advisory names, so toggling one never changes a
# report count (the estate neither grows nor gains findings).
TOGGLE_PINS = ("werkzeug", "click", "itsdangerous", "markupsafe", "gunicorn")
WEB_REQUIREMENTS = "srv/www/api/requirements.txt"


def replica_name(host: str, copy: int) -> str:
    return f"{host}-r{copy:02d}"


def build_estate(seed: int, copies: int, out: Path) -> dict:
    """Write a k-copy estate under `out`; returns a manifest like `generate`."""
    base = generate("smb", seed, out / "base")
    snapshots: dict[str, str] = {}
    hosts = []
    for copy in range(copies):
        for host in sorted(SMB_HOSTS):
            name = replica_name(host, copy)
            root = out / "snapshots" / name
            shutil.copytree(base["snapshots"][host], root)
            facts_path = root / "facts.json"
            facts = json.loads(facts_path.read_text(encoding="utf-8"))
            facts["hostname"] = name
            facts_path.write_text(json.dumps(facts, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            role, segment = SMB_HOSTS[host]
            hosts.append({"host_id": name, "role": role, "segment": segment, "snapshot_ref": str(root)})
            snapshots[name] = str(root)
    relationships = [
        {"source": replica_name(s, copy), "kind": k, "target": replica_name(t, copy)}
        for copy in range(copies)
        for s, k, t in SMB_RELATIONSHIPS
    ]
    inventory = out / "inventory.json"
    inventory.write_text(json.dumps({"hosts": hosts, "relationships": relationships}, indent=1) + "\n",
                         encoding="utf-8")
    return {
        "inventory": str(inventory),
        "profile": base["profile"],
        "feed": base["feed"],
        "profile_id": base["profile_id"],
        "snapshots": snapshots,
        "base": base,
    }


def expected_groups(copies: int) -> dict[str, dict[str, int]]:
    """The oracle: k times the published per-group targets."""
    return {
        label: {
            "algorithms": copies * a,
            "vulnerabilities": copies * v,
            "components": copies * c,
            "certificates": copies * x,
        }
        for label, (a, v, c, x) in GROUP_TARGETS.items()
    }


class PinToggle:
    """Flips one requirement pin on one seed-chosen web replica, back and
    forth between the generated version and the next patch release."""

    def __init__(self, manifest: dict, copies: int, seed: int) -> None:
        rng = random.Random(seed)
        self.host = replica_name("web-01", rng.randrange(copies))
        self.package = rng.choice(TOGGLE_PINS)
        self.path = Path(manifest["snapshots"][self.host]) / WEB_REQUIREMENTS
        self.original = self._pinned_version()
        self.flipped = bump_patch(self.original)
        self.current = self.original

    def _pinned_version(self) -> str:
        for line in self.path.read_text(encoding="utf-8").splitlines():
            name, _, version = line.partition("==")
            if name == self.package:
                return version
        raise LookupError(f"{self.package} is not pinned in {self.path}")

    def flip(self) -> str:
        """Rewrite the pin; returns the version now on disk."""
        new = self.flipped if self.current == self.original else self.original
        lines = self.path.read_text(encoding="utf-8").splitlines()
        lines = [f"{self.package}=={new}" if l.partition("==")[0] == self.package else l for l in lines]
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.current = new
        return new
