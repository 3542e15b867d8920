"""Golden forge output: the exact bytes the audit path stores.

`tests/data/forge_golden.json` holds, for the `smb` and `minimal` fixtures
at three seeds, the SHA-256 of every text and of every index meta without
an input key that `forge_documents` gives (in document order), after
collecting and forging each selected host's evidence. It pins canonical
serialization byte for byte, so a change to collection or forging that
claims to keep its output keeps every byte of it. Regenerate the fixture only when the documents are meant
to change:

    PYTHONPATH=src python -m tests.test_forge_golden --write

and then raise `FORGE_REVISION` (`twinaudit/ams/service.py`) and add the
new fixture's sha256 under it in `GOLDEN_AT_REVISION`: stored input keys
include the revision, so no rescan carries a document forged by the former
code over a snapshot that has not changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from twinaudit.ams.profiles import load_profile_file, selected_hosts
from twinaudit.ams.service import FORGE_REVISION, collect_evidence, forge_documents, forge_entries
from twinaudit.ams.topology import load_inventory
from twinaudit.fixtures.generator import FIXTURE_SPECS, generate
from twinaudit.vulnstore import VulnerabilityStore

FIXTURE = Path(__file__).parent / "data" / "forge_golden.json"
SEEDS = (3, 19, 907)
# The sha256 of the fixture's bytes at each FORGE_REVISION.
GOLDEN_AT_REVISION = {
    1: "06706c838b758ca09c25202bd46c929328b5feed2dc1ffd50339fd9065119dea",
    # sysctl `;` comments and ssh `Keyword=value` lines, which no fixture holds
    2: "06706c838b758ca09c25202bd46c929328b5feed2dc1ffd50339fd9065119dea",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def forged(spec: str, seed: int, out: Path) -> dict[str, list[str]]:
    """Digests of the texts and index metas of one fixture's audit."""
    manifest = generate(spec, seed, out)
    topology = load_inventory(manifest["inventory"])
    profile = load_profile_file(manifest["profile"])
    vulnerabilities = VulnerabilityStore()
    vulnerabilities.load_feed(manifest["feed"])
    bundles, errors = collect_evidence(
        [topology.host(h) for h in selected_hosts(profile, topology)]
    )
    assert not errors
    entries = forge_documents(
        {h: forge_entries(b, profile.categories, vulnerabilities) for h, b in bundles.items()},
        profile.profile_id,
    )
    return {
        "texts": [_sha(d.text) for d in entries],
        "metas": [_sha(d.meta) for d in entries],
    }


def _expected() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", FIXTURE_SPECS)
def test_forge_output_is_byte_identical(spec, seed, tmp_path):
    assert forged(spec, seed, tmp_path) == _expected()[spec][str(seed)]


def test_forge_revision_follows_the_golden_bytes():
    """Golden bytes that change with FORGE_REVISION as it was fail here."""
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    assert GOLDEN_AT_REVISION.get(FORGE_REVISION) == digest


def _write() -> None:
    golden: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in FIXTURE_SPECS:
            golden[spec] = {
                str(seed): forged(spec, seed, Path(tmp) / f"{spec}-{seed}") for seed in SEEDS
            }
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_forge_golden --write")
    _write()
