"""Golden parse outcomes: seeded mutations of forged documents, strict and lenient.

`tests/data/parse_golden.json` holds three base documents forged from the
`smb` fixture (one host SBOM, one host CBOM and the profile manifest that
links every host document) and, for each seeded mutation of them, the
outcome of `parse_bom` in strict and in lenient mode: the SHA-256 of the
canonical text of an accepted document, the ordered violation list of a
refused one, or the decoder's message for text that is not JSON.

The mutations are regenerated from their seeds, so the test pins what the
parser answers, not how it is written. Regenerate the fixture only when the
parser's answers are meant to change:

    PYTHONPATH=src python -m tests.test_parse_golden --write
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

from twinaudit.bom import BomParseError, BomSchemaError, parse_bom, serialize_bom

FIXTURE = Path(__file__).parent / "data" / "parse_golden.json"
MUTATIONS_PER_BASE = 100
SEED = 19

_EXTRA_KEYS = ("note", "comment", "zz", "hashes")
_VALUES: tuple[Any, ...] = (0, 7, 1.5, -2.0, "x", "", True, False, None, [], {}, ["x"], {"x": 1})
_STRINGS = (
    "",
    "unknown-ref",
    "urn:cdx:nope",
    "urn:cdx:76a0bb35-b513-58e6-a102-95a24832587a/1#x",
    "urn:uuid:not-a-uuid",
    "CVE-1-1",
    "alg:AES-256",
    "lib:openssl@1.1.1n",
    "twinaudit:kind",
    "SBOM",
    "certificate",
    "protocol",
    "cryptographic-asset",
    "critical",
    "resolved",
)
_SCORES = (
    -1, -0.0, 0, 0.1, 3.9, 4.0, 6.99, 9.0, 10, 10.0001, 11, float("nan"), float("inf"), True, "7.5"
)
_TIMESTAMPS = (
    "2024-01-01",
    "2024-01-01T00:00:00",
    "2024-01-01T00:00:00Z",
    "2031-06-01T00:00:00+02:00",
    "2020-01-01T00:00:00+00:00",
    "2099-12-31T23:59:59",
    "not-a-date",
    "",
)
_CERT_TIMES = ("notValidBefore", "notValidAfter")


def _locations(node: Any, path: str = "") -> Iterator[tuple[str, Any, Any]]:
    """(path, container, key) of every value under `node`, depth first in
    document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            yield sub, node, key
            yield from _locations(value, sub)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            sub = f"{path}[{i}]"
            yield sub, node, i
            yield from _locations(value, sub)


def _dicts(doc: dict) -> list[tuple[str, dict]]:
    found = [("", doc)]
    found += [(p, c[k]) for p, c, k in _locations(doc) if isinstance(c[k], dict)]
    return found


def _drop(doc: dict, rng: random.Random) -> str:
    path, container, key = rng.choice([loc for loc in _locations(doc) if isinstance(loc[1], dict)])
    del container[key]
    return f"drop {path}"


def _retype(doc: dict, rng: random.Random) -> str:
    path, container, key = rng.choice(list(_locations(doc)))
    old = container[key]
    container[key] = rng.choice([v for v in _VALUES if type(v) is not type(old)])
    return f"retype {path}"


def _revalue(doc: dict, rng: random.Random) -> str:
    locations = [loc for loc in _locations(doc) if isinstance(loc[1][loc[2]], str)]
    path, container, key = rng.choice(locations)
    container[key] = rng.choice(_STRINGS)
    return f"revalue {path}"


def _duplicate(doc: dict, rng: random.Random) -> str:
    lists = [loc for loc in _locations(doc) if isinstance(loc[1][loc[2]], list) and loc[1][loc[2]]]
    path, container, key = rng.choice(lists)
    entries = container[key]
    entries.insert(rng.randrange(len(entries) + 1), copy.deepcopy(rng.choice(entries)))
    return f"duplicate {path}"


def _shuffle(doc: dict, rng: random.Random) -> str:
    lists = [loc for loc in _locations(doc) if isinstance(loc[1][loc[2]], list)]
    path, container, key = rng.choice(lists)
    rng.shuffle(container[key])
    return f"shuffle {path}"


def _extra(doc: dict, rng: random.Random) -> str:
    path, target = rng.choice(_dicts(doc))
    key = rng.choice(_EXTRA_KEYS)
    target[key] = copy.deepcopy(rng.choice(_VALUES))
    return f"extra {path}.{key}" if path else f"extra {key}"


def _score(doc: dict, rng: random.Random) -> str:
    ratings = [
        (p, c[k]) for p, c, k in _locations(doc) if k == "ratings" and isinstance(c[k], list)
    ]
    if not ratings:
        return _retype(doc, rng)
    path, entries = rng.choice(ratings)
    if not entries or not isinstance(entries[0], dict):
        return _retype(doc, rng)
    entries[0]["score"] = rng.choice(_SCORES)
    return f"score {path}[0]"


def _timestamp(doc: dict, rng: random.Random) -> str:
    holders = [
        (p, c[k]) for p, c, k in _locations(doc)
        if isinstance(c[k], dict) and ("notValidBefore" in c[k] or k == "metadata")
    ]
    if not holders:
        return _retype(doc, rng)
    path, holder = rng.choice(holders)
    key = rng.choice(_CERT_TIMES) if "notValidBefore" in holder else "timestamp"
    holder[key] = rng.choice(_TIMESTAMPS)
    return f"timestamp {path}.{key}"


_MUTATORS: tuple[Callable[[dict, random.Random], str], ...] = (
    _drop, _retype, _revalue, _duplicate, _shuffle, _extra, _score, _timestamp,
)


def mutations(base_text: str, seed: int) -> list[tuple[str, str]]:
    """(label, text) of each seeded mutation of `base_text`: one to three
    edits of its decoded form, and now and then a truncated text."""
    rng = random.Random(seed)
    base = json.loads(base_text)
    out = []
    for _ in range(MUTATIONS_PER_BASE):
        if rng.random() < 0.03:
            cut = rng.randrange(1, len(base_text))
            out.append((f"truncate {cut}", base_text[:cut]))
            continue
        doc = copy.deepcopy(base)
        labels = [rng.choice(_MUTATORS)(doc, rng) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
        out.append(("; ".join(labels), json.dumps(doc)))
    return out


def outcome(text: str, strict: bool) -> dict[str, Any]:
    """What `parse_bom` answers for `text`, in a form JSON can hold."""
    try:
        bom = parse_bom(text, strict=strict)
    except BomParseError as exc:
        return {"parse_error": str(exc)}
    except BomSchemaError as exc:
        return {"violations": [[v.path, v.message] for v in exc.violations]}
    canonical = serialize_bom(bom).encode()
    return {"sha256": hashlib.sha256(canonical).hexdigest()}


def cases(bases: dict[str, str]) -> Iterator[tuple[str, str, str]]:
    """(base name, label, mutated text) of every case, bases in name order."""
    for n, name in enumerate(sorted(bases)):
        for label, text in mutations(bases[name], SEED * 1000 + n):
            yield name, label, text


def _forge_bases() -> dict[str, str]:
    """The base documents, forged from the `smb` fixture with seed 7."""
    from twinaudit.collect import scan_host
    from twinaudit.collect.snapshot import HostSnapshot
    from twinaudit.fixtures.generator import generate
    from twinaudit.forge import (
        build_cbom, build_graph, build_sbom, enrich_with_vulnerabilities, link_to_profile,
    )
    from twinaudit.vulnstore import VulnerabilityStore

    with tempfile.TemporaryDirectory() as tmp:
        estate = generate("smb", 7, Path(tmp))
        feed = VulnerabilityStore()
        feed.load_feed(estate["feed"])
        docs = {}
        for host in sorted(estate["snapshots"]):
            bundle = scan_host(HostSnapshot.open(estate["snapshots"][host]))
            graph = build_graph(bundle.records)
            docs[host, "sbom"] = enrich_with_vulnerabilities(
                build_sbom(bundle.host, bundle.records), feed
            )
            docs[host, "cbom"] = build_cbom(bundle.host, graph, bundle.records)
        manifest = link_to_profile(list(docs.values()), estate["profile_id"])[0]
    return {
        "app-01.sbom": serialize_bom(docs["app-01", "sbom"]),
        "manifest": serialize_bom(manifest),
        "web-01.cbom": serialize_bom(docs["web-01", "cbom"]),
    }


def _build_fixture() -> dict[str, Any]:
    bases = _forge_bases()
    rows = [
        {"base": name, "label": label,
         "strict": outcome(text, True), "lenient": outcome(text, False)}
        for name, label, text in cases(bases)
    ]
    return {"seed": SEED, "mutations_per_base": MUTATIONS_PER_BASE, "bases": bases, "cases": rows}


def _load() -> dict[str, Any]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_outcome_kind():
    fixture = _load()
    assert fixture["seed"] == SEED and fixture["mutations_per_base"] == MUTATIONS_PER_BASE
    kinds = {next(iter(row[mode])) for row in fixture["cases"] for mode in ("strict", "lenient")}
    assert kinds == {"sha256", "violations", "parse_error"}
    assert len(fixture["cases"]) == 3 * MUTATIONS_PER_BASE


def test_bases_parse_to_their_own_canonical_text():
    for text in _load()["bases"].values():
        assert serialize_bom(parse_bom(text)) == text


@pytest.mark.parametrize("base", ["app-01.sbom", "manifest", "web-01.cbom"])
def test_parse_outcomes_match_the_golden_fixture(base):
    fixture = _load()
    expected = [row for row in fixture["cases"] if row["base"] == base]
    got = [row for row in cases(fixture["bases"]) if row[0] == base]
    assert [row["label"] for row in expected] == [label for _, label, _ in got]
    for row, (_, label, text) in zip(expected, got):
        assert outcome(text, True) == row["strict"], label
        assert outcome(text, False) == row["lenient"], label


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_parse_golden --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_build_fixture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
