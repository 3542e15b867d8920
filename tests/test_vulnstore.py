"""Advisory store: ordering rules, range boundaries, oracle equivalence."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit import vulnstore
from twinaudit.bom import Severity
from twinaudit.vulnstore import (
    FeedError,
    VersionRange,
    VulnerabilityStore,
    normalize_package_name,
    parse_version,
)


def compare_versions(a: str, b: str) -> int:
    """Version order, the oracle of the range tests: the parsed segments of
    the shorter version padded with (0, ""), then compared as tuples."""
    pa, pb = parse_version(a), parse_version(b)
    width = max(len(pa), len(pb))
    pa += ((0, ""),) * (width - len(pa))
    pb += ((0, ""),) * (width - len(pb))
    return (pa > pb) - (pa < pb)


def record(cve, name, introduced=None, fixed=None, score=7.5):
    entry = {"name": name}
    if introduced is not None:
        entry["introduced"] = introduced
    if fixed is not None:
        entry["fixed"] = fixed
    return json.dumps(
        {
            "cve": cve,
            "summary": f"issue in {name}",
            "cvss": {"score": score, "vector": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"},
            "affects": [entry],
        }
    )


def store_with(*lines) -> VulnerabilityStore:
    store = VulnerabilityStore()
    store.ingest_lines(lines)
    return store


class TestVersionOrder:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("1.2", "1.10", -1),
            ("1.2", "1.2.0", 0),
            ("1.2", "1.2a", -1),
            ("1.0rc1", "1.0rc2", -1),
            ("2.6.3", "2.6.10", -1),
            ("10.0", "9.9", 1),
            ("1.2.3", "1.2.3", 0),
            ("0.9", "1.0", -1),
        ],
    )
    def test_table(self, a, b, expected):
        assert compare_versions(a, b) == expected

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    def test_numeric_join_round_trip(self, parts):
        text = ".".join(str(p) for p in parts)
        assert parse_version(text) == tuple((p, "") for p in parts)

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=3),
        st.lists(st.integers(0, 30), min_size=1, max_size=3),
    )
    def test_antisymmetry(self, a, b):
        va, vb = ".".join(map(str, a)), ".".join(map(str, b))
        assert compare_versions(va, vb) == -compare_versions(vb, va)


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Flask", "flask"),
            ("python_dateutil", "python-dateutil"),
            (" jinja2 ", "jinja2"),
            ("Spring-Boot_Starter", "spring-boot-starter"),
        ],
    )
    def test_names(self, raw, expected):
        assert normalize_package_name(raw) == expected

    def test_lookup_crosses_spellings(self):
        store = store_with(record("CVE-2024-1000", "python_dateutil", "2.0", "2.9"))
        assert store.findings_for("Python-Dateutil", "2.5")


class TestRangeBoundaries:
    def test_introduced_inclusive(self):
        assert VersionRange(introduced="1.2", fixed="2.0").contains("1.2")

    def test_fixed_exclusive(self):
        rng = VersionRange(introduced="1.2", fixed="2.0")
        assert not rng.contains("2.0")
        assert rng.contains("1.9.9")

    def test_open_bounds(self):
        assert VersionRange(fixed="2.0").contains("0.1")
        assert VersionRange(introduced="1.0").contains("99.0")
        assert VersionRange().contains("3.4")

    def test_unversioned_matches_only_fully_open(self):
        assert VersionRange().contains("")
        assert not VersionRange(introduced="1.0").contains("")
        assert not VersionRange(fixed="1.0").contains("")


class TestIngest:
    def test_counts_and_lookup(self):
        store = store_with(
            record("CVE-2024-1000", "flask", "0", "2.1"),
            record("CVE-2024-1001", "flask", "2.0", "2.0.2"),
            record("CVE-2024-1002", "lodash", None, "4.17.21"),
        )
        assert len(store) == 3
        hits = [a.cve_id for a in store.findings_for("flask", "2.0.1")]
        assert hits == ["CVE-2024-1000", "CVE-2024-1001"]

    def test_reingest_is_idempotent(self):
        lines = [record("CVE-2024-1000", "flask", "0", "2.1")]
        store = VulnerabilityStore()
        store.ingest_lines(lines)
        before = store.advisories()
        store.ingest_lines(lines)
        assert store.advisories() == before
        assert len(store) == 1

    def test_same_cve_replaces(self):
        store = store_with(
            record("CVE-2024-1000", "flask", "0", "2.1", score=5.0),
            record("CVE-2024-1000", "flask", "0", "2.1", score=9.8),
        )
        assert len(store) == 1
        assert store.get("CVE-2024-1000").severity == Severity.CRITICAL

    def test_blank_lines_skipped(self):
        store = store_with("", record("CVE-2024-1000", "flask"), "   ")
        assert len(store) == 1

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("{not json", "invalid JSON"),
            ('"just a string"', "must be a JSON object"),
            (json.dumps({"cve": "NOPE", "cvss": {"score": 5}, "affects": [{"name": "x"}]}), "bad cve id"),
            (json.dumps({"cve": "CVE-2024-1000", "affects": [{"name": "x"}]}), "missing cvss"),
            (
                json.dumps({"cve": "CVE-2024-1000", "cvss": {"score": 11}, "affects": [{"name": "x"}]}),
                "outside [0,10]",
            ),
            (json.dumps({"cve": "CVE-2024-1000", "cvss": {"score": 5}, "affects": []}), "non-empty"),
            (
                json.dumps({"cve": "CVE-2024-1000", "cvss": {"score": 5}, "affects": [{"name": ""}]}),
                "missing package name",
            ),
        ],
    )
    def test_malformed_lines_report_position(self, line, fragment):
        store = VulnerabilityStore()
        with pytest.raises(FeedError) as err:
            store.ingest_lines(["", line])
        assert err.value.line_number == 2
        assert fragment in str(err.value)

    def test_severity_derived_from_score(self):
        store = store_with(record("CVE-2024-1000", "flask", score=0.0))
        assert store.get("CVE-2024-1000").severity == Severity.NONE


versions_st = st.lists(st.integers(0, 9), min_size=1, max_size=3).map(
    lambda parts: ".".join(map(str, parts))
)
PACKAGES = ["lib-a", "lib-b", "libc"]


@st.composite
def spellings(draw, name):
    """The package name in mixed case, with any "-" possibly written "_"."""
    chars = [
        draw(st.sampled_from(["-", "_"])) if ch == "-" else draw(st.sampled_from([ch, ch.upper()]))
        for ch in name
    ]
    return "".join(chars)


@st.composite
def feeds(draw):
    """Lines over a few CVE ids, so later lines re-ingest an id, often for
    other packages than the line it replaces."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        affects = []
        for name in draw(st.lists(st.sampled_from(PACKAGES), min_size=1, max_size=2)):
            bounds = sorted([draw(versions_st), draw(versions_st)], key=parse_version)
            entry = {"name": draw(spellings(name))}
            if draw(st.booleans()):
                entry["introduced"] = bounds[0]
            if draw(st.booleans()):
                entry["fixed"] = bounds[1]
            affects.append(entry)
        cve = f"CVE-2024-{1000 + draw(st.integers(0, 3))}"
        lines.append(json.dumps({"cve": cve, "cvss": {"score": 5.0}, "affects": affects}))
    return lines


def oracle_findings(lines, name, version):
    """Linear scan over the raw lines: the last line of a CVE id wins."""
    latest = {}
    for raw in lines:
        data = json.loads(raw)
        latest[data["cve"]] = data
    wanted = normalize_package_name(name)
    hits = []
    for cve in sorted(latest):
        for entry in latest[cve]["affects"]:
            if normalize_package_name(entry["name"]) != wanted:
                continue
            intro, fixed = entry.get("introduced"), entry.get("fixed")
            if not version:
                affected = intro is None and fixed is None
            else:
                affected = (intro is None or compare_versions(version, intro) >= 0) and (
                    fixed is None or compare_versions(version, fixed) < 0
                )
            if affected:
                hits.append(cve)
                break
    return hits


class TestOracleEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        feeds(),
        st.sampled_from(PACKAGES).flatmap(spellings),
        st.one_of(st.just(""), versions_st),
    )
    def test_matches_linear_scan(self, lines, name, version):
        store = VulnerabilityStore()
        store.ingest_lines(lines)
        found = [a.cve_id for a in store.findings_for(name, version)]
        assert found == oracle_findings(lines, name, version)
        wanted = normalize_package_name(name)
        assert found == [
            a.cve_id
            for a in store.advisories()
            if any(
                pkg.name == wanted and any(r.contains(version) for r in pkg.ranges)
                for pkg in a.affects
            )
        ]

    def test_lookup_tests_only_the_packages_advisories(self, monkeypatch):
        lines = [
            record(f"CVE-2023-{10000 + i}", f"unrelated-{i % 700}", "1.0", "2.0")
            for i in range(5000)
        ]
        lines += [
            record("CVE-2024-1000", "Flask", "0", "2.1"),
            record("CVE-2024-1001", "flask", "2.0", "2.0.2"),
            record("CVE-2024-1002", "flask", "3.0"),
            # Re-ingested for another package: flask no longer names it.
            record("CVE-2024-0999", "flask"),
            record("CVE-2024-0999", "django"),
        ]
        store = store_with(*lines)
        contains, normalize = VersionRange.contains, vulnstore.normalize_package_name
        tested, normalized = [], []
        monkeypatch.setattr(
            VersionRange, "contains", lambda rng, *args: tested.append(rng) or contains(rng, *args)
        )
        monkeypatch.setattr(
            vulnstore, "normalize_package_name", lambda n: normalized.append(n) or normalize(n)
        )
        hits = store.findings_for("FLASK", "2.0.1")
        assert [a.cve_id for a in hits] == ["CVE-2024-1000", "CVE-2024-1001"]
        assert len(tested) == 3
        assert normalized == ["FLASK"]
