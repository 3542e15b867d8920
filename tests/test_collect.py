"""Evidence collection: snapshots, scanners, normalization, non-intrusiveness."""

import hashlib
import json
import os
import tarfile
import tempfile
import threading
from importlib import resources
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import hashes
from hypothesis import given, settings
from hypothesis import strategies as st

from twinaudit.collect import (
    AlgorithmMention,
    EvidenceCategory,
    HostSnapshot,
    SnapshotError,
    extract_algorithm_mentions,
    extract_protocol_mentions,
    scan_host,
    token_for_hash,
)
from twinaudit.collect.records import by_sort_key
from twinaudit.collect.scanners import _fold_sightings

FACTS = {
    "hostname": "web-01",
    "os": {"name": "debian", "version": "12"},
    "kernel": "6.1.0-18-amd64",
    "packages": {"openssl": "3.0.13", "libgcrypt20": "1.10.1", "curl": "7.88.1"},
}


def cert_pem(name: str) -> bytes:
    return (resources.files("twinaudit.fixtures") / "data" / name).read_bytes()


def write_tree(root: Path, files: dict[str, str | bytes]) -> Path:
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content)
    return root


def sample_tree(root: Path) -> Path:
    return write_tree(
        root,
        {
            "facts.json": json.dumps(FACTS),
            "srv/app/requirements.txt": "flask==2.0.1\njinja2==2.11.2\n# comment\n",
            "srv/site/package.json": json.dumps(
                {"name": "corp-site", "version": "2.4.0", "dependencies": {"lodash": "^4.17.20"}}
            ),
            "srv/site/package-lock.json": json.dumps(
                {
                    "name": "corp-site",
                    "lockfileVersion": 3,
                    "packages": {
                        "": {"name": "corp-site", "version": "2.4.0"},
                        "node_modules/lodash": {"version": "4.17.20"},
                        "node_modules/express": {"version": "4.17.1"},
                    },
                }
            ),
            "etc/ssl/openssl.cnf": (
                "[system_default_sect]\n"
                "MinProtocol = TLSv1.2\n"
                "CipherString = ECDHE-RSA-AES256-GCM-SHA384:TLS_CHACHA20_POLY1305_SHA256\n"
            ),
            "etc/ssh/sshd_config": (
                "Port 22\n"
                "Ciphers aes128-ctr,aes256-gcm@openssh.com\n"
                "HostKeyAlgorithms ssh-ed25519\n"
            ),
            "etc/sysctl.conf": "net.ipv4.ip_forward = 0\nkernel.randomize_va_space = 2\n",
            "proc/sys/crypto/fips_enabled": "0\n",
            "var/log/auth.log": (
                "Jan 10 10:00:01 web-01 sshd[311]: Accepted publickey for admin "
                "from 10.0.0.5 port 50514 ssh2: ED25519 SHA256:abcdef\n"
                "Jan 10 10:05:44 web-01 sshd[390]: Failed password for root from 10.9.9.9\n"
            ),
            "etc/ssl/certs/web-01.pem": cert_pem("web-01.pem"),
        },
    )


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSnapshot:
    def test_requires_facts(self, tmp_path):
        (tmp_path / "etc").mkdir()
        with pytest.raises(SnapshotError):
            HostSnapshot.open(tmp_path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(SnapshotError):
            HostSnapshot.open(tmp_path / "ghost")

    def test_directory_and_tar_are_equivalent(self, tmp_path):
        tree = sample_tree(tmp_path / "web-01")
        archive = tmp_path / "web-01.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            tar.add(tree, arcname=".")
        from_dir = HostSnapshot.open(tree)
        from_tar = HostSnapshot.open(archive)
        assert from_dir.iter_files() == from_tar.iter_files()
        assert from_dir.hostname == from_tar.hostname == "web-01"
        for path in from_dir.iter_files():
            assert from_dir.read_bytes(path) == from_tar.read_bytes(path)

    def test_read_is_the_only_access(self, tmp_path):
        snapshot = HostSnapshot.open(sample_tree(tmp_path / "web-01"))
        assert not any(
            name.startswith(("write", "delete", "remove", "unlink", "mkdir"))
            for name in dir(snapshot)
        )


SENTINEL = b"OUTSIDE-THE-SNAPSHOT"

# An in-root regular file, or a link pointing out of the root. Hard links
# are tar members only: in a directory a hard link is a regular file.
ENTRY_KINDS = ("file", "symlink", "relative_symlink", "dir_symlink", "tar_hardlink")

snapshot_entries = st.lists(
    st.tuples(
        st.sampled_from(["etc", "etc/ssl/certs", "srv/app"]),
        st.sampled_from(ENTRY_KINDS),
        st.binary(max_size=32).filter(lambda b: SENTINEL not in b),
    ),
    min_size=1,
    max_size=8,
)


class TestSnapshotConfinement:
    @settings(max_examples=60, deadline=None)
    @given(snapshot_entries)
    def test_nothing_outside_the_root_is_read(self, entries):
        """Directory and tar input return exactly the in-root regular files;
        no byte of a file or directory outside the root ever comes back."""
        with tempfile.TemporaryDirectory() as scratch:
            base = Path(scratch)
            outside = write_tree(
                base / "outside",
                {"secret.txt": SENTINEL + b" file", "dir/secret.txt": SENTINEL + b" dir"},
            )
            facts = json.dumps(FACTS).encode()
            root = write_tree(base / "host", {"facts.json": facts})
            expected = {"facts.json": facts}
            hardlinks = []
            for index, (folder, kind, content) in enumerate(entries):
                name = f"{folder}/entry{index}"
                target = root / name
                target.parent.mkdir(parents=True, exist_ok=True)
                if kind == "file":
                    target.write_bytes(content)
                    expected[name] = content
                elif kind == "symlink":
                    target.symlink_to(outside / "secret.txt")
                elif kind == "relative_symlink":
                    target.symlink_to(os.path.relpath(outside / "secret.txt", target.parent))
                elif kind == "dir_symlink":
                    target.symlink_to(outside / "dir", target_is_directory=True)
                else:
                    hardlinks.append(name)

            archive = base / "host.tar"
            with tarfile.open(archive, "w") as tar:
                tar.add(root, arcname=".")  # symlinks become symlink members
                for name in hardlinks:
                    for suffix, linkname in (("", str(outside / "secret.txt")),
                                             (".rel", "../outside/secret.txt")):
                        member = tarfile.TarInfo(name + suffix)
                        member.type = tarfile.LNKTYPE
                        member.linkname = linkname
                        tar.addfile(member)

            for snapshot in (HostSnapshot.open(root), HostSnapshot.open(archive)):
                read = {path: snapshot.read_bytes(path) for path in snapshot.iter_files()}
                assert not any(SENTINEL in data for data in read.values())
                assert read == expected


def rglob_reference(root: Path) -> dict[str, bytes]:
    """The regular files below root, by an rglob walk that skips every
    symlink: the policy the snapshot walk must keep."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file() and not p.is_symlink()
    }


class TestSnapshotWalk:
    def test_walk_matches_an_rglob_reference(self, tmp_path):
        outside = write_tree(tmp_path / "outside", {"secret.txt": SENTINEL, "dir/x.txt": SENTINEL})
        root = write_tree(
            tmp_path / "host",
            {
                "facts.json": json.dumps(FACTS),
                "etc/ssl/certs/a.pem": cert_pem("web-01.pem"),
                "srv/deep/er/still/leaf.txt": b"leaf",
                "srv/app name/with space.txt": "spaced",
                "srv/caf\u00e9/na\u00efve-\u65e5\u672c.conf": "non-ascii \u00fc".encode(),
                "empty.txt": b"",
            },
        )
        (root / "empty-dir").mkdir()
        (root / "srv" / "nested-empty" / "inner").mkdir(parents=True)
        (root / "etc" / "inside-link.pem").symlink_to(root / "etc/ssl/certs/a.pem")
        (root / "etc" / "outside-link.txt").symlink_to(outside / "secret.txt")
        (root / "etc" / "dir-link").symlink_to(root / "srv", target_is_directory=True)
        (root / "etc" / "outside-dir-link").symlink_to(outside / "dir", target_is_directory=True)
        (root / "etc" / "dangling").symlink_to(root / "no-such-file")

        snapshot = HostSnapshot.open(root)
        expected = rglob_reference(root)
        assert snapshot.iter_files() == sorted(expected)
        assert {path: snapshot.read_bytes(path) for path in snapshot.iter_files()} == expected
        assert "srv/caf\u00e9/na\u00efve-\u65e5\u672c.conf" in expected
        assert "srv/app name/with space.txt" in expected
        assert not any(path.startswith(("etc/dir-link", "etc/outside")) for path in expected)

    @pytest.mark.parametrize("kind", ["symlink", "directory", "fifo"])
    def test_a_file_swapped_after_the_listing_is_not_read(self, tmp_path, monkeypatch, kind):
        """A file that the walk lists as regular, and that is replaced by a
        symlink out of the root, a directory or a FIFO before it is opened,
        is skipped: its key is absent, nothing outside the root is read and
        the open does not wait for a FIFO's writer."""
        outside = write_tree(tmp_path / "outside", {"secret.txt": SENTINEL})
        facts = json.dumps(FACTS).encode()
        root = write_tree(tmp_path / "host", {"facts.json": facts, "etc/app.conf": b"inside"})
        swapped = root / "etc" / "app.conf"
        scandir = os.scandir

        class Swapping:
            """scandir, swapping app.conf once its entry is listed."""

            def __init__(self, path):
                self.entries = scandir(path)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.entries.close()

            def __iter__(self):
                for entry in self.entries:
                    if entry.name == "app.conf" and entry.is_file(follow_symlinks=False):
                        swapped.unlink()
                        if kind == "symlink":
                            swapped.symlink_to(outside / "secret.txt")
                        elif kind == "directory":
                            write_tree(swapped, {"inner.txt": SENTINEL})
                        else:
                            os.mkfifo(swapped)
                    yield entry

        monkeypatch.setattr(os, "scandir", Swapping)
        opened = []
        reader = threading.Thread(target=lambda: opened.append(HostSnapshot.open(root)),
                                  daemon=True)
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive()
        (snapshot,) = opened
        read = {path: snapshot.read_bytes(path) for path in snapshot.iter_files()}
        assert read == {"facts.json": facts}

    def test_a_backslash_in_a_name_keeps_its_own_key(self, tmp_path):
        root = write_tree(
            tmp_path / "host",
            {
                "facts.json": json.dumps(FACTS),
                "etc/sysctl.conf": b"real",
                "etc\\sysctl.conf": b"backslash",
            },
        )
        archive = tmp_path / "host.tar"
        with tarfile.open(archive, "w") as tar:
            tar.add(root, arcname=".")
        from_dir, from_tar = HostSnapshot.open(root), HostSnapshot.open(archive)
        expected = ["etc/sysctl.conf", "etc\\sysctl.conf", "facts.json"]
        assert from_dir.iter_files() == from_tar.iter_files() == expected
        for snapshot in (from_dir, from_tar):
            assert snapshot.read_bytes("etc/sysctl.conf") == b"real"
            assert snapshot.read_bytes("etc\\sysctl.conf") == b"backslash"


class TestTokenExtraction:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Ciphers aes128-ctr", {"AES-128"}),
            ("TLS_AES_256_GCM_SHA384", {"AES-256", "SHA-384"}),
            ("ECDHE-RSA-AES256-GCM-SHA384", {"AES-256", "SHA-384"}),
            ("TLS_CHACHA20_POLY1305_SHA256", {"CHACHA20-POLY1305", "SHA-256"}),
            ("hmac-sha2-512,hmac-sha1", {"SHA-512", "SHA-1"}),
            ("KexAlgorithms curve25519-sha256,ecdh-sha2-nistp384", {"X25519", "SHA-256", "P-384"}),
            ("HostKeyAlgorithms ssh-ed25519,rsa-sha2-256", {"ED25519", "SHA-256"}),
            ("3des-cbc legacy cipher", {"3DES"}),
            ("prime256v1 and secp521r1", {"P-256", "P-521"}),
            ("rsa_4096 key with md5 digest", {"RSA-4096", "MD5"}),
            ("nothing cryptographic here", set()),
            ("plain RSA and bare SHA stay unmapped", set()),
            ("SHA-512/256 and sha512-224", {"SHA-512/256", "SHA-512/224"}),
            ("sha3-256, SHA3_512", {"SHA3-256", "SHA3-512"}),
        ],
    )
    def test_spellings(self, text, expected):
        assert {m.token.name for m in extract_algorithm_mentions(text)} == expected

    def test_every_cryptography_hash_name(self):
        """Each digest name `cryptography` gives a certificate's signature
        hash maps to its own token, or to none where no token exists."""
        expected = {
            "md5": "MD5",
            "sha1": "SHA-1",
            "sha224": "SHA-224",
            "sha256": "SHA-256",
            "sha384": "SHA-384",
            "sha512": "SHA-512",
            "sha512-224": "SHA-512/224",
            "sha512-256": "SHA-512/256",
            "sha3-224": "SHA3-224",
            "sha3-256": "SHA3-256",
            "sha3-384": "SHA3-384",
            "sha3-512": "SHA3-512",
            "shake128": None,
            "shake256": None,
            "blake2b": None,
            "blake2s": None,
            "sm3": None,
        }
        names = {
            algorithm.name
            for algorithm in vars(hashes).values()
            if isinstance(algorithm, type)
            and issubclass(algorithm, hashes.HashAlgorithm)
            and isinstance(algorithm.name, str)
        }
        assert names <= set(expected), names - set(expected)
        for name, token in expected.items():
            found = token_for_hash(name)
            assert (found.name if found else None) == token, name
            assert found is None or found.primitive == "hash"

    def test_mode_capture(self):
        mentions = {m.token.name: m.mode for m in extract_algorithm_mentions("aes-256-gcm")}
        assert mentions == {"AES-256": "gcm"}

    def test_protocols(self):
        assert extract_protocol_mentions("MinProtocol = TLSv1.2") == [("TLS", "1.2")]
        assert ("TLS", "1.3") in extract_protocol_mentions("tls 1.3 enabled")


def of_category(bundle, category):
    return [r for r in bundle.records if r.category == category]


class TestScanHost:
    @pytest.fixture()
    def bundle(self, tmp_path):
        return scan_host(HostSnapshot.open(sample_tree(tmp_path / "web-01")))

    def test_software_components(self, bundle):
        records = of_category(bundle, EvidenceCategory.SOFTWARE_COMPONENT)
        names = {(r.name, r.version) for r in records}
        assert ("flask", "2.0.1") in names
        assert ("corp-site", "2.4.0") in names
        assert ("express", "4.17.1") in names
        assert ("lodash", "4.17.20") in names
        roles = {r.name: r.attribute("role") for r in records}
        assert roles["corp-site"] == "project"
        assert roles["flask"] == "dependency"

    def test_crypto_libraries_from_facts(self, bundle):
        libs = {r.name: r.version for r in of_category(bundle, EvidenceCategory.CRYPTO_LIBRARY)}
        assert libs == {"openssl": "3.0.13", "libgcrypt20": "1.10.1"}

    def test_certificate_record(self, bundle):
        certs = of_category(bundle, EvidenceCategory.CERTIFICATE)
        assert len(certs) == 1
        cert = certs[0]
        assert cert.name == "web-01.example.test"
        assert cert.attribute("key_algorithm") == "rsa"
        assert cert.attribute("key_size") == "2048"
        assert "2024" in cert.attribute("not_before")

    def test_every_certificate_of_a_bundle(self, tmp_path):
        """A PEM file holding two certificates gives a record for each, and
        the key and hash sightings of both, as two files of one each do."""
        def scanned(files):
            tree = write_tree(tmp_path / str(len(files)), {"facts.json": json.dumps(FACTS), **files})
            bundle = scan_host(HostSnapshot.open(tree))
            return (
                [(r.name, r.source_path) for r in of_category(bundle, EvidenceCategory.CERTIFICATE)],
                {r.name: r.attribute("sources").split("\0")
                 for r in of_category(bundle, EvidenceCategory.ALGORITHM)},
            )

        chain = "etc/ssl/certs/chain.pem"
        certs, sightings = scanned({chain: cert_pem("mail-01.pem") + cert_pem("user-01.pem")})
        assert certs == [("mail-01.example.test", chain), ("user-01.example.test", chain)]
        apart, apart_sightings = scanned({
            "etc/ssl/certs/a.pem": cert_pem("mail-01.pem"),
            "etc/ssl/certs/b.pem": cert_pem("user-01.pem"),
        })
        assert [name for name, _ in apart] == [name for name, _ in certs]
        assert {name: [chain] for name in apart_sightings} == sightings

    @pytest.mark.parametrize(
        "at,step,kept",
        [(110, 2, ["mail-01.example.test"]), (114, 1, ["mail-01.example.test"]),
         (237, 1, ["mail-01.example.test"]), (44, 1, [])],
        ids=["unknown-name-tag", "issuer", "subject", "bad-version"],
    )
    def test_an_undecodable_certificate_costs_only_itself(self, tmp_path, at, step, kept):
        """One byte edit of web-01.pem that leaves a name string's tag, its
        issuer or its subject undecodable skips that certificate, and the
        bundle's other certificate stays; one that leaves its version bad
        makes the file unloadable, so the file gives none. The host's other
        records stay."""
        broken = bytearray(cert_pem("web-01.pem"))
        broken[at] = (broken[at] + step) % 256
        tree = write_tree(tmp_path, {
            "facts.json": json.dumps(FACTS),
            "etc/ssl/certs/chain.pem": bytes(broken) + cert_pem("mail-01.pem"),
            "srv/app/requirements.txt": "flask==2.0.1\n",
        })
        bundle = scan_host(HostSnapshot.open(tree))
        assert [r.name for r in of_category(bundle, EvidenceCategory.CERTIFICATE)] == kept
        assert [r.name for r in of_category(bundle, EvidenceCategory.SOFTWARE_COMPONENT)] == [
            "flask"]

    def test_algorithms_deduplicated(self, bundle):
        algos = {r.name for r in of_category(bundle, EvidenceCategory.ALGORITHM)}
        assert algos == {
            "RSA-2048",
            "SHA-256",
            "AES-256",
            "SHA-384",
            "CHACHA20-POLY1305",
            "AES-128",
            "ED25519",
        }
        # Each token appears exactly once however many sources mentioned it.
        sha256 = [r for r in of_category(bundle, EvidenceCategory.ALGORITHM) if r.name == "SHA-256"]
        assert len(sha256) == 1
        assert len(sha256[0].attribute("sources").split("\0")) >= 2

    def test_protocol_records(self, bundle):
        protocols = {
            (r.name, r.version)
            for r in of_category(bundle, EvidenceCategory.OPENSSL_CONFIG)
            if r.attribute("kind") == "protocol"
        }
        assert protocols == {("TLS", "1.2"), ("SSH", "2")}

    def test_kernel_settings(self, bundle):
        settings = {r.name: r.attribute("value") for r in of_category(bundle, EvidenceCategory.KERNEL_SETTING)}
        assert settings["net.ipv4.ip_forward"] == "0"
        assert settings["crypto.fips_enabled"] == "0"

    def test_sysctl_lines_starting_with_a_semicolon_are_comments(self, tmp_path):
        """sysctl.conf(5): lines that start with `#` or `;` are comments."""
        tree = write_tree(tmp_path / "h", {
            "facts.json": json.dumps({"hostname": "h"}),
            "etc/sysctl.conf": (
                "# sysctl.conf sample\n"
                "#\n"
                "  kernel.domainname = example.com\n"
                "; this one has a space which will be written to the sysctl!\n"
                "  kernel.modprobe = /sbin/mod probe\n"
                "; net.ipv4.ip_forward = 1\n"
                "\t;vm.swappiness=10\n"
            ),
        })
        bundle = scan_host(HostSnapshot.open(tree))
        settings = {r.name: r.attribute("value")
                    for r in of_category(bundle, EvidenceCategory.KERNEL_SETTING)}
        assert settings == {"kernel.domainname": "example.com",
                            "kernel.modprobe": "/sbin/mod probe"}

    @pytest.mark.parametrize("path", ["etc/ssh/sshd_config", "etc/ssh/ssh_config"])
    def test_ssh_directives_may_be_separated_by_one_equals_sign(self, tmp_path, path):
        """sshd_config(5) and ssh_config(5): a keyword and its arguments are
        separated by whitespace or by optional whitespace and exactly one `=`."""
        tree = write_tree(tmp_path / "h", {
            "facts.json": json.dumps({"hostname": "h"}),
            path: (
                "Ciphers=aes128-ctr\n"
                "MACs = hmac-sha2-256\n"
                "KexAlgorithms\t=\tcurve25519-sha256\n"
                "HostKeyAlgorithms ssh-ed25519\n"
                "PubkeyAcceptedAlgorithms =\n"
            ),
        })
        bundle = scan_host(HostSnapshot.open(tree))
        directives = {r.name: r.attribute("value")
                      for r in of_category(bundle, EvidenceCategory.OPENSSL_CONFIG)
                      if r.attribute("kind") == "directive"}
        assert directives == {"Ciphers": "aes128-ctr", "MACs": "hmac-sha2-256",
                              "KexAlgorithms": "curve25519-sha256",
                              "HostKeyAlgorithms": "ssh-ed25519"}

    def test_log_events(self, bundle):
        events = of_category(bundle, EvidenceCategory.SYSTEM_LOG_EVENT)
        kinds = sorted(r.name for r in events)
        assert kinds == ["auth-accepted", "auth-failed"]

    def test_scan_does_not_touch_snapshot(self, tmp_path):
        tree = sample_tree(tmp_path / "web-01")
        before = tree_digest(tree)
        scan_host(HostSnapshot.open(tree))
        assert tree_digest(tree) == before

    def test_scan_is_deterministic(self, tmp_path):
        tree = sample_tree(tmp_path / "web-01")
        first = scan_host(HostSnapshot.open(tree))
        second = scan_host(HostSnapshot.open(tree))
        assert first == second


_FOLD_TOKENS = tuple(
    m.token
    for m in extract_algorithm_mentions("aes-128 aes-256 3des sha256 md5 rsa-2048 p-256 x25519")
)


class TestDetectAlgorithms:
    def test_merges_modes_and_sources(self, tmp_path):
        tree = write_tree(
            tmp_path / "h",
            {
                "facts.json": json.dumps({"hostname": "h"}),
                "etc/ssl/openssl.cnf": "CipherString = AES128-GCM-SHA256\n",
                "etc/ssh/sshd_config": "Ciphers aes128-cbc\n",
            },
        )
        bundle = scan_host(HostSnapshot.open(tree))
        aes = [r for r in of_category(bundle, EvidenceCategory.ALGORITHM) if r.name == "AES-128"]
        assert len(aes) == 1
        assert aes[0].attribute("modes") == "cbc,gcm"
        assert aes[0].attribute("sources") == "etc/ssh/sshd_config\0etc/ssl/openssl.cnf"
        assert aes[0].attribute("family") == "AES"

    def test_ignores_non_algorithm_records(self, tmp_path):
        tree = write_tree(
            tmp_path / "h",
            {
                "facts.json": json.dumps({"hostname": "h", "packages": {"openssl": "3.0.13"}}),
                "etc/sysctl.conf": "net.ipv4.ip_forward = 0\n",
                "var/log/auth.log": "Accepted password for alice from 10.0.0.7\n",
            },
        )
        bundle = scan_host(HostSnapshot.open(tree))
        assert {r.category for r in bundle.records} == {
            EvidenceCategory.CRYPTO_LIBRARY,
            EvidenceCategory.KERNEL_SETTING,
            EvidenceCategory.SYSTEM_LOG_EVENT,
        }

    @settings(max_examples=150, deadline=None)
    @given(
        sightings=st.lists(
            st.tuples(
                st.sampled_from(("etc/ssl/openssl.cnf", "etc/ssh/sshd_config", "var/log/auth.log")),
                st.builds(
                    AlgorithmMention,
                    st.sampled_from(_FOLD_TOKENS),
                    st.sampled_from((None, "cbc", "gcm")),
                ),
            ),
            max_size=30,
        ),
        rng=st.randoms(use_true_random=False),
    )
    def test_fold_keeps_one_record_per_token_in_any_order(self, sightings, rng):
        repeated = sightings + sightings[: len(sightings) // 2]
        rng.shuffle(repeated)
        folded = _fold_sightings("h", sightings)
        assert sorted(_fold_sightings("h", repeated), key=by_sort_key) == sorted(
            folded, key=by_sort_key
        )

        expected: dict[str, tuple[set, set]] = {}
        for path, mention in sightings:
            paths, modes = expected.setdefault(mention.token.name, (set(), set()))
            paths.add(path)
            if mention.mode:
                modes.add(mention.mode)
        assert sorted(r.name for r in folded) == sorted(expected)
        tokens = {t.name: t for t in _FOLD_TOKENS}
        for record in folded:
            paths, modes = expected[record.name]
            token = tokens[record.name]
            assert record.category == EvidenceCategory.ALGORITHM
            assert record.host == "h"
            assert record.source_path == min(paths)
            assert record.attribute("sources") == "\0".join(sorted(paths))
            assert record.attribute("modes") == (",".join(sorted(modes)) or None)
            assert record.attribute("family") == token.family
            assert record.attribute("primitive") == token.primitive
            assert record.attribute("parameter") == (token.parameter or None)
