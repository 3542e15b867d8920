"""HTTP client for the lifecycle manager API."""

from __future__ import annotations

from typing import Any, Optional

from ..jsonhttp import RequestRejected, expect_json
from .core import text_digest

__all__ = ["HeldText", "ManagerClient"]


class HeldText(str):
    """A document text that a live twin on the manager is likely to hold:
    a create names it by its text_digest instead of sending it."""


class ManagerClient:
    """Thin typed wrapper; raises TransportUnavailable when the manager is
    down and RequestRejected when it answers with an error status."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def create(
        self,
        profile_id: str,
        bom_texts: list[str],
        options: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        """Create a twin of the documents. Each HeldText travels as its
        {"sha256": digest}. A manager that holds no twin of some of them
        refuses with unknown_digest, and the create is sent once more with
        their texts; if the manager then lacks another (a destroy raced the
        first request), it is sent with every text. So a create makes at
        most three requests, and one of plain texts makes one."""
        digests = {i: text_digest(t) for i, t in enumerate(bom_texts) if isinstance(t, HeldText)}
        body: dict[str, Any] = {"profileId": profile_id, "boms": bom_texts}
        if options:
            body["options"] = options
        retried = False
        while True:
            body["boms"] = [
                {"sha256": digests[i]} if i in digests else text for i, text in enumerate(bom_texts)
            ] if digests else bom_texts
            try:
                return expect_json("POST", f"{self.base_url}/sdts", body=body, timeout=self.timeout)
            except RequestRejected as err:
                if err.code != "unknown_digest" or not digests:
                    raise
                missing = set(err.missing)
                digests = {} if retried else {i: d for i, d in digests.items() if d not in missing}
                retried = True

    def update(
        self,
        sdt_id: str,
        expected_version: int,
        deltas: Optional[list[dict[str, Any]]] = None,
        bom_texts: Optional[list[str]] = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"expectedVersion": expected_version}
        if deltas is not None:
            body["deltas"] = deltas
        if bom_texts is not None:
            body["boms"] = bom_texts
        return expect_json(
            "PUT", f"{self.base_url}/sdts/{sdt_id}", body=body, timeout=self.timeout
        )

    def destroy(self, sdt_id: str) -> None:
        expect_json("DELETE", f"{self.base_url}/sdts/{sdt_id}", timeout=self.timeout)

    def get(self, sdt_id: str) -> dict[str, Any]:
        return expect_json("GET", f"{self.base_url}/sdts/{sdt_id}", timeout=self.timeout)

    def list(self) -> list[dict[str, Any]]:
        payload = expect_json("GET", f"{self.base_url}/sdts", timeout=self.timeout)
        return payload.get("sdts", []) if isinstance(payload, dict) else []

    def footprint(self, sdt_id: str) -> int:
        payload = expect_json(
            "GET", f"{self.base_url}/sdts/{sdt_id}/footprint", timeout=self.timeout
        )
        return int(payload["footprintBytes"])
