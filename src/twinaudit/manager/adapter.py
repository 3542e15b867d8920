"""Data Adapter: turns BOM documents into thing states and pushes them
into a running instance over its service interface."""

from __future__ import annotations

from typing import Any, Iterable

from ..bom import Bom
from ..instance import thing_states_from_boms
from ..jsonhttp import RequestRejected, expect_json

__all__ = ["DataAdapter"]

TIMEOUT_S = 30.0


class DataAdapter:
    def process(self, boms: Iterable[Bom]) -> dict[str, dict[str, Any]]:
        """Pure projection; raises RepresentationError on inconsistent input."""
        return thing_states_from_boms(boms)

    def push(
        self,
        endpoint: str,
        token: str,
        version: int,
        states: dict[str, dict[str, Any]],
    ) -> dict[str, Any]:
        """PUT the states as representation `version`. Raises
        TransportUnavailable when the instance cannot be reached and
        RequestRejected when it refuses the update."""
        return expect_json(
            "PUT",
            endpoint + "/representation",
            body={"version": version, "things": states},
            token=token,
            timeout=TIMEOUT_S,
        )

    def export(self, endpoint: str, token: str) -> dict[str, Any]:
        """Full serialized representation (admin route); used for footprint."""
        payload = expect_json(
            "GET", endpoint + "/representation", token=token, timeout=TIMEOUT_S
        )
        if not isinstance(payload, dict):
            raise RequestRejected(502, "bad_payload", "instance returned a non-object export")
        return payload
