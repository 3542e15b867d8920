"""Data Adapter: turns BOM documents into canonical thing texts and hands
them to a mounted instance through its service interface, in-process."""

from __future__ import annotations

from typing import Any, Iterable

from ..bom import Bom
from ..instance import thing_texts_from_boms
from ..jsonhttp import ApiRequest, HttpError, JsonText, RequestRejected, TransportUnavailable
from .runtime import InProcessRuntime

__all__ = ["DataAdapter"]


class DataAdapter:
    def __init__(self, runtime: InProcessRuntime):
        self._runtime = runtime

    def process(self, boms: Iterable[Bom]) -> dict[str, JsonText]:
        """Pure projection; raises RepresentationError on inconsistent input."""
        return thing_texts_from_boms(boms)

    def _call(self, endpoint: str, method: str, token: str, body: Any = None) -> Any:
        """One `/representation` request through the instance's dispatch, so
        token scopes, version checks and atomic apply are the HTTP route's.
        Raises TransportUnavailable when nothing is mounted at endpoint and
        RequestRejected when the instance refuses or fails."""
        service = self._runtime.instance_service(endpoint)
        if service is None:
            raise TransportUnavailable(f"no instance mounted at {endpoint}")
        request = ApiRequest(
            method, "/representation", headers={"Authorization": f"Bearer {token}"}, body=body
        )
        try:
            return service.dispatch(request)[1]
        except HttpError as err:
            raise RequestRejected(err.status, err.code, err.message) from err
        except Exception as err:  # instance bug: reported as the HTTP handler would
            raise RequestRejected(500, "internal", str(err)) from err

    def push(
        self,
        endpoint: str,
        token: str,
        version: int,
        states: dict[str, JsonText],
    ) -> dict[str, Any]:
        """Apply the thing texts as representation `version`; returns the
        instance's {"version", "revisedThings"}."""
        return self._call(endpoint, "PUT", token, {"version": version, "things": states})

    def export(self, endpoint: str, token: str) -> dict[str, Any]:
        """Full representation, history included (admin scope); used for
        footprint."""
        return self._call(endpoint, "GET", token)
