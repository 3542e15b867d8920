"""HTTP face of the lifecycle manager.

POST   /sdts                 -> 201 descriptor | 409 unknown_digest
PUT    /sdts/{id}            -> 200 {sdtId, representationVersion} | 409
DELETE /sdts/{id}            -> 204
GET    /sdts                 -> 200 {sdts: [...]}
GET    /sdts/{id}            -> 200 descriptor
GET    /sdts/{id}/footprint  -> 200 {sdtId, footprintBytes}
Errors carry {code, message}; unknown_digest also lists the `missing`
digests of the {"sha256": ...} items that no live twin holds.
"""

from __future__ import annotations

from typing import Any

from ..jsonhttp import ApiRequest, HttpError, JsonApi
from .core import SdtManager

__all__ = ["ManagerService"]


class ManagerService(JsonApi):
    def __init__(self, manager: SdtManager):
        self.manager = manager

    def dispatch(self, request: ApiRequest) -> tuple[int, Any]:
        parts = [p for p in request.path.split("/") if p]
        if not parts or parts[0] != "sdts":
            raise HttpError(404, "not_found", f"no route for {request.path}")

        if len(parts) == 1:
            if request.method == "POST":
                span = self.manager.tracer.span("create")
                span.record("interface")
                descriptor = self.manager.handle_create(request.body, span=span)
                span.record("respond")
                return 201, descriptor
            if request.method == "GET":
                return 200, {"sdts": self.manager.list_descriptors()}
            raise HttpError(404, "not_found", f"no route for {request.method} /sdts")

        sdt_id = parts[1]
        if len(parts) == 2:
            if request.method == "PUT":
                span = self.manager.tracer.span("update")
                span.record("interface")
                result = self.manager.handle_update(sdt_id, request.body, span=span)
                span.record("respond")
                return 200, result
            if request.method == "DELETE":
                self.manager.handle_destroy(sdt_id)
                return 204, None
            if request.method == "GET":
                return 200, self.manager.get_descriptor(sdt_id)
        if len(parts) == 3 and parts[2] == "footprint" and request.method == "GET":
            return 200, {"sdtId": sdt_id, "footprintBytes": self.manager.footprint(sdt_id)}

        raise HttpError(404, "not_found", f"no route for {request.method} {request.path}")
