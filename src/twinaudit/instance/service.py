"""HTTP service interface of one twin instance.

Routes (bearer-token auth, except /health):
  GET  /health                          liveness, unauthenticated
  GET  /things                          thing id list            [READ]
  GET  /things/{id}?rev=N|at=T          state at revision/time   [READ]
                                        (T in Unix epoch seconds; a
                                        blank or non-integer N and a
                                        blank or non-finite T are 400)
  GET  /things/{id}/history             revision metadata        [READ]
  PUT  /representation                  build or update          [WRITE_REPRESENTATION]
  GET  /representation                  full export (footprint)  [ADMIN]

A thing state is answered as a JsonText: the revision's stored canonical
text, byte for byte, with no decode and re-encode per read. Every other
answer is a payload that the server encodes. On PUT /representation each
state is a JSON object, encoded once as it is stored, or a JsonText that
the manager's in-process push hands over finished and that is stored as it
is; JSON decoded from a request never yields a JsonText, so a state sent
over HTTP as a string is refused.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Optional

from ..jsonhttp import ApiRequest, HttpError, JsonApi, JsonText, bearer_token
from .policy import AccessPolicy, Scope
from .representation import (
    RepresentationError,
    StoredRepresentation,
    UnknownThing,
    VersionConflict,
)

__all__ = ["InstanceService"]


class InstanceService(JsonApi):
    def __init__(self, sdt_id: str, policy: AccessPolicy):
        self.sdt_id = sdt_id
        self.policy = policy
        self._rep: Optional[StoredRepresentation] = None
        self._write_lock = threading.Lock()

    # -- auth ---------------------------------------------------------------

    def _require(self, request: ApiRequest, scope: Scope) -> None:
        token = bearer_token(request.headers)
        if self.policy.authorize(token, scope):
            return
        if not self.policy.known(token):
            raise HttpError(401, "unauthorized", "unknown or missing token")
        raise HttpError(403, "forbidden", f"token lacks scope {scope.value}")

    # -- representation access ----------------------------------------------

    def _rep_or_404(self) -> StoredRepresentation:
        if self._rep is None:
            raise HttpError(404, "no_representation", "representation not built yet")
        return self._rep

    def representation(self) -> Optional[StoredRepresentation]:
        return self._rep

    def _put_representation(self, body: Any) -> tuple[int, Any]:
        if not isinstance(body, dict):
            raise HttpError(400, "bad_request", "body must be a JSON object")
        version = body.get("version")
        states = body.get("things")
        if not isinstance(version, int) or isinstance(version, bool):
            raise HttpError(400, "bad_request", "version must be an integer")
        if not isinstance(states, dict):
            raise HttpError(400, "bad_request", "things must be an object")

        with self._write_lock:
            if self._rep is None:
                if version != 1:
                    raise HttpError(
                        409, "version_conflict", f"first push must be version 1, got {version}"
                    )
                try:
                    self._rep = StoredRepresentation.build(states)
                except RepresentationError as err:
                    raise HttpError(400, "invalid_representation", str(err)) from err
                revised = len(states)
            else:
                try:
                    revised = self._rep.apply_update(states, version)
                except VersionConflict as err:
                    raise HttpError(409, "version_conflict", str(err)) from err
                except UnknownThing as err:
                    raise HttpError(
                        400, "unknown_thing", f"update references unknown thing {err.thing_id!r}"
                    ) from err
                except RepresentationError as err:
                    raise HttpError(400, "invalid_representation", str(err)) from err
        return 200, {"version": version, "revisedThings": revised}

    def _get_thing(self, thing_id: str, query: dict[str, str]) -> tuple[int, Any]:
        rep = self._rep_or_404()
        try:
            if "rev" in query:
                try:
                    revision = int(query["rev"])
                except ValueError:
                    raise HttpError(400, "bad_request", "rev must be an integer") from None
                text = rep.at_revision(thing_id, revision)
            elif "at" in query:
                try:
                    timestamp = float(query["at"])
                except ValueError:
                    timestamp = math.nan
                if not math.isfinite(timestamp):
                    raise HttpError(400, "bad_request", "at must be a finite timestamp")
                text = rep.at_time(thing_id, timestamp)
            else:
                text = rep.latest(thing_id)
        except UnknownThing as err:
            raise HttpError(404, "not_found", f"no such thing state: {err.args[0]}") from err
        return 200, JsonText(text)

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, request: ApiRequest) -> tuple[int, Any]:
        parts = [p for p in request.path.split("/") if p]

        if request.method == "GET" and parts == ["health"]:
            return 200, {"status": "ok", "sdtId": self.sdt_id}

        if parts and parts[0] == "things":
            self._require(request, Scope.READ)
            if request.method != "GET":
                raise HttpError(404, "not_found", "things routes are read-only")
            if len(parts) == 1:
                rep = self._rep_or_404()
                return 200, {"things": rep.thing_ids(), "version": rep.current_version}
            if len(parts) == 2:
                return self._get_thing(parts[1], request.query)
            if len(parts) == 3 and parts[2] == "history":
                rep = self._rep_or_404()
                try:
                    history = rep.history(parts[1])
                except UnknownThing as err:
                    raise HttpError(
                        404, "not_found", f"no such thing: {err.args[0]}"
                    ) from err
                return 200, {
                    "thingId": parts[1],
                    "revisions": [
                        {"revision": rev, "timestamp": ts} for rev, ts in history
                    ],
                }
            raise HttpError(404, "not_found", f"no route for {request.path}")

        if parts == ["representation"]:
            if request.method == "PUT":
                self._require(request, Scope.WRITE_REPRESENTATION)
                return self._put_representation(request.body)
            if request.method == "GET":
                self._require(request, Scope.ADMIN)
                return 200, self._rep_or_404().snapshot_doc()

        raise HttpError(404, "not_found", f"no route for {request.method} {request.path}")
