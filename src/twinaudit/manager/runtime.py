"""Runtime behind the lifecycle manager.

The in-process runtime mounts instance services under per-twin path
prefixes on one shared, already started HTTP server, so every instance gets
a distinct, independently addressable endpoint without consuming a port
each. The manager reaches a mounted service directly through
`instance_service`; HTTP clients reach the same service at its endpoint.
"""

from __future__ import annotations

from typing import Mapping, Optional
from urllib.parse import urlsplit

from ..instance import AccessPolicy, InstanceService
from ..jsonhttp import SharedJsonServer

__all__ = ["InProcessRuntime"]


class InProcessRuntime:
    def __init__(self, server: SharedJsonServer):
        self._server = server

    def deploy_instance(self, sdt_id: str, tokens: Mapping[str, tuple[str, ...]]) -> str:
        """Mount one instance whose access policy provisions `tokens`
        (token -> scope names); returns its endpoint URL."""
        service = InstanceService(sdt_id, AccessPolicy(tokens))
        return self._server.mount(f"/sdt/{sdt_id}", service)

    def destroy_instance(self, endpoint: str) -> None:
        """Unmount the instance at endpoint. Idempotent."""
        self._server.unmount(urlsplit(endpoint).path)

    def instance_service(self, endpoint: str) -> Optional[InstanceService]:
        """The service mounted at endpoint, or None when nothing is."""
        service = self._server.service_at(urlsplit(endpoint).path)
        return service if isinstance(service, InstanceService) else None
