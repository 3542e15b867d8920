"""Pluggable runtime behind the lifecycle manager.

The default runtime mounts instance services under per-twin path prefixes
on one shared in-process HTTP server, so every instance gets a distinct,
independently addressable endpoint without consuming a port each. An
orchestrator-backed adapter would implement the same three operations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence
from urllib.parse import urlsplit

from ..instance import AccessPolicy, InstanceService
from ..jsonhttp import SharedJsonServer, TransportUnavailable, http_json

__all__ = [
    "DeployError",
    "InProcessRuntime",
    "InstanceConfig",
    "PlacementStrategy",
    "RuntimeAdapter",
    "SingleRuntimePlacement",
]


class DeployError(Exception):
    """Deploy failed; the runtime guarantees nothing was left behind."""


@dataclass(frozen=True)
class InstanceConfig:
    sdt_id: str
    # token -> scope names to provision on the instance's access policy
    tokens: Mapping[str, tuple[str, ...]] = field(default_factory=dict)


class RuntimeAdapter(ABC):
    @abstractmethod
    def deploy_instance(self, config: InstanceConfig) -> str:
        """Start one instance; returns its endpoint URL. All-or-nothing."""

    @abstractmethod
    def destroy_instance(self, endpoint: str) -> None:
        """Stop the instance at endpoint. Idempotent."""

    @abstractmethod
    def probe(self, endpoint: str) -> bool:
        """Liveness check; False for unreachable or destroyed instances."""


class PlacementStrategy(ABC):
    @abstractmethod
    def choose(self, runtimes: Sequence[RuntimeAdapter], config: InstanceConfig) -> RuntimeAdapter:
        """Pick the runtime that will host the new instance."""


class SingleRuntimePlacement(PlacementStrategy):
    def choose(self, runtimes: Sequence[RuntimeAdapter], config: InstanceConfig) -> RuntimeAdapter:
        if not runtimes:
            raise DeployError("no runtime available")
        return runtimes[0]


class InProcessRuntime(RuntimeAdapter):
    def __init__(self, server: Optional[SharedJsonServer] = None):
        self._server = server or SharedJsonServer()
        self._owns_server = server is None
        self._started = False

    def _ensure_server(self) -> SharedJsonServer:
        if not self._started:
            self._server.start()
            self._started = True
        return self._server

    @staticmethod
    def _prefix_for(sdt_id: str) -> str:
        return f"/sdt/{sdt_id}"

    def deploy_instance(self, config: InstanceConfig) -> str:
        server = self._ensure_server()
        service = InstanceService(config.sdt_id, AccessPolicy(config.tokens))
        try:
            return server.mount(self._prefix_for(config.sdt_id), service)
        except ValueError as err:
            raise DeployError(str(err)) from err

    def destroy_instance(self, endpoint: str) -> None:
        self._server.unmount(urlsplit(endpoint).path)

    def probe(self, endpoint: str) -> bool:
        try:
            status, payload = http_json("GET", endpoint + "/health", timeout=5)
        except TransportUnavailable:
            return False
        return status == 200 and isinstance(payload, dict) and payload.get("status") == "ok"

    def instance_service(self, endpoint: str) -> Optional[InstanceService]:
        """In-process access to a mounted service (tests, footprint checks)."""
        service = self._server.service_at(urlsplit(endpoint).path)
        return service if isinstance(service, InstanceService) else None

    def close(self) -> None:
        if self._owns_server and self._started:
            self._server.stop()
            self._started = False
