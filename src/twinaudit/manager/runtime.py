"""Runtime behind the lifecycle manager.

The in-process runtime mounts instance services under per-twin path
prefixes on one shared, already started HTTP server, so every instance gets
a distinct, independently addressable endpoint without consuming a port
each. An orchestrator-backed adapter would implement the same two
operations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Optional
from urllib.parse import urlsplit

from ..instance import AccessPolicy, InstanceService
from ..jsonhttp import SharedJsonServer

__all__ = ["InProcessRuntime", "InstanceConfig", "RuntimeAdapter"]


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


class InProcessRuntime(RuntimeAdapter):
    def __init__(self, server: SharedJsonServer):
        self._server = server

    def deploy_instance(self, config: InstanceConfig) -> str:
        service = InstanceService(config.sdt_id, AccessPolicy(config.tokens))
        return self._server.mount(f"/sdt/{config.sdt_id}", service)

    def destroy_instance(self, endpoint: str) -> None:
        self._server.unmount(urlsplit(endpoint).path)

    def instance_service(self, endpoint: str) -> Optional[InstanceService]:
        """In-process access to a mounted service (tests, footprint checks)."""
        service = self._server.service_at(urlsplit(endpoint).path)
        return service if isinstance(service, InstanceService) else None
