"""Token-scoped access control for the twin service interface.

Default-deny: a request is allowed only when its token is known and the
token's scopes include the one the route requires. Every decision is
appended to an in-memory log, which keeps the latest DECISION_LOG_SIZE, so
tests can assert totality while a long-lived instance stays bounded.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

__all__ = ["AccessPolicy", "DECISION_LOG_SIZE", "Scope"]

DECISION_LOG_SIZE = 1024


class Scope(str, Enum):
    READ = "READ"
    WRITE_REPRESENTATION = "WRITE_REPRESENTATION"
    ADMIN = "ADMIN"


def _coerce(scope: Union[Scope, str]) -> Scope:
    return scope if isinstance(scope, Scope) else Scope(str(scope))


def _mask(token: Optional[str]) -> str:
    if not token:
        return "<none>"
    return token[:6] + "..." if len(token) > 6 else token


class AccessPolicy:
    def __init__(self, tokens: Mapping[str, Iterable[Union[Scope, str]]] = ()):
        self._tokens: dict[str, frozenset[Scope]] = {}
        for token, scopes in dict(tokens).items():
            if not token:
                raise ValueError("token must be non-empty")
            self._tokens[token] = frozenset(_coerce(s) for s in scopes)
        self.decisions: deque[tuple[str, str, bool]] = deque(maxlen=DECISION_LOG_SIZE)

    def known(self, token: Optional[str]) -> bool:
        return token is not None and token in self._tokens

    def authorize(self, token: Optional[str], required: Scope) -> bool:
        """Total: never raises, unknown tokens simply deny."""
        granted = self._tokens.get(token) if token is not None else None
        allowed = granted is not None and required in granted
        self.decisions.append((_mask(token), required.value, allowed))
        return allowed
