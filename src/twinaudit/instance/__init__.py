"""One security digital twin: access-controlled WoT-style stored
representation with full revision history."""

from .policy import AccessPolicy, Scope
from .representation import (
    RepresentationError,
    Revision,
    StoredRepresentation,
    UnknownThing,
    VersionConflict,
    thing_texts_from_boms,
)
from .service import InstanceService

__all__ = [
    "AccessPolicy",
    "InstanceService",
    "RepresentationError",
    "Revision",
    "Scope",
    "StoredRepresentation",
    "UnknownThing",
    "VersionConflict",
    "thing_texts_from_boms",
]
