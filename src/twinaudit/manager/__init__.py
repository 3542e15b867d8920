"""Lifecycle manager: create, update, and destroy twin instances on a
runtime, pushing BOM-derived state through the Data Adapter."""

from .adapter import DataAdapter
from .api import ManagerService
from .client import HeldText, ManagerClient
from .core import ID_PATTERN, SdtDescriptor, SdtManager, SdtState
from .runtime import InProcessRuntime
from .trace import CREATE_STAGES, UPDATE_STAGES, TraceRecorder, TraceSpan, is_subsequence

__all__ = [
    "CREATE_STAGES",
    "DataAdapter",
    "HeldText",
    "ID_PATTERN",
    "InProcessRuntime",
    "ManagerClient",
    "ManagerService",
    "SdtDescriptor",
    "SdtManager",
    "SdtState",
    "TraceRecorder",
    "TraceSpan",
    "UPDATE_STAGES",
    "is_subsequence",
]
