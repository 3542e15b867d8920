"""Layered graph of cryptographic material observed across hosts.

Layer 0 holds primitive classes, layer 1 algorithm families, layer 2
parameterizations, layer 3 per-source occurrences. Adjacent layers connect
upward with REFINES edges except occurrences, which hang off their
parameterization via USED_BY; DEPENDS_ON edges run between co-located
occurrences (a protocol depends on the suite algorithms seen in the same
file). Node identity is (layer, name): inserting the same material twice
merges instead of duplicating, and nothing is ever removed.

Besides the nodes and the edge set, the graph keeps three indexes, each
filled as an occurrence or a DEPENDS_ON edge is added: occurrences by
(host, source path), DEPENDS_ON targets by source, and occurrences by
host. So cross-linking a new occurrence, dependencies_of and the per-host
queries touch only what they return. Nothing else is derived state.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

from ..collect.records import SOURCES_SEPARATOR, EvidenceCategory, EvidenceRecord
from ..collect.tokens import token_for_key

# Primitive classes accepted at layer 0. "library" extends the algorithm
# primitives so crypto libraries classify instead of landing in quarantine.
PRIMITIVES = ("cipher", "hash", "signature", "key-exchange", "protocol", "library")
ALGORITHM_PRIMITIVES = ("cipher", "hash", "signature", "key-exchange")

LAYER_PRIMITIVE = 0
LAYER_FAMILY = 1
LAYER_PARAMETERIZATION = 2
LAYER_OCCURRENCE = 3


class EdgeKind(str, Enum):
    REFINES = "REFINES"
    USED_BY = "USED_BY"
    DEPENDS_ON = "DEPENDS_ON"


class NodeId(NamedTuple):
    layer: int
    name: str


class Edge(NamedTuple):
    source: NodeId
    kind: EdgeKind
    target: NodeId


def occurrence_name(host: str, token: str, source_path: str) -> str:
    return f"{host}:{token}@{source_path}"


class _Node:
    """A node's attributes: each keeps the first non-empty value inserted."""

    __slots__ = ("id", "primitive", "family", "parameter", "version", "host", "source_path",
                 "token", "modes")

    def __init__(self, node_id: NodeId) -> None:
        self.id = node_id
        self.primitive = self.family = self.parameter = self.version = ""
        self.host = self.source_path = self.token = ""
        self.modes: set[str] = set()

    def fill(self, primitive: str, family: str = "", parameter: str = "", version: str = "",
             host: str = "", source_path: str = "", token: str = "") -> None:
        if not self.primitive:
            self.primitive = primitive
        if not self.family:
            self.family = family
        if not self.parameter:
            self.parameter = parameter
        if not self.version:
            self.version = version
        if not self.host:
            self.host = host
        if not self.source_path:
            self.source_path = source_path
        if not self.token:
            self.token = token


_by_name = attrgetter("name")
_by_id_name = attrgetter("id.name")


class CryptoHierarchyGraph:
    def __init__(self) -> None:
        self._nodes: dict[NodeId, _Node] = {}
        self._edges: set[Edge] = set()
        self.quarantine: list[EvidenceRecord] = []
        # The indexes (see the module docstring).
        self._by_file: dict[tuple[str, str], list[_Node]] = {}
        self._depends_on: dict[NodeId, set[NodeId]] = {}
        self._by_host: dict[str, list[_Node]] = {}

    # -- basic accessors -------------------------------------------------

    def nodes(self, layer: Optional[int] = None) -> list[NodeId]:
        ids = self._nodes if layer is None else (n for n in self._nodes if n.layer == layer)
        return sorted(ids)

    def edges(self) -> list[Edge]:
        return sorted(self._edges, key=lambda e: (e.source.layer, e.source.name, e.kind.value, e.target.name))

    def node(self, node_id: NodeId) -> Optional[_Node]:
        return self._nodes.get(node_id)

    def signature(self) -> tuple:
        """Order-independent fingerprint for equality checks in tests."""
        nodes = frozenset(
            (n.id, n.primitive, n.family, n.parameter, n.version, frozenset(n.modes))
            for n in self._nodes.values()
        )
        quarantined = frozenset(r.sort_key for r in self.quarantine)
        return (nodes, frozenset(self._edges), quarantined)

    # -- construction ----------------------------------------------------

    def _ensure(self, node_id: NodeId) -> _Node:
        node = self._nodes.get(node_id)
        if node is None:
            node = self._nodes[node_id] = _Node(node_id)
        return node

    def _link(self, source: NodeId, kind: EdgeKind, target: NodeId) -> None:
        self._edges.add(Edge(source, kind, target))

    def _insert_chain(
        self,
        primitive: str,
        family: str,
        parameterization: str,
        host: str,
        sources: Iterable[str],
        parameter: str = "",
        version: str = "",
        modes: Iterable[str] = (),
    ) -> None:
        root_id = NodeId(LAYER_PRIMITIVE, primitive)
        self._ensure(root_id).fill(primitive)
        family_id = NodeId(LAYER_FAMILY, family)
        self._ensure(family_id).fill(primitive, family)
        self._link(family_id, EdgeKind.REFINES, root_id)
        param_id = NodeId(LAYER_PARAMETERIZATION, parameterization)
        param = self._ensure(param_id)
        param.fill(primitive, family, parameter, version)
        param.modes.update(modes)
        self._link(param_id, EdgeKind.REFINES, family_id)
        for source in sources:
            occ_id = NodeId(LAYER_OCCURRENCE, occurrence_name(host, parameterization, source))
            new = occ_id not in self._nodes
            occ = self._ensure(occ_id)
            occ.fill(primitive, host=host, source_path=source, token=parameterization)
            if new:
                self._cross_link(occ)
                self._by_host.setdefault(occ.host, []).append(occ)
            self._link(param_id, EdgeKind.USED_BY, occ_id)

    def _cross_link(self, occurrence: _Node) -> None:
        """Protocol occurrences depend on algorithm occurrences in the same
        file. Runs once per new occurrence, which it then indexes by file:
        each pair is linked when its second occurrence arrives."""
        same_file = self._by_file.setdefault((occurrence.host, occurrence.source_path), [])
        is_protocol = occurrence.primitive == "protocol"
        for other in same_file:
            if (other.primitive == "protocol") == is_protocol:
                continue
            proto, algo = (occurrence, other) if is_protocol else (other, occurrence)
            if algo.primitive in ALGORITHM_PRIMITIVES:
                self._link(proto.id, EdgeKind.DEPENDS_ON, algo.id)
                self._depends_on.setdefault(proto.id, set()).add(algo.id)
        same_file.append(occurrence)

    def insert(self, record: EvidenceRecord) -> "CryptoHierarchyGraph":
        """Merge one record's primitive/family/parameterization chain into the graph.

        Unclassifiable records land on graph.quarantine and leave nodes and
        edges untouched. Growth is monotone and permutation-independent: any
        insertion order of the same record set produces the same final graph.
        """
        sources = (record.attribute("sources") or record.source_path).split(SOURCES_SEPARATOR)
        if record.category == EvidenceCategory.ALGORITHM:
            primitive = record.attribute("primitive") or ""
            if primitive not in ALGORITHM_PRIMITIVES:
                self.quarantine.append(record)
                return self
            modes = (record.attribute("modes") or "").split(",")
            self._insert_chain(
                primitive=primitive,
                family=record.attribute("family") or record.name,
                parameterization=record.name,
                host=record.host,
                sources=sources,
                parameter=record.attribute("parameter") or "",
                modes=[m for m in modes if m],
            )
            return self

        if record.category == EvidenceCategory.OPENSSL_CONFIG:
            if record.attribute("kind") != "protocol" or not record.version:
                self.quarantine.append(record)
                return self
            self._insert_chain(
                primitive="protocol",
                family=record.name,
                parameterization=f"{record.name}-{record.version}",
                host=record.host,
                sources=sources,
                version=record.version,
            )
            return self

        if record.category == EvidenceCategory.CRYPTO_LIBRARY:
            parameterization = f"{record.name}-{record.version}" if record.version else record.name
            self._insert_chain(
                primitive="library",
                family=record.name,
                parameterization=parameterization,
                host=record.host,
                sources=sources,
                version=record.version,
            )
            return self

        if record.category == EvidenceCategory.CERTIFICATE:
            key_token = token_for_key(
                record.attribute("key_algorithm") or "",
                int(record.attribute("key_size") or 0) or None,
                record.attribute("curve"),
            )
            if key_token is None:
                self.quarantine.append(record)
                return self
            self._insert_chain(
                primitive=key_token.primitive,
                family=key_token.family,
                parameterization=key_token.name,
                host=record.host,
                sources=sources,
                parameter=key_token.parameter,
            )
            return self

        self.quarantine.append(record)
        return self

    # -- queries ----------------------------------------------------------

    def hosts(self) -> list[str]:
        return sorted(host for host in self._by_host if host)

    def occurrences_for_host(self, host: str) -> list[_Node]:
        return sorted(self._by_host.get(host, ()), key=_by_id_name)

    def parameterizations_for_host(
        self, host: str, primitives: Optional[Iterable[str]] = None
    ) -> list[_Node]:
        """Layer-2 nodes with at least one occurrence on the host."""
        wanted = set(primitives) if primitives is not None else None
        tokens = sorted({n.token for n in self._by_host.get(host, ())})
        params = (self._nodes[NodeId(LAYER_PARAMETERIZATION, t)] for t in tokens)
        return [n for n in params if wanted is None or n.primitive in wanted]

    def dependencies_of(self, occurrence_id: NodeId) -> list[NodeId]:
        return sorted(self._depends_on.get(occurrence_id, ()), key=_by_name)

    def is_acyclic(self) -> bool:
        """True when edges carry no directed cycle (checked over all kinds)."""
        adjacency: dict[NodeId, list[NodeId]] = {}
        for edge in self._edges:
            adjacency.setdefault(edge.source, []).append(edge.target)
        state: dict[NodeId, int] = {}

        def visit(node: NodeId) -> bool:
            state[node] = 1
            for nxt in adjacency.get(node, []):
                mark = state.get(nxt, 0)
                if mark == 1:
                    return False
                if mark == 0 and not visit(nxt):
                    return False
            state[node] = 2
            return True

        return all(state.get(n, 0) == 2 or visit(n) for n in list(self._nodes))


def build_graph(records: Iterable[EvidenceRecord]) -> CryptoHierarchyGraph:
    graph = CryptoHierarchyGraph()
    for record in records:
        graph.insert(record)
    return graph
