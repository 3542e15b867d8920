"""Layered graph of cryptographic material observed across hosts.

Layer 0 holds primitive classes, layer 1 algorithm families, layer 2
parameterizations, layer 3 per-source occurrences. Adjacent layers connect
upward with REFINES edges except occurrences, which hang off their
parameterization via USED_BY; DEPENDS_ON edges run between co-located
occurrences (a protocol depends on the suite algorithms seen in the same
file). Node identity is (layer, name): inserting the same material twice
merges instead of duplicating, and nothing is ever removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from ..collect.records import EvidenceCategory, EvidenceRecord
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


@dataclass(frozen=True)
class NodeId:
    layer: int
    name: str


@dataclass(frozen=True)
class Edge:
    source: NodeId
    kind: EdgeKind
    target: NodeId


def occurrence_name(host: str, token: str, source_path: str) -> str:
    return f"{host}:{token}@{source_path}"


@dataclass
class _Node:
    id: NodeId
    primitive: str = ""
    family: str = ""
    parameter: str = ""
    version: str = ""
    host: str = ""
    source_path: str = ""
    token: str = ""
    modes: set = field(default_factory=set)


class CryptoHierarchyGraph:
    def __init__(self) -> None:
        self._nodes: dict[NodeId, _Node] = {}
        self._edges: set[Edge] = set()
        self.quarantine: list[EvidenceRecord] = []

    # -- basic accessors -------------------------------------------------

    def nodes(self, layer: Optional[int] = None) -> list[NodeId]:
        ids = self._nodes if layer is None else [n for n in self._nodes if n.layer == layer]
        return sorted(ids, key=lambda n: (n.layer, n.name))

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
        quarantined = frozenset(r.sort_key() for r in self.quarantine)
        return (nodes, frozenset(self._edges), quarantined)

    # -- construction ----------------------------------------------------

    def _ensure(self, node_id: NodeId, **attrs) -> _Node:
        node = self._nodes.get(node_id)
        if node is None:
            node = _Node(id=node_id)
            self._nodes[node_id] = node
        for key, value in attrs.items():
            if key == "modes":
                node.modes |= set(value)
            elif value and not getattr(node, key):
                setattr(node, key, value)
        return node

    def _link(self, source: NodeId, kind: EdgeKind, target: NodeId) -> None:
        self._edges.add(Edge(source=source, kind=kind, target=target))

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
        root = self._ensure(NodeId(LAYER_PRIMITIVE, primitive), primitive=primitive)
        fam = self._ensure(NodeId(LAYER_FAMILY, family), primitive=primitive, family=family)
        self._link(fam.id, EdgeKind.REFINES, root.id)
        param = self._ensure(
            NodeId(LAYER_PARAMETERIZATION, parameterization),
            primitive=primitive,
            family=family,
            parameter=parameter,
            version=version,
            modes=modes,
        )
        self._link(param.id, EdgeKind.REFINES, fam.id)
        for source in sources:
            occ = self._ensure(
                NodeId(LAYER_OCCURRENCE, occurrence_name(host, parameterization, source)),
                primitive=primitive,
                host=host,
                source_path=source,
                token=parameterization,
            )
            self._link(param.id, EdgeKind.USED_BY, occ.id)
            self._cross_link(occ)

    def _cross_link(self, occurrence: _Node) -> None:
        """Protocol occurrences depend on algorithm occurrences in the same file."""
        for other in list(self._nodes.values()):
            if other.id.layer != LAYER_OCCURRENCE or other.id == occurrence.id:
                continue
            if (other.host, other.source_path) != (occurrence.host, occurrence.source_path):
                continue
            pair = {occurrence.primitive, other.primitive}
            if "protocol" not in pair or pair == {"protocol"}:
                continue
            proto, algo = (
                (occurrence, other) if occurrence.primitive == "protocol" else (other, occurrence)
            )
            if algo.primitive in ALGORITHM_PRIMITIVES:
                self._link(proto.id, EdgeKind.DEPENDS_ON, algo.id)

    def insert(self, record: EvidenceRecord) -> "CryptoHierarchyGraph":
        """Classify one evidence record into the hierarchy; see insert_crypto_node."""
        sources = (record.attribute("sources") or record.source_path).split(",")
        if record.category == EvidenceCategory.ALGORITHM:
            primitive = record.attribute("primitive") or ""
            if primitive not in ALGORITHM_PRIMITIVES:
                self.quarantine.append(record)
                return self
            modes = (record.attribute("modes") or record.attribute("mode") or "").split(",")
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
        return sorted(
            {n.host for n in self._nodes.values() if n.id.layer == LAYER_OCCURRENCE and n.host}
        )

    def occurrences_for_host(self, host: str) -> list[_Node]:
        return sorted(
            (
                n
                for n in self._nodes.values()
                if n.id.layer == LAYER_OCCURRENCE and n.host == host
            ),
            key=lambda n: n.id.name,
        )

    def parameterizations_for_host(
        self, host: str, primitives: Optional[Iterable[str]] = None
    ) -> list[_Node]:
        """Layer-2 nodes with at least one occurrence on the host."""
        wanted = set(primitives) if primitives is not None else None
        tokens = {n.token for n in self.occurrences_for_host(host)}
        out = []
        for node_id in self.nodes(LAYER_PARAMETERIZATION):
            node = self._nodes[node_id]
            if node_id.name not in tokens:
                continue
            if wanted is not None and node.primitive not in wanted:
                continue
            out.append(node)
        return out

    def dependencies_of(self, occurrence_id: NodeId) -> list[NodeId]:
        return sorted(
            (e.target for e in self._edges if e.source == occurrence_id and e.kind == EdgeKind.DEPENDS_ON),
            key=lambda n: n.name,
        )

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


def insert_crypto_node(graph: CryptoHierarchyGraph, record: EvidenceRecord) -> CryptoHierarchyGraph:
    """Merge one record's primitive/family/parameterization chain into the graph.

    Unclassifiable records land on graph.quarantine and leave nodes and edges
    untouched. Growth is monotone and permutation-independent: any insertion
    order of the same record set produces the same final graph.
    """
    return graph.insert(record)


def build_graph(records: Iterable[EvidenceRecord]) -> CryptoHierarchyGraph:
    graph = CryptoHierarchyGraph()
    for record in records:
        graph.insert(record)
    return graph
