"""Labeled Hasse and Pieri diagrams of parabolic quotients.

Vertices are the minimal-length coset representatives, graded by length:
the points of the quotient's :class:`~chowring.weyl.CosetOrbit`, in its
order, named by the orbit's ``names``, built once per orbit.  An edge
carries label i when the longer endpoint is s_i times the shorter one,
which is exactly the orbit's upward move along i, so the edges are read
off the orbit and no Weyl element is multiplied.  With that rule the
diagram of a rank-2 quotient is the expected path and the two F4
quotients reproduce the familiar double-diamond shape.  (The right-handed
variant w' = w*s_i leaves the quotient of the projective plane
disconnected, so the left-handed rule is the one actually drawn.)

The Pieri diagram keeps the same vertices but weights edge (u -> v) by
the coefficient of v in the hyperplane product H*u, read through the
orbit point of each basis class; reading the weighted edges back
regenerates the hyperplane multiplication table.
"""

from __future__ import annotations

import json

from . import weyl as _weyl
from .schubert import ChowRing
from .weyl import CosetOrbit, WeylElement, WeylGroup


class HasseDiagram:
    """Graded diagram on the minimal coset representatives, the points of
    ``orbit``; vertex k is ``orbit.minimal[k]``, named ``orbit.names[k]``.

    ``edges`` holds (source index, target index, tag) triples, and
    ``edge_tag`` names the third entry of each edge.  With "label", edges
    increase length by one and label i means target = s_i * source.  With
    "weight" (the Pieri diagram), edges follow increasing codimension of
    the basis classes, i.e. decreasing vertex length.  The fields are
    immutable by contract; a diagram compares by identity.
    """

    __slots__ = ("orbit", "edges", "edge_tag")

    def __init__(self, orbit: CosetOrbit, edges: tuple[tuple[int, int, int], ...],
                 edge_tag: str):
        self.orbit = orbit
        self.edges = edges
        self.edge_tag = edge_tag

    @property
    def theta(self) -> tuple[int, ...]:
        return self.orbit.theta

    @property
    def vertices(self) -> tuple[WeylElement, ...]:
        return self.orbit.minimal

    def lengths(self) -> tuple[int, ...]:
        return tuple(v.length for v in self.vertices)


def build_hasse(group: WeylGroup, theta) -> HasseDiagram:
    orbit = _weyl.coset_orbit(group.system, theta)
    edges = sorted((k, j, i) for k, moves in enumerate(orbit.up)
                   for i, j in moves.items())
    return HasseDiagram(orbit, tuple(edges), "label")


def build_pieri_diagram(ring: ChowRing, node: int) -> HasseDiagram:
    """Hyperplane-multiplication graph of CH(G/P_theta) for one node."""
    edges = []
    for cls in ring.classes:
        if cls.codim >= ring.dim:
            continue
        for target, weight in ring.chevalley_product(node, cls).terms.items():
            edges.append((cls.point, target.point, weight))
    edges.sort()
    return HasseDiagram(ring.orbit, tuple(edges), "weight")


# ---------------------------------------------------------------------------
# export


def export_dot(diagram, by_codim: bool = False) -> str:
    """Deterministic DOT text; ``by_codim`` flips the drawing direction so
    codimension increases left to right."""
    key = diagram.edge_tag
    lines = ["digraph hasse {", "  rankdir=LR;"]
    for k, (name, v) in enumerate(zip(diagram.orbit.names, diagram.vertices)):
        lines.append(f'  n{k} [label="{name} (l={v.length})"];')
    for src, dst, tag in diagram.edges:
        a, b = (dst, src) if by_codim and key == "label" else (src, dst)
        lines.append(f'  n{a} -> n{b} [{key}="{tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_list(items: list[str]) -> str:
    """A list value at the top level of an ``indent=2`` document, from its
    items already indented by four spaces."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def export_json(diagram) -> str:
    """Deterministic JSON text, byte for byte ``json.dumps(payload,
    indent=2, sort_keys=True) + "\n"`` of the payload {"edges", "theta",
    "vertices"}, written directly: with ``indent`` set, ``json`` falls
    back to its pure-Python encoder.  Keys come out sorted, and words go
    through ``json.dumps`` for escaping."""
    tag = diagram.edge_tag
    slot = {"source": 0, "target": 1, tag: 2}
    # one str.format template per edge: its three keys in sorted order
    edge = ("    {{\n"
            + ",\n".join(f"      {json.dumps(k)}: {{{slot[k]}}}" for k in sorted(slot))
            + "\n    }}")
    edges = [edge.format(*e) for e in diagram.edges]
    theta = [f"    {t}" for t in diagram.theta]
    vertices = [f'    {{\n      "length": {v.length},\n      "word": {json.dumps(name)}\n    }}'
                for name, v in zip(diagram.orbit.names, diagram.vertices)]
    return (f'{{\n  "edges": {_json_list(edges)},\n  "theta": {_json_list(theta)},'
            f'\n  "vertices": {_json_list(vertices)}\n}}\n')
