import json

import pytest

from chowring import hasse, weyl
from chowring.rootsystem import CartanMatrix, build_root_system, root_system
from chowring.schubert import get_chow_ring
from chowring.weyl import get_weyl_group
import dynkin
import weyl_oracle


def test_full_theta_single_vertex(f4_group):
    d = hasse.build_hasse(f4_group, (1, 2, 3, 4))
    assert len(d.vertices) == 1
    assert d.edges == ()


def test_a2_projective_plane_is_a_path():
    group = get_weyl_group(root_system("A2"))
    d = hasse.build_hasse(group, (2,))
    assert len(d.vertices) == 3
    assert len(d.edges) == 2
    assert sorted(v.length for v in d.vertices) == [0, 1, 2]


def test_f4_quotient_diagrams(f4_group):
    d1 = hasse.build_hasse(f4_group, (2, 3, 4))
    assert len(d1.vertices) == 24
    assert len(d1.edges) == 30
    for src, dst, label in d1.edges:
        assert d1.vertices[dst].length == d1.vertices[src].length + 1
        assert (weyl_oracle.mult_simple_left(d1.vertices[src], label)
                == d1.vertices[dst])
    d4 = hasse.build_hasse(f4_group, (1, 2, 3))
    assert len(d4.vertices) == 24
    assert len(d4.edges) == 30


def test_f4_top_path_labels(f4_group):
    """Near the unit class (the longest vertex) the path reads 1, 2, 3."""
    d = hasse.build_hasse(f4_group, (2, 3, 4))
    by_len = {v.length: k for k, v in enumerate(d.vertices) if v.length >= 12}
    labels = {d.vertices[t].length: lab for s, t, lab in d.edges
              if d.vertices[t].length >= 13}
    assert labels == {15: 1, 14: 2, 13: 3}


def test_vertex_counts_match_chow_ranks(f4_group, x1):
    d = hasse.build_hasse(f4_group, (2, 3, 4))
    per_length = [0] * 16
    for v in d.vertices:
        per_length[v.length] += 1
    # codimension s classes correspond to vertices of length 15 - s
    assert tuple(per_length[::-1]) == x1.ranks()


def test_pieri_diagram_weights(x1, x4):
    p1 = hasse.build_pieri_diagram(x1, 1)
    assert len(p1.vertices) == 24
    assert len(p1.edges) == 32
    assert sum(1 for _, _, w in p1.edges if w == 2) == 14
    p4 = hasse.build_pieri_diagram(x4, 4)
    assert len(p4.edges) == 32
    assert sum(1 for _, _, w in p4.edges if w == 2) == 2


def test_pieri_diagram_regenerates_table(x1):
    """Reading H*u = sum of weighted edges out of u gives the table back."""
    diagram = hasse.build_pieri_diagram(x1, 1)
    index = {v: k for k, v in enumerate(diagram.vertices)}
    for cls in x1.classes:
        if cls.codim >= x1.dim:
            continue
        vertex = index[weyl_oracle.multiply(cls.rep, x1.w_theta)]
        product = x1.chevalley_product(1, cls)
        expected = {}
        for target, coeff in product.terms.items():
            expected[index[weyl_oracle.multiply(target.rep, x1.w_theta)]] = coeff
        got = {t: w for s, t, w in diagram.edges if s == vertex}
        assert got == expected


def test_pieri_unit_edges_are_simple(x1):
    diagram = hasse.build_pieri_diagram(x1, 1)
    unit_vertex = max(range(24), key=lambda k: diagram.vertices[k].length)
    out = [(t, w) for s, t, w in diagram.edges if s == unit_vertex]
    assert [w for _, w in out] == [1]


def test_dot_export_deterministic(f4_group):
    d = hasse.build_hasse(f4_group, (2, 3, 4))
    text1 = hasse.export_dot(d)
    text2 = hasse.export_dot(d)
    assert text1 == text2
    assert text1.count("->") == 30
    assert text1.startswith("digraph")
    flipped = hasse.export_dot(d, by_codim=True)
    assert flipped != text1


def test_single_vertex_dot(f4_group):
    d = hasse.build_hasse(f4_group, (1, 2, 3, 4))
    text = hasse.export_dot(d)
    assert text.count("->") == 0
    assert text.count("label=") == 1


def test_json_export(f4_group):
    d = hasse.build_hasse(f4_group, (2, 3, 4))
    payload = json.loads(hasse.export_json(d))
    assert len(payload["vertices"]) == 24
    assert len(payload["edges"]) == 30
    assert payload["theta"] == [2, 3, 4]
    assert all("label" in e for e in payload["edges"])
    p = hasse.build_pieri_diagram(get_chow_ring(root_system("F4"), (2, 3, 4)), 1)
    payload_p = json.loads(hasse.export_json(p))
    assert all("weight" in e for e in payload_p["edges"])


def test_f4_p1_exports_name_each_vertex_once(x1, monkeypatch):
    """The Hasse DOT, Hasse JSON and Pieri JSON exports of F4/P1 read one
    tuple of vertex names off the shared orbit: 24 serializations in all.
    The system is built apart from the shared one, so no earlier test can
    have named its orbit."""
    system = build_root_system(CartanMatrix.from_name("F4"))
    calls = []
    real = weyl.serialize
    monkeypatch.setattr(weyl, "serialize", lambda w: calls.append(w) or real(w))
    diagram = hasse.build_hasse(get_weyl_group(system), (2, 3, 4))
    pieri = hasse.build_pieri_diagram(get_chow_ring(system, (2, 3, 4)), 1)
    texts = [hasse.export_dot(diagram), hasse.export_json(diagram),
             hasse.export_json(pieri)]
    assert len(calls) == len(set(calls)) == 24
    assert diagram.orbit is pieri.orbit
    # the same texts as from the shared system's diagrams
    monkeypatch.undo()
    shared = hasse.build_hasse(get_weyl_group(root_system("F4")), (2, 3, 4))
    assert texts == [hasse.export_dot(shared), hasse.export_json(shared),
                     hasse.export_json(hasse.build_pieri_diagram(x1, 1))]


def _json_module_export(diagram):
    """``export_json`` as the json module writes it."""
    payload = {
        "theta": list(diagram.theta),
        "vertices": [{"word": name, "length": v.length}
                     for name, v in zip(diagram.orbit.names, diagram.vertices)],
        "edges": [{"source": s, "target": t, diagram.edge_tag: tag}
                  for s, t, tag in diagram.edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# every maximal parabolic of F4, B3 and A5, the B3 flag variety, and B3
# itself (one vertex, no edges)
EXPORT_CASES = [(name, tuple(i for i in range(1, rank + 1) if i != node))
                for name, rank in (("F4", 4), ("B3", 3), ("A5", 5))
                for node in range(1, rank + 1)] + [("B3", ()), ("B3", (1, 2, 3))]


@pytest.mark.parametrize("name,theta", EXPORT_CASES)
def test_json_export_matches_the_json_module(name, theta):
    """The Hasse diagram ("label" edges, sorting before "source") and the
    Pieri diagram of every node outside theta ("weight" edges, sorting
    after "target"), byte for byte."""
    system = dynkin.system(name)
    ring = get_chow_ring(system, theta)
    diagrams = [hasse.build_hasse(get_weyl_group(system), theta)]
    diagrams += [hasse.build_pieri_diagram(ring, node)
                 for node in range(1, system.rank + 1) if node not in theta]
    assert {d.edge_tag for d in diagrams} == ({"label", "weight"} if len(theta) < system.rank
                                              else {"label"})
    for diagram in diagrams:
        assert hasse.export_json(diagram) == _json_module_export(diagram)
