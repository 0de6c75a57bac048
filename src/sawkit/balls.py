"""Radius-ball witnesses: rooted ball isomorphism.

The check turns an assertion that is global for infinite graphs
(isomorphism of two one-ended lattices) into a finite computation on
radius-r balls.  It is a witness, not a proof: a failed check refutes, a
passed check is evidence at the probed radius — which is the strongest
finite statement available.
"""

from __future__ import annotations

from .graphs import GraphHandle, ball, ball_with_dist


def induced_ball_edges(g: GraphHandle, v, r: int) -> tuple:
    """The induced simple graph on ball(v, r): (vertex tuple, edge set).

    Edges are frozensets of endpoints; parallel edges collapse (the
    isomorphism check below is for simple derived graphs).
    """
    verts = sorted(ball(g, v, r))
    vset = set(verts)
    edges = set()
    for u in verts:
        for w in set(g.expanded_neighbors(u)):
            if w in vset and w != u:
                edges.add(frozenset((u, w)))
    return tuple(verts), edges


def balls_isomorphic(g1: GraphHandle, v1, g2: GraphHandle, v2, r: int) -> bool:
    """Are the induced radius-r balls around v1 and v2 isomorphic as
    rooted simple graphs (root must map to root)?"""
    import networkx as nx

    def build(g, v):
        verts, edges = induced_ball_edges(g, v, r)
        G = nx.Graph()
        G.add_nodes_from(range(len(verts)))
        index = {u: i for i, u in enumerate(verts)}
        G.add_edges_from((index[a], index[b]) for a, b in map(tuple, edges))
        # Tag each vertex with its distance from the root: a root-to-root
        # isomorphism must preserve these layers, and handing them to the
        # matcher both enforces root-to-root and prunes its search.
        dist = ball_with_dist(g, v, r)
        for u, i in index.items():
            G.nodes[i]["layer"] = dist[u]
        return G

    G1, G2 = build(g1, v1), build(g2, v2)
    if G1.number_of_nodes() != G2.number_of_nodes():
        return False
    if G1.number_of_edges() != G2.number_of_edges():
        return False
    nm = nx.algorithms.isomorphism.categorical_node_match("layer", -1)
    return nx.is_isomorphic(G1, G2, node_match=nm)
