"""Graph handles: catalog, neighbor structure, spec files, augmentation."""

import pytest

from sawkit.balls import ball_sizes_uniform, balls_isomorphic
from sawkit.counting import count_saws
from sawkit.graphs import (CATALOG_NAMES, CatalogError, CayleyGraph,
                           GraphError, GroupPresentation, InvalidVertexError,
                           PeriodicLattice, augment, ball, catalog,
                           dump_spec_file, load_spec_file)

DEGREES = {"zd(1)": 2, "zd(2)": 4, "zd(3)": 6, "ladder": 3,
           "square-octagon": 3, "tree(3)": 3, "tree(4)": 4,
           "tree-with-end(3)": 3}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_basic_invariants(name):
    g = catalog(name)
    assert g.degree == DEGREES[name]
    assert g.is_simple
    assert g.is_acyclic == name.startswith("tree")
    v0 = g.origin()
    g.validate_key(v0)
    nbrs = g.neighbors(v0)
    assert sum(m for _, _, m in nbrs) == g.degree


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_neighbor_relation_is_symmetric(name):
    g = catalog(name)
    for v in ball(g, g.origin(), 2):
        for w, _, m in g.neighbors(v):
            back = sum(mm for u, _, mm in g.neighbors(w) if u == v)
            assert back == m, (v, w)


def test_catalog_accepts_colon_form():
    assert catalog("zd:2").graph_id == catalog("zd(2)").graph_id
    assert catalog("tree:4").degree == 4
    with pytest.raises(CatalogError):
        catalog("nonesuch")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_key_str_parse_round_trip(name):
    g = catalog(name)
    for v in sorted(ball(g, g.origin(), 2), key=g.key_str):
        assert g.parse_key(g.key_str(v)) == v
    with pytest.raises(InvalidVertexError):
        g.parse_key("certainly not a key")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_transitivity_witness(name):
    # equal ball sizes around every nearby vertex (radius 3)
    assert ball_sizes_uniform(catalog(name), radius=3)


def test_ball_sizes_z2():
    z2 = catalog("zd(2)")
    # |B_r| = 2r^2 + 2r + 1 on the square lattice
    for r in range(5):
        assert len(ball(z2, z2.origin(), r)) == 2 * r * r + 2 * r + 1


def test_spec_file_round_trip(tmp_path):
    g = catalog("square-octagon")
    path = str(tmp_path / "so.graph")
    dump_spec_file(g, path)
    h = load_spec_file(path)
    assert h.degree == g.degree
    assert h.cells == g.cells
    assert h.edges == g.edges
    assert balls_isomorphic(g, g.origin(), h, h.origin(), 4)


def test_spec_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("kind lattice\ndimension 2\ncells 1\nedge 0 0\n")
    with pytest.raises(GraphError):
        load_spec_file(str(bad))


def test_augment_adds_chord_orbit():
    z2 = catalog("zd(2)")
    ga = augment(z2, (z2.origin(), (0, (1, 1))))
    assert ga.degree == z2.degree + 2          # chord and its reverse
    assert "chord" in ga.graph_id
    assert isinstance(ga, PeriodicLattice)
    # diagonal neighbors now present
    targets = [w for w, _, _ in ga.neighbors(ga.origin())]
    assert (0, (1, 1)) in targets and (0, (-1, -1)) in targets


def test_augment_rejects_loops_and_foreign_graphs():
    z2 = catalog("zd(2)")
    with pytest.raises(GraphError):
        augment(z2, (z2.origin(), z2.origin()))
    with pytest.raises(GraphError):
        augment(catalog("tree(3)"), ((), (0,)))


def test_augment_parallel_edge_makes_multigraph():
    z1 = catalog("zd(1)")
    ga = augment(z1, (z1.origin(), (0, (1,))))
    assert not ga.is_simple
    m = [mm for w, _, mm in ga.neighbors(ga.origin()) if w == (0, (1,))]
    assert m == [2]
    # Z as <a, c | c = a>: generators 0 and 2, not adjacent, reach one
    # element, and so do their inverses 1 and 3
    zc = CayleyGraph(GroupPresentation(
        generators=("a", "A", "c", "C"), inverse=(1, 0, 3, 2),
        rewrite_rules=(((2,), (0,)), ((3,), (1,)))), "z-doubled")
    assert not zc.is_simple
    assert zc.neighbors(()) == [((0,), 0, 2), ((1,), 1, 2)]


# Z^2 as <a, b | ab = ba> with the shortlex rewriting system: free
# reduction plus the four commutations that move a letter of b's pair
# behind a letter of a's pair, so every rewrite with a non-empty rhs is
# one of these swaps.
Z2_PRESENTATION = GroupPresentation(
    generators=("a", "A", "b", "B"),
    inverse=(1, 0, 3, 2),
    relators=((0, 2, 1, 3),),
    rewrite_rules=(((2, 0), (0, 2)), ((3, 0), (0, 3)),
                   ((2, 1), (1, 2)), ((3, 1), (1, 3))),
)


def _reduce_word_ball(g, radius):
    """The radius ball of a Cayley graph, built with reduce_word alone."""
    seen = {()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for i in range(g.degree):
                w = g.reduce_word(v + (i,))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


@pytest.mark.parametrize("make", [lambda: catalog("tree(3)"),
                                  lambda: catalog("tree(4)"),
                                  lambda: CayleyGraph(Z2_PRESENTATION, "z2")],
                         ids=["tree(3)", "tree(4)", "z2-commuting"])
def test_tail_reduction_matches_reduce_word(make):
    g = make()
    words = _reduce_word_ball(g, 4)
    for v in words:
        assert g.expanded_neighbors(v) == tuple(
            g.reduce_word(v + (i,)) for i in range(g.degree)), v


def test_tail_reduction_calls_reduce_word_only_for_nonempty_rhs(monkeypatch):
    tree = catalog("tree(4)")
    z2 = CayleyGraph(Z2_PRESENTATION, "z2")
    calls = []
    for g in (tree, z2):
        original = g.reduce_word

        def counted(word, g=g, original=original):
            calls.append((g.graph_id, word))
            return original(word)
        monkeypatch.setattr(g, "reduce_word", counted)
    for v in ((), (0, 1, 2, 3), (3, 2, 1)):
        tree.expanded_neighbors(v)
    assert calls == []
    # b.a -> a.b is a swap, so only it takes the full rewrite
    assert z2.expanded_neighbors((2,)) == ((0, 2), (1, 2), (2, 2), ())
    assert calls == [("z2", (2, 0)), ("z2", (2, 1))]


def test_commuting_cayley_graph_is_the_square_lattice():
    g = CayleyGraph(Z2_PRESENTATION, "z2")
    assert g.is_simple and g.relators_close(()) and g.relators_close((0, 2))
    assert len(_reduce_word_ball(g, 4)) == 41
    assert count_saws(g, n_max=7).counts == \
        count_saws(catalog("zd(2)"), n_max=7).counts


def test_rewrite_rules_need_a_lhs():
    with pytest.raises(GraphError):
        GroupPresentation(generators=("a",), inverse=(0,),
                          rewrite_rules=(((), ()),))
