"""Directed quotients: orbits, symmetry, class, representative-independence."""

import hashlib

import pytest

from sawkit import quotient
from sawkit.balls import balls_isomorphic
from sawkit.counting import count_directed_saws, count_saws
from sawkit.graphs import InvalidVertexError, catalog
from sawkit.quotient import (InfiniteOrbitError, InvalidActionError,
                             InvalidLabelError, build_quotient, check_representative_independence,
                             check_symmetry, classify_type, derive_undirected,
                             lift, project, sublattice_action,
                             tree_action)


def test_finite_quotient_orbits(q_z1mod3):
    q = q_z1mod3
    assert q.finite and q.orbit_count == 3
    assert q.orbits == ((0, (0,)), (0, (1,)), (0, (2,)))
    for k in range(-4, 5):
        v = (0, (k,))
        o = q.orbit_of(v)
        assert q.orbit_of(q.rep_of(o)) == o
        assert o == (0, (k % 3,))


def _action(rows):
    return tree_action(rows) if rows.startswith("child") else \
        sublattice_action([[int(x) for x in r.split()]
                           for r in rows.split(";")])


# (graph, action, orbit_count, sha256 prefix of repr(orbits)), recorded
# when every quotient listed its orbits as it was built
ORBITS = [
    ("zd:1", "1", 1, "c155b068eefe6897"),
    ("zd:1", "3", 3, "b2896a93c034cb83"),
    ("zd:2", "2 0;0 2", 4, "d4a68f1464344e39"),
    ("zd:2", "3 0;0 1", 3, "0b6283a47f6d39fb"),
    ("zd:2", "2 1;0 3", 6, "ba3058104db65030"),
    ("zd:2", "1 1", None, "dc937b59892604f5"),
    ("ladder", "3", 6, "bbaf1d7f33fdbb84"),
    ("square-octagon", "1 -1", None, "dc937b59892604f5"),
    ("zd:3", "3 0 0;0 3 0;0 0 3", 27, "345d57f8f147229f"),
    ("zd:3", "40 0 0;0 40 0;0 0 40", 64000, "c5c8ad57c12006b4"),
    ("tree-with-end(3)", "child-swap", None, "dc937b59892604f5"),
    ("tree-with-end(3)", "child-swap+shift:2", 2, "a5cabe61309cbdb1"),
    ("tree-with-end(4)", "child-swap+shift:3", 3, "eae0f06c46ca0f14"),
]


@pytest.mark.parametrize("graph,rows,count,digest", ORBITS)
def test_orbits_keep_their_recorded_values(graph, rows, count, digest):
    q = build_quotient(catalog(graph), _action(rows))
    assert q.orbit_count == count and q.finite == (count is not None)
    assert hashlib.sha256(repr(q.orbits).encode()).hexdigest()[:16] == digest
    if q.finite:
        assert len(q.orbits) == count == len(set(q.orbits))
        assert all(q.orbit_of(q.rep_of(o)) == o for o in q.orbits)


def test_quotient_is_built_on_demand(monkeypatch):
    # Z^3 mod (40Z)^3 has 64 000 orbits; building it lists none and
    # tallies no row, and a count reads only the rows it reaches
    tallies = []

    def spy(g, orbit_of, v):
        tallies.append(v)
        return tally(g, orbit_of, v)

    tally = quotient._orbit_tally
    monkeypatch.setattr(quotient, "_orbit_tally", spy)
    q = build_quotient(catalog("zd:3"), _action("40 0 0;0 40 0;0 0 40"))
    assert q.finite and q.orbit_count == 64000
    assert tallies == [] and q._rows == {} and "orbits" not in vars(q)
    assert count_directed_saws(q, 6).counts == \
        (1, 6, 30, 150, 726, 3534, 16926)
    assert 0 < len(tallies) == len(q._rows) < 100
    assert "orbits" not in vars(q)
    assert len(q.orbits) == 64000 and "orbits" in vars(q)


def test_derived_graphs_validate_keys_through_the_quotient(q_z2mod22):
    # (0, (5, 5)) lies in the orbit keyed (0, (1, 1)); Z^2 has no cell 3
    for keep in (False, True):
        h = derive_undirected(q_z2mod22, keep_multiplicity=keep)
        h.validate_key((0, (1, 1)))
        with pytest.raises(InvalidVertexError):
            h.validate_key((3, (0, 0)))
        with pytest.raises(InvalidVertexError):
            count_saws(h, (3, (0, 0)), 3)
        with pytest.raises(ValueError,
                           match=r"orbit's key is \(0, \(1, 1\)\)"):
            h.validate_key((0, (5, 5)))
    q = build_quotient(catalog("tree-with-end(3)"),
                       tree_action("child-swap+shift:2"))
    h = derive_undirected(q, keep_multiplicity=False)
    h.validate_key(1)
    with pytest.raises(ValueError, match="orbit's key is 1"):
        h.validate_key(3)
    with pytest.raises(InvalidVertexError):
        h.validate_key("1")


def test_quotient_out_degree_preserved(q_z2mod22, q_sqoct_ladder, q_tree_end):
    for q in (q_z2mod22, q_sqoct_ladder, q_tree_end):
        o0 = q.origin_orbit()
        assert sum(m for _, m in q.drow(o0)) == q.base.degree


def test_symmetry_holds_for_sublattice_quotients(q_z1mod3, q_z2mod22,
                                                 q_z2mod31, q_sqoct_ladder):
    for q in (q_z1mod3, q_z2mod22, q_z2mod31, q_sqoct_ladder):
        assert check_symmetry(q, probe_radius=4), q.quotient_id


def test_symmetry_fails_for_child_swap(q_tree_end):
    # collapsing levels of the rooted-at-an-end tree: one edge up but two
    # edges down between consecutive level orbits, hence asymmetric.
    assert not check_symmetry(q_tree_end, probe_radius=3)


def test_representative_independence_radius6(z2, q_z2mod22, q_z2mod31):
    for q in (q_z2mod22, q_z2mod31):
        assert check_representative_independence(z2, q, radius=6)


@pytest.mark.parametrize("k,expected_type,expected_len",
                         [(1, 1, 1), (2, 2, 2), (3, 3, 3), (5, 3, 5)])
def test_classification_by_cycle_length(z1, k, expected_type, expected_len):
    q = build_quotient(z1, sublattice_action([[k]]))
    rep = classify_type(q)
    assert rep.type_ == expected_type
    assert rep.length == expected_len == len(rep.witness) - 1
    # witness is a self-avoiding base walk joining two distinct vertices
    # of one orbit
    assert len(set(rep.witness)) == len(rep.witness)
    assert q.orbit_of(rep.witness[0]) == q.orbit_of(rep.witness[-1])


def test_classification_of_fixtures(q_z2mod22, q_sqoct_ladder, q_tree_end):
    assert classify_type(q_z2mod22).type_ == 2
    assert classify_type(q_tree_end).type_ == 2     # sibling two steps away
    rep = classify_type(q_sqoct_ladder)
    assert rep.type_ == 3 and rep.length == 4


def test_derived_undirected_graph_matches_ladder(q_sqoct_ladder):
    h = derive_undirected(q_sqoct_ladder, keep_multiplicity=False)
    lad = catalog("ladder")
    assert h.degree == lad.degree == 3
    assert balls_isomorphic(h, h.origin(), lad, lad.origin(), 6)


def test_derived_multigraph(q_z2mod22, q_sqoct_ladder):
    hm = derive_undirected(q_z2mod22, keep_multiplicity=True)
    assert hm.degree == 4 and not hm.is_simple
    with pytest.raises(InfiniteOrbitError):
        derive_undirected(q_sqoct_ladder, keep_multiplicity=True)


def test_project_lift_round_trip(q_z2mod22):
    q = q_z2mod22
    vertices = ((0, (0, 0)), (0, (1, 0)), (0, (1, 1)), (0, (2, 1)))
    slots = []
    for u, w in zip(vertices, vertices[1:]):
        slots.append(q.base.expanded_neighbors(u).index(w))
    slots = tuple(slots)
    dwalk = project(q, vertices, slots)
    assert dwalk[0] == q.origin_orbit()
    assert lift(q, vertices[0], dwalk) == (vertices, slots)
    # lifting from a translated start vertex lands on the translated walk
    v2, s2 = lift(q, (0, (2, 2)), dwalk)
    assert s2 == slots and v2[0] == (0, (2, 2)) and len(v2) == len(vertices)


def test_lift_rejects_wrong_orbit(q_z1mod3):
    with pytest.raises(InvalidLabelError):
        lift(q_z1mod3, (0, (1,)), (q_z1mod3.origin_orbit(), ()))


def test_bad_actions_rejected(z2, ladder):
    with pytest.raises(InvalidActionError):
        sublattice_action([[0, 0], [0, 0]])             # trivial
    with pytest.raises(InvalidActionError):
        sublattice_action([[1, 0], [1]])                # ragged rows
    with pytest.raises(InvalidActionError):
        tree_action("parent-swap")                      # unknown name
    with pytest.raises(InvalidActionError):
        build_quotient(z2, sublattice_action([[2]]))    # wrong dimension
    with pytest.raises(InvalidActionError):
        build_quotient(z2, tree_action("child-swap"))   # wrong graph kind
    with pytest.raises(InvalidActionError):
        build_quotient(catalog("tree(3)"), sublattice_action([[2]]))


def test_quotient_text_dump(q_z1mod3, q_sqoct_ladder):
    txt = q_z1mod3.to_text()
    assert "orbits 3" in txt and q_z1mod3.quotient_id in txt
    assert "infinite" in q_sqoct_ladder.to_text(probe_radius=2)
