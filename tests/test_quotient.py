"""Directed quotients: orbits, symmetry, class, representative-independence."""

import pytest

from sawkit.balls import balls_isomorphic
from sawkit.graphs import catalog
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
