"""Construction, parsing, and combinatorial operations on complexes."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import srbetti
from srbetti.complexes import (
    SimplicialComplex,
    boundary_simplex,
    by_size,
    complex_from_json,
    complex_to_json,
    empty_complex,
    format_complex,
    from_facets,
    full_simplex,
    full_subcomplex,
    join,
    mask_of,
    parse_complex,
    submasks,
    vertices_of,
)
from srbetti.errors import (
    EmptyFacetList,
    InvalidDimension,
    IsolatedVertexMissing,
    VertexBudgetExceeded,
    VertexOutOfRange,
)


def relabel_complex(K: SimplicialComplex, perm: dict[int, int]) -> SimplicialComplex:
    """Apply a vertex permutation {old: new} of [m] to K."""
    if sorted(perm) != list(range(1, K.m + 1)) or sorted(perm.values()) != list(range(1, K.m + 1)):
        raise VertexOutOfRange("perm must be a permutation of [m]")

    def remap(mask: int) -> int:
        out = 0
        for v in vertices_of(mask):
            out |= 1 << (perm[v] - 1)
        return out

    return SimplicialComplex(K.m, frozenset(remap(f) for f in K.faces))


def four_cycle():
    return from_facets(4, [mask_of(e) for e in [(1, 2), (2, 3), (3, 4), (1, 4)]])


def moore_space_mod_3():
    """A triangulated mod-3 Moore space: a disk whose boundary 9-gon, labelled
    1 2 3 1 2 3 1 2 3, wraps three times around the circle 1 2 3.  An inner
    pentagon 4..8 fills it; its vertex 4 + i spans the boundary positions
    2i..2i + 2 (8..9 for the last, position 9 being 0).  H̃ is zero over ℚ
    and GF(2), and H̃^1 = H̃^2 = 1 over GF(3)."""
    label = [1 + j % 3 for j in range(10)]
    triangles = [(4, 5, 6), (4, 6, 7), (4, 7, 8)]
    for i, (start, end) in enumerate([(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]):
        triangles += [(label[j], label[j + 1], 4 + i) for j in range(start, end)]
        triangles.append((label[end], 4 + i, 4 + (i + 1) % 5))
    return from_facets(8, [mask_of(t) for t in triangles])


def test_mask_helpers():
    assert mask_of((1, 3)) == 0b101
    assert vertices_of(0b1010) == (2, 4)
    assert sorted(submasks(0b101)) == [0, 1, 4, 5]
    assert sorted([0b110, 0b1, 0b11, 0, 0b100], key=by_size) == [0, 0b1, 0b100, 0b11, 0b110]
    with pytest.raises(VertexOutOfRange, match="^vertex 0 is not positive$"):
        mask_of((1, 0))


def test_vertices_of_keeps_only_masks_below_2_16():
    # one betti run at m = 18 once kept a tuple for every one of its 2^18 ω
    cache = srbetti.complexes._VERTICES_CACHE
    for mask, vertices, kept in [
        (0b1011, (1, 2, 4), True),
        ((1 << 16) - 1, tuple(range(1, 17)), True),
        (1 << 16, (17,), False),
        (1 << 17 | 0b101, (1, 3, 18), False),
    ]:
        assert vertices_of(mask) == vertices
        assert (mask in cache) is kept, mask


def test_from_facets_two_points():
    K = from_facets(2, [mask_of([1]), mask_of([2])])
    assert K.faces == frozenset({0, 1, 2})
    assert K.dim == 0


def test_from_facets_four_cycle():
    K = four_cycle()
    assert len(K.faces) == 9
    assert K.dim == 1
    assert len(K.facets) == 4


def test_from_facets_validation():
    with pytest.raises(IsolatedVertexMissing):
        from_facets(3, [mask_of((1, 2)), mask_of((1, 2))])
    K = from_facets(3, [mask_of((1, 2)), mask_of((1, 2))], allow_isolated=True)
    assert mask_of([3]) in K.facets
    assert K.facets == frozenset({mask_of((1, 2)), mask_of([3])})
    with pytest.raises(EmptyFacetList):
        from_facets(2, [])
    with pytest.raises(EmptyFacetList):
        from_facets(2, [0, mask_of((1, 2))])
    with pytest.raises(VertexOutOfRange):
        from_facets(2, [mask_of((1, 3))])
    with pytest.raises(VertexBudgetExceeded):
        from_facets(30, [(1 << 30) - 1])
    with pytest.raises(VertexOutOfRange, match="^m=-1 is negative$"):
        from_facets(-1, [])
    assert from_facets(0, []) == empty_complex()


def test_redundant_facets_pruned():
    K = from_facets(3, [mask_of((1, 2, 3)), mask_of((1, 2))])
    assert K.facets == frozenset({mask_of((1, 2, 3))})


def test_full_subcomplex_four_cycle():
    K = four_cycle()
    two_points = full_subcomplex(K, mask_of((1, 3)))
    assert two_points.m == 2
    assert two_points.faces == frozenset({0, 1, 2})
    assert two_points.labels == (1, 3)
    path = full_subcomplex(K, mask_of((1, 2, 3)))
    assert path.dim == 1
    assert len(path.faces_by_card[2]) == 2
    void = full_subcomplex(K, 0)
    assert void.faces == frozenset({0})
    assert void.m == 0
    assert void.dim == -1


def test_full_subcomplex_identity_and_idempotence():
    K = four_cycle()
    assert full_subcomplex(K, K.full_mask) == K
    # K|w restricted further equals restricting K directly (via labels)
    sub = full_subcomplex(K, mask_of((1, 2, 3)))
    sub2 = full_subcomplex(sub, mask_of((1, 3)))
    direct = full_subcomplex(K, mask_of((1, 3)))
    assert sub2 == direct
    assert sub2.labels == direct.labels == (1, 3)


def test_full_subcomplex_range_error():
    with pytest.raises(VertexOutOfRange):
        full_subcomplex(four_cycle(), mask_of([5]))


NEGATIVE_MASK_CALLS = [
    "reduced_cohomology_dims(K, QQ, -1)",
    "betti_number(K, 0, -2, QQ)",
    "full_subcomplex(K, -1)",
    "from_facets(3, [-1])",
    "colors_of(alpha, -1)",
]


def test_a_negative_vertex_mask_is_out_of_range():
    # each call names the mask in its error through vertices_of, which once
    # shifted -1 right forever and filled memory; a child process with a
    # 512 MiB address space keeps a relapse from taking the machine with it
    script = textwrap.dedent(
        """
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from srbetti import *
        from srbetti.cohomology import reduced_cohomology_dims
        from srbetti.corpus import rp2_complex
        K = rp2_complex()
        alpha = trivial_partition(K.m)
        for call in %r:
            try:
                eval(call)
            except Exception as exc:
                print(type(exc).__name__, exc)
        """
        % NEGATIVE_MASK_CALLS
    )
    src = str(Path(srbetti.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"VertexOutOfRange vertex mask {-2 if 'betti_number' in call else -1} is negative"
        for call in NEGATIVE_MASK_CALLS
    ], proc.stdout


def test_boundary_simplex():
    assert boundary_simplex(1).faces == frozenset({0, 1, 2})
    K2 = boundary_simplex(2)
    assert K2.m == 3 and K2.dim == 1 and len(K2.faces) == 7
    K3 = boundary_simplex(3)
    assert K3.m == 4 and K3.dim == 2
    assert len(K3.faces) == 15  # 2^4 - 2 proper faces plus the empty face
    with pytest.raises(InvalidDimension):
        boundary_simplex(0)
    with pytest.raises(InvalidDimension, match="^full_simplex needs n >= 0, got -1$"):
        full_simplex(-1)


def test_join_two_boundaries_is_square():
    K = join(boundary_simplex(1), boundary_simplex(1))
    # 4-cycle up to relabeling 1,3,2,4: same faces as the closure below
    expected = from_facets(4, [mask_of(e) for e in [(1, 3), (3, 2), (2, 4), (1, 4)]])
    assert K.faces == expected.faces
    assert K.dim == 1


def test_join_identity_and_dimension():
    K = four_cycle()
    assert join(K, empty_complex()).faces == K.faces
    assert join(empty_complex(), K).faces == K.faces
    J = join(boundary_simplex(1), boundary_simplex(2))
    assert J.m == 5
    assert J.dim == 0 + 1 + 1


def test_join_face_count_multiplicative():
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        Ka, Kb = boundary_simplex(a), boundary_simplex(b)
        assert len(join(Ka, Kb).faces) == len(Ka.faces) * len(Kb.faces)


def test_join_budget():
    with pytest.raises(VertexBudgetExceeded):
        join(full_simplex(12), full_simplex(12))
    points = from_facets(11, [1 << j for j in range(11)])  # 12 faces, below the warning
    with pytest.warns(UserWarning, match="^m=22 implies 2\\^22 subset enumerations$"):
        assert len(join(points, points).faces) == 12 * 12


@pytest.mark.parametrize(
    "facets, error",
    [([0b11, 0b100], IsolatedVertexMissing), ([1 << 26], VertexOutOfRange), ([0], EmptyFacetList), ([], EmptyFacetList)],
)
def test_a_refused_input_warns_of_nothing(facets, error):
    # the 2^m warning comes after the checks: an input refused at m = 26
    # raises its error alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            from_facets(26, facets, max_vertices=30)
    with pytest.warns(UserWarning, match="^m=26 implies 2\\^26 subset enumerations$"):
        from_facets(26, [0b11, 0b100], allow_isolated=True, max_vertices=30)  # accepted: it warns


def test_dimension_and_faces_by_dim():
    assert four_cycle().dim == 1
    assert boundary_simplex(3).dim == 2
    assert empty_complex().dim == -1
    groups = four_cycle().faces_by_card
    assert [len(g) for g in groups] == [1, 4, 4]


def test_downward_closure_exhaustive():
    K = four_cycle()
    for f in K.faces:
        for sub in submasks(f):
            assert sub in K.faces


def test_parse_format_roundtrip():
    text = "# the 4-cycle\nm 4\nfacet 1 2\nfacet 2 3\nfacet 3 4\nfacet 1 4\n"
    K = parse_complex(text)
    assert K == four_cycle()
    assert parse_complex(format_complex(K)) == K


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_complex("facet 1 2\n")  # missing header
    with pytest.raises(ValueError):
        parse_complex("m 3\nwedge 1 2\n")
    for text, message in [
        ("m three\nfacet 1 2\n", "line 1: malformed header 'm three'"),
        ("m 3 4\nfacet 1 2\n", "line 1: malformed header 'm 3 4'"),
        ("# c\nm 2\nfacet 1 b  # x\n", "line 3: malformed facet 'facet 1 b  # x'"),
        # the last header used to win: m 3 … m 5 parsed as a complex on 5 vertices
        ("m 3\nfacet 1 2\nm 5\n", "line 3: second header 'm 5'"),
        ("# c\nm 3\nm 3\nfacet 1 2 3\n", "line 3: second header 'm 3'"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_complex(text)
        assert str(err.value) == message


def test_json_roundtrip():
    K = four_cycle()
    assert complex_from_json(complex_to_json(K)) == K


@st.composite
def complexes(draw, max_m=5):
    """A complex on 1..max_m vertices spanned by 1..6 random facets, isolated
    vertices allowed (shared with test_betti and test_cohomology)."""
    m = draw(st.integers(1, max_m))
    facets = [draw(st.integers(1, (1 << m) - 1)) for _ in range(draw(st.integers(1, 6)))]
    return from_facets(m, facets, allow_isolated=True)


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_property_downward_closed_and_facets_maximal(K):
    for f in K.faces:
        for sub in submasks(f):
            assert sub in K.faces
    for a in K.facets:
        assert not any(a != b and a & b == a for b in K.facets)
    # every singleton is a face
    for v in range(1, K.m + 1):
        assert (1 << (v - 1)) in K.faces


@settings(max_examples=40, deadline=None)
@given(complexes(), st.randoms(use_true_random=False))
def test_property_full_subcomplex_nesting(K, rng):
    omega = rng.randrange(1 << K.m)
    eta = omega & rng.randrange(1 << K.m)
    sub = full_subcomplex(K, omega)
    # translate eta into sub's vertex names via labels
    labmap = {lab: i + 1 for i, lab in enumerate(sub.labels)}
    eta_in_sub = mask_of(labmap[v] for v in vertices_of(eta))
    assert full_subcomplex(sub, eta_in_sub) == full_subcomplex(K, eta)


@settings(max_examples=40, deadline=None)
@given(complexes(), st.randoms(use_true_random=False))
def test_property_relabel_preserves_face_counts(K, rng):
    new = list(range(1, K.m + 1))
    rng.shuffle(new)
    perm = {old: new[old - 1] for old in range(1, K.m + 1)}
    L = relabel_complex(K, perm)
    assert len(L.faces) == len(K.faces)
    assert L.dim == K.dim
    assert [len(g) for g in L.faces_by_card] == [len(g) for g in K.faces_by_card]


def maximal_faces(masks) -> frozenset[int]:
    """Reference facet rule: the masks that no other given mask contains (the
    quadratic scan complexes once stored the result of)."""
    uniq = set(masks)
    return frozenset(f for f in uniq if not any(f != g and f & g == f for g in uniq))


def test_a_complex_stores_its_faces_only():
    assert [f.name for f in dataclasses.fields(SimplicialComplex)] == ["m", "faces", "labels"]
    assert empty_complex().facets == maximal_faces({0}) == frozenset({0})


def test_equal_complexes_hash_equal_whatever_built_them():
    # the hash is computed once per complex, from (m, faces) as __eq__ compares
    # them: the labels full_subcomplex keeps, and the constructor, do not count
    cycle = from_facets(4, [mask_of(e) for e in ((1, 2), (2, 3), (3, 4), (1, 4))])
    builds = [
        cycle,
        parse_complex("m 4\nfacet 3 4\nfacet 1 4\nfacet 2 3\nfacet 1 2\n"),
        complex_from_json(complex_to_json(cycle)),
        SimplicialComplex(4, frozenset(cycle.faces)),
        full_subcomplex(join(cycle, from_facets(1, [1])), 0b1111),
        relabel_complex(cycle, {1: 3, 2: 2, 3: 1, 4: 4}),
    ]
    assert builds[4].labels == (1, 2, 3, 4) and builds[0].labels is None
    for K in builds:
        assert K == cycle and hash(K) == hash(cycle) == hash((4, cycle.faces))
        assert hash(K) == hash(K)  # read back, not recomputed differently
    assert len({K: None for K in builds}) == 1
    other = from_facets(5, cycle.facets, allow_isolated=True)
    assert other != cycle and hash(other) == hash((5, other.faces))


@st.composite
def facet_inputs(draw, max_m=5):
    """A facet list with duplicate and nested masks, in any order."""
    m = draw(st.integers(1, max_m))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=5))
    nested = [f & draw(st.integers(0, full)) for f in masks]
    dups = draw(st.lists(st.sampled_from(masks), max_size=3))
    given_masks = draw(st.permutations(masks + [f for f in nested if f] + dups))
    return m, given_masks, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(facet_inputs())
def test_property_from_facets_matches_the_maximal_face_rule(data):
    m, masks, allow_isolated = data
    covered = 0
    for f in masks:
        covered |= f
    missing = ((1 << m) - 1) & ~covered
    if missing and not allow_isolated:
        with pytest.raises(IsolatedVertexMissing):
            from_facets(m, masks)
        return
    K = from_facets(m, masks, allow_isolated=allow_isolated)
    singletons = [1 << (v - 1) for v in vertices_of(missing)]
    assert K.facets == maximal_faces(masks + singletons) == maximal_faces(K.faces)
    assert K == from_facets(m, sorted(K.facets))


@settings(max_examples=60, deadline=None)
@given(complexes(), complexes(max_m=3), st.randoms(use_true_random=False))
def test_property_derived_facets_match_the_maximal_face_rule(K, K2, rng):
    joined = join(K, K2)
    assert joined.facets == maximal_faces(joined.faces) == frozenset(
        f1 | (f2 << K.m) for f1 in K.facets for f2 in K2.facets
    )
    omega = rng.randrange(1 << K.m)
    sub = full_subcomplex(K, omega)
    assert sub.facets == maximal_faces(sub.faces)
    new = list(range(1, K.m + 1))
    rng.shuffle(new)
    perm = {old: new[old - 1] for old in range(1, K.m + 1)}
    moved = relabel_complex(K, perm)
    assert moved.facets == maximal_faces(moved.faces) == frozenset(
        mask_of(perm[v] for v in vertices_of(f)) for f in K.facets
    )
    for X in (join(K, empty_complex()), full_subcomplex(K, 0)):
        assert X.facets == maximal_faces(X.faces)
