"""Built-in corpus members have the structure the rest of the suite relies on."""

import random
from collections import Counter

import pytest

from srbetti.complexes import from_facets, submasks, vertices_of
from srbetti.errors import VertexOutOfRange
from srbetti.corpus import (
    acceptance_corpus,
    cycle_complex,
    named_corpus,
    random_complex,
    random_corpus,
    rp2_complex,
)


def test_cycles():
    K4 = cycle_complex(4)
    assert (K4.m, K4.dim, len(K4.faces)) == (4, 1, 9)
    K5 = cycle_complex(5)
    assert (K5.m, K5.dim, len(K5.faces)) == (5, 1, 11)
    with pytest.raises(VertexOutOfRange, match="^cycle needs n >= 3, got 2$"):
        cycle_complex(2)


@pytest.mark.parametrize(
    "m, density, error, message",
    [
        (1, 0.5, VertexOutOfRange, "random_complex needs m >= 2, got 1"),
        (4, -0.1, ValueError, "density must lie in [0, 1], got -0.1"),
        (4, 1.5, ValueError, "density must lie in [0, 1], got 1.5"),
    ],
)
def test_random_complex_refuses_its_bad_arguments(m, density, error, message):
    with pytest.raises(error) as err:
        random_complex(m, density, 0)
    assert str(err.value) == message


def test_rp2_is_a_closed_surface_with_euler_characteristic_one():
    K = rp2_complex()
    v, e, t = (len(K.faces_by_card[k]) for k in (1, 2, 3))
    assert (v, e, t) == (6, 15, 10)
    assert v - e + t == 1
    # every edge lies in exactly two triangles (closed surface)
    edge_use = Counter()
    for tri in K.faces_by_card[3]:
        for x in vertices_of(tri):
            edge_use[tri & ~(1 << (x - 1))] += 1
    assert all(c == 2 for c in edge_use.values())
    # complete 1-skeleton (2-neighborly)
    assert e == 15 == 6 * 5 // 2


def test_random_corpus_shape_and_determinism():
    members = random_corpus(16)
    assert len(members) == 16
    assert all(4 <= K.m <= 7 for _, K in members)
    again = random_corpus(16)
    assert [(n, K.faces) for n, K in members] == [(n, K.faces) for n, K in again]


def test_acceptance_corpus_size():
    members = acceptance_corpus()
    assert len(members) == len(named_corpus()) + 200
    assert all(K.m <= 7 for _, K in members)


def _random_complex_reference(m, density, seed):
    """random_complex's draws spelled out: one per subset of [m], in the
    order (size, mask)."""
    rng = random.Random(seed)
    full = (1 << m) - 1
    facets = [
        s
        for s in sorted(submasks(full), key=lambda s: (s.bit_count(), s))
        if s.bit_count() >= 2 and rng.random() < density * 2.0 ** (-s.bit_count())
    ]
    return from_facets(m, facets + [1 << j for j in range(m)])


@pytest.mark.parametrize("m", [2, 4, 7, 10])
def test_random_complex_draws_in_the_reference_order(m):
    # the sort by size alone is stable over range(2^m), so each draw meets
    # the same subset as before and every seed keeps its complex
    for density in (0.0, 0.3, 0.6, 1.0):
        for seed in range(8):
            assert random_complex(m, density, seed) == _random_complex_reference(m, density, seed)
