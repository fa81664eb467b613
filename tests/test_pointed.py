import re

import pytest

from oplab.errors import IndexOutOfRange
from oplab.graphs import (
    Graph,
    classify_graph_morphism,
    compose_graph_morphisms,
    enumerate_graph_morphisms,
    labelset,
    underlying_pointed,
)
from oplab.pointed import MapClass, PointedMap


@pytest.mark.parametrize(
    "domain_size,codomain_size,images,message",
    [
        (-1, 1, (), "set sizes must be nonnegative"),
        (0, -1, (), "set sizes must be nonnegative"),
        (2, 1, (1,), "expected 2 images, got 1"),
        (1, 1, (2,), "image of 1 is 2, outside [0, 1]"),
    ],
    ids=["negative-size", "negative-codomain", "wrong-count", "image-out-of-range"],
)
def test_images_out_of_range_rejected(domain_size, codomain_size, images, message):
    # each case has one fault, and its message pins the branch that reports it
    with pytest.raises(IndexOutOfRange, match=re.escape(message)):
        PointedMap(domain_size, codomain_size, images)


# Every pointed map <n> -> <m> is the underlying map of a morphism between
# the graphs of n and m loops at one vertex, so the morphisms between these
# graphs reach every pointed map of at most 3 elements.
LOOPS = [Graph(labelset("a"), (("a", "a"),) * n) for n in range(4)]
INERT = (MapClass.INERT, MapClass.BOTH)
ACTIVE = (MapClass.ACTIVE, MapClass.BOTH)


def _keeps_class(m) -> bool:
    """Does underlying_pointed(m) have m's class? Inert: every target
    element has exactly one preimage. Active: nothing goes to the basepoint."""
    images = underlying_pointed(m).images
    cls = classify_graph_morphism(m)
    inert = sorted(v for v in images if v) == list(range(1, len(m.target.edges) + 1))
    return (cls in INERT) == inert and (cls in ACTIVE) == (0 not in images)


@pytest.mark.parametrize("n,m,k", [(n, m, k) for n in range(4) for m in range(4) for k in range(4)])
def test_classes_closed_under_composition(n, m, k):
    for f in enumerate_graph_morphisms(LOOPS[n], LOOPS[m]):
        cf = classify_graph_morphism(f)
        assert _keeps_class(f)
        for g in enumerate_graph_morphisms(LOOPS[m], LOOPS[k]):
            cg = classify_graph_morphism(g)
            h = compose_graph_morphisms(f, g)
            ch = classify_graph_morphism(h)
            if cf in INERT and cg in INERT:
                assert ch in INERT
            if cf in ACTIVE and cg in ACTIVE:
                assert ch in ACTIVE
            # the projection to pointed sets is a functor
            g_images = underlying_pointed(g).images
            assert underlying_pointed(h).images == tuple(
                0 if v == 0 else g_images[v - 1] for v in underlying_pointed(f).images
            )
