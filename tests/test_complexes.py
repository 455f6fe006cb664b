import itertools

import pytest

from cechkit.complexes import (
    CLOSURE_CAP,
    EMPTY_COMPLEX,
    MalformedSimplex,
    build_complex,
    components,
    full_subcomplex,
    intersect,
    make_simplex,
    make_simplices,
    relabel,
    union_complexes,
)
from cechkit.errors import ResourceLimit


def is_closed(k) -> bool:
    """Whether every nonempty face of every simplex of k, the simplex itself included, is a simplex of k."""
    return all(f in k.simplices for s in k.simplices for q in range(1, len(s) + 1)
               for f in itertools.combinations(s, q))


def cycle4():
    return build_complex([["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])


def test_build_empty():
    assert build_complex([]).simplices == frozenset()


def test_build_triangle_closure():
    k = build_complex([["a", "b", "c"]])
    assert k.simplices == frozenset({("a",), ("b",), ("c",),
                                     ("a", "b"), ("a", "c"), ("b", "c"),
                                     ("a", "b", "c")})
    assert is_closed(k)


def test_build_cycle():
    k = cycle4()
    assert len(k.vertices) == 4
    assert len(k.simplices_of_dim(1)) == 4
    assert k.simplices_of_dim(2) == ()
    assert k.dim == 1


def test_malformed_simplices():
    with pytest.raises(MalformedSimplex):
        build_complex([[]])
    with pytest.raises(MalformedSimplex):
        build_complex([["b", "a"]])
    with pytest.raises(MalformedSimplex):
        build_complex([["a", "a"]])


def test_make_simplices_raises_what_make_simplex_raises_for_the_first_bad_generator():
    good = [["a", "b"], ["c"], ["a", "b", "d"]]
    assert make_simplices(good) == [make_simplex(g) for g in good] == [("a", "b"), ("c",), ("a", "b", "d")]
    for bad in ([], ["b", "a"], ["a", "a"], ["a", "c", "b"]):
        with pytest.raises(MalformedSimplex) as expected:
            make_simplex(bad)
        with pytest.raises(MalformedSimplex) as got:
            make_simplices(good + [bad, []])
        assert str(got.value) == str(expected.value)


def test_a_closure_past_the_cap_is_refused_before_any_face_is_made():
    # 2^20 - 1 faces fit; one more vertex would double them
    assert len(build_complex([[f"v{i:02d}" for i in range(3)]] * 2).simplices) == 7
    for generators in ([[f"v{i:02d}" for i in range(21)]], [[f"v{i:02d}" for i in range(40)]],
                       [["a", "b"]] * (CLOSURE_CAP // 3 + 1), [[f"v{i:04d}" for i in range(5000)]]):
        with pytest.raises(ResourceLimit, match=f"capped at {CLOSURE_CAP} faces"):
            build_complex(generators)


def test_the_closure_is_every_face_of_every_generator():
    generators = [["a", "b", "c"], ["b", "c"], ["c", "d"], ["a", "b", "c"], ["e"], ["b", "c", "d", "e"]]
    faces = {f for g in generators for q in range(1, len(g) + 1) for f in itertools.combinations(g, q)}
    assert build_complex(generators).simplices == faces


def test_intersect_idempotent_and_absorbing():
    k = cycle4()
    assert intersect(k, k) == k
    assert intersect(k, EMPTY_COMPLEX) == EMPTY_COMPLEX


def test_intersect_two_cycles_sharing_a_path():
    k1 = build_complex([["a", "b"], ["b", "c1"], ["a", "c1"]])
    k2 = build_complex([["a", "b"], ["b", "c2"], ["a", "c2"]])
    shared = intersect(k1, k2)
    assert shared.simplices == frozenset({("a",), ("b",), ("a", "b")})


def test_union_single_and_idempotent():
    k = cycle4()
    assert union_complexes([k]) == k
    assert union_complexes([k, k]) == k


def test_union_two_origin_paths_make_cycle():
    p1 = build_complex([["l", "o1"], ["o1", "r"]])
    p2 = build_complex([["l", "o2"], ["o2", "r"]])
    u = union_complexes([p1, p2])
    assert len(u.vertices) == 4
    assert len(u.simplices_of_dim(1)) == 4
    assert u.simplices_of_dim(2) == ()


def test_set_operation_laws():
    k1 = build_complex([["a", "b"], ["b", "c"]])
    k2 = build_complex([["b", "c"], ["c", "d"]])
    k3 = build_complex([["a", "b", "c"]])
    assert intersect(k1, k2) == intersect(k2, k1)
    assert union_complexes([k1, k2]) == union_complexes([k2, k1])
    assert intersect(intersect(k1, k2), k3) == intersect(k1, intersect(k2, k3))
    assert union_complexes([union_complexes([k1, k2]), k3]) == union_complexes([k1, k2, k3])


def test_components():
    two_edges = build_complex([["a", "b"], ["c", "d"]])
    assert components(two_edges) == (("a", "b"), ("c", "d"))
    assert len(components(cycle4())) == 1
    isolated = build_complex([["l"], ["r"]])
    assert components(isolated) == (("l",), ("r",))
    assert components(EMPTY_COMPLEX) == ()


def test_full_subcomplex_and_relabel():
    k = build_complex([["a", "b", "c"], ["c", "d"]])
    sub = full_subcomplex(k, {"a", "b"})
    assert sub.simplices == frozenset({("a",), ("b",), ("a", "b")})
    swapped = relabel(k, {"a": "z", "b": "b", "c": "c", "d": "d"})
    assert ("b", "c", "z") in swapped
    with pytest.raises(MalformedSimplex):
        relabel(k, {"a": "x", "b": "x", "c": "c", "d": "d"})


def test_relabel_keeps_an_identity_and_sorts_only_a_renaming_that_reorders():
    k = build_complex([["a", "b", "c"], ["c", "d"]])
    assert relabel(k, {v: v for v in "abcdz"}) is k
    kept = relabel(k, {"a": "a1", "b": "b1", "c": "c", "d": "e"})
    assert kept.simplices == frozenset({("a1",), ("b1",), ("c",), ("e",), ("a1", "b1"), ("a1", "c"), ("b1", "c"),
                                        ("c", "e"), ("a1", "b1", "c")})
    reversed_ = relabel(k, {"a": "d", "b": "c", "c": "b", "d": "a"})
    assert reversed_.simplices == frozenset(tuple(sorted(s)) for s in
                                            [("d",), ("c",), ("b",), ("a",), ("d", "c"), ("d", "b"), ("c", "b"),
                                             ("b", "a"), ("d", "c", "b")])
    assert relabel(EMPTY_COMPLEX, {}) is EMPTY_COMPLEX


def test_closure_property_exhaustive():
    k = build_complex([["a", "b", "c"], ["b", "c", "d"], ["d", "e"]])
    assert is_closed(k)
