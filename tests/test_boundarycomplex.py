"""Boundary complex: face counts, census, and integral homology."""

import random

import pytest

from m36 import labels
from m36.boundarycomplex import (
    MAX_DIM,
    SimplicialComplex,
    build_complex,
    edge_census,
    flag_complex,
    homology_report,
    reduced_homology,
)
from m36.labels import (
    SINGULAR_POINTS,
    apply_perm_config,
    config_all_p1,
    config_all_p2,
    cyclic,
    pair,
)


def from_maximal(vertices, maximal):
    """The SimplicialComplex on vertices whose faces are the given index sets
    and all their subsets."""
    by_dim = [set() for _ in range(MAX_DIM + 1)]
    stack = [tuple(sorted(m)) for m in maximal]
    seen = set(stack)
    while stack:
        face = stack.pop()
        by_dim[len(face) - 1].add(face)
        if len(face) > 1:
            for i in range(len(face)):
                sub = face[:i] + face[i + 1 :]
                if sub not in seen:
                    seen.add(sub)
                    stack.append(sub)
    return SimplicialComplex(
        vertices=tuple(vertices), faces=tuple(tuple(sorted(fs)) for fs in by_dim)
    )


def maximal_simplices(c):
    """The faces of c that lie in no larger face."""
    out = []
    for k, faces in enumerate(c.faces):
        covered = set()
        for face in c.faces[k + 1] if k + 1 < len(c.faces) else ():
            covered.update(face[:i] + face[i + 1 :] for i in range(len(face)))
        out.extend(f for f in faces if f not in covered)
    return out


def random_config(rng):
    k = rng.randint(0, 15)
    return labels.ResolutionConfig(s2=frozenset(rng.sample(SINGULAR_POINTS, k)))


@pytest.fixture(scope="module")
def delta():
    return build_complex(None)


class TestFaceCounts:
    def test_unresolved_f_vector(self, delta):
        assert delta.f_vector() == (65, 550, 1410, 1065, 15)

    def test_all_p1_f_vector(self):
        assert build_complex(config_all_p1()).f_vector() == (65, 535, 1365, 1020, 0)

    def test_all_p2_f_vector(self):
        assert build_complex(config_all_p2()).f_vector() == (65, 550, 1395, 1035, 0)

    def test_unresolved_complex_is_built_once(self):
        # kept for the process: a resolved build between two calls leaves
        # it the flag complex it was, and the resolved complexes are still
        # filtered from the whole of it
        first = build_complex(None)
        assert build_complex(config_all_p2()).f_vector() == (65, 550, 1395, 1035, 0)
        second = build_complex(None)
        assert second is first
        assert second.faces == flag_complex(labels.DIVISORS, labels.intersects).faces
        assert second.f_vector() == (65, 550, 1410, 1065, 15)
        assert build_complex(config_all_p1()).f_vector() == (65, 535, 1365, 1020, 0)
        assert build_complex(config_all_p2()).f_vector() == (65, 550, 1395, 1035, 0)

    def test_top_simplices_are_the_matchings(self, delta):
        tops = delta.faces[4]
        assert len(tops) == 15
        expected = {
            pair((1, 2)),
            pair((3, 4)),
            pair((5, 6)),
            cyclic((1, 2), (3, 4), (5, 6)),
            cyclic((1, 2), (5, 6), (3, 4)),
        }
        found = [
            {delta.vertices[i] for i in face}
            for face in tops
        ]
        assert expected in found

    def test_mixed_f_vector_formula(self, delta):
        rng = random.Random(5)
        f = delta.f_vector()
        for _ in range(4):
            cfg = random_config(rng)
            n2 = len(cfg.s2)
            n1 = 15 - n2
            got = build_complex(cfg).f_vector()
            assert got == (
                f[0],
                f[1] - n1,
                f[2] - 3 * n1 - n2,
                f[3] - 3 * n1 - 2 * n2,
                0,
            )

    def test_p2_keeps_triangle_edges(self):
        # the deleted f-triangles leave all their edges behind: not flag
        c2 = build_complex(config_all_p2())
        idx = [labels.divisor_index(d) for d in (pair((1, 2)), pair((3, 4)), pair((5, 6)))]
        tri = tuple(sorted(idx))
        assert tri not in set(c2.faces[2])
        edges = set(c2.faces[1])
        for i in range(3):
            for j in range(i + 1, 3):
                assert tuple(sorted((idx[i], idx[j]))) in edges

    def test_face_closure(self, delta):
        for k in (1, 2, 3, 4):
            below = set(delta.faces[k - 1])
            for face in delta.faces[k]:
                for i in range(len(face)):
                    assert face[:i] + face[i + 1 :] in below

    def test_face_closure_mixed(self):
        cfg = labels.ResolutionConfig(s2=frozenset(SINGULAR_POINTS[:7]))
        c = build_complex(cfg)
        for k in (1, 2, 3):
            below = set(c.faces[k - 1])
            for face in c.faces[k]:
                for i in range(len(face)):
                    assert face[:i] + face[i + 1 :] in below


class TestCensus:
    def test_counts(self, delta):
        assert edge_census(delta) == {
            "ee-share-one": 90,
            "ee-complement": 10,
            "ff": 45,
            "gg": 15,
            "ef-disjoint": 60,
            "ef-contained": 60,
            "eg": 180,
            "fg": 90,
        }

    def test_census_sums_to_edge_count(self, delta):
        assert sum(edge_census(delta).values()) == 550


class TestHomology:
    def test_unresolved(self, delta):
        hs = reduced_homology(delta)
        assert [h.rank for h in hs] == [0, 0, 0, 126, 0]
        assert all(h.torsion == () for h in hs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_resolved_configs(self, seed):
        rng = random.Random(seed)
        cfg = random_config(rng)
        hs = reduced_homology(build_complex(cfg))
        assert [h.rank for h in hs] == [0, 0, 0, 126, 0]
        assert all(h.torsion == () for h in hs)

    def test_full_simplex_contractible(self):
        c = from_maximal(range(5), [(0, 1, 2, 3, 4)])
        hs = reduced_homology(c)
        assert all(h.rank == 0 and h.torsion == () for h in hs)

    def test_boundary_of_simplex_is_sphere(self):
        tets = [tuple(sorted(set(range(5)) - {i})) for i in range(5)]
        c = from_maximal(range(5), tets)
        hs = reduced_homology(c)
        assert [h.rank for h in hs] == [0, 0, 0, 1, 0]

    def test_two_points(self):
        c = from_maximal(range(2), [(0,), (1,)])
        assert reduced_homology(c)[0].rank == 1

    def test_euler_characteristic(self, delta):
        rng = random.Random(11)
        for c in (delta, build_complex(random_config(rng))):
            f = c.f_vector()
            chi = -1 + sum((-1) ** k * f[k] for k in range(5))
            hchi = sum((-1) ** h.dim * h.rank for h in reduced_homology(c))
            assert chi == hchi == -126

    def test_relabeling_equivariance(self):
        rng = random.Random(23)
        cfg = random_config(rng)
        sigma = tuple(rng.sample(range(1, 7), 6))
        a = build_complex(cfg)
        b = build_complex(apply_perm_config(sigma, cfg))
        assert a.f_vector() == b.f_vector()
        assert reduced_homology(a) == reduced_homology(b)

    def test_report_shape(self, delta):
        rep = homology_report(delta)
        assert rep["faces"] == [65, 550, 1410, 1065, 15]
        assert rep["degrees"][3] == {"dim": 3, "rank": 126, "torsion": []}


class TestMaximal:
    def test_unresolved_maximal(self, delta):
        maxs = maximal_simplices(delta)
        assert all(len(m) >= 3 for m in maxs)
        assert sum(1 for m in maxs if len(m) == 5) == 15

    def test_from_maximal_round_trip(self, delta):
        rebuilt = from_maximal(delta.vertices, maximal_simplices(delta))
        assert rebuilt.f_vector() == delta.f_vector()
        assert all(
            set(rebuilt.faces[k]) == set(delta.faces[k]) for k in range(5)
        )
