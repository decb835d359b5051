import numpy as np
import pytest

from axicav.mesh import (
    BoundaryTag,
    build_structured,
    classify_boundary,
    locate_point,
)


def test_counts_2x2_unit():
    m = build_structured(1.0, 1.0, 2)
    assert m.n_nodes == 9
    assert m.n_triangles == 8
    assert m.n_edges == 16
    assert len(m.boundary_tags) == 8


def test_tag_counts_2x2_unit():
    m = build_structured(1.0, 1.0, 2)
    assert len(m.axis_edges()) == 2
    assert len(m.wall_edges()) == 6


def test_aspect_ratio_rectangular():
    m = build_structured(1.0, 2.0, 4)
    assert m.n_z == 8
    assert m.n_triangles == 64
    areas = m.triangle_areas()
    assert np.allclose(areas, areas[0])  # square cells, equal split


@pytest.mark.parametrize("bad", [(0.0, 1.0, 2), (1.0, -1.0, 2), (1.0, 1.0, 0)])
def test_invalid_parameters(bad):
    with pytest.raises(ValueError):
        build_structured(*bad)


def test_cavity_sizes_inside_the_size_range_only():
    from axicav.analytic import pillbox_spectrum
    from axicav.fespace import build_pair
    from axicav.mesh import SIZE_RANGE

    for size in SIZE_RANGE:
        # element pair and listing stay finite at both ends of the range
        build_pair(build_structured(size, size, 2), 3, 2)
        modes = pillbox_spectrum(size, size, 1, 30.0 / size**2)
        assert modes and all(0.0 < md.omega < np.inf for md in modes)
    for size in (1e200, 1e-200, 1e101, 0.99e-100):
        with pytest.raises(ValueError, match="must lie in"):
            build_structured(size, 1.0, 2)
        with pytest.raises(ValueError, match="must lie in"):
            build_structured(1.0, size, 2)
    # at 1e200 every eigenvalue, lam_max too, underflows to 0
    for size, lam_max in ((1e200, 0.0), (1e-200, 30.0)):
        with pytest.raises(ValueError, match="must lie in"):
            pillbox_spectrum(size, size, 1, lam_max)


def test_refinement_nesting():
    m = build_structured(1.0, 1.0, 3)
    m2 = build_structured(1.0, 1.0, 2 * m.N)
    fine = {tuple(p) for p in m2.nodes}
    for p in m.nodes:
        assert tuple(p) in fine  # bitwise identical coordinates


def test_axis_coordinates_exact_zero():
    m = build_structured(0.7, 1.3, 5)
    for e in m.axis_edges():
        assert np.all(m.nodes[m.edges[e], 0] == 0.0)


def test_classify_n1():
    m = build_structured(1.0, 1.0, 1)
    tags = classify_boundary(m)
    axis = [e for e, t in tags.items() if t is BoundaryTag.AXIS]
    pec = [e for e, t in tags.items() if t is BoundaryTag.PEC_WALL]
    assert len(axis) == 1 and len(pec) == 3


def test_corner_node_on_axis_and_wall():
    m = build_structured(1.0, 1.0, 2)
    corner = int(np.nonzero((m.nodes[:, 0] == 0.0) & (m.nodes[:, 1] == 0.0))[0][0])
    kinds = {
        m.boundary_tags[e].value
        for e in m.boundary_tags
        if corner in m.edges[e]
    }
    assert kinds == {"axis", "pec"}


def test_no_interior_edge_tagged():
    m = build_structured(1.0, 1.0, 3)
    counts = np.zeros(m.n_edges, dtype=int)
    np.add.at(counts, m.tri_edges.ravel(), 1)
    for e in m.boundary_tags:
        assert counts[e] == 1


def test_area_sum_and_positivity():
    m = build_structured(0.8, 1.7, 6)
    areas = m.triangle_areas()
    assert np.all(areas > 0)
    assert abs(areas.sum() - 0.8 * 1.7) < 1e-13 * 0.8 * 1.7


def test_edge_triangle_consistency():
    m = build_structured(1.0, 1.0, 3)
    counts = np.zeros(m.n_edges, dtype=int)
    np.add.at(counts, m.tri_edges.ravel(), 1)
    boundary = set(m.boundary_tags)
    for e in range(m.n_edges):
        assert counts[e] == (1 if e in boundary else 2)


def test_locate_point_round_trip():
    m = build_structured(1.0, 1.0, 4)
    rng = np.random.default_rng(3)
    for r, z in rng.uniform(0.01, 0.99, size=(20, 2)):
        t, bary = locate_point(m, r, z)
        assert np.all(bary > -1e-12)
        p = bary @ m.nodes[m.triangles[t]]
        assert np.allclose(p, [r, z], atol=1e-13)


def test_locate_point_rejects_points_outside_the_cross_section():
    m = build_structured(1.0, 2.0, 4)
    for r, z in ((3.0, 0.5), (0.5, -2.0), (-1e-3, 1.0), (0.5, 2.0 + 1e-6), (np.nan, 0.5)):
        with pytest.raises(ValueError, match="outside the cross section"):
            locate_point(m, r, z)
    # boundary points, also off by rounding, stay inside
    for r, z in ((0.0, 0.0), (1.0, 2.0), (1.0 + 1e-13, 0.3), (0.2, -1e-13)):
        t, bary = locate_point(m, r, z)
        assert np.allclose(bary @ m.nodes[m.triangles[t]], [r, z], atol=1e-12)
