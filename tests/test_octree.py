"""Octree construction invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

import operator_reference as OR
from fmmbem.octree import MAX_DEPTH, bounding_cube, build_tree


def _random_points(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 3))


def test_bounding_cube_contains_points():
    pts = _random_points(300, 0)
    center, half = bounding_cube(pts)
    assert np.all(np.abs(pts - center) <= half)


@given(n=st.integers(1, 400), n_crit=st.integers(1, 64), seed=st.integers(0, 10))
@settings(max_examples=25, deadline=None)
def test_tree_partitions_bodies(n, n_crit, seed):
    pts = _random_points(n, seed)
    tree = build_tree(pts, n_crit)
    assert sorted(tree.perm) == list(range(n))
    # leaves tile the permuted body range exactly once
    covered = np.zeros(n, dtype=int)
    for leaf in tree.leaves:
        s, c = tree.body_start[leaf], tree.body_count[leaf]
        covered[s:s + c] += 1
    assert np.all(covered == 1)


def test_children_consistent():
    pts = _random_points(500, 3)
    tree = build_tree(pts, 20)
    for cell in range(len(tree.center)):
        kids = tree.children[cell][tree.children[cell] >= 0]
        if len(kids) == 0:
            assert tree.is_leaf[cell]
            continue
        assert tree.body_count[cell] == tree.body_count[kids].sum()
        for k in kids:
            assert tree.parent[k] == cell
            assert tree.level[k] == tree.level[cell] + 1
            np.testing.assert_allclose(tree.half_width[k], tree.half_width[cell] / 2)
            # child cube nests inside the parent cube
            assert np.all(np.abs(tree.center[k] - tree.center[cell])
                          <= tree.half_width[cell])


def test_bodies_inside_their_cells():
    pts = _random_points(400, 4)
    tree = build_tree(pts, 16)
    for leaf in tree.leaves:
        s, c = tree.body_start[leaf], tree.body_count[leaf]
        body = tree.sorted_points[s:s + c]
        assert np.all(np.abs(body - tree.center[leaf]) <= tree.half_width[leaf] * (1 + 1e-12))


def test_n_crit_respected():
    pts = _random_points(1000, 5)
    tree = build_tree(pts, 30)
    assert np.all(tree.body_count[tree.leaves] <= 30)


def test_leaf_of_body_lookup():
    """leaf_of_body maps each sorted body position to the leaf covering it."""
    pts = _random_points(200, 6)
    tree = build_tree(pts, 10)
    for b in range(0, 200, 17):
        leaf = tree.leaf_of_body[b]
        s, c = tree.body_start[leaf], tree.body_count[leaf]
        assert s <= b < s + c


def _by_cell_order(tree):
    """The tree's cell fields sorted by (body_start, level), with parents and
    children renumbered through that sort; this order does not depend on how
    a build numbers its cells."""
    order = np.lexsort((tree.level, tree.body_start))
    new = np.empty(tree.n_cells + 1, dtype=np.intp)
    new[order] = np.arange(tree.n_cells)
    new[-1] = -1                        # -1 (no cell) stays -1
    return {
        "center": tree.center[order], "half_width": tree.half_width[order],
        "level": tree.level[order], "body_start": tree.body_start[order],
        "body_count": tree.body_count[order],
        "parent": new[tree.parent[order]], "children": new[tree.children[order]],
    }


@given(n=st.integers(1, 300), n_dup=st.integers(0, 60), n_crit=st.integers(1, 64),
       seed=st.integers(0, 10**6), given_cube=st.booleans())
@settings(max_examples=60, deadline=None)
def test_tree_matches_depth_first_reference(n, n_dup, n_crit, seed, given_cube):
    """The level-by-level build equals the per-cell depth-first one up to cell
    numbering: the same body order and the same cells, parents and children."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    pts = np.vstack([pts, pts[rng.integers(0, n, size=n_dup)]])[rng.permutation(n + n_dup)]
    cube = (np.array([0.1, -0.2, 0.05]), 1.5) if given_cube else (None, None)
    tree, ref = build_tree(pts, n_crit, *cube), OR.build_tree(pts, n_crit, *cube)
    np.testing.assert_array_equal(tree.perm, ref.perm)
    assert tree.n_levels == ref.n_levels
    got, want = _by_cell_order(tree), _by_cell_order(ref)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_depth_cap_keeps_coincident_points_in_one_leaf():
    """Coincident points beyond n_crit stop splitting at MAX_DEPTH, in one leaf."""
    rng = np.random.default_rng(8)
    spot = np.array([0.3, -0.1, 0.2])
    pts = np.vstack([np.tile(spot, (30, 1)), rng.uniform(-1.0, 1.0, size=(5, 3))])
    tree = build_tree(pts, 4)
    assert tree.n_levels == MAX_DEPTH + 1
    capped = tree.leaves[tree.level[tree.leaves] == MAX_DEPTH]
    assert len(capped) == 1 and tree.body_count[capped[0]] == 30
    s = tree.body_start[capped[0]]
    np.testing.assert_array_equal(np.sort(tree.perm[s:s + 30]), np.arange(30))
    others = tree.leaves[tree.leaves != capped[0]]
    assert np.all(tree.body_count[others] <= 4)
