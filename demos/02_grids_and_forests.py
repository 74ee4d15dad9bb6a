"""Walkthrough: nested random grids, parent forests, cubes, and interiors.

Run with:  python demos/02_grids_and_forests.py
"""
import numpy as np

import dyadiclab as dl
from dyadiclab.lattice import build_cubes, tilde_cube

space = dl.make_space("random_cloud", seed=12, n=40, dim=2, min_sep=0.02)
delta = 0.1

print("== a nested hierarchy of maximal separated subsets ==")
rng = np.random.default_rng(5)
h = dl.build_nested_grids(space, delta, 0, rng=rng, mode="greedy_permutation")
for k in h.levels:
    print(f"level {k}: scale {h.scale(k):.4g}, {len(h.grid(k).members)} points")

print()
print("== the covering property, checked at every level ==")
for k in h.levels:
    rep = dl.check_grid_cover(h, k)
    print(f"level {k}: worst distance to the grid {rep.max_distance:.4f}"
          f" <= {rep.bound:.4f} (sharp bound {rep.sharp_bound:.4f},"
          f" held: {rep.sharp_ok})")

print()
print("== the random parent forest and its cubes ==")
forest = dl.build_forest(h, rng)
for k in h.levels:
    cubes = build_cubes(forest, k)
    sizes = sorted(len(c.members) for c in cubes)
    print(f"level {k}: {len(cubes)} cubes, member counts {sizes}")
    dl.check_cube_cover(forest, k)  # raises if any point were uncovered
print("every point sits in at least one cube at every level")

inv = dl.check_forest_invariants(forest)
print(f"structural invariants hold: {inv.ok} "
      f"(ancestor within {inv.max_ancestor_ratio:.2f} * scale,"
      f" diameter within {inv.max_diameter_ratio:.2f} * scale)")

print()
print("== shared points and cube interiors ==")
ladder = dl.space_from_coords([[0.0], [0.008], [0.0365], [0.28], [2.5]],
                              names=("z", "w", "p", "u", "e"))
rng = np.random.default_rng(48)
hl = dl.build_nested_grids(ladder, 0.1, 0, rng=rng)
fl = dl.build_forest(hl, rng)
rep = dl.check_cube_cover(fl, 0)
print("multi-covered points at the top level:",
      [ladder.name(i) for i in rep.multi_covered])
cubes = build_cubes(fl, 0)
for cube in cubes:
    interior = tilde_cube(fl, 0, cube.center)
    print(f"cube {ladder.name(cube.center)}:"
          f" members {sorted(ladder.name(i) for i in cube.members)},"
          f" interior {sorted(ladder.name(i) for i in interior.members)}")
