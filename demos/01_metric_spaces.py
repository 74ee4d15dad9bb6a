"""Walkthrough: building, validating, and probing finite metric spaces.

Run with:  python demos/01_metric_spaces.py
"""
import dyadiclab as dl

print("== validating distance matrices ==")
l3 = dl.validate_metric([[0.0, 0.5, 1.0],
                         [0.5, 0.0, 0.5],
                         [1.0, 0.5, 0.0]], points=("a", "b", "c"))
print(f"three points on a line: {l3.points}, diameter {l3.diameter}")

try:
    dl.validate_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
except dl.TriangleViolation as exc:
    print(f"a broken matrix is rejected with its witness: {exc}")

print()
print("== balls and occupancy ==")
print("open ball around 'a' of radius 1.0:",
      sorted(l3.name(i) for i in dl.ball(l3, "a", 1.0, "open")))
print("closed ball around 'a' of radius 1.0:",
      sorted(l3.name(i) for i in dl.ball(l3, "a", 1.0, "closed")))
print("largest open unit ball holds", dl.max_ball_occupancy(l3, 1.0), "points")


print()
print("== generators ==")
star = dl.make_space("tree", branching=3, height=1)
print(f"star tree: {len(star)} vertices, leaf-to-leaf distance",
      star.distance("r.0", "r.1"))

cloud = dl.make_space("random_cloud", seed=7, n=8, dim=2)
print(f"seeded cloud: n={len(cloud)}, min distance {cloud.min_distance:.4f}"
      f" (identical on every run with the same seed)")

snow = dl.make_space("snowflake", base=cloud, alpha=0.5)
print("snowflake of the same cloud halves every exponent:",
      f"diameter {cloud.diameter:.4f} -> {snow.diameter:.4f}")
print("the snowflake is still a metric:",
      dl.validate_metric(snow.d, snow.points) is not None)
