"""Walkthrough: good/bad cubes, boundary-layer decay, and equalization.

Run with:  python demos/04_good_bad_cubes.py   (about 4 s on a 2-core Intel Xeon)
"""
from fractions import Fraction

import dyadiclab as dl
from dyadiclab.goodness import (
    GoodnessParams,
    estimate_bad_probability,
    estimate_boundary_decay,
    estimate_really_good,
    exact_good_probability,
)

print("== P(bad) on a 60-point cascade cloud ==")
space = dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                      branching=3, ratio=0.1, spread=(0.25, 0.45))
params = GoodnessParams(delta=0.1, gamma=0.1, r=1)
level = dl.finest_level(space, params.delta, 0)
est = estimate_bad_probability(space, level, 0, params, trials=1500, seed=42)
print(f"level {level} cube of point 0 over {est.trials} lattices:"
      f" bad fraction {est.fraction:.4f},"
      f" Wilson 95% interval ({est.wilson_low:.4f}, {est.wilson_high:.4f})")
print("deep-inside implication violations:", est.step_violations)

print()
print("== boundary-layer decay on a probe star at ratio 1/1000 ==")
import numpy as np


def polar(r, deg):
    a = np.deg2rad(deg)
    return [r * np.cos(a), r * np.sin(a)]


pts = {
    "x": [0.0, 0.0], "w3": polar(1.5e-9, 180), "y2": polar(4e-7, 30),
    "y2b": polar(1.5e-6, -40), "w2": polar(1.8e-6, 90), "y1": polar(4e-4, 10),
    "y1b": polar(1.5e-3, -15), "Z": polar(0.4, 0), "E": polar(1.65, 5),
}
probe = dl.space_from_coords(list(pts.values()), names=list(pts))
decay_params = GoodnessParams(delta=0.001, gamma=0.1, r=1)
fit = estimate_boundary_decay(probe, "x", 0, (2e-6, 4e-9, 8e-12),
                              trials=3000, seed=7, params=decay_params)
for eps, p, (lo, hi) in zip(fit.eps, fit.estimates, fit.intervals):
    print(f"eps = {eps:8.1e}: P(x in the layer) = {p:.4f} ({lo:.4f}, {hi:.4f})")
print(f"fitted exponent {fit.eta_hat:.3f} (reference floor {fit.eta_reference:.2e})")

print()
print("== equalizing the goodness probability ==")
elbow = dl.space_from_coords([[0.0], [0.06], [0.31]], names=("x", "u", "w"))
p_q = exact_good_probability(elbow, "x", 2, params)
a = Fraction(1, 4)
print(f"exact P(good) = {p_q}; target really-good probability a = {a}")
freq = estimate_really_good(elbow, "x", 2, params, float(a), float(p_q),
                            trials=20_000, seed=3)
print(f"empirical really-good frequency over 20000 lattices: {freq:.4f}")
