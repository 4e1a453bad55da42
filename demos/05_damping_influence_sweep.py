"""Influence of the individual damping factors on the energy decay.

Each damping channel acts differently: the viscous coefficient mu drains
energy everywhere in the bulk (integral j_mu), the angular damper k_a eats
the tip rotation rate (j_a), the velocity damper k_v the tip velocity
(j_v).  Sweeping one constant at a time and re-running the simulation
shows the certified rate sigma and the realized decay E(T)/E(0) moving in
response.  Note sigma is a guaranteed lower bound on the decay, not a
prediction.  In the ranges swept here more damping slows the realized
decay (overdamping): E(T)/E(0) rises in all three sweeps.  For k_v and k_a
the certified decay slows with it, since both widen beta1 and so shrink
sigma.  For mu the certificate moves the other way: a larger mu0 also
widens the window lambda_max, so sigma grows while the realized decay slows.
"""

import dataclasses

import numpy as np

import beamstab as bs

base = bs.preset("cantilever_dampers")
mesh = bs.Mesh(base.length, 21)
grid = bs.TimeGrid.from_dt(base.final_time, mesh.h / 20.0)


def summarize(prob):
    trace = bs.run(prob, mesh, grid)
    energy = bs.energy(trace, mode="basis")
    bound = bs.compute_decay_bound(prob, trace)
    return {
        "beta1": bound.beta1,
        "lambda_max": bound.lambda_max,
        "sigma": bound.sigma,
        "E_ratio": float(energy.E[-1] / energy.E0),
        "j_mu": float(energy.j_mu[-1]),
        "j_a": float(energy.j_a[-1]),
        "j_v": float(energy.j_v[-1]),
    }


print(f"{'case':>16s} {'beta1':>7s} {'lam_max':>8s} {'sigma':>8s}"
      f" {'E(T)/E(0)':>10s} {'j_mu':>7s} {'j_a':>7s} {'j_v':>7s}")


def show(label, prob):
    s = summarize(prob)
    print(f"{label:>16s} {s['beta1']:7.3f} {s['lambda_max']:8.4f} {s['sigma']:8.5f}"
          f" {s['E_ratio']:10.2e} {s['j_mu']:7.4f} {s['j_a']:7.4f} {s['j_v']:7.4f}")


for k_v in (0.0, 1.0, 2.0, 4.0):
    prob = dataclasses.replace(
        base, boundary=dataclasses.replace(base.boundary, k_v=k_v))
    show(f"k_v = {k_v:g}", prob)

print()
for scale in (0.5, 1.0, 2.0, 4.0):
    mu = bs.CoefficientField.constant(scale)
    prob = dataclasses.replace(base, mu=mu)
    show(f"mu = {scale:g}", prob)

print()
for k_a in (0.0, 1.0, 4.0):
    prob = dataclasses.replace(
        base, boundary=dataclasses.replace(base.boundary, k_a=k_a))
    show(f"k_a = {k_a:g}", prob)

print("\nthe same sweeps are available from the command line, e.g.")
print("  beamstab sweep --preset cantilever_dampers --param k_v "
      "--values 0,1,2,4 --nodes 21 --ratio 20 --out sweep_out")
