"""How the filter's trust in measurements is set by the noise ratio.

The gain maps innovation to state correction.  Iterating the covariance
recursion from any start converges to a fixed point; the gain that goes
with it tells you how aggressively the tracker follows new measurements.

Needs SciPy (the ``test`` extra) for the independent Riccati reference.
"""

import numpy as np
import scipy.linalg

import genretrack as gt

print("steady-state position gain vs measurement noise (q = 0.01)")
print(f"{'r':>10}   {'gain norm':>10}")
for r in (1e-4, 1e-2, 1.0, 1e2):
    model = gt.build_model(d=1, q=0.01, r=r)
    P = gt.steady_state_covariance(model)
    K = gt.gain(model, P)
    print(f"{r:10.0e}   {np.linalg.norm(K):10.4f}")

print("\ncovariance recursion convergence (q = 0.01, r = 1)")
model = gt.build_model(d=1, q=0.01, r=1.0)
P = 10.0 * np.eye(3)
for step in range(1, 201):
    P_next = gt.covariance_step(model, P)
    delta = np.linalg.norm(P_next - P)
    P = P_next
    if step in (1, 2, 5, 10, 20, 50) or delta < 1e-10:
        print(f"  step {step:3d}: ||P_next - P|| = {delta:.3e}")
    if delta < 1e-10:
        break

# cross-check the limit against an independent Riccati solver
dare = scipy.linalg.solve_discrete_are(model.A.T, model.H.T, model.Q, model.R)
print(f"\nmax |P - DARE solution| = {np.max(np.abs(P - dare)):.3e}")

print("\nsteady-state covariance (position, velocity, acceleration):")
print(np.array_str(P, precision=4, suppress_small=True))
