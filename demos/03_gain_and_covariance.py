"""How the filter's trust in measurements is set by the noise ratio.

The gain maps innovation to state correction.  Iterating the covariance
recursion from any start converges to a fixed point; the gain that goes
with it tells you how aggressively the tracker follows new measurements.
The recursion here is ``gain_schedule``'s, the one every genre axis shares,
and its converging tail is the steady state.

Needs SciPy (the ``test`` extra) for the independent Riccati reference.
"""

import numpy as np
import scipy.linalg

import genretrack as gt

print("steady-state position gain vs measurement noise (q = 0.01)")
print(f"{'r':>10}   {'gain norm':>10}")
for r in (1e-4, 1e-2, 1.0, 1e2):
    _, gains = gt.gain_schedule(gt.build_model(d=1, q=0.01, r=r), 1000)
    print(f"{r:10.0e}   {np.linalg.norm(gains[-1]):10.4f}")

print("\ncovariance recursion convergence (q = 0.01, r = 1)")
model = gt.build_model(d=1, q=0.01, r=1.0)
covariances, _ = gt.gain_schedule(model, 200)
for step in range(1, 201):
    P = covariances[step]
    delta = np.linalg.norm(P - covariances[step - 1])
    if step in (1, 2, 5, 10, 20, 50) or delta < 1e-10:
        print(f"  step {step:3d}: ||P_next - P|| = {delta:.3e}")
    if delta < 1e-10:
        break

# cross-check the limit against an independent Riccati solver, on one axis's matrices
A = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])  # T = 1, alpha = 1
H = np.array([[1.0, 0.0, 0.0]])
dare = scipy.linalg.solve_discrete_are(A.T, H.T, model.q_block, np.array([[model.r]]))
print(f"\nmax |P - DARE solution| = {np.max(np.abs(P - dare)):.3e}")

print("\nsteady-state covariance (position, velocity, acceleration):")
print(np.array_str(P, precision=4, suppress_small=True))
