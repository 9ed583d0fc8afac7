"""Track one simulated user and compare forecasts against observations.

The tracker treats the interest profile as a target moving through genre
space with position, velocity and acceleration per axis.  Each step consumes
one daily snapshot and emits the forecast for the next day.  ``track_users`` is
the filter the CLI runs, here given a single series.
"""

import numpy as np

import genretrack as gt

cfg = gt.ScenarioConfig(d=4, K=12, n_users=1, regime="smooth_drift",
                        q_true=1e-4, r_true=1e-3, seed=7)
data = gt.generate_scenario(cfg)
user = data.users[0]
observed = user.observed

model = gt.build_model(d=cfg.d, q=1e-4, r=1e-3, p0=10.0)
record = gt.track_users(model, [observed])[0]

print(f"user {user.user_id}: {observed.n_instants} snapshots, d={cfg.d}")
print(f"{record.n_steps} one-step-ahead predictions\n")
print("step   |innovation|   gain norm   trace(P)   cosine(pred, obs)")
for i, step in enumerate(record.steps):
    obs_row = observed.profiles[step]
    pred_row = record.predicted[i]
    cos = gt.cosine_distance(pred_row, obs_row)
    innov = np.linalg.norm(record.innovations[i])
    print(f"{step:4d}   {innov:11.4f}   {record.gain_norms[i]:9.4f}"
          f"   {record.p_traces[i]:8.3f}   {cos:17.5f}")

report = gt.evaluate(observed, record.predicted, tau=0.15)
print(f"\nmean cosine distance: {report.mean_cosine:.4f}")
print(f"fraction of days below 0.15: {report.fraction_below_threshold:.2f}")
print(f"smoothness ratio (pred wiggle / obs wiggle): {report.smoothness_ratio:.3f}")

# the final state is the forecast for the day after the last snapshot
pos = record.final_x_hat[: cfg.d]
print("\nforecast for the next, unseen day:", np.round(pos, 4))
print("last observed profile:             ", np.round(observed.profiles[-1], 4))
