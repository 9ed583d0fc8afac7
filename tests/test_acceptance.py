"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Every criterion computes its own verdict before asserting, so a red run
still reports which check broke and by how much.
"""

import time

import numpy as np
import pytest

import genretrack as gt
from genretrack.cli import main as cli_main
import dense_oracle as oracle
from dense_oracle import FilterState, dense_matrices
from properties import (
    check_cosine_properties,
    check_covariance_properties,
    check_fold_matches_reference,
    check_order_insensitivity,
    check_watched_exclusion,
    run_many,
)


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nCRITERION {n} {verdict}: {desc}{suffix}")
    assert ok, f"criterion {n} failed: {desc}{suffix}"


def test_criterion_1_decoupled_matches_dense():
    grid = [(d, K) for d in (1, 5, 44) for K in (10, 35, 100)]
    cases = [(d, K, 0) for d, K in grid] + [(d, K, 1) for d, K in grid]
    cases += [(5, 35, 2), (44, 35, 2)]
    assert len(cases) == 20

    start = time.perf_counter()
    worst = 0.0
    for d, K, seed in cases:
        rng = np.random.default_rng(seed)
        series = gt.ProfileSeries(
            f"case-{d}-{K}-{seed}", np.arange(K, dtype=float), rng.random((K, d)) * 2.0
        )
        model = gt.build_model(d=d, q=1e-3, r=1e-2)
        dense = oracle.track_series(model, series)
        (fast,) = gt.track_users(model, [series])
        # The oracle's final P, and the schedule's P_K assembled as d diagonal copies.
        dense_P = 10.0 * np.eye(3 * d)
        for _ in range(K):
            dense_P = oracle.covariance_step(model, dense_P)
        fast_P = np.kron(gt.gain_schedule(model, K)[0][K], np.eye(d))
        worst = max(
            worst,
            float(np.max(np.abs(dense.predicted - fast.predicted))),
            float(np.max(np.abs(dense.innovations - fast.innovations))),
            float(np.max(np.abs(dense.gain_norms - fast.gain_norms))),
            float(np.max(np.abs(dense.p_traces - fast.p_traces))),
            float(np.max(np.abs(dense.final_x_hat - fast.final_x_hat))),
            float(np.max(np.abs(dense_P - fast_P))),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        1,
        "the batched per-axis engine matches the dense oracle on 20 seeded scenarios",
        ok,
        f"worst |diff| {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_predict_step_hand_example():
    model = gt.build_model(d=1, T=1.0, alpha=1.0, q=0.0, r=1.0)
    state = FilterState(x_hat=np.zeros(3), P=np.eye(3))
    z = np.array([1.0])
    out = oracle.predict_step(model, state, z)

    # independent oracle: textbook predictor equations, explicit inverse
    A = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    H = np.array([[1.0, 0.0, 0.0]])
    P = np.eye(3)
    R = np.array([[1.0]])
    S = H @ P @ H.T + R
    K = A @ P @ H.T @ np.linalg.inv(S)
    x_next = A @ np.zeros(3) + K @ (z - H @ np.zeros(3))
    P_next = A @ P @ A.T - K @ (A @ P @ H.T).T

    err_x = float(np.max(np.abs(out.x_hat - x_next)))
    err_P = float(np.max(np.abs(out.P - P_next)))
    expected_x = np.array([0.5, 0.0, 0.0])
    expected_P = np.array([[1.75, 1.5, 0.5], [1.5, 2.0, 1.0], [0.5, 1.0, 1.0]])
    err_lit = max(
        float(np.max(np.abs(out.x_hat - expected_x))),
        float(np.max(np.abs(out.P - expected_P))),
    )
    ok = err_x <= 1e-12 and err_P <= 1e-12 and err_lit <= 1e-12
    _report(
        2,
        "one prediction step reproduces the hand-worked example",
        ok,
        f"max errors: vs oracle {max(err_x, err_P):.2e}, vs literals {err_lit:.2e}",
    )


def test_criterion_3_covariance_recursion_converges():
    model = gt.build_model(d=1, T=1.0, alpha=1.0, q=0.01, r=1.0)
    try:
        P = oracle.steady_state_covariance(model, tol=1e-10, max_iter=500)
        converged = True
    except gt.DivergenceError:
        converged = False
        P = None
    residual = (
        float(np.linalg.norm(oracle.covariance_step(model, P) - P)) if converged else float("inf")
    )
    ok = converged and residual < 1e-8
    _report(
        3,
        "covariance recursion converges within 500 steps and fixes its limit",
        ok,
        f"residual {residual:.3e}",
    )


def test_criterion_4_noise_free_innovations_vanish():
    # constant truth from the generator, default filter noise
    cfg = gt.ScenarioConfig(d=7, K=40, n_users=5, q_true=0.0, r_true=0.0, seed=5)
    data = gt.generate_scenario(cfg)
    model = gt.build_model(d=7)
    worst = 0.0
    for uid, series in data.observed().items():
        record = oracle.track_series(model, series)
        worst = max(worst, float(np.max(np.abs(record.innovations))))

    # moving truth: exact kinematic trajectory with a matching initial state;
    # the filter state is the forecast for the observation it consumes next
    model1 = gt.build_model(d=1, q=1e-3, r=1e-2)
    x0 = np.array([0.3, 0.02, -0.001])
    A, H, _, _ = dense_matrices(model1)
    state = FilterState(x_hat=x0.copy(), P=10.0 * np.eye(3))
    x_true = x0.copy()
    for _ in range(30):
        z = H @ x_true
        state = oracle.predict_step(model1, state, z)
        worst = max(worst, float(np.max(np.abs(state.last_innovation))))
        x_true = A @ x_true

    ok = worst < 1e-8
    _report(
        4,
        "noise-free trajectories with matched initialization give zero innovations",
        ok,
        f"max |innovation| {worst:.3e}",
    )


def test_criterion_5_prediction_quality_pooled():
    start = time.perf_counter()
    cfg = gt.ScenarioConfig(
        d=44, K=35, n_users=50, regime="smooth_drift", q_true=1e-3, r_true=1e-2, seed=0
    )
    data = gt.generate_scenario(cfg)
    model = gt.build_model(d=44, q=1e-3, r=1e-2)
    observed = data.observed()
    records = [oracle.track_series(model, observed[uid]) for uid in sorted(observed)]
    pooled = gt.evaluate_many(records, observed, tau=0.15)
    elapsed = time.perf_counter() - start
    fraction = pooled.pooled_fraction_below
    ok = fraction >= 0.80 and elapsed < 10.0
    _report(
        5,
        "one-day-ahead predictions stay within cosine 0.15 of observations",
        ok,
        f"pooled fraction {fraction:.4f}, {elapsed:.2f}s",
    )


def test_criterion_6_predictions_smoother_than_observations():
    cfg = gt.ScenarioConfig(
        d=44, K=100, n_users=50, regime="smooth_drift", q_true=1e-8, r_true=1e-2, seed=0
    )
    data = gt.generate_scenario(cfg)
    model = gt.build_model(d=44, q=1e-7, r=1e-2)
    observed = data.observed()
    records = gt.track_users(model, [observed[uid] for uid in sorted(observed)])
    pooled = gt.evaluate_many(records, observed, tau=0.15)
    fraction = pooled.fraction_smoothness_le_1
    ok = fraction >= 0.95
    _report(
        6,
        "a slow-process filter smooths measurement noise for nearly all users",
        ok,
        f"smoothness_ratio <= 1 for {fraction:.0%} of users",
    )


def test_criterion_7_watched_genres_never_promoted():
    space = gt.new_space(["x", "y", "z"])
    deltas = gt.concept_deltas(np.array([1.0, 1.0, 1.0]), np.zeros(3), theta=0.5)
    rec = gt.recommend(deltas, {"x", "y"}, space, user_id="u")
    ok = (
        rec.promoted == ("z",)
        and set(rec.excluded_watched) == {"x", "y"}
        and rec.demoted == ()
    )
    _report(
        7,
        "rising genres watched today are excluded from promotions exactly",
        ok,
        f"promoted={list(rec.promoted)}, excluded={sorted(rec.excluded_watched)}",
    )


def _run_pipeline(root) -> None:
    sim = root / "sim"
    built = root / "built"
    tracked = root / "tracked"
    recs = root / "recs"
    scored = root / "scored"
    steps = [
        ["simulate", "--d", "6", "--k", "10", "--users", "4", "--programs-per-day", "5",
         "--seed", "13", "--out", str(sim)],
        ["build-profiles", "--vocabulary", str(sim / "vocabulary.txt"),
         "--events", str(sim / "events.csv"), "--instants", str(sim / "instants.txt"),
         "--out", str(built)],
        ["track", "--vocabulary", str(sim / "vocabulary.txt"),
         "--profiles", str(built / "built_profiles.csv"), "--out", str(tracked)],
        ["recommend", "--vocabulary", str(sim / "vocabulary.txt"),
         "--final-states", str(tracked / "final_states.csv"),
         "--profiles", str(built / "built_profiles.csv"),
         "--events", str(sim / "events.csv"), "--out", str(recs)],
        ["evaluate", "--vocabulary", str(sim / "vocabulary.txt"),
         "--profiles", str(built / "built_profiles.csv"),
         "--tracks", str(tracked / "tracks"), "--out", str(scored)],
    ]
    for argv in steps:
        code = cli_main(argv)
        assert code == 0, f"pipeline step failed: {argv[0]}"


def test_criterion_8_pipeline_runs_are_byte_identical(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    _run_pipeline(run_a)
    _run_pipeline(run_b)

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    same_tree = files_a == files_b
    diffs = []
    if same_tree:
        for rel in files_a:
            if (run_a / rel).read_bytes() != (run_b / rel).read_bytes():
                diffs.append(str(rel))
    ok = same_tree and not diffs
    detail = f"{len(files_a)} files compared" if ok else f"tree match={same_tree}, diffs={diffs}"
    _report(8, "two identical CLI pipeline runs produce byte-identical outputs", ok, detail)


def test_criterion_9_property_suites():
    suites = [
        ("cosine distance", check_cosine_properties, 501),
        ("covariance symmetry/PSD", check_covariance_properties, 502),
        ("watched exclusion", check_watched_exclusion, 503),
        ("profile order insensitivity", check_order_insensitivity, 504),
        ("profile fold matches per-event reference", check_fold_matches_reference, 505),
    ]
    counts = []
    for _, check, seed in suites:
        counts.append(run_many(check, 100, seed=seed))
    ok = all(c >= 100 for c in counts)
    _report(
        9,
        "five generative property suites hold over 100 random cases each",
        ok,
        ", ".join(f"{name}: {c}" for (name, _, _), c in zip(suites, counts)),
    )
