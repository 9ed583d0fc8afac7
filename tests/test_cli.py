import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import genretrack as gt
from genretrack import cli
from genretrack.cli import main


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the assertion tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    sim = root / "sim"
    built = root / "built"
    tracked = root / "tracked"
    recs = root / "recs"
    scored = root / "scored"

    assert run(
        [
            "simulate",
            "--d", "6",
            "--k", "8",
            "--users", "3",
            "--programs-per-day", "4",
            "--seed", "3",
            "--out", str(sim),
        ]
    ) == 0
    assert run(
        [
            "build-profiles",
            "--vocabulary", str(sim / "vocabulary.txt"),
            "--events", str(sim / "events.csv"),
            "--instants", str(sim / "instants.txt"),
            "--out", str(built),
        ]
    ) == 0
    assert run(
        [
            "track",
            "--vocabulary", str(sim / "vocabulary.txt"),
            "--profiles", str(built / "built_profiles.csv"),
            "--out", str(tracked),
        ]
    ) == 0
    assert run(
        [
            "recommend",
            "--vocabulary", str(sim / "vocabulary.txt"),
            "--final-states", str(tracked / "final_states.csv"),
            "--profiles", str(built / "built_profiles.csv"),
            "--events", str(sim / "events.csv"),
            "--out", str(recs),
        ]
    ) == 0
    assert run(
        [
            "evaluate",
            "--vocabulary", str(sim / "vocabulary.txt"),
            "--profiles", str(built / "built_profiles.csv"),
            "--tracks", str(tracked / "tracks"),
            "--out", str(scored),
        ]
    ) == 0
    return {"sim": sim, "built": built, "tracked": tracked, "recs": recs, "scored": scored}


class TestPipeline:
    def test_simulate_outputs(self, pipeline):
        sim = pipeline["sim"]
        for name in ("vocabulary.txt", "instants.txt", "events.csv", "profiles.csv",
                     "truth.csv", "simulate.manifest.txt"):
            assert (sim / name).is_file(), name
        space = gt.read_vocabulary(sim / "vocabulary.txt")
        assert space.d == 6

    def test_build_profiles_outputs(self, pipeline):
        built = pipeline["built"]
        space = gt.read_vocabulary(pipeline["sim"] / "vocabulary.txt")
        series = gt.read_profiles(built / "built_profiles.csv", space)
        assert set(series) == {"u0000", "u0001", "u0002"}
        for s in series.values():
            assert s.n_instants == 8

    def test_track_outputs(self, pipeline):
        tracked = pipeline["tracked"]
        assert (tracked / "final_states.csv").is_file()
        index = (tracked / "tracks" / "index.csv").read_text(encoding="utf-8").splitlines()
        assert index[0] == "user_id,file"
        assert len(index) == 4
        space = gt.read_vocabulary(pipeline["sim"] / "vocabulary.txt")
        states = gt.read_final_states(tracked / "final_states.csv", space)
        assert set(states) == {"u0000", "u0001", "u0002"}
        assert states["u0000"].shape == (18,)

    def test_recommend_outputs(self, pipeline):
        lines = (pipeline["recs"] / "recommendations.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        assert len(lines) == 3
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"user_id", "date", "promoted", "demoted", "excluded_watched"}
            assert obj["date"] == "1970-01-08"
            assert not set(obj["promoted"]) & set(obj["demoted"])

    def test_evaluate_outputs(self, pipeline):
        scored = pipeline["scored"]
        report = (scored / "report.csv").read_text(encoding="utf-8").splitlines()
        assert report[0] == "user_id,step,cosine_distance"
        assert len(report) == 1 + 3 * 7
        summary = (scored / "summary.txt").read_text(encoding="utf-8")
        assert "n_users=3" in summary
        assert "pooled_fraction_below=" in summary

    def test_manifests_record_sources(self, pipeline):
        manifest = (pipeline["sim"] / "simulate.manifest.txt").read_text(encoding="utf-8")
        assert "command=simulate" in manifest
        assert "d=6" in manifest
        assert "d.source=flag" in manifest
        assert "regime=smooth_drift" in manifest
        assert "regime.source=default" in manifest
        assert "out=" not in manifest


class TestDeterminism:
    def test_simulate_twice_identical(self, tmp_path):
        args = ["simulate", "--d", "4", "--k", "5", "--users", "2", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        for name in ("vocabulary.txt", "instants.txt", "events.csv", "profiles.csv",
                     "truth.csv", "simulate.manifest.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestConfigPrecedence:
    def test_defaults_config_flags(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("# scenario size\nd=5\nusers=7\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            ["simulate", "--config", str(config), "--d", "4", "--k", "6", "--out", str(out)]
        )
        assert code == 0
        manifest = (out / "simulate.manifest.txt").read_text(encoding="utf-8")
        assert "d=4" in manifest and "d.source=flag" in manifest
        assert "users=7" in manifest and "users.source=config" in manifest
        assert "seed=0" in manifest and "seed.source=default" in manifest
        space = gt.read_vocabulary(out / "vocabulary.txt")
        assert space.d == 4

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("dimension=4\n", encoding="utf-8")
        code = run(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("just a line\n", encoding="utf-8")
        code = run(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "key=value" in capsys.readouterr().err


class TestErrors:
    def test_invalid_regime(self, tmp_path, capsys):
        code = run(["simulate", "--regime", "chaotic", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "regime" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_required(self, capsys):
        code = run(["simulate"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(
            [
                "track",
                "--vocabulary", str(tmp_path / "nope.txt"),
                "--profiles", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "nope.txt") in err
        assert "No such file" in err

    def test_unreadable_input_directory(self, tmp_path, capsys):
        code = run(
            [
                "track",
                "--vocabulary", str(tmp_path),
                "--profiles", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err
        assert "Is a directory" in err
        assert "unexpected" not in err

    def test_unknown_genre_label(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\n", encoding="utf-8")
        events = tmp_path / "events.csv"
        events.write_text("user_id,timestamp,genres,watched_fraction\nu,150,a;opera,1\n", encoding="utf-8")
        instants = tmp_path / "instants.txt"
        instants.write_text("100\n200\n", encoding="utf-8")
        code = run(
            [
                "build-profiles",
                "--vocabulary", str(vocab),
                "--events", str(events),
                "--instants", str(instants),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "unknown genre label: 'opera'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, cause",
        [
            (["--alpha", "1e100"], "prediction covariance is not finite at step 2"),
            (
                ["--alpha", "0.5", "--q", "0", "--r", "1e-300", "--p0", "1"],
                "innovation covariance ill-conditioned",
            ),
            (["--alpha", "nan"], "alpha must be finite, got nan"),
        ],
        ids=["divergence", "singular_innovation", "non_finite_alpha"],
    )
    def test_model_that_fails_the_filter_is_an_input_error(
        self, pipeline, tmp_path, capsys, flags, cause
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would end as "unexpected error"
            code = run(
                [
                    "track",
                    "--vocabulary", str(pipeline["sim"] / "vocabulary.txt"),
                    "--profiles", str(pipeline["sim"] / "profiles.csv"),
                    *flags,
                    "--out", str(tmp_path / "o"),
                ]
            )
        assert code == 2
        assert f"genretrack track: error: {cause}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, cause",
        [
            # rounding at these scales once read as "Q must be positive semidefinite" and
            # "prediction covariance lost PSD at step 2"
            (["--q", "1e300"], "prediction covariance is not finite at step 2"),
            (["--alpha", "1e50"], "innovation covariance ill-conditioned at step 2: eigenvalue"),
            (["--alpha", "0.5", "--q", "0", "--r", "1e-300", "--p0", "1"],
             "innovation covariance ill-conditioned at step 3: eigenvalue -4.441e-16 is not positive"),
        ],
        ids=["huge_q", "huge_alpha", "non_positive_innovation"],
    )
    def test_large_model_fails_with_its_real_cause(self, pipeline, tmp_path, capsys, flags, cause):
        code = run([
            "track", "--vocabulary", str(pipeline["sim"] / "vocabulary.txt"),
            "--profiles", str(pipeline["sim"] / "profiles.csv"), *flags, "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"genretrack track: error: {cause}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [["--q", "1e100"], ["--q", "1e100", "--r", "1e100"], ["--q", "1e150"]])
    def test_large_valid_model_tracks(self, pipeline, tmp_path, flags):
        code = run([
            "track", "--vocabulary", str(pipeline["sim"] / "vocabulary.txt"),
            "--profiles", str(pipeline["sim"] / "profiles.csv"), *flags, "--out", str(tmp_path / "o"),
        ])
        assert code == 0

    def test_unwritable_user_id_never_reaches_a_table(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\n", encoding="utf-8")
        events = tmp_path / "events.csv"
        # numpy's U dtype would read "u\x00" back as "u", merging two users
        events.write_text("user_id,timestamp,genres,watched_fraction\nu,150,a,1\nu\x00,150,a,1\n", encoding="utf-8")
        instants = tmp_path / "instants.txt"
        instants.write_text("100\n200\n", encoding="utf-8")
        code = run([
            "build-profiles", "--vocabulary", str(vocab), "--events", str(events),
            "--instants", str(instants), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"{events}:3: user id 'u\\x00' holds a control character" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_event_log(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\n", encoding="utf-8")
        events = tmp_path / "events.csv"
        events.write_text("user_id,timestamp,genres,watched_fraction\n", encoding="utf-8")
        instants = tmp_path / "instants.txt"
        instants.write_text("100\n200\n", encoding="utf-8")
        code = run(
            [
                "build-profiles",
                "--vocabulary", str(vocab),
                "--events", str(events),
                "--instants", str(instants),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "no events" in capsys.readouterr().err

    def test_evaluate_without_index(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\n", encoding="utf-8")
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("user_id,instant,a\nu,1,0.5\nu,2,0.6\n", encoding="utf-8")
        code = run(
            [
                "evaluate",
                "--vocabulary", str(vocab),
                "--profiles", str(profiles),
                "--tracks", str(tmp_path / "missing"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "index" in capsys.readouterr().err


class TestTrackMatchesLibrary:
    def test_matches_track_series_within_print_precision(self, pipeline):
        """CLI ``track`` output matches the library's dense ``track_series`` within 1e-9."""
        sim, built, tracked = pipeline["sim"], pipeline["built"], pipeline["tracked"]
        index = (tracked / "tracks" / "index.csv").read_text(encoding="utf-8")
        assert index == "user_id,file\nu0000,u0000.csv\nu0001,u0001.csv\nu0002,u0002.csv\n"
        space = gt.read_vocabulary(sim / "vocabulary.txt")
        series = gt.read_profiles(built / "built_profiles.csv", space)
        model = gt.build_model(d=space.d)
        states = gt.read_final_states(tracked / "final_states.csv", space)
        assert set(states) == set(series)
        for uid in ("u0000", "u0001", "u0002"):
            a = gt.track_series(model, series[uid])
            b = gt.read_track_record(tracked / "tracks" / f"{uid}.csv", space, uid)
            assert np.array_equal(a.steps, b.steps)
            np.testing.assert_allclose(a.predicted, b.predicted, atol=1e-9, rtol=0.0)
            np.testing.assert_allclose(a.innovations, b.innovations, atol=1e-9, rtol=0.0)
            np.testing.assert_allclose(a.gain_norms, b.gain_norms, atol=1e-9, rtol=0.0)
            np.testing.assert_allclose(a.p_traces, b.p_traces, atol=1e-9, rtol=0.0)
            np.testing.assert_allclose(a.final_state.x_hat, states[uid], atol=1e-9, rtol=0.0)


class TestUnusedSeedFlag:
    def test_track_rejects_seed(self, pipeline, tmp_path, capsys):
        sim, built = pipeline["sim"], pipeline["built"]
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "track",
                    "--vocabulary", str(sim / "vocabulary.txt"),
                    "--profiles", str(built / "built_profiles.csv"),
                    "--seed", "1",
                    "--out", str(tmp_path / "o"),
                ]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestAwkwardUserIds:
    def test_ids_with_comma_and_quote_survive_the_pipeline(self, tmp_path):
        ids = ["x,y", 'q"uote']
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n", encoding="utf-8")
        events = [
            gt.WatchEvent(uid, 3600.0 * (1 + i) + j, frozenset({"a", "b"} if i % 2 else {"a"}), 1.0)
            for j, uid in enumerate(ids)
            for i in range(6)
        ]
        gt.write_events(events, tmp_path / "events.csv")
        instants = tmp_path / "instants.txt"
        instants.write_text("".join(f"{3600 * (2 * i + 1) + 100}\n" for i in range(3)), encoding="utf-8")
        built, tracked, scored = tmp_path / "built", tmp_path / "tracked", tmp_path / "scored"
        assert run(
            [
                "build-profiles",
                "--vocabulary", str(vocab),
                "--events", str(tmp_path / "events.csv"),
                "--instants", str(instants),
                "--out", str(built),
            ]
        ) == 0
        profiles = built / "built_profiles.csv"
        assert run(
            ["track", "--vocabulary", str(vocab), "--profiles", str(profiles), "--out", str(tracked)]
        ) == 0
        assert run(
            [
                "evaluate",
                "--vocabulary", str(vocab),
                "--profiles", str(profiles),
                "--tracks", str(tracked / "tracks"),
                "--out", str(scored),
            ]
        ) == 0
        space = gt.read_vocabulary(vocab)
        assert set(gt.read_final_states(tracked / "final_states.csv", space)) == set(ids)
        report = (scored / "report.csv").read_text(encoding="utf-8")
        assert '"x,y"' in report and '"q""uote"' in report


class TestRecommendDates:
    def test_day_index_and_iso_agree(self, pipeline, tmp_path):
        sim, built, tracked = pipeline["sim"], pipeline["built"], pipeline["tracked"]
        base = [
            "recommend",
            "--vocabulary", str(sim / "vocabulary.txt"),
            "--final-states", str(tracked / "final_states.csv"),
            "--profiles", str(built / "built_profiles.csv"),
            "--events", str(sim / "events.csv"),
        ]
        by_index = tmp_path / "by_index"
        by_iso = tmp_path / "by_iso"
        assert run(base + ["--date", "3", "--out", str(by_index)]) == 0
        assert run(base + ["--date", "1970-01-04", "--out", str(by_iso)]) == 0
        a = (by_index / "recommendations.jsonl").read_bytes()
        b = (by_iso / "recommendations.jsonl").read_bytes()
        assert a == b
        assert json.loads(a.splitlines()[0])["date"] == "1970-01-04"

    def test_bad_date(self, pipeline, tmp_path, capsys):
        sim, built, tracked = pipeline["sim"], pipeline["built"], pipeline["tracked"]
        code = run(
            [
                "recommend",
                "--vocabulary", str(sim / "vocabulary.txt"),
                "--final-states", str(tracked / "final_states.csv"),
                "--profiles", str(built / "built_profiles.csv"),
                "--events", str(sim / "events.csv"),
                "--date", "someday",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2


def loaded_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the genretrack modules loaded when it ends."""
    src = str(Path(gt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('genretrack'))))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def command_modules(argv: list[str]) -> list[str]:
    """The genretrack modules a CLI command loads, run in a fresh interpreter."""
    return loaded_modules(f"from genretrack.cli import main\nassert main({argv!r}) == 0")


class TestLazyLoading:
    def test_import_loads_no_module(self):
        assert loaded_modules("import genretrack") == ["genretrack"]

    def test_all_is_every_module_all_and_star_import_binds_it(self):
        code = (
            "import genretrack, importlib\n"
            "names = set(genretrack.__all__)\n"
            "modules = [importlib.import_module('genretrack.' + m) for m in genretrack._MODULES]\n"
            "assert names == {'__version__'}.union(*(m.__all__ for m in modules)), names\n"
            "namespace = {}\n"
            "exec('from genretrack import *', namespace)\n"
            "assert names <= set(namespace) and names <= set(dir(genretrack))\n"
            "assert all(namespace[n] is getattr(m, n) for m in modules for n in m.__all__)"
        )
        assert "genretrack.synthetic" in loaded_modules(code)

    def test_a_name_loads_only_the_modules_searched_for_it(self):
        loaded = loaded_modules("import genretrack\ngenretrack.WatchEvent")
        assert loaded == ["genretrack", "genretrack.ioutil", "genretrack.profiles", "genretrack.space"]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            gt.no_such_name

    def test_build_profiles_loads_neither_tracking_nor_later_stages(self, pipeline, tmp_path):
        sim = pipeline["sim"]
        loaded = command_modules([
            "build-profiles", "--vocabulary", str(sim / "vocabulary.txt"),
            "--events", str(sim / "events.csv"), "--instants", str(sim / "instants.txt"),
            "--out", str(tmp_path / "o"),
        ])
        assert loaded == [
            "genretrack", "genretrack.cli", "genretrack.ioutil", "genretrack.profiles", "genretrack.space"
        ]

    def test_recommend_loads_neither_synthetic_nor_evaluation(self, pipeline, tmp_path):
        sim, built, tracked = pipeline["sim"], pipeline["built"], pipeline["tracked"]
        loaded = command_modules([
            "recommend", "--vocabulary", str(sim / "vocabulary.txt"),
            "--final-states", str(tracked / "final_states.csv"),
            "--profiles", str(built / "built_profiles.csv"), "--events", str(sim / "events.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert "genretrack.recommender" in loaded
        assert not {"genretrack.synthetic", "genretrack.evaluation"} & set(loaded)

    def test_evaluate_loads_neither_recommender_nor_synthetic(self, pipeline, tmp_path):
        sim, built, tracked = pipeline["sim"], pipeline["built"], pipeline["tracked"]
        loaded = command_modules([
            "evaluate", "--vocabulary", str(sim / "vocabulary.txt"),
            "--profiles", str(built / "built_profiles.csv"), "--tracks", str(tracked / "tracks"),
            "--out", str(tmp_path / "o"),
        ])
        assert "genretrack.evaluation" in loaded
        assert not {"genretrack.recommender", "genretrack.synthetic"} & set(loaded)


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (gt.DivergenceError("diverged"), 2),
            (gt.SingularInnovationError("singular"), 2),
            (ValueError("bad"), 2),
            (RuntimeError("boom"), 1),
            (ZeroDivisionError("boom"), 1),
        ],
    )
    def test_exit_code_by_error(self, pipeline, tmp_path, monkeypatch, capsys, error, code):
        def fail(effective):
            raise error

        monkeypatch.setitem(cli._HANDLERS, "evaluate", fail)
        argv = ["evaluate", "--vocabulary", "v", "--profiles", "p", "--tracks", "t", "--out", str(tmp_path / "o")]
        assert run(argv) == code
        prefix = "error" if code == 2 else "unexpected error"
        assert capsys.readouterr().err == f"genretrack evaluate: {prefix}: {error}\n"
        assert not (tmp_path / "o").exists()


class TestImports:
    def test_cli_does_not_load_scipy_linalg(self):
        src = str(Path(gt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import genretrack.cli, sys; assert 'scipy.linalg' not in sys.modules"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_does_not_load_scipy(self):
        # the OpenBLAS thread limit finds scipy's bundled library without importing scipy
        src = str(Path(gt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = (
            "import sys, genretrack.cli\n"
            "from genretrack import tracking\n"
            "tracking._openblas_libraries()\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [
                sys.executable, "-m", "genretrack.cli",
                "simulate", "--d", "3", "--k", "3", "--users", "1", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "simulate.manifest.txt").is_file()
