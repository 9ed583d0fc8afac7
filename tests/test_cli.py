import csv
import gc
import hashlib
import json
import os
import shutil
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

    @pytest.mark.parametrize("command", ["track", "recommend"])
    def test_unwritable_user_id_in_a_numeric_table_is_refused(self, pipeline, tmp_path, capsys, command):
        # Hand-written tables: "x\ny" would split summary.txt's lines if it ran through.
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\n", encoding="utf-8")
        profiles_csv = tmp_path / "profiles.csv"
        profiles_csv.write_text('user_id,instant,a\nu,1,0.5\n"x\ny",1,0.5\n"x\ny",2,0.5\n', encoding="utf-8")
        states = tmp_path / "final_states.csv"
        states.write_text('user_id,pos_a,vel_a,acc_a\nu,1,0,0\n"x\ny",1,0,0\n', encoding="utf-8")
        common = ["--vocabulary", str(vocab), "--profiles", str(profiles_csv), "--out", str(tmp_path / "o")]
        if command == "track":
            code, where = run(["track", *common]), f"{profiles_csv}:4"
        else:
            events = pipeline["sim"] / "events.csv"
            code = run(["recommend", *common, "--final-states", str(states), "--events", str(events)])
            where = f"{states}:4"
        assert code == 2
        assert f"{where}: user id 'x\\ny' holds a control character" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_summary_keys_parse_back_to_an_id_holding_equals_and_dots(self, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n", encoding="utf-8")
        profiles_csv = tmp_path / "profiles.csv"
        rows = [f"{uid},{t},{0.1 * t},{0.5 + 0.2 * t}" for uid in ("a=b.c", "u") for t in (1, 2, 3, 4)]
        profiles_csv.write_text("user_id,instant,a,b\n" + "\n".join(rows) + "\n", encoding="utf-8")
        common = ["--vocabulary", str(vocab), "--profiles", str(profiles_csv)]
        assert run(["track", *common, "--out", str(tmp_path / "tracked")]) == 0
        tracks = str(tmp_path / "tracked" / "tracks")
        assert run(["evaluate", *common, "--tracks", tracks, "--out", str(tmp_path / "scored")]) == 0
        metrics: dict[str, dict[str, str]] = {}
        for line in (tmp_path / "scored" / "summary.txt").read_text(encoding="utf-8").splitlines():
            key, _, value = line.rpartition("=")
            if key.startswith("user."):
                user_id, _, metric = key[len("user."):].rpartition(".")
                metrics.setdefault(user_id, {})[metric] = value
        assert sorted(metrics) == ["a=b.c", "u"]
        assert metrics["a=b.c"]["n_steps"] == "3" and len(metrics["a=b.c"]) == 6

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

    def test_non_finite_instant_refused(self, pipeline, tmp_path, capsys):
        sim = pipeline["sim"]
        instants = tmp_path / "instants.txt"
        instants.write_text("100\nnan\n300\n", encoding="utf-8")
        code = run([
            "build-profiles", "--vocabulary", str(sim / "vocabulary.txt"),
            "--events", str(sim / "events.csv"), "--instants", str(instants),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"genretrack build-profiles: error: {instants}:2: instants must be finite, got nan\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("100\n\n-inf\n300\n", "3: instants must be finite, got -inf"),
            ("# t\n100\n200\n  200 \n", "4: instants must be strictly increasing, got 200 after 200"),
            ("100\n300\n2e2\n", "3: instants must be strictly increasing, got 2e2 after 300"),
        ],
        ids=["infinite", "repeated", "earlier"],
    )
    def test_instant_fault_names_its_line(self, pipeline, tmp_path, capsys, text, cause):
        sim = pipeline["sim"]
        instants = tmp_path / "instants.txt"
        instants.write_text(text, encoding="utf-8")
        code = run([
            "build-profiles", "--vocabulary", str(sim / "vocabulary.txt"),
            "--events", str(sim / "events.csv"), "--instants", str(instants),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"genretrack build-profiles: error: {instants}:{cause}\n"
        assert not (tmp_path / "o").exists()

    def test_non_finite_instant_in_profiles_refused(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\n", encoding="utf-8")
        profiles_csv = tmp_path / "profiles.csv"
        profiles_csv.write_text("user_id,instant,a\nu,1,0.5\nu,nan,0.5\n", encoding="utf-8")
        code = run(["track", "--vocabulary", str(vocab), "--profiles", str(profiles_csv), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "genretrack track: error: instants for 'u' must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


    def test_cell_past_the_csv_field_limit_does_not_stop_the_fault_pass(self, tmp_path, capsys):
        # csv refuses a cell over 131072 characters by default; numpy reads it.
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\n", encoding="utf-8")
        events = tmp_path / "events.csv"
        rows = f"u,150,{'a' * 200_000},1\nu,160,a,2\n"
        events.write_text("user_id,timestamp,genres,watched_fraction\n" + rows, encoding="utf-8")
        instants = tmp_path / "instants.txt"
        instants.write_text("100\n200\n", encoding="utf-8")
        limit = csv.field_size_limit()
        code = run([
            "build-profiles", "--vocabulary", str(vocab), "--events", str(events),
            "--instants", str(instants), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {events}:3: watched_fraction must be in [0, 1], got 2.0" in err
        assert csv.field_size_limit() == limit and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "row, cause",
        [
            ('"u\x01",u0001.csv', "user id 'u\\x01' holds a control character or line separator"),
            ("u0001,", "file must be non-empty"),
            ("u0001,u0001.csv,x", "expected 2 fields, got 3"),
            ("u0000,u0001.csv", "user 'u0000' is listed twice"),
            ("u0001,u0000.csv", "file 'u0000.csv' is listed twice"),
            ("u0001,U0000.CSV", "file 'U0000.CSV' is listed twice"),
            ("u0001,../../outside.csv", "file '../../outside.csv' is not a track file's name"),
            ("u0001,sub\\u0001.csv", "file 'sub\\\\u0001.csv' is not a track file's name"),
            ("u0001,..", "file '..' is not a track file's name"),
            ("u0001,index.csv", "file 'index.csv' is not a track file's name"),
        ],
        ids=[
            "control_character", "empty_file", "three_fields", "repeated_user", "shared_file",
            "shared_file_ignoring_case", "outside_the_directory", "backslash", "parent", "index",
        ],
    )
    def test_faulty_track_index_row_names_its_line(self, pipeline, tmp_path, capsys, row, cause):
        tracks = tmp_path / "tracks"
        shutil.copytree(pipeline["tracked"] / "tracks", tracks)
        index = tracks / "index.csv"
        index.write_text(f"user_id,file\nu0000,u0000.csv\n\n{row}\nu0002,u0002.csv\n", encoding="utf-8")
        code = run([
            "evaluate", "--vocabulary", str(pipeline["sim"] / "vocabulary.txt"),
            "--profiles", str(pipeline["built"] / "built_profiles.csv"),
            "--tracks", str(tracks), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"genretrack evaluate: error: {index}:4: {cause}\n"
        assert not (tmp_path / "o").exists()

class TestUndecodableBytes:
    """A byte that is not UTF-8 in any input names the file and the line."""

    @staticmethod
    def spoil(source: Path, target: Path, line: int) -> Path:
        """``source`` with the byte 0xff put at the start of its ``line``-th line."""
        lines = source.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        target.write_bytes(b"".join(lines))
        return target

    def argv(self, pipeline, command: str, **inputs: Path) -> list[str]:
        sim, built, tracked = pipeline["sim"], pipeline["built"], pipeline["tracked"]
        given = {
            "build-profiles": {"events": sim / "events.csv", "instants": sim / "instants.txt"},
            "track": {"profiles": built / "built_profiles.csv"},
            "recommend": {
                "final-states": tracked / "final_states.csv", "profiles": built / "built_profiles.csv",
                "events": sim / "events.csv",
            },
        }[command]
        given = {"vocabulary": sim / "vocabulary.txt", **given, **inputs}
        config = [f"--config={given.pop('config')}"] if "config" in given else []
        return [command, *config, *(f"--{flag}={path}" for flag, path in given.items())]

    @pytest.mark.parametrize(
        "command, flag, source, line",
        [
            ("build-profiles", "events", ("sim", "events.csv"), 4),
            ("recommend", "events", ("sim", "events.csv"), 9),
            ("build-profiles", "vocabulary", ("sim", "vocabulary.txt"), 2),
            ("build-profiles", "instants", ("sim", "instants.txt"), 3),
            ("track", "profiles", ("built", "built_profiles.csv"), 5),
        ],
        ids=["events", "events_recommend", "vocabulary", "instants", "profiles"],
    )
    def test_input_names_its_line(self, pipeline, tmp_path, capsys, command, flag, source, line):
        spoiled = self.spoil(pipeline[source[0]] / source[1], tmp_path / source[1], line)
        out = tmp_path / "o"
        assert run([*self.argv(pipeline, command, **{flag: spoiled}), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"genretrack {command}: error: {spoiled}:{line}: byte 0xff is not UTF-8\n"
        assert not out.exists()

    def test_config_file_names_its_line(self, pipeline, tmp_path, capsys):
        config = tmp_path / "build.cfg"
        config.write_bytes(b"# caf\xe9\ndecay=0.5\n")
        out = tmp_path / "o"
        assert run([*self.argv(pipeline, "build-profiles", config=config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"genretrack build-profiles: error: {config}:1: byte 0xe9 is not UTF-8\n"
        assert not out.exists()


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

    def test_ids_naming_the_index_or_differing_in_case_keep_their_own_files(self, tmp_path):
        # index.csv is the index, and U1.csv and u1.csv are one file where case is ignored.
        ids = ["U1", "index", "u1"]
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n", encoding="utf-8")
        space = gt.read_vocabulary(vocab)
        rng = np.random.default_rng(5)
        series = {uid: gt.ProfileSeries(uid, np.arange(1.0, 6.0), rng.random((5, 2))) for uid in ids}
        profiles = tmp_path / "profiles.csv"
        gt.write_profiles(series, space, profiles)
        common = ["--vocabulary", str(vocab), "--profiles", str(profiles)]
        tracks, scored = tmp_path / "tracked" / "tracks", tmp_path / "scored"
        assert run(["track", *common, "--out", str(tmp_path / "tracked")]) == 0
        assert run(["evaluate", *common, "--tracks", str(tracks), "--out", str(scored)]) == 0
        index = (tracks / "index.csv").read_text(encoding="utf-8")
        assert index == "user_id,file\nU1,U1.csv\nindex,index_2.csv\nu1,u1_2.csv\n"
        assert "n_users=3\n" in (scored / "summary.txt").read_text(encoding="utf-8")
        model = gt.build_model(d=space.d)
        records = gt.read_tracks(tracks, space)
        assert [record.user_id for record in records] == ids
        for record in records:
            expected = gt.track_series(model, series[record.user_id]).predicted
            np.testing.assert_allclose(record.predicted, expected, atol=1e-9, rtol=0.0)


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


def fresh_python(code: str, env: dict[str, str] | None = None):
    """Run ``code`` in a fresh interpreter that imports this genretrack; its last stdout line as JSON.

    ``env`` replaces this process's environment; this genretrack is put on its ``PYTHONPATH``.
    """
    src = str(Path(gt.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the genretrack modules loaded when it ends."""
    return fresh_python(
        f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('genretrack'))))"
    )


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

    def test_simulate_loads_no_pipeline_stage(self, tmp_path):
        argv = ["simulate", "--d", "2", "--k", "3", "--users", "1", "--out", str(tmp_path / "o")]
        assert command_modules(argv) == [
            "genretrack", "genretrack.cli", "genretrack.ioutil", "genretrack.profiles",
            "genretrack.space", "genretrack.synthetic",
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

    def test_cli_does_not_load_scipy(self, pipeline, tmp_path):
        # SciPy is a test-only dependency: neither the CLI nor either filter may load any of it
        sim, built = pipeline["sim"], pipeline["built"]
        argv = [
            "track", "--vocabulary", str(sim / "vocabulary.txt"),
            "--profiles", str(built / "built_profiles.csv"), "--out", str(tmp_path / "o"),
        ]
        probe = (
            "import sys\n"
            "def assert_no_scipy(after):\n"
            "    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "    assert not loaded, f'{after} loaded {sorted(loaded)}'\n"
            "import genretrack.cli\n"
            "assert_no_scipy('import genretrack.cli')\n"
            "import numpy as np\n"
            "import genretrack as gt\n"
            "model = gt.build_model(d=3)\n"
            "series = gt.ProfileSeries('u', np.arange(4.0), np.random.default_rng(0).random((4, 3)))\n"
            "gt.track_series(model, series)\n"
            "gt.steady_state_covariance(model)\n"
            "assert_no_scipy('the dense filter')\n"
            f"assert genretrack.cli.main({argv!r}) == 0\n"
            "assert_no_scipy('genretrack track')\n"
        )
        src = str(Path(gt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "final_states.csv").is_file()


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _numpy_uses_openblas() -> bool:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


def threads_and_environ(code: str, **env: str) -> list:
    """Run ``code`` in a fresh interpreter with only ``env`` of the BLAS thread variables set.

    Returns [the process's thread count, its environment] when ``code`` ends; ``code``
    may compare ``before``, the environment it started with.
    """
    base = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    probe = (
        "import json, os\n"
        "before = dict(os.environ)\n"
        f"{code}\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')), dict(os.environ)]))"
    )
    return fresh_python(probe, {**base, **env})


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy's BLAS is not OpenBLAS")
class TestBlasThreadPool:
    """Importing the CLI loads numpy with one OpenBLAS thread and leaves the environment as it was."""

    CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

    def test_cli_loads_numpy_with_one_thread(self):
        threads, environ = threads_and_environ("import genretrack.cli\nassert dict(os.environ) == before")
        assert threads == 1
        assert not set(BLAS_THREAD_VARIABLES) & set(environ)

    @pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
    def test_a_thread_count_the_caller_set_is_honoured(self, name):
        threads, environ = threads_and_environ("import genretrack.cli\nassert dict(os.environ) == before", **{name: "2"})
        assert environ[name] == "2"
        if self.CPUS >= 2:
            assert threads == 2

    def test_cli_imported_after_numpy_changes_nothing(self):
        threads, _ = threads_and_environ(
            "import numpy\nthreads = len(os.listdir('/proc/self/task'))\n"
            "import genretrack.cli\n"
            "assert dict(os.environ) == before\n"
            "assert len(os.listdir('/proc/self/task')) == threads"
        )
        if self.CPUS >= 2:
            assert threads > 1


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

    # How each entry point runs main: `python -m genretrack.cli`, and the `genretrack`
    # console script, which calls genretrack.cli:main with no arguments.
    ENTRIES = {
        "module": "import runpy\nrunpy.run_module('genretrack.cli', run_name='__main__', alter_sys=True)",
        "console_script": "from genretrack.cli import main\nsys.exit(main())",
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_run_as_the_program_freezes_the_heap_and_keeps_atexit(self, pipeline, tmp_path, entry):
        sim, out = pipeline["sim"], tmp_path / "built"
        argv = [
            "build-profiles", "--vocabulary", str(sim / "vocabulary.txt"),
            "--events", str(sim / "events.csv"), "--instants", str(sim / "instants.txt"),
            "--out", str(out),
        ]
        # The hook prints after main returns; its line on stdout shows stdio is still flushed.
        code = (
            "import atexit, gc, json, sys\n"
            "assert gc.get_freeze_count() == 0\n"
            "atexit.register(lambda: print(json.dumps(gc.get_freeze_count())))\n"
            f"sys.argv = ['genretrack', *{argv!r}]\n"
            + self.ENTRIES[entry]
        )
        assert fresh_python(code) > 0
        for name in ("built_profiles.csv", "build-profiles.manifest.txt"):
            assert (out / name).read_bytes() == (pipeline["built"] / name).read_bytes()

    def test_main_called_with_arguments_leaves_the_collector_as_it_was(self, tmp_path):
        before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
        assert main(["simulate", "--d", "3", "--k", "3", "--users", "1", "--out", str(tmp_path / "o")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before


# sha256 of every file build-profiles, track, recommend and evaluate write from the inputs
# of `simulate --d 5 --k 12 --users 4 --programs-per-day 3 --regime R --seed 3`, recorded
# before the writers became column-wise: a writer that changes one byte fails here.
PIPELINE_GOLDEN = {
    "smooth_drift": {
        "built/build-profiles.manifest.txt": "d382aeaa64c29ac70108a5b2d72e553c4357b3808207b696c23945bab3eea213",
        "built/built_profiles.csv": "4642f6c50f5114cff92da15c555b5d22deb83c055bbf09be219e5bbf6f587541",
        "evaluated/evaluate.manifest.txt": "b734847e237293cdbc0417416b0957a594b74665c8ef723835a09031d4177b90",
        "evaluated/histogram.csv": "36ac8d52ee6cf9ee506c306d8a6521d67e7e27bf0d93e9ec6e47609ac4b127fd",
        "evaluated/report.csv": "d4baacf6c0c7496682aefb1428e39bc042e801698f59b2757118035a32c9fad7",
        "evaluated/summary.txt": "fbedbac5790098c204d58dc9951d1761bdbf8d0dde2afff319cd6b2cf14637bc",
        "recommended/recommend.manifest.txt": "2af72c3a754baf5054ae9c815cefc38fc1f8867916d0601c9a58b7b9585d0c54",
        "recommended/recommendations.jsonl": "09ead55c49febc7bf8d02f9323abb89614f340284aee76496a85b9b17f902d1a",
        "tracked/final_states.csv": "abfefb734c09d5c2aee922dfe8fb4bfe00fa36082d7b68734733078b0df3b8f8",
        "tracked/track.manifest.txt": "24c0720c8b3415d10718f2f9fc15d498421986ced887b23c124a6c9421ad779d",
        "tracked/tracks/index.csv": "06f92e4f586b71ea3e79c858b55a0cdc4d07a7d134287eb66594fe75887e5b59",
        "tracked/tracks/u0000.csv": "1081fa2b6474075ae6084881b688cfe9d01c61af8fb1acf5d29d02db8bbbadd9",
        "tracked/tracks/u0001.csv": "8428db9cc5490b15501fdc306efe63cfd965f9395abad0153013202ef213b9ab",
        "tracked/tracks/u0002.csv": "1b56cb98fae597bd1efe7896d47ad829351bdf37336b3166cb1409a5a75ab2a7",
        "tracked/tracks/u0003.csv": "bd15e8f47510353e911dd56e6f6454253cc8ec571dcaa549328339fd54de8238",
    },
    "bursty-decay": {
        "built/build-profiles.manifest.txt": "c4e6a722bdaf1a3aff9f0268a5d3fb43534edff7230979a644c9035a85d88cc2",
        "built/built_profiles.csv": "a116b16416805ee3a34a31695ba8e6fe219d528fb959a9743e97c12d7b83c619",
        "evaluated/evaluate.manifest.txt": "b734847e237293cdbc0417416b0957a594b74665c8ef723835a09031d4177b90",
        "evaluated/histogram.csv": "d5d48a702afd235d857a4510367cfd85d375dfaa1a2647ab80420d4829d25b91",
        "evaluated/report.csv": "de1b966c43b22982af96b90807b115738b1ef94a13106633e6b7b3369194a240",
        "evaluated/summary.txt": "db2173ee2b179b6cf70c61bc7e5eeb5c89d74ff4ffce06dd1860261ff0a36080",
        "recommended/recommend.manifest.txt": "2af72c3a754baf5054ae9c815cefc38fc1f8867916d0601c9a58b7b9585d0c54",
        "recommended/recommendations.jsonl": "aae349af16a11ea57156b8db2a3259fac22516222d36deba8eb0e882506d7082",
        "tracked/final_states.csv": "733bd618c9d29ec5b4a68d8085bb718f7ebf3d400ad1849929f345d736eb6e02",
        "tracked/track.manifest.txt": "24c0720c8b3415d10718f2f9fc15d498421986ced887b23c124a6c9421ad779d",
        "tracked/tracks/index.csv": "06f92e4f586b71ea3e79c858b55a0cdc4d07a7d134287eb66594fe75887e5b59",
        "tracked/tracks/u0000.csv": "0cd04653cfb4aee552b457746a29bf0af0a2e65d85518f1e75dc243e4b0c07f9",
        "tracked/tracks/u0001.csv": "6d457ab8844c2bdadd45a891eecc873f134989978c2ff458349da2492f71b0d2",
        "tracked/tracks/u0002.csv": "aa3f007c9c84a708bea74923030e1a4841d0cf63a010c3f6569b0ebac1a81b35",
        "tracked/tracks/u0003.csv": "da686580d19cd2b6519dd7a113a8b1a1467e8949aed005c0a55d545619cc364f",
    },
}
PIPELINE_CASES = {
    "smooth_drift": ("smooth_drift", []),
    "bursty-decay": ("bursty", ["--decay", "0.9", "--normalize"]),
}


@pytest.mark.parametrize("case", sorted(PIPELINE_GOLDEN))
def test_pipeline_writes_the_golden_bytes(tmp_path, case):
    regime, fold = PIPELINE_CASES[case]
    sim = tmp_path / "in"
    assert main(["simulate", "--d", "5", "--k", "12", "--users", "4", "--programs-per-day", "3",
                 "--regime", regime, "--seed", "3", "--out", str(sim)]) == 0
    vocabulary = ["--vocabulary", str(sim / "vocabulary.txt")]
    built = str(tmp_path / "built" / "built_profiles.csv")
    events = ["--events", str(sim / "events.csv")]
    for argv in (
        ["build-profiles", *events, "--instants", str(sim / "instants.txt"), *fold, "--out", "built"],
        ["track", "--profiles", built, "--out", "tracked"],
        ["recommend", "--final-states", str(tmp_path / "tracked" / "final_states.csv"),
         "--profiles", built, *events, "--out", "recommended"],
        ["evaluate", "--profiles", built, "--tracks", str(tmp_path / "tracked" / "tracks"),
         "--out", "evaluated"],
    ):
        assert main([argv[0], *vocabulary, *argv[1:-1], str(tmp_path / argv[-1])]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.relative_to(tmp_path).parts[0] != "in"
    }
    assert digests == PIPELINE_GOLDEN[case]
