import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stepturn.cli as cli
import stepturn.densities as densities
import stepturn.io as st_io
from stepturn import (
    MovementParams,
    SchemaError,
    PriorSpec,
    SimConfig,
    abc_reject,
    f_v_grid,
    generate_reference_table,
    observe,
    simulate_until,
    summarize,
)
from stepturn.experiments import ReplicateRecord, RScanRecord
from stepturn.streams import stream

SMALL_SIM = SimConfig(dt=0.5, min_obs=60)


@pytest.fixture()
def small_table(tmp_path):
    table = generate_reference_table(PriorSpec(), 80, SMALL_SIM, seed=2)
    path = tmp_path / "table.csv"
    st_io.write_reference_table(path, table)
    return table, path


def simulate_track(seed=3, n_obs=200):
    params = MovementParams(kappa=20.0, lam=2.0)
    path = simulate_until(params, n_obs * 0.5, np.random.default_rng(seed))
    return path, observe(path, 0.5, n_obs)


def write_track(path, xs):
    """A track CSV along the x axis with one change per interval."""
    path.write_text("j,x,y,nj\n" + "".join(
        f"{j},{x},0,{j - 1}\n" for j, x in enumerate(xs)))
    return path


# (fault, x of each position, the error after the file's name)
UNDEFINED_TRACKS = [
    ("overflowing steps", [0, 1e308, -1e308, 1e308, -1e308], "a summary is not finite"),
    ("three positions", [0, 1, 2], "need at least 2 turning angles, got 1"),
    ("zero-length steps", [0, 0, 0, 0], "all observed steps have zero length"),
]


class TestCliSummarize:
    @pytest.mark.parametrize("fault,rows,message", UNDEFINED_TRACKS,
                             ids=[fault for fault, _, _ in UNDEFINED_TRACKS])
    def test_undefined_track_summaries_exit_1(self, fault, rows, message, tmp_path, capsys):
        track = write_track(tmp_path / "track.csv", rows)
        out = tmp_path / "out"
        code = cli.main(["summarize", "--track", str(track), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: {track}: {message}\n"
        assert captured.out == "" and not out.exists()  # no summary line, no nan

    @pytest.mark.parametrize("command", ["summarize", "fit"])
    def test_overflowing_track_prints_only_the_error(self, command, small_table, tmp_path):
        # in a process of its own, where no test harness catches numpy's warnings
        track = write_track(tmp_path / "track.csv", UNDEFINED_TRACKS[0][1])
        table = ["--table", str(small_table[1])] if command == "fit" else []
        done = subprocess.run(
            [sys.executable, "-m", "stepturn.cli", command, "--track", str(track), *table,
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == cli.EXIT_VALIDATION
        assert done.stderr == f"error: {track}: a summary is not finite\n"


def test_start_up_loads_no_heavy_scipy_module():
    # a fresh interpreter: these are imported only by the functions that call them
    heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg")
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, stepturn, stepturn.cli; print(*[m for m in {heavy} if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


class TestRoundTrips:
    def test_latent_csv(self, tmp_path):
        path, _ = simulate_track()
        file = tmp_path / "latent.csv"
        st_io.write_latent_csv(file, path)
        loaded = st_io.read_latent_csv(file)
        assert np.array_equal(loaded.positions, path.positions)
        assert np.array_equal(loaded.headings, path.headings)
        assert np.array_equal(loaded.durations, path.durations)
        assert np.array_equal(loaded.turns, path.turns)

    def test_track_csv(self, tmp_path):
        _, track = simulate_track()
        file = tmp_path / "track.csv"
        st_io.write_track_csv(file, track)
        loaded = st_io.read_track_csv(file, 0.5)
        assert np.array_equal(loaded.positions, track.positions)
        assert np.array_equal(loaded.change_counts, track.change_counts)

    def test_track_resummarize_matches_in_memory(self, tmp_path):
        _, track = simulate_track(seed=4)
        file = tmp_path / "track.csv"
        st_io.write_track_csv(file, track)
        loaded = st_io.read_track_csv(file, 0.5)
        assert summarize(loaded) == summarize(track)  # exact float round trip

    def test_summary_csv(self, tmp_path):
        _, track = simulate_track(seed=5)
        s = summarize(track)
        file = tmp_path / "summary.csv"
        st_io.write_summary_csv(file, s)
        assert st_io.read_summary_csv(file) == s

    def test_reference_table(self, small_table, tmp_path):
        table, path = small_table
        loaded = st_io.read_reference_table(path)
        assert np.array_equal(loaded.params, table.params)
        assert np.array_equal(loaded.summaries, table.summaries)
        assert loaded.prior == table.prior
        assert loaded.config == table.config
        assert loaded.seed == table.seed

    def test_reference_table_sidecar(self, small_table):
        from stepturn.inference import SIMULATOR_VERSION

        table, path = small_table
        sidecar = st_io.read_sidecar(path)
        assert sidecar["simulator_version"] == SIMULATOR_VERSION
        assert sidecar["n_resampled"] == table.n_resampled
        # the version sits next to the config, so the config digest is unmoved
        assert sidecar["config"] == st_io.reference_table_config(table)
        assert st_io.read_reference_table(path).n_resampled == table.n_resampled

    def test_posterior(self, small_table, tmp_path):
        table, _ = small_table
        post = abc_reject(table, table.summaries[3], 0.25)
        file = tmp_path / "posterior.csv"
        st_io.write_posterior(file, post)
        loaded = st_io.read_posterior(file)
        assert np.array_equal(loaded.draws, post.draws)
        assert np.array_equal(loaded.weights, post.weights)
        assert loaded.method == post.method
        assert loaded.epsilon == post.epsilon
        assert loaded.delta == post.delta

    def test_crossval_records(self, tmp_path):
        records = [
            ReplicateRecord("rejection", 0.1, 0, "kappa", 1.5, 2.5, 0.5, 3.5, 0.4),
            ReplicateRecord("loclinear", 0.001, 1, "lambda", 0.25, 0.125, 0.1, 0.9, 0.6),
            ReplicateRecord("neuralnet", 0.005, 2, "kappa", 0.1, 1 / 3, 0.0, 2.0, 1 / 7),
        ]
        file = tmp_path / "crossval.csv"
        st_io.write_crossval_csv(file, records)
        assert st_io.read_crossval_csv(file) == records

    def test_rscan_records(self, tmp_path):
        records = [RScanRecord("neuralnet", 0.25, 10.0, 3, "kappa", 10.0, 11.25)]
        file = tmp_path / "rscan.csv"
        st_io.write_rscan_csv(file, records)
        assert st_io.read_rscan_csv(file) == records

    def test_density_grid(self, tmp_path):
        grid = f_v_grid(2.0, n_nodes=100)
        file = tmp_path / "grid.csv"
        st_io.write_density_grid_csv(file, grid)
        sidecar = json.loads((tmp_path / "grid.json").read_text())
        assert sidecar["config"]["kappa"] == 2.0
        assert abs(sidecar["trapezoid_mass"] - grid.trapezoid_mass()) < 1e-15


class TestManifest:
    def test_append_and_digest(self, tmp_path):
        file = tmp_path / "artifact.csv"
        file.write_text("a,b\n1,2\n")
        record = st_io.append_manifest(tmp_path, file, "simulate", {"seed": 1}, 0.5)
        assert record["sha256"] == st_io.sha256_file(file)
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["command"] == "simulate"


def twins(directory):
    return sorted(path.name for path in directory.iterdir() if path.suffix == ".npy")


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def table_rows(table):
    return np.column_stack([table.params, table.summaries])


class TestTableTwin:
    """The binary twin that spares the parse of a table CSV read before."""

    def test_equals_the_parse_bit_for_bit(self, small_table):
        table, path = small_table
        parsed = st_io._read_csv(path, st_io.TABLE_HEADER)
        cold = st_io.read_reference_table(path)
        warm = st_io.read_reference_table(path, st_io.sha256_file(path))
        for read in (cold, warm):
            assert same_bits(table_rows(read), parsed)
            assert same_bits(table_rows(read), table_rows(table))
            assert (read.prior, read.config, read.seed) == (table.prior, table.config, table.seed)

    def test_second_read_does_not_parse(self, small_table, monkeypatch):
        _, path = small_table
        cold = st_io.read_reference_table(path)

        def no_parse(*args, **kwargs):
            raise AssertionError("the CSV was parsed")

        monkeypatch.setattr(st_io, "_read_csv", no_parse)
        assert same_bits(table_rows(st_io.read_reference_table(path)), table_rows(cold))

    def test_header_checked_on_every_read(self, small_table):
        _, path = small_table
        st_io.read_reference_table(path)
        digest = st_io.sha256_file(path)
        lines = path.read_bytes().split(b"\r\n", 1)
        path.write_bytes(b"lambda,kappa,s1,s2,s3,s4\r\n" + lines[1])
        # the new bytes have another digest; pass the old one so the twin is found
        with pytest.raises(SchemaError, match="expected header"):
            st_io.read_reference_table(path, digest)

    def test_changed_csv_drops_the_old_twin(self, small_table, tmp_path):
        _, path = small_table
        st_io.read_reference_table(path)
        old = twins(tmp_path)
        other = generate_reference_table(PriorSpec(), 50, SMALL_SIM, seed=3)
        st_io.write_reference_table(path, other)
        read = st_io.read_reference_table(path)
        assert same_bits(table_rows(read), table_rows(other))
        assert twins(tmp_path) == [f".table.csv.{st_io.sha256_file(path)}.npy"] != old

    def test_twins_of_other_files_are_kept(self, small_table, tmp_path):
        _, path = small_table
        st_io.write_reference_table(tmp_path / "table.csv.b.csv", small_table[0])
        st_io.read_reference_table(tmp_path / "table.csv.b.csv")
        kept = tmp_path / f".table.csv.{'0' * 63}.npy"  # not a sha256: not a twin
        kept.write_bytes(b"")
        st_io.read_reference_table(path)
        assert len(twins(tmp_path)) == 3

    @pytest.mark.parametrize("fault", ["empty", "truncated", "not npy", "zip archive",
                                       "wrong shape", "no rows", "float32", "big-endian",
                                       "object"])
    def test_bad_twin_falls_back_to_the_parse(self, fault, small_table, tmp_path):
        table, path = small_table
        st_io.read_reference_table(path)
        twin = tmp_path / twins(tmp_path)[0]
        rows = table_rows(table)
        npy = {"wrong shape": rows[:, :5], "no rows": rows[:0],
               "float32": rows.astype(np.float32), "big-endian": rows.astype(">f8"),
               "object": rows.astype(object)}
        if fault in npy:
            with open(twin, "wb") as handle:
                np.save(handle, npy[fault])
        elif fault == "zip archive":
            with open(twin, "wb") as handle:
                np.savez(handle, rows=rows)
        else:
            twin.write_bytes({"empty": b"", "truncated": twin.read_bytes()[:-8],
                              "not npy": b"kappa,lambda\r\n1,2\r\n"}[fault])
        read = st_io.read_reference_table(path)
        assert same_bits(table_rows(read), rows)
        assert same_bits(np.load(twin), rows)  # rewritten

    @pytest.mark.parametrize("failing", ["save", "replace"])
    def test_unwritable_twin_keeps_the_table(self, failing, small_table, tmp_path,
                                             monkeypatch):
        table, path = small_table

        def refuse(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(*{"save": (st_io.np, "save"), "replace": (st_io.os, "replace")}
                            [failing], refuse)
        read = st_io.read_reference_table(path)
        assert same_bits(table_rows(read), table_rows(table))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "table.json"]

    @pytest.mark.parametrize("fault", ["bad header", "short row", "no rows", "bad sidecar"])
    def test_bad_table_leaves_no_twin(self, fault, small_table, tmp_path):
        _, path = small_table
        header, first, *rest = path.read_bytes().split(b"\r\n")
        lines = {
            "bad header": [b"kappa,lambda,s1,s2,s3", first, *rest],
            "short row": [header, first.rsplit(b",", 1)[0], *rest],
            "no rows": [header, b""],
            "bad sidecar": [header, first, *rest],
        }[fault]
        path.write_bytes(b"\r\n".join(lines))
        if fault == "bad sidecar":
            path.with_suffix(".json").write_text("[]")
        with pytest.raises(SchemaError, match=str(path)):
            st_io.read_reference_table(path)
        assert twins(tmp_path) == []


class TestCliObserve:
    @pytest.mark.parametrize("fault", ["none", "index out of order", "path too short"])
    def test_latent_faults_exit_1_before_out_is_made(self, fault, tmp_path, capsys):
        path, _ = simulate_track(seed=5, n_obs=40)  # a path of at least 20 time units
        latent = tmp_path / "latent.csv"
        st_io.write_latent_csv(latent, path)
        n_obs = "400" if fault == "path too short" else "40"
        if fault == "index out of order":  # the i column reads 1, 0, 2, ...
            header, first, second, *rest = latent.read_text().splitlines(keepends=True)
            latent.write_text("".join([header, "1" + first[1:], "0" + second[1:], *rest]))
        out = tmp_path / "out"
        code = cli.main(["observe", "--latent", str(latent), "--n-obs", n_obs, "--out", str(out)])
        if fault == "none":
            assert code == cli.EXIT_OK and (out / "track.csv").exists()
            return
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {latent}: ")
        assert not out.exists()


class TestCliSimulate:
    def test_rerun_digest_equality(self, tmp_path):
        args = ["simulate", "--kappa", "20", "--lambda", "2", "--dt", "0.5",
                "--n-obs", "80", "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        for name in ("latent.csv", "track.csv"):
            assert st_io.sha256_file(out1 / name) == st_io.sha256_file(out2 / name)

    def test_missing_out_dir_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        code = cli.main(["simulate", "--kappa", "5", "--lambda", "1", "--n-obs", "40",
                         "--out", str(out)])
        assert code == 0 and (out / "track.csv").exists()

    def test_unwritable_out_clean_error(self, tmp_path, capsys):
        # a path through a regular file cannot be created (works as root too,
        # unlike permission bits)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = cli.main(["simulate", "--kappa", "5", "--lambda", "1",
                         "--n-obs", "40", "--out", str(blocker / "sub")])
        assert code == cli.EXIT_RUNTIME
        assert "error" in capsys.readouterr().err.lower()

    def test_missing_params_is_validation_error(self, capsys):
        assert cli.main(["simulate", "--out", "/tmp/unused"]) == cli.EXIT_VALIDATION


class TestCliReftable:
    def test_worker_digest_invariance(self, tmp_path):
        base = ["reftable", "--n-sims", "60", "--min-obs", "40", "--shard-size", "20",
                "--seed", "9"]
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert cli.main(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert cli.main(base + ["--workers", "8", "--out", str(out8)]) == 0
        assert st_io.sha256_file(out1 / "table.csv") == st_io.sha256_file(out8 / "table.csv")

    def test_resume_matches_uninterrupted(self, tmp_path):
        base = ["reftable", "--n-sims", "60", "--min-obs", "40", "--shard-size", "20",
                "--seed", "9", "--workers", "2"]
        full, partial = tmp_path / "full", tmp_path / "partial"
        assert cli.main(base + ["--out", str(full)]) == 0
        assert cli.main(base + ["--out", str(partial)]) == 0
        # simulate an interrupted run: drop one shard and the final table
        (partial / "shards" / "shard_00001.npz").unlink()
        state_file = partial / "shards" / "shards.json"
        state = json.loads(state_file.read_text())
        del state["shards"]["shard_00001.npz"]
        state_file.write_text(json.dumps(state))
        (partial / "table.csv").unlink()
        assert cli.main(base + ["--out", str(partial)]) == 0
        assert st_io.sha256_file(full / "table.csv") == st_io.sha256_file(partial / "table.csv")

    def test_table_is_hashed_once(self, tmp_path, monkeypatch, capsys):
        hashed = []
        sha256_file = st_io.sha256_file
        monkeypatch.setattr(st_io, "sha256_file",
                            lambda path: hashed.append(path) or sha256_file(path))
        assert cli.main(["reftable", "--n-sims", "20", "--min-obs", "40", "--shard-size", "20",
                         "--out", str(tmp_path)]) == 0
        table = tmp_path / "table.csv"
        assert [path for path in hashed if path == table] == [table]
        assert capsys.readouterr().out.endswith(f"digest {sha256_file(table)[:12]}\n")

    def test_shard_digest_mismatch_refused(self, tmp_path, capsys):
        base = ["reftable", "--n-sims", "40", "--min-obs", "40", "--shard-size", "20",
                "--seed", "9", "--out", str(tmp_path)]
        assert cli.main(base) == 0
        shard = tmp_path / "shards" / "shard_00001.npz"
        shard.write_bytes(b"corrupted")
        (tmp_path / "table.csv").unlink()
        assert cli.main(base) == cli.EXIT_RUNTIME
        assert "digest mismatch" in capsys.readouterr().err

    def test_n_sims_zero_validation(self, tmp_path):
        assert cli.main(["reftable", "--n-sims", "0", "--out", str(tmp_path)]) == \
            cli.EXIT_VALIDATION

    def test_shard_size_zero_validation(self, tmp_path, capsys):
        assert cli.main(["reftable", "--n-sims", "20", "--shard-size", "0",
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert "--shard-size must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "shards").exists()

    @pytest.mark.parametrize("recorded", [0, None])
    def test_resume_refuses_shards_of_another_simulator(self, recorded, tmp_path, capsys):
        from stepturn.inference import SIMULATOR_VERSION

        base = ["reftable", "--n-sims", "40", "--min-obs", "40", "--shard-size", "20",
                "--seed", "9", "--out", str(tmp_path)]
        assert cli.main(base) == 0
        state_file = tmp_path / "shards" / "shards.json"
        state = json.loads(state_file.read_text())
        assert state["simulator_version"] == SIMULATOR_VERSION
        if recorded is None:  # written before shards.json recorded the version
            del state["simulator_version"]
        else:
            state["simulator_version"] = recorded
        state_file.write_text(json.dumps(state))
        capsys.readouterr()
        assert cli.main(base) == cli.EXIT_VALIDATION
        assert (f"built by simulator version {recorded}, this is version {SIMULATOR_VERSION}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fault,text", [
        ("a JSON list", lambda state: "[]"),
        ("no sha256", lambda state: json.dumps(
            {**state, "shards": {"shard_00000.npz": {"rows": 20}}})),
        ("invalid JSON", lambda state: '{"config": '),
    ])
    def test_resume_refuses_malformed_shards_json(self, fault, text, tmp_path, capsys):
        base = ["reftable", "--n-sims", "40", "--min-obs", "40", "--shard-size", "20",
                "--seed", "9", "--out", str(tmp_path)]
        assert cli.main(base) == 0
        state_file = tmp_path / "shards" / "shards.json"
        state_file.write_text(text(json.loads(state_file.read_text())))
        capsys.readouterr()
        assert cli.main(base) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: sidecar {state_file} ") and "Traceback" not in err

    def test_resume_progress_counts_missing_shards_once(self, tmp_path, capsys):
        base = ["reftable", "--n-sims", "60", "--min-obs", "40", "--shard-size", "20",
                "--seed", "9", "--out", str(tmp_path)]
        assert cli.main(base) == 0
        # a shard recorded in shards.json whose file is gone is built again
        (tmp_path / "shards" / "shard_00001.npz").unlink()
        capsys.readouterr()
        assert cli.main(base) == 0
        progress = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("shard ")]
        assert progress == ["shard shard_00001.npz: 20 rows (3/3)"]


class TestCliFit:
    def test_self_recovery(self, tmp_path, capsys):
        table = generate_reference_table(PriorSpec(), 80, SMALL_SIM, seed=12)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)
        summary_path = tmp_path / "obs.csv"
        from stepturn.summaries import SummaryVector
        st_io.write_summary_csv(summary_path, SummaryVector.from_array(table.summaries[11]))
        code = cli.main(["fit", "--table", str(table_path), "--summary", str(summary_path),
                         "--method", "rejection", "--epsilon", str(1.0 / 80.0),
                         "--out", str(tmp_path / "fit")])
        assert code == 0
        posterior = st_io.read_posterior(tmp_path / "fit" / "posterior.csv")
        np.testing.assert_array_equal(posterior.draws[0], table.params[11])

    def test_loclinear_matches_library_call(self, tmp_path):
        from stepturn import loclinear_adjust
        table = generate_reference_table(PriorSpec(), 90, SMALL_SIM, seed=13)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)
        summary_path = tmp_path / "obs.csv"
        from stepturn.summaries import SummaryVector
        s_obs = table.summaries[5]
        st_io.write_summary_csv(summary_path, SummaryVector.from_array(s_obs))
        assert cli.main(["fit", "--table", str(table_path), "--summary", str(summary_path),
                         "--method", "loclinear", "--epsilon", "0.5",
                         "--out", str(tmp_path / "fit")]) == 0
        posterior = st_io.read_posterior(tmp_path / "fit" / "posterior.csv")
        expected = loclinear_adjust(abc_reject(table, s_obs, 0.5))
        np.testing.assert_allclose(posterior.draws, expected.draws, atol=1e-8)

    @pytest.mark.parametrize("method", ["rejection", "loclinear"])
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_summary_exits_1(self, method, cell, small_table, tmp_path, capsys):
        # refused by the reader, before --out is made: no NaN reaches the fit
        summary = tmp_path / "s.csv"
        summary.write_text(f"s1,s2,s3,s4\n{cell},1,1,1\n")
        out = tmp_path / "out"
        assert cli.main(["fit", "--table", str(small_table[1]), "--summary", str(summary),
                         "--method", method, "--out", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {summary}: numeric cells must hold finite numbers\n"
        assert not out.exists()

    @pytest.mark.parametrize("fault,rows,message", UNDEFINED_TRACKS,
                             ids=[fault for fault, _, _ in UNDEFINED_TRACKS])
    def test_undefined_track_summaries_exit_1(self, fault, rows, message, small_table,
                                              tmp_path, capsys):
        track = write_track(tmp_path / "track.csv", rows)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["fit", "--table", str(small_table[1]), "--track", str(track),
                             "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.endswith(f"error: {track}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("n_obs,dt", [(59, 0.5), (61, 0.5), (200, 0.5), (60, 1.0)])
    def test_track_of_another_design_exits_1(self, n_obs, dt, small_table, tmp_path, capsys):
        # the table's rows hold 60 observations every 0.5
        latent, _ = simulate_track(n_obs=200)
        observed = observe(latent, dt, n_obs)
        track = tmp_path / "track.csv"
        st_io.write_track_csv(track, observed)
        out = tmp_path / "out"
        assert cli.main(["fit", "--table", str(small_table[1]), "--track", str(track),
                         "--out", str(out)]) == cli.EXIT_VALIDATION
        longest = float(np.max(np.hypot(*np.diff(observed.positions, axis=0).T)))
        assert capsys.readouterr().err == (f"error: {track}: {n_obs} observations, steps up "
                                           f"to {longest}; the table's rows: 60, dt 0.5\n")
        assert not out.exists()

    @pytest.mark.parametrize("excess,code", [(0.0, cli.EXIT_OK), (1e-10, cli.EXIT_OK),
                                             (1e-8, cli.EXIT_VALIDATION)])
    def test_step_bound_is_relative_1e_9(self, excess, code, small_table, tmp_path):
        # the track scaled so that its longest step is dt * (1 + excess)
        _, observed = simulate_track(n_obs=60)
        steps = np.hypot(*np.diff(observed.positions, axis=0).T)
        scaled = replace(observed, positions=observed.positions * (0.5 * (1 + excess)
                                                                   / steps.max()))
        track = tmp_path / "track.csv"
        st_io.write_track_csv(track, scaled)
        assert cli.main(["fit", "--table", str(small_table[1]), "--track", str(track),
                         "--method", "rejection", "--epsilon", "0.25",
                         "--out", str(tmp_path / "out")]) == code

    def test_track_and_summary_mutually_exclusive(self, small_table, tmp_path):
        _, table_path = small_table
        assert cli.main(["fit", "--table", str(table_path), "--out", str(tmp_path)]) == \
            cli.EXIT_VALIDATION

    def test_unknown_method_usage_error(self, capsys, small_table, tmp_path):
        _, table_path = small_table
        code = cli.main(["fit", "--table", str(table_path), "--method", "wild",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "rejection" in err and "loclinear" in err and "neuralnet" in err


class TestCliExperiments:
    def test_crossval_writes_report_and_gnuplot(self, tmp_path):
        table = generate_reference_table(PriorSpec(), 120, SMALL_SIM, seed=14)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)
        code = cli.main([
            "crossval", "--table", str(table_path), "--methods", "rejection",
            "--epsilons", "0.3", "0.05", "--n-rep", "4", "--no-constraint",
            "--seed", "15", "--out", str(tmp_path / "cv"), "--gnuplot",
        ])
        assert code == 0
        assert (tmp_path / "cv" / "crossval.csv").exists()
        assert (tmp_path / "cv" / "crossval_metrics.json").exists()
        assert (tmp_path / "cv" / "crossval.gp").exists()
        rows = st_io.read_crossval_csv(tmp_path / "cv" / "crossval.csv")
        assert len(rows) == 4 * 2 * 2  # reps x epsilons x params

    def test_rscan_cli_deterministic(self, tmp_path):
        table = generate_reference_table(PriorSpec(), 100, SMALL_SIM, seed=16)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)
        base = ["rscan", "--table", str(table_path), "--r-values", "0.5", "--kappa-values",
                "25", "--n-per-cell", "2", "--methods", "rejection", "--epsilon", "0.2",
                "--seed", "17"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(base + ["--out", str(out1), "--workers", "1"]) == 0
        assert cli.main(base + ["--out", str(out2), "--workers", "8"]) == 0
        assert st_io.sha256_file(out1 / "rscan.csv") == st_io.sha256_file(out2 / "rscan.csv")

    def test_rscan_skips_r_outside_prior(self, tmp_path, capsys):
        # R = 60 at dt 0.5 implies lambda = 120, outside the lambda <= 50 prior
        table = generate_reference_table(PriorSpec(), 100, SMALL_SIM, seed=16)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)
        base = ["rscan", "--table", str(table_path), "--r-values", "0.5", "2", "60",
                "--kappa-values", "20", "--n-per-cell", "2", "--methods", "rejection",
                "--epsilon", "0.2", "--seed", "17"]
        with pytest.warns(UserWarning, match="skipping cell R=60"):
            assert cli.main(base + ["--out", str(tmp_path / "r1")]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "rejection: R=60 skipped" in out and "rejection: R=2 lambda error" in out
        assert {r.r_value for r in st_io.read_rscan_csv(tmp_path / "r1" / "rscan.csv")} == {
            0.5, 2.0}
        with pytest.warns(UserWarning, match="skipping cell R=60"):
            code = cli.main(base + ["--out", str(tmp_path / "r2"), "--check"])
        assert code == cli.EXIT_CHECK_FAILED
        assert "no records at R=60" in capsys.readouterr().err
        no_tracks = base + ["--out", str(tmp_path / "r3"), "--n-per-cell", "0"]
        assert cli.main(no_tracks) == cli.EXIT_VALIDATION
        assert "--n-per-cell must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["crossval", "--methods", "loclinear", "--epsilons", "0.5", "0.2"],
         "--check compares rejection errors; --methods lacks rejection"),
        (["crossval", "--methods", "rejection", "--epsilons", "0.5", "0.5"],
         "--check needs two distinct --epsilons, got 0.5 0.5"),
        (["rscan", "--r-values", "1"], "--check needs two distinct --r-values, got 1"),
    ])
    def test_check_with_nothing_to_compare_exits_1(self, argv, message, tmp_path, capsys):
        # the table does not exist: the check refuses before any table is read
        out = tmp_path / "out"
        argv = [*argv, "--table", str(tmp_path / "missing.csv"), "--check", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_coverage_draws_truths_from_the_whole_table(self, tmp_path):
        # 9 of the 24 rows lie in the corner kappa <= 70, lambda <= 25
        table = generate_reference_table(PriorSpec(), 24, SMALL_SIM, seed=24)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)
        holdout = ["--table", str(table_path), "--methods", "rejection", "--epsilons", "0.25",
                   "--n-rep", "12", "--seed", "4"]
        assert cli.main(["coverage", *holdout, "--out", str(tmp_path / "cov")]) == cli.EXIT_OK
        assert cli.main(["crossval", *holdout, "--no-constraint",
                         "--out", str(tmp_path / "cv")]) == cli.EXIT_OK
        assert (tmp_path / "cov" / "coverage.csv").read_bytes() == \
            (tmp_path / "cv" / "crossval.csv").read_bytes()
        # a bound that is given still applies
        assert cli.main(["coverage", *holdout, "--kappa-max", "70", "--lambda-max", "25",
                         "--out", str(tmp_path / "corner")]) == cli.EXIT_RUNTIME

    def test_coverage_check_failure_exit_code(self, tmp_path, monkeypatch):
        # engineer records whose coverage is far below the 0.90 gate
        table = generate_reference_table(PriorSpec(), 60, SMALL_SIM, seed=18)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)

        def fake_cross_validate(*args, **kwargs):
            from stepturn.experiments import CrossValReport
            records = [
                ReplicateRecord("rejection", 0.1, i, "kappa", 50.0, 1.0, 0.0, 2.0, 0.9)
                for i in range(5)
            ]
            return CrossValReport(records=records)

        monkeypatch.setattr(cli, "cross_validate", fake_cross_validate)
        code = cli.main(["coverage", "--table", str(table_path), "--methods", "rejection",
                         "--epsilons", "0.1", "--n-rep", "5", "--check",
                         "--out", str(tmp_path / "cov")])
        assert code == cli.EXIT_CHECK_FAILED

    def test_coverage_csv_is_crossval_schema(self, tmp_path):
        from stepturn.experiments import CrossValReport, coverage_report

        table = generate_reference_table(PriorSpec(), 120, SMALL_SIM, seed=14)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)
        out = tmp_path / "cov"
        assert cli.main(["coverage", "--table", str(table_path), "--methods", "rejection",
                         "loclinear", "--epsilons", "0.3", "--n-rep", "6",
                         "--seed", "3", "--out", str(out)]) == 0
        rows = st_io.read_crossval_csv(out / "coverage.csv")
        assert len(rows) == 2 * 6 * 2  # methods x reps x params
        summary = json.loads((out / "coverage_summary.json").read_text())
        coverage = coverage_report(CrossValReport(rows))
        labels = [f"{method}:eps={epsilon:g}:{param}" for method, epsilon, param in coverage]
        assert len(labels) == 4 and list(summary) == labels  # in cell order
        for label, entry in zip(labels, coverage.values()):
            assert list(summary[label].items()) == list(entry.items())  # keys in order too

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        config = {"kappa": 15.0, "lam": 2.0, "n_obs": 50, "seed": 3}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        sidecar = json.loads((out / "track.json").read_text())
        assert sidecar["config"]["kappa"] == 15.0
        out2 = tmp_path / "out2"
        assert cli.main(["simulate", "--config", str(config_path), "--kappa", "30",
                         "--out", str(out2)]) == 0
        assert json.loads((out2 / "track.json").read_text())["config"]["kappa"] == 30.0

        # store_true, list and unknown keys; a flag overrides a list from the config
        table = generate_reference_table(PriorSpec(), 100, SMALL_SIM, seed=16)
        table_path = tmp_path / "table.csv"
        st_io.write_reference_table(table_path, table)
        config = {"r_values": [0.5, 2.0], "kappa_values": [25.0], "n_per_cell": 2,
                  "methods": ["rejection"], "epsilon": 0.2, "seed": 17, "gnuplot": True,
                  "no_such_flag": 1}
        config_path.write_text(json.dumps(config))
        base = ["rscan", "--config", str(config_path), "--table", str(table_path)]
        assert cli.main(base + ["--out", str(tmp_path / "r1")]) == 0
        recorded = json.loads((tmp_path / "r1" / "rscan.json").read_text())["config"]
        assert recorded["r_values"] == [0.5, 2.0] and recorded["seed"] == 17
        assert (tmp_path / "r1" / "rscan.gp").exists()
        assert cli.main(base + ["--r-values", "1.5", "--out", str(tmp_path / "r2")]) == 0
        recorded = json.loads((tmp_path / "r2" / "rscan.json").read_text())["config"]
        assert recorded["r_values"] == [1.5] and recorded["kappa_values"] == [25.0]

    def test_directfit_cli(self, tmp_path, capsys):
        path, _ = simulate_track(seed=19, n_obs=100)
        latent_path = tmp_path / "latent.csv"
        st_io.write_latent_csv(latent_path, path)
        assert cli.main(["directfit", "--latent", str(latent_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "lambda" in payload and "kappa" in payload

    @pytest.mark.parametrize("prior", [["--b0", "-100000"], ["--a0", "-100"],
                                       ["--b0", "-{total!r}"], ["--a0", "nan"]])
    def test_directfit_improper_posterior_exits_1(self, prior, tmp_path, capsys):
        path, _ = simulate_track(seed=19, n_obs=100)
        latent_path = tmp_path / "latent.csv"
        st_io.write_latent_csv(latent_path, path)
        total = float(st_io.read_latent_csv(latent_path).durations.sum())
        prior = [prior[0], prior[1].format(total=total)]
        out = tmp_path / "out"
        argv = ["directfit", "--latent", str(latent_path), *prior, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --a0 ") and " and --b0 " in captured.err
        assert "improper rate posterior" in captured.err
        assert captured.out == "" and not out.exists()

    def test_oracle_check_plumbing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ORACLES",
                            {"f_V": (*cli.ORACLES["f_V"][:-1], [{"kappa": 2.0}])})
        code = cli.main(["oracle-check", "--n-draws", "5000", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        assert report["f_V[0]"]["passed"]

    def test_oracle_check_failure_writes_its_report(self, tmp_path, monkeypatch, capsys):
        grid = densities.f_v_grid(2.0)  # against draws at kappa 10: the KS check fails
        monkeypatch.setattr(cli, "ORACLES", {"f_V": (
            lambda **_: grid, lambda **_: densities.cos_vm_sampler(10.0),
            densities.f_v_normalization, 1e-6, [{"kappa": 2.0}])})
        code = cli.main(["oracle-check", "--n-draws", "1000", "--out", str(tmp_path)])
        assert code == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().err == "check failed: density checks failed: f_V[0]\n"
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        assert report["f_V[0]"]["passed"] is False

    def test_oracle_check_gives_each_setting_its_own_stream(self, tmp_path, monkeypatch):
        grid = densities.f_v_grid(2.0)  # one cheap density stands in for all three
        monkeypatch.setattr(cli, "ORACLES", {
            name: (lambda **_: grid, lambda **_: densities.cos_vm_sampler(2.0),
                   lambda **_: 1.0, 1e-6, oracle[-1]) for name, oracle in cli.ORACLES.items()})
        drawn = []

        def recording_stream(seed, index, bump=0):
            drawn.append((seed, index, bump))
            return stream(seed, index, bump)

        monkeypatch.setattr(cli, "stream", recording_stream)
        argv = ["oracle-check", "--n-draws", "1000", "--seed", "5", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert drawn == [(5, index, 0) for index in range(9)]


# the commands that take --workers, with arguments that keep a run small
POOLED = {"reftable": ["--n-sims", "4", "--min-obs", "40"], "crossval": [], "coverage": [],
          "rscan": []}


class TestWorkersEnvVar:
    def test_env_default_honoured_and_flag_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "3")
        assert cli._workers({"workers": None}) == 3
        assert cli._workers({"workers": 2}) == 2
        monkeypatch.delenv(cli.WORKERS_ENV)
        assert cli._workers({"workers": None}) == 1

    @pytest.mark.parametrize("command", POOLED)
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, command, workers, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        argv = [command, *POOLED[command], "--workers", workers, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", POOLED)
    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
    def test_env_must_be_a_positive_integer(self, command, value, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv(cli.WORKERS_ENV, value)
        argv = [command, *POOLED[command], "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        message = f"${cli.WORKERS_ENV} must be a positive integer, got '{value}'"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


ALL_METHODS = ["rejection", "loclinear", "neuralnet"]
HOLDOUT_DEFAULTS = {
    "table": None, "methods": ALL_METHODS, "n_rep": 100, "kappa_max": 70.0,
    "lambda_max": 25.0, "no_constraint": False, "seed": 0, "out": None, "workers": None,
    "check": False, "gnuplot": False,
}
PARSED_DEFAULTS = {
    "simulate": {"kappa": None, "lam": None, "dt": 0.5, "n_obs": 1500, "seed": 0,
                 "out": None},
    "observe": {"latent": None, "dt": 0.5, "n_obs": 1500, "out": None},
    "summarize": {"track": None, "dt": 0.5, "out": None},
    "reftable": {"n_sims": 100_000, "kappa_range": (0.0, 100.0),
                 "lambda_range": (0.0, 50.0), "dt": 0.5, "min_obs": 1500, "seed": 0,
                 "shard_size": 1000, "out": None, "workers": None},
    "fit": {"table": None, "track": None, "summary": None, "method": "loclinear",
            "epsilon": 0.001, "transform": "none", "out": None},
    "crossval": {**HOLDOUT_DEFAULTS, "epsilons": [0.1, 0.01, 0.005, 0.001]},
    "coverage": {"table": None, "methods": ALL_METHODS, "epsilons": [0.1, 0.001], "n_rep": 100,
                 "kappa_max": None, "lambda_max": None, "seed": 0, "out": None,
                 "workers": None, "check": False, "gnuplot": False},
    "rscan": {"table": None, "r_values": [0.25, 1.0, 4.5], "kappa_values": [10.0, 40.0, 70.0],
              "n_per_cell": 50, "methods": ALL_METHODS,
              "epsilon": 0.001, "seed": 0, "out": None, "workers": None, "check": False,
              "gnuplot": False},
    "directfit": {"latent": None, "a0": 1.0, "b0": 0.0, "kappa_grid_max": 200.0,
                  "out": None},
    "oracle-check": {"n_draws": 100_000, "seed": 0, "out": None},
}


class TestCliFlags:
    @pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
    def test_parsed_defaults(self, command):
        parsed = vars(cli.build_parser().parse_args([command]))
        assert parsed.pop("command") == command and parsed.pop("config") is None
        expected = PARSED_DEFAULTS[command]
        assert parsed == expected
        # same JSON, so a config digest cannot tell the two apart
        assert json.dumps(parsed, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("command,flag", [
        ("simulate", "--workers"), ("observe", "--seed"), ("observe", "--workers"),
        ("summarize", "--seed"), ("summarize", "--workers"), ("fit", "--seed"),
        ("fit", "--workers"), ("directfit", "--seed"), ("directfit", "--workers"),
        ("oracle-check", "--workers"), ("rscan", "--dt"), ("rscan", "--n-obs"),
    ])
    def test_removed_flags_exit_1(self, command, flag, capsys):
        assert cli.main([command, flag, "2"]) == cli.EXIT_VALIDATION
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["crossval", "--n-rep", "0"], ["crossval", "--n-rep", "-2"],
        ["coverage", "--n-rep", "0"],
    ])
    def test_counts_below_one_exit_1(self, argv, tmp_path, capsys):
        # as --n-sims, --shard-size and --n-per-cell are; the table does not
        # exist, so the count is refused before any table is read
        out = tmp_path / "out"
        code = cli.main([*argv, "--table", str(tmp_path / "missing.csv"), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert f"error: {argv[1]} must be >= 1, got {argv[2]}" in capsys.readouterr().err
        assert not out.exists()

    SIMULATE = ["simulate", "--kappa", "5", "--lambda", "1"]

    @pytest.mark.parametrize("argv,message", [
        ([*SIMULATE, "--n-obs", "0"], "--n-obs must be >= 1, got 0"),
        ([*SIMULATE, "--dt", "0"], "--dt must be finite and > 0, got 0.0"),
        (["observe", "--latent", "missing.csv", "--dt", "nan"],
         "--dt must be finite and > 0, got nan"),
        (["reftable", "--min-obs", "0"], "--min-obs must be >= 4, got 0"),
        (["reftable", "--min-obs", "3"], "--min-obs must be >= 4, got 3"),
        (["reftable", "--dt", "-1"], "--dt must be finite and > 0, got -1.0"),
        (["oracle-check", "--n-draws", "0"], "--n-draws must be >= 1000, got 0"),
        (["fit", "--epsilon", "0"], "--epsilon must be in (0, 1], got 0.0"),
        (["fit", "--epsilon", "1.5"], "--epsilon must be in (0, 1], got 1.5"),
        (["fit", "--epsilon", "nan"], "--epsilon must be in (0, 1], got nan"),
        (["crossval", "--epsilons", "0.5", "0"], "--epsilons must be in (0, 1], got 0.0"),
        (["coverage", "--epsilons", "-1"], "--epsilons must be in (0, 1], got -1.0"),
        (["rscan", "--epsilon", "2"], "--epsilon must be in (0, 1], got 2.0"),
        # the rules of MovementParams and PriorSpec (an R stands for lambda, as dt > 0)
        ([*SIMULATE[:2], "-1", *SIMULATE[3:]], "--kappa: kappa must be finite and >= 0, got -1.0"),
        ([*SIMULATE[:4], "nan"], "--lambda: lam must be finite and > 0, got nan"),
        (["reftable", "--kappa-range", "5", "5"],
         "--kappa-range: kappa_range must satisfy 0 <= lo < hi < inf, got (5.0, 5.0)"),
        (["rscan", "--r-values", "0"], "--r-values: lam must be finite and > 0, got 0.0"),
        (["rscan", "--r-values", "0.5", "-1"], "--r-values: lam must be finite and > 0, got -1.0"),
        (["rscan", "--r-values", "nan"], "--r-values: lam must be finite and > 0, got nan"),
        (["rscan", "--kappa-values", "10", "nan"],
         "--kappa-values: kappa must be finite and >= 0, got nan"),
        # a --dt that is infinite or spans no finite time; a --kappa-grid-max off (0, inf)
        ([*SIMULATE, "--dt", "inf"], "--dt must be finite and > 0, got inf"),
        ([*SIMULATE, "--dt", "1e308", "--n-obs", "20"],
         "--dt 1e+308 over 20 observations spans no finite time"),
        (["reftable", "--dt", "inf"], "--dt must be finite and > 0, got inf"),
        (["summarize", "--track", "missing.csv", "--dt", "inf"],
         "--dt must be finite and > 0, got inf"),
        *((["directfit", "--latent", "missing.csv", "--kappa-grid-max", value],
           f"--kappa-grid-max must be finite and > 0, got {float(value)}")
          for value in ("0", "-5", "nan", "inf")),
        # a negative seed; a NaN or negative held-out bound; an infinite prior bound
        *(([command, "--seed", "-1"], "--seed must be >= 0, got -1")
          for command in ("simulate", "reftable", "crossval", "coverage", "rscan",
                          "oracle-check")),
        (["crossval", "--kappa-max", "nan"], "--kappa-max must be >= 0.0, got nan"),
        (["crossval", "--lambda-max", "-1"], "--lambda-max must be >= 0.0, got -1.0"),
        (["coverage", "--lambda-max", "nan"], "--lambda-max must be >= 0.0, got nan"),
        (["reftable", "--n-sims", "5", "--min-obs", "10", "--kappa-range", "0", "inf"],
         "--kappa-range: kappa_range must satisfy 0 <= lo < hi < inf, got (0.0, inf)"),
    ])
    def test_numeric_flags_below_their_floor_exit_1(self, argv, message, tmp_path, capsys):
        # refused when parsed, before --out is made or any input is read
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_values_from_config_exit_1(self, small_table, tmp_path, monkeypatch, capsys):
        # checked as the flags are, before the table is read or --out is made
        monkeypatch.setattr(cli, "_table", lambda resolved: pytest.fail("table read"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"r_values": [0.5, 0.0], "kappa_values": [25.0]}))
        out = tmp_path / "out"
        argv = ["rscan", "--config", str(config), "--table", str(small_table[1]),
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "error: --r-values: lam must be finite and > 0, got 0.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("seed", -1, "--seed must be >= 0, got -1"),
        ("kappa_max", float("nan"), "--kappa-max must be >= 0.0, got nan"),
        ("lambda_max", -1.0, "--lambda-max must be >= 0.0, got -1.0"),
    ])
    def test_floors_from_config_exit_1(self, key, value, message, small_table, tmp_path,
                                       capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        argv = ["crossval", "--config", str(config), "--table", str(small_table[1]),
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_holdout_bounds_bound_nothing(self, small_table, tmp_path):
        def rows(out, *flags):
            argv = ["crossval", "--table", str(small_table[1]), "--methods", "rejection",
                    "--epsilons", "0.5", "--n-rep", "3", *flags, "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            return (out / "crossval.csv").read_bytes()

        assert rows(tmp_path / "inf", "--kappa-max", "inf", "--lambda-max", "inf") == rows(
            tmp_path / "none", "--no-constraint")

    # valid arguments of each command, but for the flag under test
    SWEEP_ARGS = {
        "simulate": ["--kappa", "5", "--lambda", "1", "--n-obs", "20"],
        "observe": ["--latent", "{latent}", "--n-obs", "10"],
        "summarize": ["--track", "{track}"],
        "reftable": ["--n-sims", "5", "--min-obs", "10", "--shard-size", "5"],
        "fit": ["--table", "{table}", "--track", "{track}"],
        "crossval": ["--table", "{table}", "--methods", "rejection", "--epsilons", "0.5",
                     "--n-rep", "3"],
        "coverage": ["--table", "{table}", "--methods", "rejection", "--epsilons", "0.5",
                     "--n-rep", "3"],
        "rscan": ["--table", "{table}", "--r-values", "0.5", "--kappa-values", "10",
                  "--n-per-cell", "1", "--methods", "rejection", "--epsilon", "0.5"],
        "directfit": ["--latent", "{latent}"],
        "oracle-check": ["--n-draws", "1000"],
    }
    NUMERIC_FLAGS = [(command, action.option_strings[0], action.type, action.nargs)
                     for command, sub in cli.build_parser().subcommands.items()
                     for action in sub._actions if action.type in (int, float)]

    @pytest.mark.parametrize("command,flag,kind,nargs", NUMERIC_FLAGS,
                             ids=[f"{command} {flag}" for command, flag, *_ in NUMERIC_FLAGS])
    def test_every_numeric_flag_refuses_nan_or_minus_one(self, command, flag, kind, nargs,
                                                         small_table, tmp_path, capsys):
        # float flags get nan and int flags -1; the later flag wins over SWEEP_ARGS'
        path, track = simulate_track(n_obs=SMALL_SIM.min_obs)
        files = {"latent": tmp_path / "latent.csv", "track": tmp_path / "track.csv",
                 "table": small_table[1]}
        st_io.write_latent_csv(files["latent"], path)
        st_io.write_track_csv(files["track"], track)
        bad = ["nan" if kind is float else "-1"] * (nargs if isinstance(nargs, int) else 1)
        out = tmp_path / "out"
        argv = [command, *(arg.format(**files) for arg in self.SWEEP_ARGS[command]),
                flag, *bad, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["crossval", "coverage"])
    @pytest.mark.parametrize("epsilons,message", [
        (["0.1", "0.1000001"], "--epsilons 0.1 and 0.1000001 share the label eps=0.1"),
        (["0.5", "0.2", "0.5"], "--epsilons 0.5 and 0.5 share the label eps=0.5"),
    ])
    def test_epsilons_sharing_a_label_exit_1(self, command, epsilons, message, small_table,
                                            tmp_path, capsys):
        # one JSON entry per cell label: the later cell would overwrite the earlier
        def run(values, out):
            return cli.main([command, "--table", str(small_table[1]), "--methods", "rejection",
                             "--epsilons", *values, "--n-rep", "3", "--out", str(out)])

        assert run(epsilons, tmp_path / "out") == cli.EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert run([*epsilons[:-1], "0.25"], tmp_path / "distinct") == cli.EXIT_OK

    @pytest.mark.parametrize("command,flag,values", [
        ("crossval", "--methods", ["rejection", "rejection"]),
        ("coverage", "--methods", ["rejection", "loclinear", "rejection"]),
        ("rscan", "--methods", ["rejection", "rejection"]),
        ("rscan", "--r-values", ["1", "1"]),
        ("rscan", "--kappa-values", ["20", "30", "20.0"]),
    ])
    def test_repeated_grid_value_exits_1(self, command, flag, values, small_table, tmp_path,
                                         capsys):
        # a repeat would pool two runs of one cell, a doubled sample under one key
        out = tmp_path / "out"
        argv = [command, "--table", str(small_table[1]), flag, *values, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert f"error: {flag} must be distinct, got {values[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_floors_are_the_library_floors(self):
        with pytest.raises(ValueError, match="min_obs must be >= 4"):
            SimConfig(min_obs=cli.COUNT_FLAGS["min_obs"] - 1)
        SimConfig(min_obs=cli.COUNT_FLAGS["min_obs"])
        with pytest.raises(ValueError, match="n_draws must be >= 1000"):
            densities.density_mc_check(None, None, cli.COUNT_FLAGS["n_draws"] - 1,
                                       np.random.default_rng(0))

    @pytest.mark.parametrize("argv", [
        ["fit", "--table", "{dir}"], ["fit", "--table", "{table}", "--track", "{dir}"],
        ["fit", "--table", "{table}", "--summary", "{dir}"], ["observe", "--latent", "{dir}"],
        ["crossval", "--table", "{dir}"], ["summarize", "--config", "{dir}"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]))
    def test_directory_input_exits_1(self, argv, small_table, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = [arg.format(dir=folder, table=small_table[1]) for arg in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert f"error: {argv[-2]} names no file: {folder}" in capsys.readouterr().err

    def test_config_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        for path, message in ((tmp_path / "missing.json", "not found"),
                              (bad, "not valid JSON"), (listed, "must hold a JSON object")):
            assert cli.main(["summarize", "--config", str(path)]) == cli.EXIT_VALIDATION
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,config,message", [
        ("fit", {"method": "wild"}, "argument --method: invalid choice: 'wild'"),
        ("crossval", {"methods": "rejection"}, "key 'methods' must be a list"),
        ("rscan", {"r_values": 1.0}, "key 'r_values' must be a list"),
        ("crossval", {"epsilons": ["a"]}, "argument --epsilons: invalid float value: 'a'"),
        ("rscan", {"gnuplot": "yes"}, "key 'gnuplot' must be true or false"),
        ("simulate", {"kappa": [1.0]}, "key 'kappa' must be a single value"),
    ])
    def test_config_values_checked_like_flags(self, command, config, message, tmp_path,
                                              capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: config file {path}: {message}")


# Every subcommand on small fixed inputs. Each run starts in a directory that
# holds the inputs and names them by relative paths, so its recorded config is
# the same wherever the test runs.
CLI_RUNS = {
    "simulate": ["--kappa", "20", "--lambda", "2", "--n-obs", "80", "--seed", "7"],
    "observe": ["--latent", "latent.csv", "--n-obs", "60"],
    "summarize": ["--track", "track.csv"],
    "reftable": ["--n-sims", "40", "--min-obs", "40", "--shard-size", "20", "--seed", "9"],
    "fit": ["--table", "table.csv", "--track", "track.csv", "--method", "rejection",
            "--epsilon", "0.25"],
    "crossval": ["--table", "table.csv", "--methods", "rejection", "--epsilons", "0.3",
                 "--n-rep", "3", "--seed", "5", "--gnuplot"],
    "coverage": ["--table", "table.csv", "--methods", "rejection", "--epsilons", "0.3",
                 "--n-rep", "3", "--seed", "5", "--gnuplot"],
    "rscan": ["--table", "table.csv", "--r-values", "0.5", "--kappa-values", "25",
              "--n-per-cell", "2", "--methods", "rejection", "--epsilon", "0.2",
              "--seed", "17", "--gnuplot"],
    "directfit": ["--latent", "latent.csv"],
    "oracle-check": ["--n-draws", "5000"],
}


def run_on_fixed_inputs(command, tmp_path, monkeypatch, args=None):
    """Run ``command`` with ``args``, by default its CLI_RUNS arguments; returns
    its --out directory."""
    table = generate_reference_table(PriorSpec(), 80, SMALL_SIM, seed=2)
    st_io.write_reference_table(tmp_path / "table.csv", table)
    latent, _ = simulate_track()
    track = observe(latent, SMALL_SIM.dt, SMALL_SIM.min_obs)  # the table's design, for fit
    st_io.write_latent_csv(tmp_path / "latent.csv", latent)
    st_io.write_track_csv(tmp_path / "track.csv", track)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "ORACLES",
                        {"f_V": (*cli.ORACLES["f_V"][:-1], [{"kappa": 2.0}])})
    args = CLI_RUNS[command] if args is None else args
    assert cli.main([command, *args, "--out", "out"]) == cli.EXIT_OK
    return tmp_path / "out"


# sha256 of each command's recorded config (io.config_digest) for its CLI_RUNS
# arguments, and the files that hold that config; all but five were computed
# when each command still listed its config keys by hand. fit, crossval,
# coverage and rscan changed when their configs gained the table's sha256
# (coverage's also when it lost --no-constraint and its default bounds,
# rscan's when it lost --dt and --n-obs); directfit recorded none.
PINNED_CONFIG = {
    "simulate": ("bf1cc807440e92a4b3cec202ff1d4447cdb550593fe517fadb227568019bfea4",
                 ["latent.json", "track.json"]),
    "observe": ("c21cb0e235c47d18668df9d5920d809c2519966c1703da6e3d8d2ebb82460131",
                ["track.json"]),
    "summarize": ("25520b50a400739d8a0452b3e90b3cf6e2609a11841a05f8c93d260785518152",
                  ["summary.json"]),
    "reftable": ("7d282543fc9d1dbc6fad08254f6ca2075313df07a956f66905fa7d2d06f80c54",
                 ["shards/shards.json"]),
    "fit": ("7707792c8395c95c949c7e40a4ec2a1427c3896eb57c3fa1a8fc222896580b59",
            ["posterior.json"]),
    "crossval": ("2b2d21e152d3a896d33f3246ea29d0722c695f032026aedbe794edffc93d5a67",
                 ["crossval.json"]),
    "coverage": ("fc39b0662c446f231e2d8f899189debc279daf7e504d008e6e09e3d5a112951d",
                 ["coverage.json"]),
    "rscan": ("6809fc3eab04dbe8b664ebd577984b67dbb668e9071b45be44762825871662f9",
              ["rscan.json"]),
    "directfit": ("7872d960416e284d6cab0308ee3252addcc00349494870bfc19a789e6c7adfca", []),
    "oracle-check": ("23e8a74262af077500e95cb61b1f6ea68feeb13fe4368118364f9edc69bca20f", []),
}


# sha256 of the reports each CLI_RUNS experiment writes, computed when each
# report still grouped its records its own way (rscan's when rscan still took
# --dt and --n-obs, given the table's 0.5 and 60)
PINNED_REPORTS = {
    "crossval": {
        "crossval.csv": "4624b5e0f7eca817920143d778b992300996892f5b7ad680703617f8c2f6edff",
        "crossval_metrics.json":
            "e5a571082b2568d71d2d6c8a5f6181b970c48537303239589101149ed2af14b2",
    },
    "coverage": {
        "coverage.csv": "d35a542a52ee02effe02c93195cf2942bd794b6254e75cc10a21b9d119dd7864",
        "coverage_summary.json":
            "1383a1367846dc2d18cf527d91567a3dabe52b9d50c0293ed80053de59002297",
    },
    "rscan": {
        "rscan.csv": "93c317e9bb9180138ffca055021ade26c6cc385893d9af6fadee8f85ef14301e",
    },
}


# The regression corrections on the CLI_RUNS inputs at epsilon 0.7, which
# accepts 56 rows of the 80-row table and of each 79-row held-out table, enough
# for neuralnet's ten rows per hidden unit; and the sha256 of what each writes,
# computed when each correction still took the observed summaries as an argument
CORRECTION_RUNS = {
    "crossval": ["--table", "table.csv", "--methods", "rejection", "loclinear", "neuralnet",
                 "--epsilons", "0.7", "--n-rep", "3", "--seed", "5"],
    "fit-loclinear": ["--table", "table.csv", "--track", "track.csv", "--method", "loclinear",
                      "--epsilon", "0.7"],
    "fit-neuralnet": ["--table", "table.csv", "--track", "track.csv", "--method", "neuralnet",
                      "--epsilon", "0.7"],
}
PINNED_CORRECTIONS = {
    "crossval": {
        "crossval.csv": "9521f0cac1610c4cb172d8c97e33816be9c889aa4b259f7d86835e7de57be8f6",
        "crossval_metrics.json":
            "8d4ffc516cc3aa4164ca476c4277ee0a9dceaad94e1dfe14be17aa3a49a1eef2",
    },
    "fit-loclinear": {
        "posterior.csv": "9e81c6bbf61f0bb90368bc00e8bf2399c70472d60676f270b560a72d72e7c466",
        "posterior.json": "312cbe25b26566e290254fb1b44c6913e64d550bfade6be3abef13964a6af8c9",
    },
    "fit-neuralnet": {
        "posterior.csv": "8caa8e9aca2ef41e97eb509f6b7e51e3033369d4907a751fea4482016d3022d1",
        "posterior.json": "cbe63990c7de3204efee997e35a8c35b3f757ed5094e00e07964f92847b9c242",
    },
}


def manifest_records(out):
    return [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]


class TestProvenance:
    @pytest.mark.parametrize("command", sorted(CLI_RUNS))
    def test_every_artifact_is_in_the_manifest(self, command, tmp_path, monkeypatch):
        out = run_on_fixed_inputs(command, tmp_path, monkeypatch)
        files = {path for path in out.rglob("*") if path.is_file()
                 and path.relative_to(out).parts[0] not in ("manifest.jsonl", "shards")}
        sidecars = {path.with_suffix(".json") for path in files if path.suffix == ".csv"}
        assert sidecars <= files  # every CSV has its sidecar
        expected = sorted((str(path.resolve()), st_io.sha256_file(path))
                          for path in files - sidecars)
        found = sorted((record["path"], record["sha256"]) for record in manifest_records(out))
        assert found == expected

    @pytest.mark.parametrize("command", sorted(CLI_RUNS))
    def test_recorded_config_is_pinned(self, command, tmp_path, monkeypatch):
        out = run_on_fixed_inputs(command, tmp_path, monkeypatch)
        digest, holders = PINNED_CONFIG[command]
        assert {record["config_sha256"] for record in manifest_records(out)} == {digest}
        for name in holders:
            config = json.loads((out / name).read_text())["config"]
            assert st_io.config_digest(config) == digest

    @pytest.mark.parametrize("command", sorted(PINNED_REPORTS))
    def test_reports_are_pinned(self, command, tmp_path, monkeypatch):
        out = run_on_fixed_inputs(command, tmp_path, monkeypatch)
        pinned = PINNED_REPORTS[command]
        assert {name: st_io.sha256_file(out / name) for name in pinned} == pinned

    @pytest.mark.parametrize("run", sorted(PINNED_CORRECTIONS))
    def test_correction_reports_are_pinned(self, run, tmp_path, monkeypatch):
        out = run_on_fixed_inputs(run.split("-")[0], tmp_path, monkeypatch,
                                  CORRECTION_RUNS[run])
        pinned = PINNED_CORRECTIONS[run]
        assert {name: st_io.sha256_file(out / name) for name in pinned} == pinned

    @pytest.mark.parametrize("command", ["coverage", "crossval", "fit", "rscan"])
    def test_table_twin_is_no_artifact(self, command, tmp_path, monkeypatch):
        out = run_on_fixed_inputs(command, tmp_path, monkeypatch)
        twin = f".table.csv.{st_io.sha256_file(tmp_path / 'table.csv')}.npy"
        assert twins(tmp_path) == [twin]
        assert not [path for path in out.rglob("*") if path.suffix == ".npy"]
        assert not [r for r in manifest_records(out) if r["path"].endswith(".npy")]

    @pytest.mark.parametrize("command", ["coverage", "crossval", "fit", "rscan"])
    def test_table_is_recorded_by_digest(self, command, tmp_path, monkeypatch):
        out = run_on_fixed_inputs(command, tmp_path, monkeypatch)
        config = json.loads((out / PINNED_CONFIG[command][1][0]).read_text())["config"]
        assert config["table"] == "table.csv"
        assert config["table_sha256"] == st_io.sha256_file(tmp_path / "table.csv")
