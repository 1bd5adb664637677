import json
from pathlib import Path

import pytest

from fetr.cli import main

FIXTURES = Path(__file__).parent / "data"
SHARED = str(FIXTURES / "shared_small/manifest.json")
PERTASK = str(FIXTURES / "pertask_small/manifest.json")


class TestTrain:
    def test_smoke_writes_bundle(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["train", "--manifest", SHARED, "--eta", "0.01", "--out", str(out), "--seed", "1"]
        )
        assert code == 0
        for suffix in (".report.json", ".trace.csv", ".sigma1.csv", ".sigma2.csv", ".weights.csv"):
            assert (tmp_path / f"run{suffix}").exists()
        assert "train MSE" in capsys.readouterr().out

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "absent.json")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_sylvester_on_pertask_is_solver_error(self, capsys):
        code = main(["train", "--manifest", PERTASK, "--w-solver", "sylvester"])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver error" in err and "shared" in err

    def test_rff_option(self, tmp_path):
        out = tmp_path / "rff_run"
        code = main(
            ["train", "--manifest", SHARED, "--rff", "8,1.0", "--out", str(out), "--seed", "2"]
        )
        assert code == 0
        weights = (tmp_path / "rff_run.weights.csv").read_text().strip().splitlines()
        assert len(weights) == 8  # feature dimension replaced by p

    def test_bad_arguments_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # --manifest is required
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", SHARED, "--rff", "7,1.0"])
        assert exc.value.code == 2


class TestCv:
    def test_linear_fixture_reaches_tiny_nmse(self, capsys):
        code = main(
            [
                "cv",
                "--manifest",
                SHARED,
                "--folds",
                "5",
                "--eta-grid",
                "1e-5..1e-2",
                "--metric",
                "nmse",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["best_mean"] <= 1e-6

    def test_deterministic_json(self, capsys):
        argv = [
            "cv",
            "--manifest",
            SHARED,
            "--folds",
            "4",
            "--eta-grid",
            "1e-3,1e-1",
            "--seed",
            "5",
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_too_many_folds_is_data_error(self, capsys):
        code = main(["cv", "--manifest", SHARED, "--folds", "25", "--eta-grid", "1e-2"])
        assert code == 3


class TestBenchW:
    def test_agreement_and_capacity_marker(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench-w",
                "--n",
                "300",
                "--grid",
                "4x3,6x2",
                "--repeats",
                "2",
                "--seed",
                "0",
                "--closed-guard",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,m,solver,status,mean_seconds,var_seconds,repeats"
        rows = [line.split(",") for line in lines[1:]]
        # closed form runs at md=12 > guard=11 never; both grid cells exceed it
        closed = [r for r in rows if r[2] == "closed"]
        assert all(r[3] == "capacity" for r in closed)
        timed = [r for r in rows if r[3] == "ok"]
        assert all(len(r) == 7 and float(r[4]) >= 0 for r in timed)

    def test_repeats_counted(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert (
            main(
                ["bench-w", "--n", "200", "--grid", "3x2", "--repeats", "3", "--out", str(out)]
            )
            == 0
        )
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert all(r[6] == "3" for r in rows)


class TestCompare:
    def test_traces_and_summary(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare",
                "--synthetic",
                "200,4,3",
                "--eta",
                "1.0",
                "--budget-seconds",
                "30",
                "--pgd-max-iters",
                "200",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "cmp.summary.json").read_text())
        assert set(summary["methods"]) == {"fetr", "projected_gd", "flipflop"}
        for name in summary["methods"]:
            trace = (tmp_path / f"cmp.{name}.trace.csv").read_text().strip().splitlines()
            assert trace[0] == "seconds,objective,evals"
            assert len(trace) > 1
            seconds = [float(line.split(",")[0]) for line in trace[1:]]
            assert max(seconds) <= 30.0

    def test_flipflop_without_fudge_records_singularity(self, tmp_path):
        out = tmp_path / "nofudge"
        code = main(
            [
                "compare",
                "--synthetic",
                "150,4,3",
                "--fudge",
                "0",
                "--budget-seconds",
                "30",
                "--pgd-max-iters",
                "50",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "nofudge.summary.json").read_text())
        events = summary["methods"]["flipflop"]["events"]
        assert any("singular" in e for e in events)


class TestOutputPaths:
    """Every --out goes through one writer: it creates missing directories,
    and a path it cannot write is a data error (exit 3), not a traceback."""

    COMMANDS = {
        "train": ["train", "--manifest", SHARED],
        "cv": ["cv", "--manifest", SHARED, "--folds", "2", "--eta-grid", "1"],
        "compare": [
            "compare", "--synthetic", "60,3,2", "--budget-seconds", "30", "--pgd-max-iters", "5"
        ],
        "bench-w": ["bench-w", "--n", "50", "--grid", "3x2", "--repeats", "1"],
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_out_under_regular_file_is_data_error(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(argv + ["--out", str(blocker / "sub" / "out")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_cv_creates_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "summary.json"
        assert main(self.COMMANDS["cv"] + ["--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)
