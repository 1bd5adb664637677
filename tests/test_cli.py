import csv
import json
import math
import weakref
from pathlib import Path

import pytest

import fetr.trainer
from fetr import SingularMatrixError, wsolvers
from fetr.cli import build_parser, main

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

    @pytest.mark.parametrize(
        "manifest, rff",
        [
            pytest.param(SHARED, [], id="shared"),
            pytest.param(PERTASK, [], id="pertask"),
            pytest.param(SHARED, ["--rff", "64"], id="shared-rff64"),
            pytest.param(PERTASK, ["--rff", "16"], id="pertask-rff16"),
            pytest.param(
                PERTASK, ["--rff", "16", "--rff-orthogonal"], id="pertask-rff16-orthogonal"
            ),
        ],
    )
    def test_written_trace_accounts_for_every_evaluation(self, tmp_path, manifest, rff):
        # a converged fit writes one init row plus three per sweep, nonincreasing within the
        # monotone guard's slack; each w and sigma2 row costs one objective evaluation (the
        # scale move is closed-form), each sigma1 row the base profile of the Newton step
        # plus at most ARMIJO_HALVINGS + 1 trials, and the report's count is the last row's.
        # Shared data solves every W block directly; per-task data directly at the diagonal
        # start Sigma2, then by conjugate gradients once Sigma2 couples the tasks. On random
        # features the feature side is tall, so Sigma1 is held by its range; orthogonal
        # random features change the draw, not the fit.
        args = ["train", "--manifest", manifest, "--out", str(tmp_path / "run")]
        assert main(args + rff) == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        rows = list(csv.DictReader((tmp_path / "run.trace.csv").read_text().splitlines()))
        objs = [float(row["objective"]) for row in rows]
        assert report["converged"] is True
        assert len(rows) == 1 + 3 * report["iterations"]
        slack = fetr.trainer.MONOTONE_SLACK
        assert all(b <= a + slack * (1.0 + abs(a)) for a, b in zip(objs, objs[1:])), objs
        costs = [(b["block"], int(b["evals"]) - int(a["evals"])) for a, b in zip(rows, rows[1:])]
        assert all(cost == 1 for block, cost in costs if block in ("w", "sigma2")), costs
        most = 2 + fetr.trainer.ARMIJO_HALVINGS
        assert all(1 <= cost <= most for block, cost in costs if block == "sigma1"), costs
        assert report["objective_evals"] == int(rows[-1]["evals"])
        iters = report["w_iterations"]
        assert len(iters) == report["iterations"]
        if manifest == SHARED:
            assert all(i == 0 for i in iters), iters
        else:
            assert iters[0] == 0 and any(i > 0 for i in iters[1:]), iters

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "absent.json")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_csv_not_utf8_is_data_error(self, tmp_path, capsys):
        (tmp_path / "x.csv").write_bytes(b"1,2\n3,\xe94\n")
        (tmp_path / "y.csv").write_bytes(b"1\n2\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "format_version": 1, "d": 2,
            "shared_features_csv_path": "x.csv", "shared_targets_csv_path": "y.csv",
        }))
        assert main(["train", "--manifest", str(manifest)]) == 3
        assert "x.csv:2: not UTF-8 text" in capsys.readouterr().err

    def test_eta_zero_is_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", PERTASK, "--eta", "0"])
        assert exc.value.code == 2
        assert "eta must be > 0" in capsys.readouterr().err

    def test_solver_failure_is_exit_four(self, monkeypatch, capsys):
        def fail(data, config):
            raise SingularMatrixError("normal equations is singular or not positive definite")

        monkeypatch.setattr(fetr.trainer, "fit_fetr", fail)
        assert main(["train", "--manifest", SHARED]) == 4
        err = capsys.readouterr().err
        assert "solver error" in err and "normal equations" in err

    def test_rff_option(self, tmp_path):
        out = tmp_path / "rff_run"
        code = main(
            ["train", "--manifest", SHARED, "--rff", "8,1.0", "--out", str(out), "--seed", "2"]
        )
        assert code == 0
        weights = (tmp_path / "rff_run.weights.csv").read_text().strip().splitlines()
        assert len(weights) == 8  # feature dimension replaced by p

    def test_deterministic_given_seed(self, tmp_path):
        # --seed draws the random features and nothing in the fit, which the config no
        # longer echoes: the same seed writes the same bundle bitwise, another seed
        # other weights
        def bundle(name, seed):
            out = tmp_path / name
            argv = ["train", "--manifest", SHARED, "--rff", "8", "--seed", seed, "--out", str(out)]
            assert main(argv) == 0
            matrices = {s: (tmp_path / f"{name}.{s}.csv").read_bytes()
                        for s in ("weights", "sigma1", "sigma2")}
            return matrices, json.loads((tmp_path / f"{name}.report.json").read_text())

        first, report = bundle("a", "2")
        again, _ = bundle("b", "2")
        other, _ = bundle("c", "3")
        assert first == again
        assert other["weights"] != first["weights"]
        assert "seed" not in report["config"]

    def test_rff_option_pertask(self, tmp_path):
        out = tmp_path / "rff_run"
        assert main(["train", "--manifest", PERTASK, "--rff", "8,1.0", "--out", str(out)]) == 0
        weights = (tmp_path / "rff_run.weights.csv").read_text().strip().splitlines()
        assert len(weights) == 8

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

    @pytest.mark.parametrize("manifest", [SHARED, PERTASK], ids=["shared", "pertask"])
    def test_one_finite_score_per_eta_and_best_is_least(self, tmp_path, capsys, manifest):
        out = tmp_path / "cv.json"
        argv = ["cv", "--manifest", manifest, "--folds", "2", "--eta-grid", "1e-1..1e1"]
        assert main(argv + ["--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        per_eta = summary["per_eta"]
        assert sorted(per_eta) == ["0.1", "1", "10"], sorted(per_eta)
        assert all(math.isfinite(v["mean"]) and math.isfinite(v["std"]) for v in per_eta.values())
        best = min(per_eta, key=lambda eta: per_eta[eta]["mean"])
        assert f"{summary['best_eta']:g}" == best, (best, summary["best_eta"])


class TestOneGramPerDataset:
    """Fits read the Gram cached on their dataset: cv builds one per fold and
    compare one for its three fitters. cv runs fold-major, so no earlier
    fold's training set, nor its Gram, is alive when the next Gram is built."""

    @staticmethod
    def _grams(monkeypatch, argv):
        """For each GramCache built while ``argv`` runs, how many datasets
        with an earlier Gram were still alive."""
        init, built, alive = wsolvers.GramCache.__init__, [], []

        def counting(self, data):
            alive.append(sum(ref() is not None for ref in built))
            built.append(weakref.ref(data))
            init(self, data)

        monkeypatch.setattr(wsolvers.GramCache, "__init__", counting)
        assert main(argv) == 0
        return alive

    @pytest.mark.parametrize("manifest", [SHARED, PERTASK], ids=["shared", "pertask"])
    def test_cv_builds_one_per_fold(self, monkeypatch, capsys, manifest):
        argv = ["cv", "--manifest", manifest, "--folds", "2", "--eta-grid", "1e-1..1e1"]
        assert self._grams(monkeypatch, argv) == [0, 0]

    def test_compare_builds_one(self, monkeypatch, capsys):
        argv = ["compare", "--synthetic", "200,4,3", "--budget-seconds", "5"]
        assert self._grams(monkeypatch, argv + ["--pgd-max-iters", "20"]) == [0]


class TestBenchW:
    def test_agreement_and_capacity_marker(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wsolvers, "CLOSED_FORM_GUARD", 11)
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

    def test_cg_row_reads_ok(self, tmp_path, capsys):
        # a cg row is written only after cg agreed with the others to 1e-6
        out = tmp_path / "bench.csv"
        argv = ["bench-w", "--n", "200", "--grid", "5x4", "--repeats", "1", "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [r[3] for r in rows if r[2] == "cg"] == ["ok"]
        assert "solvers agree (cg, closed, gd, sylvester)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option", [["--grid", "0x5"], ["--grid", "3x0"], ["--n", "0"], ["--repeats", "0"]]
    )
    def test_nonpositive_size_is_argument_error(self, tmp_path, capsys, option):
        out = tmp_path / "bench.csv"
        argv = ["bench-w", "--n", "50", "--grid", "3x2", "--repeats", "1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + option)
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err
        assert not out.exists()


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
        # shared data: every W block is the direct solve; projected GD has none
        fetr = summary["methods"]["fetr"]
        assert fetr["w_iterations"] == [0] * fetr["iterations"]
        assert summary["methods"]["projected_gd"]["w_iterations"] == []
        methods, traces = summary["methods"], {}
        for name in methods:
            trace = (tmp_path / f"cmp.{name}.trace.csv").read_text().strip().splitlines()
            assert trace[0] == "iteration,block,seconds,objective,evals"
            assert len(trace) > 1
            traces[name] = rows = list(csv.DictReader(trace))
            assert max(float(row["seconds"]) for row in rows) <= 30.0
            # each method's iterations are the sweep of its last trace row
            assert methods[name]["iterations"] == int(rows[-1]["iteration"]), name
        # projected GD descends strictly, counts every line-search trial (certified
        # ones included) on top of its initial point, and does not beat fetr
        pgd = methods["projected_gd"]
        objs = [float(row["objective"]) for row in traces["projected_gd"]]
        assert all(b < a for a, b in zip(objs, objs[1:])), objs
        assert pgd["objective_evals"] >= 1 + pgd["iterations"]
        assert fetr["final_objective"] <= pgd["final_objective"] + 1e-6, methods

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


@pytest.mark.parametrize(
    "argv", TestOutputPaths.COMMANDS.values(), ids=TestOutputPaths.COMMANDS.keys()
)
def test_no_w_solver_option(argv):
    # a fit picks its W solver from the data layout; no subcommand takes one
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--w-solver", "auto"])
    assert exc.value.code == 2


def test_cv_has_no_eta_option(capsys):
    # cv fits each --eta-grid value, so an --eta would be ignored
    with pytest.raises(SystemExit) as exc:
        main(TestOutputPaths.COMMANDS["cv"] + ["--eta", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eta 5" in capsys.readouterr().err


# Each value is rejected when the arguments are parsed: exit 2 before the
# manifest, which does not exist, is read (reading it would exit 3), and
# before bench-w generates its data.
BAD_VALUES = {
    "train_max_outer": ["train", "--max-outer", "0"],
    "train_eta": ["train", "--eta", "-1"],
    "train_rel_obj_tol": ["train", "--rel-obj-tol", "0"],
    "train_nan_l": ["train", "--l", "nan"],
    "cv_box": ["cv", "--l", "2", "--u", "1"],
    "cv_folds": ["cv", "--folds", "1"],
    "compare_fudge": ["compare", "--fudge", "-1"],
    "compare_budget": ["compare", "--budget-seconds", "-1"],
    "compare_pgd_max_iters": ["compare", "--pgd-max-iters", "0"],
    "bench_box": ["bench-w", "--l", "1", "--u", "1"],
    "bench_n": ["bench-w", "--n", "0"],
    "bench_repeats": ["bench-w", "--repeats", "0"],
    # each number must be finite, and each entry of a list option is checked
    "train_rff_seed": ["train", "--rff", "8", "--seed", "-1"],
    "cv_seed": ["cv", "--seed", "-1"],
    "compare_seed": ["compare", "--seed", "-1"],
    "bench_seed": ["bench-w", "--seed", "-1"],
    "cv_eta_grid_nan": ["cv", "--eta-grid", "nan"],
    "cv_eta_grid_inf": ["cv", "--eta-grid", "inf"],
    "cv_eta_grid_descending": ["cv", "--eta-grid", "1e3..1e-5"],
    "cv_eta_grid_not_decades": ["cv", "--eta-grid", "0.5..5"],
    # below 1e-8 a default absolute tolerance would pass 3e-9 as 1e-9
    "cv_eta_grid_not_decades_small": ["cv", "--eta-grid", "3e-9..1e-6"],
    # 1e0 is 1 again: the grid would fit eta = 1 once and echo it twice
    "cv_eta_grid_repeated": ["cv", "--eta-grid", "1,1e0,10"],
    "train_rff_nan_bandwidth": ["train", "--rff", "8,nan"],
    "train_eta_inf": ["train", "--eta", "inf"],
    "train_u_inf": ["train", "--u", "inf"],
    "train_rel_obj_tol_inf": ["train", "--rel-obj-tol", "inf"],
    "compare_fudge_inf": ["compare", "--fudge", "inf"],
    "compare_budget_inf": ["compare", "--budget-seconds", "inf"],
    "compare_synthetic_count": ["compare", "--synthetic", "5,3"],
    "bench_grid_triple": ["bench-w", "--grid", "3x2x1"],
}


@pytest.mark.parametrize("argv", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_is_argument_error(tmp_path, capsys, argv):
    if argv[0] == "bench-w":
        source = ["--n", "50", "--grid", "3x2", "--repeats", "1"]
    else:
        source = ["--manifest", str(tmp_path / "absent.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + source)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "data error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--synthetic", "5,3"],
        ["compare", "--synthetic", "5,3,0"],
        ["bench-w", "--grid", "3x2,3x2x1"],
        ["bench-w", "--grid", "3x2,4xnan"],
        ["train", "--manifest", "m", "--rff", "8,inf"],
        ["train", "--manifest", "m", "--rff", "nan,1"],
        ["cv", "--manifest", "m", "--eta-grid", "1e-1,inf"],
        ["cv", "--manifest", "m", "--eta-grid", "1e-1..nan"],
    ],
)
def test_bad_list_entry_names_its_option(capsys, argv):
    option = next(a for a in argv if a in ("--synthetic", "--grid", "--rff", "--eta-grid"))
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


class TestParsedValues:
    @staticmethod
    def parse(*argv):
        return build_parser().parse_args(list(argv))

    def test_rff_default_bandwidth(self):
        assert self.parse("train", "--manifest", "m", "--rff", "8").rff == (8, 1.0)

    def test_default_eta_grid_is_nine_decades(self):
        assert self.parse("cv", "--manifest", "m").eta_grid == [10.0**k for k in range(-5, 4)]

    def test_small_decade_range(self):
        grid = self.parse("cv", "--manifest", "m", "--eta-grid", "1e-9..1e-6").eta_grid
        assert grid == [10.0**k for k in range(-9, -5)]

    def test_grid_pairs(self):
        grid = self.parse("bench-w", "--grid", "10x5,20x10").grid
        assert [tuple(pair) for pair in grid] == [(10, 5), (20, 10)]
