import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from meancurv import ScalarField, ShapeSpec, make_grid
from meancurv.cli import (ConfigError, ExperimentConfig, _resample, formula, main,
                          run_experiment)
from meancurv.tables import format_value


def read_bytes(path: Path) -> bytes:
    return Path(path).read_bytes()


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"kind": "nonsense"})

    def test_empty_resolutions_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"kind": "solve", "domain": {"kind": "disk",
                                        "center": [0, 0], "radius": 1.0},
                                        "resolutions": []})

    def test_unknown_formula_rejected(self):
        with pytest.raises(ConfigError):
            formula({"name": "nope"})

    def test_uc_formula_is_the_closed_form(self):
        # the paper's u_c: a (r - 1)^delta outside the unit circle and
        # -b (1 - r)^sigma - c inside, with r = |x| in 1d
        uc = formula({"name": "uc", "a": 3.0, "b": 1.5, "delta": 0.5, "sigma": 0.25,
                      "c": 0.2})
        r = np.array([0.0, 0.36, 0.99, 1.0, 1.44, 2.0])
        want = [-1.5 * (1.0 - x) ** 0.25 - 0.2 if x < 1.0 else 3.0 * (x - 1.0) ** 0.5
                for x in r.tolist()]
        angle = np.linspace(0.3, 5.0, len(r))
        plane = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
        assert uc(plane) == pytest.approx(want, abs=1e-12)
        assert uc(-r[:, None]) == pytest.approx(want, abs=1e-12)

    def test_scherk_formula_is_the_closed_form(self):
        scherk = formula({"name": "scherk"})
        p = np.array([[0.0, 0.0], [0.3, -0.2], [-1.0, 0.5], [0.7, 1.2]])
        want = [math.log(math.cos(x) / math.cos(y)) for x, y in p.tolist()]
        assert scherk(p) == pytest.approx(want, abs=1e-14)

    def test_numbers_and_callables_are_returned_as_they_are(self):
        # every consumer takes them through field.cell_values
        cone = formula({"name": "cone"})
        assert formula(cone) is cone
        for number in (0.5, 2, None):
            assert formula(number) is number

    def test_numpy_scalars_are_written_as_python_numbers(self):
        assert format_value(np.float32(0.1)) == repr(float(np.float32(0.1)))
        assert format_value(np.int64(3)) == "3"

    @pytest.mark.parametrize("kind, params", [
        ("solve", {"phi": {"name": "nope"}}),
        ("solve", {"exact": {"name": "nope"}}),
        ("solve", {"f": "hemisphere_density"}),
        ("perron", {"u": {"name": "nope"}}),
        ("measure", {"u": {"hemisphere": 4.0}}),
        ("harnack", {"family": [{"name": "boundary_peak"}, {"name": "nope"}]}),
        ("dirichlet", {"phi": {"name": "nope"}}),
        ("dirichlet", {"measure": {"density": {"name": "nope"}}})])
    def test_unknown_formulas_fail_when_the_config_loads(self, tmp_path, kind, params):
        raw = {"kind": kind, "domain": {"kind": "disk", "center": [0, 0], "radius": 1.0},
               "resolutions": [16], "params": params}
        with pytest.raises(ConfigError, match="formula"):
            ExperimentConfig.from_json(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_config_exit_code_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "solve"}), encoding="utf-8")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("options", [{"max_iter": 40, "damp": 1e-4},
                                         {"init": "harmonc"}, {"tol": math.nan},
                                         {"tol": math.inf}, {"tol": 0}, {"damping": 0.5},
                                         {"damping": -1e-4}, {"max_iter": 2.5},
                                         {"max_iter": 0}])
    def test_bad_solver_options_exit_code_2(self, tmp_path, options):
        raw = dict(TestSolveExperiment.CONFIG,
                   params=dict(TestSolveExperiment.CONFIG["params"], options=options))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        out.mkdir()
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("levels", [None, [], [2, 3], [[2]], [[2, 0.0625, 1]],
                                        [[2, "0.0625"]]])
    def test_sweep_route_needs_level_pairs(self, tmp_path, levels):
        params = {"u": {"name": "cone"}, "route": "sweep"}
        if levels is not None:
            params["levels"] = levels
        raw = {"kind": "measure", "domain": {"kind": "disk", "center": [0.0, 0.0],
                                             "radius": 1.0},
               "resolutions": [32], "params": params}
        with pytest.raises(ConfigError, match=r"\[j, eps\] pairs"):
            ExperimentConfig.from_json(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["measure", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("levels", [[], 3, [[2, 0.06]], [2.0], ["2"], [True], [2, None]])
    def test_perron_levels_are_integers(self, tmp_path, levels):
        raw = {"kind": "perron", "domain": {"kind": "disk", "center": [0.0, 0.0],
                                            "radius": 1.0},
               "resolutions": [16], "params": {"u": {"name": "cone"}, "levels": levels}}
        with pytest.raises(ConfigError, match="list of integers"):
            ExperimentConfig.from_json(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["perron", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind, balls", [
        ("measure", [[[0, 0]]]), ("measure", []), ("measure", [[0, 0], 0.3]),
        ("measure", {"count": 2}), ("measure", [[[0, 0], "0.3"]]),
        ("dirichlet", [[[0, 0], "x"]]), ("dirichlet", [[[0, 0], 0.3, 1]]),
        ("dirichlet", [[[], 0.3]]), ("dirichlet", [[[0, True], 0.3]]),
        ("dirichlet", [[[0, 0], None]])])
    def test_ball_lists_are_center_radius_pairs(self, tmp_path, kind, balls):
        params = ({"u": {"name": "cone"}, "balls": {"explicit": balls}} if kind == "measure"
                  else {"measure": {"density": 0.1}, "check_balls": balls})
        raw = {"kind": kind, "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
               "resolutions": [16], "params": params}
        with pytest.raises(ConfigError, match=r"\[center, r\] pairs"):
            ExperimentConfig.from_json(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_seed_and_resolution_overrides(self, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps(dict(TestSolveExperiment.CONFIG, resolutions=[64, 128])),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--seed", "7", "--resolution", "16"]) == 0
        with open(out / "solve_log.csv", newline="") as fh:
            assert [row["resolution"] for row in csv.DictReader(fh)] == ["16"]
        want = ExperimentConfig.from_json(dict(TestSolveExperiment.CONFIG, seed=7,
                                               resolutions=[16]))
        man = json.loads((out / "manifest.json").read_text())
        assert man["config_sha256"] == hashlib.sha256(want.canonical().encode()).hexdigest()

    UNIT_DISK = {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0}
    CURVE = {"center": [0.0, 0.0], "radius": 0.5, "lambda": 0.5}

    @pytest.mark.parametrize("kind, change, args", [
        ("solve", {"domain": {"kind": "disk", "center": [0, 0], "radius": -1}}, []),
        ("solve", {"domain": {"kind": "hexagon"}}, []),
        ("solve", {"resolutions": [4]}, []),
        ("solve", {"resolutions": ["x"]}, []),
        ("solve", {"seed": "abc"}, []),
        ("solve", {"params": []}, []),
        ("dirichlet", {"params": {"deltas": [0.1, 0.5]}}, []),
        ("dirichlet", {"params": {"measure": {"curves": [{"center": [0, 0], "radius": 0.5}]}}},
         []),
        ("dirichlet", {"params": {"measure": {"curves": [dict(CURVE, **{"lambda": -1})]}}}, []),
        ("dirichlet", {"params": {"measure": {"atoms": [[0.0, 1.0]]}}}, []),
        ("dirichlet", {"params": {"measure": {"curves": [dict(CURVE, radius=-0.5)]}}}, []),
        ("dirichlet", {"domain": {"kind": "interval", "bounds": [-1.0, 1.0]},
                       "params": {"measure": {"curves": [CURVE]}}}, []),
        ("dirichlet", {"domain": {"kind": "interval", "bounds": [-1.0, 1.0]},
                       "params": {"measure": {"density": -1.0}}}, []),
        ("dirichlet", {"domain": {"kind": "interval", "bounds": [-1.0, 1.0]},
                       "params": {"measure": {"atoms": [[0.0, -1.0]]}}}, []),
        ("harnack", {"params": {"r": "big"}}, []),
        ("solve", {"params": {"convergence_factor": "x"}}, []),
        ("solve", {}, ["--resolution", "16,x"]),
    ], ids=["negative-radius", "hexagon", "resolution-4", "resolution-x", "seed-abc",
            "params-list", "increasing-deltas", "curve-without-lambda", "negative-lambda",
            "atom-on-a-disk", "negative-curve-radius", "curve-on-an-interval",
            "negative-density", "negative-atom-mass",
            "harnack-r-big", "convergence-factor-x", "cli-resolution-x"])
    def test_faults_without_a_grid_exit_2_with_nothing_written(self, tmp_path, capsys,
                                                                 kind, change, args):
        raw = dict({"kind": kind, "domain": self.UNIT_DISK, "resolutions": [16]}, **change)
        if change:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_json(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert main([kind, "--config", str(cfg), "--out", str(out), *args]) == 2
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}

    @pytest.mark.parametrize("kind", ["solve", "dirichlet"])
    def test_runs_read_only_the_loaded_values(self, tmp_path, kind):
        # the raw params are for the manifest's hash only: a run with them
        # emptied writes the same tables and fields
        raw = dict(TestSolveExperiment.CONFIG, resolutions=[16]) if kind == "solve" else {
            "kind": "dirichlet", "domain": self.UNIT_DISK, "resolutions": [16], "seed": 2,
            "params": {"measure": {"density": 0.2, "curves": [self.CURVE]},
                       "phi": {"name": "zero"}, "deltas": [0.4, 0.2],
                       "check_balls": [[[0.0, 0.0], 0.7]], "mass_tol": 0.1,
                       "options": {"tol": 1e-9}}}
        bare = ExperimentConfig.from_json(raw)
        bare.params = {}
        loaded = run_experiment(ExperimentConfig.from_json(raw), tmp_path / "loaded")
        assert loaded["passed"]
        assert run_experiment(bare, tmp_path / "bare")["assertions"] == loaded["assertions"]
        names = sorted(p.name for p in (tmp_path / "loaded").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "bare").iterdir())
        assert len(names) > 2
        for name in set(names) - {"manifest.json"}:
            assert read_bytes(tmp_path / "loaded" / name) == read_bytes(tmp_path / "bare" / name)

    def test_documented_solver_options_validate(self):
        options = {"max_iter": 40, "tol": 1e-8, "damping": 1e-4, "init": "harmonic"}
        raw = dict(TestSolveExperiment.CONFIG,
                   params=dict(TestSolveExperiment.CONFIG["params"], options=options))
        assert ExperimentConfig.from_json(raw).params["options"] == options


class TestVerify:
    def test_all_pass(self, tmp_path):
        code = main(["verify", "--out", str(tmp_path / "v")])
        assert code == 0
        man = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert man["passed"]
        assert all(a["passed"] for a in man["assertions"])


class TestSolveExperiment:
    CONFIG = {
        "kind": "solve",
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 2.0},
        "resolutions": [16, 32],
        "seed": 1,
        "params": {
            "f": {"name": "hemisphere_density", "R": 4.0},
            "phi": {"name": "hemisphere", "R": 4.0},
            "exact": {"name": "hemisphere", "R": 4.0},
            "convergence_factor": 3.0,
        },
    }

    def test_runs_and_asserts_convergence(self, tmp_path):
        cfg = ExperimentConfig.from_json(dict(self.CONFIG, out=str(tmp_path / "a")))
        man = run_experiment(cfg, tmp_path / "a")
        assert man["passed"]
        names = {a["name"] for a in man["assertions"]}
        assert {"all_converged", "error_halving"} <= names

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = ExperimentConfig.from_json(dict(self.CONFIG))
        cfg2 = ExperimentConfig.from_json(dict(self.CONFIG))
        man = run_experiment(cfg1, tmp_path / "r1")
        run_experiment(cfg2, tmp_path / "r2")
        for name in ("solve_log.csv", "manifest.json"):
            assert read_bytes(tmp_path / "r1" / name) == read_bytes(tmp_path / "r2" / name)
        # the manifest indexes every output, each field dump's array included
        assert man["outputs"] == ["solution_res16.json", "solution_res16.npy",
                                  "solution_res32.json", "solution_res32.npy",
                                  "solve_log.csv"]
        assert man["index"] == {name: {"bytes": len(read_bytes(tmp_path / "r1" / name)),
                                       "sha256": hashlib.sha256(read_bytes(
                                           tmp_path / "r1" / name)).hexdigest()}
                                for name in man["outputs"]}


class TestResample:
    def test_undefined_and_out_of_grid_cells_read_zero(self):
        # a ladder's warm start: ones on a small coarse disk with an undefined
        # 3x3 block at its centre, read on the interior of a larger fine disk
        cgrid, cmask = make_grid(ShapeSpec.disk((0.0, 0.0), 0.5), 16)
        vals = np.where(cmask.region, 1.0, np.nan)
        mid = cgrid.shape[0] // 2
        vals[mid - 1:mid + 2, mid - 1:mid + 2] = np.nan
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 32)
        out = _resample(ScalarField(grid=cgrid, values=vals), grid, mask)
        assert np.isnan(out[~mask.interior]).all()
        assert np.isfinite(out[mask.interior]).all()
        x, y = grid.points()[..., 0], grid.points()[..., 1]
        hole = np.maximum(np.abs(x), np.abs(y)) <= cgrid.h
        beyond = np.maximum(np.abs(x), np.abs(y)) > cgrid.axis_centers(0)[-1]
        # cells whose interpolation stencil lies in the hole, or past the
        # coarse grid, read exactly 0; the rest lie between 0 and 1
        assert (out[hole & mask.interior] == 0.0).all() and hole[mask.interior].any()
        assert (out[beyond & mask.interior] == 0.0).all() and beyond[mask.interior].any()
        assert ((out[mask.interior] >= 0.0) & (out[mask.interior] <= 1.0)).all()
        assert out[mask.interior].max() == 1.0


class TestMeasureExperiment:
    def test_cone_law(self, tmp_path):
        cfg = ExperimentConfig.from_json({
            "kind": "measure",
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "resolutions": [64],
            "seed": 3,
            "params": {
                "u": {"name": "cone"},
                "eps_list": [0.12, 0.08, 0.05],
                "balls": {"explicit": [[[0.0, 0.0], 0.3], [[0.0, 0.0], 0.5]]},
                "law": "cone",
            },
        })
        man = run_experiment(cfg, tmp_path / "m")
        assert man["passed"]

    @pytest.mark.parametrize("raw", [
        {"domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
         "resolutions": [32], "seed": 2,
         "params": {"u": {"name": "cone"}, "route": "sweep", "levels": [[2, 0.0625]],
                    "balls": {"explicit": [[[0.0, 0.0], 0.3], [[0.1, 0.0], 0.5]]}}},
        {"domain": {"kind": "interval", "bounds": [-1.0, 1.0]},
         "resolutions": [100], "seed": 4,
         "params": {"u": {"name": "cone"}, "eps_list": [0.12, 0.06, 0.03],
                    "balls": {"count": 4, "r_min": 0.1, "r_max": 0.3}}},
    ], ids=["sweep-route", "interval-seeded-balls"])
    def test_determinism_byte_identical(self, tmp_path, raw):
        res = raw["resolutions"][0]
        for run in ("r1", "r2"):
            man = run_experiment(ExperimentConfig.from_json(dict(raw, kind="measure")),
                                 tmp_path / run)
            assert man["passed"]
        table = f"measure_res{res}.csv"
        assert read_bytes(tmp_path / "r1" / table) == read_bytes(tmp_path / "r2" / table)
        assert len((tmp_path / "r1" / table).read_text().splitlines()) > 2   # header + balls


class TestPerronExperiment:
    def test_sweep_run(self, tmp_path):
        cfg = ExperimentConfig.from_json({
            "kind": "perron",
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "resolutions": [32],
            "params": {"u": {"name": "cone"}, "levels": [2]},
        })
        man = run_experiment(cfg, tmp_path / "p")
        assert man["passed"]
        assert (tmp_path / "p" / "sweep_res32_j2.csv").exists()

    def test_uncovered_cells_fail_the_run(self, tmp_path):
        cfg = ExperimentConfig.from_json({
            "kind": "perron",
            "domain": {"kind": "annulus", "center": [0.0, 0.0], "radius": 1.0,
                       "inner_radius": 0.5},
            "resolutions": [32],
            "params": {"u": {"name": "cone"}, "levels": [2]},
        })
        man = run_experiment(cfg, tmp_path / "p")
        verdicts = {a["name"]: a for a in man["assertions"]}
        assert verdicts["monotone_res32_j2"]["passed"]
        assert not verdicts["covered_res32_j2"]["passed"] and not man["passed"]
        assert verdicts["covered_res32_j2"]["detail"].startswith("716 target cells")


class TestHarnackExperiment:
    def test_peak_family_increasing(self, tmp_path):
        cfg = ExperimentConfig.from_json({
            "kind": "harnack",
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "resolutions": [32],
            "params": {"r": 0.9, "expect_increasing": True,
                       "family": [{"name": "boundary_peak", "M": m}
                                  for m in (2, 4, 8)]},
        })
        man = run_experiment(cfg, tmp_path / "h")
        assert man["passed"]
        assert (tmp_path / "h" / "harnack_ratios.csv").exists()
        assert (tmp_path / "h" / "psi_0.csv").exists()


class TestDirichletExperiment:
    def test_ring_pipeline(self, tmp_path):
        cfg = ExperimentConfig.from_json({
            "kind": "dirichlet",
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "resolutions": [32],
            "params": {
                "measure": {"curves": [{"center": [0.0, 0.0], "radius": 0.5,
                                        "lambda": 0.5}]},
                "phi": {"name": "zero"},
                "deltas": [0.4, 0.25, 0.15, 0.1],
                "check_balls": [[[0.0, 0.0], 0.3], [[0.0, 0.0], 0.7]],
            },
        })
        man = run_experiment(cfg, tmp_path / "d")
        assert man["passed"]
        assert man["outputs"] == ["limit_field.json", "limit_field.npy", "mass_check.csv",
                                  "stages.csv"]
        u = ScalarField.load(tmp_path / "d" / "limit_field.json")
        mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 32)[1]
        assert u.finite[mask.interior].all() and not u.defined[mask.exterior].any()
        stages = (tmp_path / "d" / "stages.csv").read_text().splitlines()
        assert stages[0] == ("delta,eps,iters,residual,min_u,max_u,"
                             "monotonicity_violations")
        assert len(stages) == 5


class TestReport:
    def test_report_aggregates(self, tmp_path):
        main(["verify", "--out", str(tmp_path / "v1")])
        cfg = ExperimentConfig.from_json({"kind": "report", "domain": {},
                                          "resolutions": [1],
                                          "params": {"root": str(tmp_path)}})
        man = run_experiment(cfg, tmp_path / "rep")
        assert man["passed"]
        text = (tmp_path / "rep" / "report.csv").read_text()
        assert "mollify_preserves_constants" in text

    def test_unreadable_manifest_fails_the_report(self, tmp_path):
        (tmp_path / "v1").mkdir()
        (tmp_path / "v1" / "manifest.json").write_text('{"kind": "verify", "asser')   # truncated
        cfg = ExperimentConfig.from_json({"kind": "report", "domain": {},
                                          "resolutions": [1],
                                          "params": {"root": str(tmp_path)}})
        man = run_experiment(cfg, tmp_path / "rep")
        assert not man["passed"]
        with open(tmp_path / "rep" / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[:4] for r in rows] == [[str(tmp_path / "v1"), "?", "manifest_readable", "0"]]
        assert rows[0][4].startswith("JSONDecodeError")

    @pytest.mark.parametrize("content, error", [
        ("[1, 2]", "AttributeError"),
        ('{"kind": "verify", "assertions": [{"name": "a", "passed": true}]}', "KeyError"),
    ], ids=["list", "assertion-without-detail"])
    def test_malformed_manifest_fails_the_report(self, tmp_path, content, error):
        (tmp_path / "v1").mkdir()
        (tmp_path / "v1" / "manifest.json").write_text(content)
        cfg = ExperimentConfig.from_json({"kind": "report", "domain": {},
                                          "resolutions": [1],
                                          "params": {"root": str(tmp_path)}})
        man = run_experiment(cfg, tmp_path / "rep")
        assert not man["passed"]
        with open(tmp_path / "rep" / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[:4] for r in rows] == [[str(tmp_path / "v1"), "?", "manifest_well_formed",
                                          "0"]]
        assert rows[0][4].startswith(error)

    def test_root_without_manifest_fails_the_report(self, tmp_path):
        cfg = ExperimentConfig.from_json({"kind": "report", "domain": {},
                                          "resolutions": [1],
                                          "params": {"root": str(tmp_path / "empty")}})
        man = run_experiment(cfg, tmp_path / "rep")
        assert not man["passed"]
        assert man["assertions"][0]["detail"].startswith("no manifest was found")
