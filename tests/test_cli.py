"""Command-line interface: dispatch, exit codes, output determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from plumefront.cli import dispatch


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_boundary_success(self, capsys):
        code, out, err = run_cli(
            ["boundary", "--profile", "gaussian", "--nu", "1", "--epsilon", "0.1", "--t", "4"],
            capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.2984, abs=0.005)
        assert "resolved config" in err

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(["mystery"], capsys)
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["boundary", "--frobnicate", "1"], capsys)
        assert code == 1

    def test_missing_input_is_data_error(self, capsys):
        code, _, err = run_cli(["estimate", "--input", "no-such-file.csv"], capsys)
        assert code == 2
        assert "error" in err

    def test_conflicting_thresholds_are_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["boundary", "--epsilon", "0.1", "--tau-min", "0.5", "--t", "1"], capsys
        )
        assert code == 1

    def test_domain_error_is_exit_two(self, capsys):
        code, _, _ = run_cli(
            ["boundary", "--nu", "-1", "--epsilon", "0.1", "--t", "1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--profile", "gaussian", "--r", "nan,1", "--t", "1"],
        ["--profile", "gaussian", "--r", "1", "--t", "inf"],
        ["--profile", "kummer", "--coeffs", "1", "--r", "inf", "--t", "1"],
        ["--profile", "bessel", "--r", "nan", "--t", "1"],
        ["--profile", "decaying", "--lam", "1", "--r", "1", "--t", "nan"],
    ])
    def test_non_finite_field_argument_is_exit_two(self, capsys, argv):
        code, out, err = run_cli(["field", "--nu", "1", *argv], capsys)
        assert code == 2
        assert "nan" not in out and "finite" in err

    def test_bad_horizon_is_usage_error(self, capsys):
        code, _, _ = run_cli(["exposure", "--r", "1", "--horizon", "soon"], capsys)
        assert code == 1

    def test_non_numeric_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("distance_km,outcome\n1.0,2.0\n2.0,oops\n3.0,1.0\n")
        code, _, err = run_cli(["estimate", "--input", str(path)], capsys)
        assert code == 2
        assert "row 3" in err


class TestFieldCommand:
    def test_gaussian_values(self, capsys):
        code, out, _ = run_cli(
            ["field", "--profile", "gaussian", "--nu", "1", "--q", "1",
             "--r", "0,2", "--t", "1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r_km,t,value,d_dr,d_dt"
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx((4 * math.pi) ** -1.5, rel=1e-9)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["field", "--profile", "gaussian", "--r", "1", "--t", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["r_km"] == 1.0


class TestMomentsExposure:
    def test_moment_values(self, capsys):
        code, out, _ = run_cli(["moments", "--nu", "1", "--q", "1", "--t", "2", "--k", "0,2"], capsys)
        assert code == 0
        rows = {tuple(line.split(",")[:2]): float(line.split(",")[2])
                for line in out.strip().splitlines()[1:]}
        assert rows[("0", "2")] == pytest.approx(1.0, rel=1e-6)
        assert rows[("2", "2")] == pytest.approx(12.0, rel=1e-6)

    def test_exposure_closed_form(self, capsys):
        code, out, _ = run_cli(["exposure", "--nu", "1", "--q", "1", "--r", "1"], capsys)
        assert code == 0
        val = float(out.strip().splitlines()[1].split(",")[-1])
        assert val == pytest.approx(1.0 / (4 * math.pi), rel=1e-6)


class TestEstimateCommand:
    @pytest.fixture()
    def decay_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        d = 100.0 * (1.0 - rng.random(500))
        y = np.exp(1.0 - 0.05 * d + 0.2 * rng.standard_normal(500))
        path = tmp_path / "data.csv"
        lines = ["distance_km,outcome"] + [f"{a},{b}" for a, b in zip(d, y)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_loglinear_estimate(self, decay_csv, capsys):
        code, out, _ = run_cli(
            ["estimate", "--input", str(decay_csv), "--robust-cutoff", "50"], capsys
        )
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["kappa_per_km"]) == pytest.approx(0.05, abs=0.005)
        assert record["se_spatial"] != "none"
        assert float(record["d_star_km"]) == pytest.approx(46.05, rel=0.1)

    def test_nonparametric_estimate(self, decay_csv, capsys):
        code, out, _ = run_cli(
            ["estimate", "--input", str(decay_csv), "--method", "nonparametric",
             "--n-boot", "50", "--seed", "3"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["method"] == "nonparametric"
        assert float(record["bandwidth_km"]) > 0


    @pytest.mark.parametrize("bandwidth", ["inf", "abc"])
    def test_bad_bandwidth_is_domain_error(self, decay_csv, capsys, bandwidth):
        code, out, err = run_cli(
            ["estimate", "--input", str(decay_csv), "--method", "nonparametric",
             "--bandwidth", bandwidth], capsys
        )
        assert code == 2 and out == ""
        assert "bandwidth" in err

    def test_cv_without_admissible_bandwidth_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        d = np.concatenate([rng.uniform(0, 0.01, 100), rng.uniform(100, 100.01, 100)])
        y = 1.0 + 0.1 * rng.standard_normal(200)
        data = tmp_path / "clusters.csv"
        data.write_text("distance_km,outcome\n" + "".join(f"{a},{b}\n" for a, b in zip(d, y)))
        code, out, err = run_cli(
            ["estimate", "--input", str(data), "--method", "nonparametric",
             "--bandwidth", "auto-cv"], capsys
        )
        assert code == 2 and out == ""
        assert "cross-validation" in err

    @staticmethod
    def _strong_decay_csv(tmp_path):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 500, 1)
        data = tmp_path / "d.csv"
        data.write_text("distance_km,outcome\n"
                        + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(d, y)))
        return str(data)

    def test_bandwidth_whose_sums_leave_the_float_range_exits_2(self, tmp_path, capsys):
        # it printed a flat curve's boundary_km (none) with exit 0
        argv = ["estimate", "--input", self._strong_decay_csv(tmp_path), "--method",
                "nonparametric", "--bandwidth"]
        code, out, err = run_cli([*argv, "1e300"], capsys)
        assert code == 2 and out == ""
        assert "bandwidth 1e+300 is too large: the local-linear sums leave the float range" in err
        code, wide, _ = run_cli([*argv, "1e100"], capsys)
        code_155, out_155, _ = run_cli([*argv, "1e155"], capsys)
        assert code == code_155 == 0
        assert out_155.replace("1e+155", "1e+100") == wide

    @pytest.mark.parametrize("cutoff", ["99.7", "1e300"])
    def test_robust_cutoff_beyond_the_span_exits_2(self, decay_csv, capsys, cutoff):
        # at 1e300 it printed a zero-width interval with exit 0
        code, out, err = run_cli(
            ["estimate", "--input", str(decay_csv), "--robust-cutoff", cutoff], capsys
        )
        assert code == 2 and out == ""
        assert "robust_cutoff must be below the span of the distances" in err

    @pytest.mark.parametrize("bandwidth", ["1e-20", "1e-300"])
    def test_bandwidth_below_the_float_spacing_exits_2(self, tmp_path, capsys, bandwidth):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 500, 1)
        data = tmp_path / "d.csv"
        data.write_text("distance_km,outcome\n"
                        + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(d, y)))
        code, out, err = run_cli(
            ["estimate", "--input", str(data), "--method", "nonparametric",
             "--bandwidth", bandwidth], capsys
        )
        assert code == 2 and out == ""
        assert "bandwidth too small: every window is empty" in err

    def test_subnormal_bandwidth_exits_2_with_no_warning(self, tmp_path, capsys):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 500, 1)
        data = tmp_path / "d.csv"
        data.write_text("distance_km,outcome\n"
                        + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(d, y)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # what a command line would print to stderr
            code, out, err = run_cli(
                ["estimate", "--input", str(data), "--method", "nonparametric",
                 "--bandwidth", "5e-324"], capsys
            )
        assert code == 2 and out == ""
        assert "bandwidth too small: every window is empty" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught

    def test_infinite_robust_cutoff_exits_2(self, decay_csv, capsys):
        code, out, err = run_cli(
            ["estimate", "--input", str(decay_csv), "--robust-cutoff", "inf"], capsys
        )
        assert code == 2 and out == ""
        assert "robust_cutoff must be > 0 and finite" in err

    def test_non_finite_outcome_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        d = 100.0 * (1.0 - rng.random(300))
        y = np.exp(1.0 - 0.05 * d + 0.2 * rng.standard_normal(300))
        rows = [f"{a},{b}" for a, b in zip(d, y)]
        rows[17] = f"{d[17]},inf"
        data = tmp_path / "inf.csv"
        data.write_text("distance_km,outcome\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(
            ["estimate", "--input", str(data), "--method", "both", "--n-boot", "20"], capsys
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("argv", [["diagnose"], ["estimate", "--method", "both"]],
                             ids=["diagnose", "estimate"])
    def test_constant_outcomes_are_data_error(self, tmp_path, capsys, argv):
        d = np.random.default_rng(0).uniform(0, 100, 200)
        data = tmp_path / "flat.csv"
        data.write_text("distance_km,outcome\n" + "".join(f"{a},0.5\n" for a in d))
        code, out, err = run_cli([*argv, "--input", str(data)], capsys)
        assert code == 2 and out == ""
        # after the resolved-config echo, one error line and no numpy warnings
        assert err.splitlines()[1:] == ["error: outcomes do not vary (every value is 0.5)"]


class TestOtherProfilesAndReports:
    def test_decaying_profile_field_and_boundary(self, capsys):
        code, out, _ = run_cli(
            ["field", "--profile", "decaying", "--nu", "1", "--q", "1", "--lam", "0.5",
             "--r", "1,2", "--t", "2"],
            capsys,
        )
        assert code == 0
        vals = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert vals[0] > vals[1] > 0
        code, out, _ = run_cli(
            ["boundary", "--profile", "decaying", "--nu", "1", "--q", "1", "--lam", "1",
             "--tau-min", "1e-6", "--t", "30"],
            capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(9.08, abs=0.3)

    @pytest.mark.parametrize("profile", [["decaying", "--lam", "1"], ["bessel"]])
    def test_relative_threshold_on_divergent_profile_is_exit_two(self, capsys, profile):
        code, out, err = run_cli(
            ["boundary", "--profile", *profile, "--fraction", "0.3", "--t", "2"], capsys
        )
        assert code == 2
        assert out == ""
        assert "relative modes need a finite source value" in err

    def test_kummer_profile(self, capsys):
        code, out, _ = run_cli(
            ["field", "--profile", "kummer", "--nu", "1", "--coeffs", "1",
             "--r", "0", "--t", "1"],
            capsys,
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(1.0)

    def test_finite_horizon_exposure(self, capsys):
        from scipy.special import erfc

        code, out, _ = run_cli(
            ["exposure", "--nu", "1", "--q", "1", "--r", "1.5", "--horizon", "3"], capsys
        )
        assert code == 0
        val = float(out.strip().splitlines()[1].split(",")[-1])
        expected = erfc(1.5 / (2.0 * math.sqrt(3.0))) / (4.0 * math.pi * 1.5)
        assert val == pytest.approx(expected, rel=1e-6)

    def test_estimate_both_with_curve(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        d = 100.0 * (1.0 - rng.random(400))
        y = np.exp(1.0 - 0.05 * d + 0.2 * rng.standard_normal(400))
        data = tmp_path / "d.csv"
        data.write_text("distance_km,outcome\n" + "".join(f"{a},{b}\n" for a, b in zip(d, y)))
        curve = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            ["estimate", "--input", str(data), "--method", "both", "--n-boot", "30",
             "--curve-out", str(curve)],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + two method rows
        assert curve.read_text().startswith("distance_km,m_hat")

    def test_diagnose_with_split(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        d = 200.0 * (1.0 - rng.random(2000))
        log_mean = np.where(d < 100.0, -0.00112 * d, -0.112 + 0.00123 * (d - 100.0))
        y = np.exp(1.0 + log_mean + 0.35 * rng.standard_normal(2000))
        data = tmp_path / "d.csv"
        data.write_text("distance_km,outcome\n" + "".join(f"{a},{b}\n" for a, b in zip(d, y)))
        code, out, err = run_cli(
            ["diagnose", "--input", str(data), "--bins", "6", "--split", "100"], capsys
        )
        assert code == 0
        assert "sign_reversal=true" in err
        assert len(out.strip().splitlines()) == 7  # header + 6 bins


class TestMontecarloCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        args = ["montecarlo", "--dgp", "flat", "--reps", "10", "--n", "300",
                "--seed", "7", "--methods", "parametric"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(out_a)]) == 0
        assert dispatch(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unknown_dgp_is_usage_error(self, capsys):
        code, _, _ = run_cli(["montecarlo", "--dgp", "cosmic", "--reps", "10"], capsys)
        assert code == 1

    def test_input_files_not_mutated(self, tmp_path, capsys):
        src = tmp_path / "sources.csv"
        obs = tmp_path / "obs.csv"
        src.write_text("id,lat,lon,capacity_mw\np,30,-95,500\n")
        obs.write_text(
            "lat,lon,period,outcome\n"
            + "".join(f"30.1,-95,2019-{m:02d},1.0\n" for m in range(1, 13))
        )
        before = (src.read_bytes(), obs.read_bytes())
        code, _, _ = run_cli(
            ["ingest", "--sources", str(src), "--observations", str(obs),
             "--out", str(tmp_path / "sample.csv")],
            capsys,
        )
        assert code == 0
        assert (src.read_bytes(), obs.read_bytes()) == before


class TestConfigFile:
    def test_config_fills_defaults_flags_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epsilon": 0.1, "t": "4", "nu": 4.0}))
        # flag --nu 1 overrides the config's nu = 4
        code, out, _ = run_cli(
            ["boundary", "--config", str(config), "--nu", "1"], capsys
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.2984, abs=0.005)

    def test_config_value_used_when_flag_absent(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epsilon": 0.1, "t": "1"}))
        code, out, _ = run_cli(["boundary", "--config", str(config)], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.6492, abs=0.003)

    def test_config_accepts_json_numbers_and_lists(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epsilon": 0.1, "t": [1, 4]}))
        code, out, _ = run_cli(["boundary", "--config", str(config)], capsys)
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values[1] == pytest.approx(2.0 * values[0], rel=1e-9)

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"nonsense": 1}))
        code, _, _ = run_cli(["boundary", "--config", str(config), "--epsilon", "0.1", "--t", "1"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "command, config",
        [
            ("boundary", {"nu": "abc", "epsilon": 0.1, "t": "4"}),
            ("montecarlo", {"reps": 10.5}),
            ("boundary", {"nu": True, "epsilon": 0.1, "t": "4"}),
            ("boundary", {"nu": [1, 2], "epsilon": 0.1, "t": "4"}),
            ("boundary", {"func": 1, "epsilon": 0.1, "t": "4"}),
            ("boundary", {"command": "field", "epsilon": 0.1, "t": "4"}),
            ("boundary", {"format": "xml", "epsilon": 0.1, "t": "4"}),
        ],
        ids=["text-for-float", "float-for-int", "bool-for-float", "list-for-float", "func",
             "command", "format-not-a-choice"],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, command, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli([command, "--config", str(path)], capsys)
        assert code == 1 and out == ""

    def test_config_method_outside_choices_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("distance_km,outcome\n" + "".join(f"{d},{2.0 - 0.01 * d}\n"
                                                         for d in range(1, 101)))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"method": "bogus"}))
        code, out, err = run_cli(["estimate", "--input", str(data), "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert "usage error" in err and "method" in err

    def test_abbreviated_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epsilon": 0.1, "t": "4", "nu": 4.0}))
        code, out, _ = run_cli(
            ["boundary", "--config", str(config), "--eps", "0.5", "--nu", "1"], capsys
        )
        assert code == 0
        assert out == "3.330218445\n"

    @pytest.mark.parametrize("argv, config", [
        (["boundary", "--epsilon", "0.1", "--t", "4"], {"profile": "exotic"}),
        (["boundary", "--epsilon", "0.1", "--t", "4", "--nu", "abc"], {}),
        (["boundary"], {"f": 0.1, "t": "4"}),  # --f could be --fraction or --format
    ], ids=["profile-not-a-choice", "flag-not-a-float", "ambiguous-key"])
    def test_usage_problem_is_one_line_and_exit_one(self, tmp_path, capsys, argv, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli([*argv, "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_config_keys_read_as_flags(self, tmp_path, capsys):
        runs = {}
        for name, config in [("plain", {"epsilon": 0.1, "t": "4"}),
                             ("null", {"epsilon": 0.1, "t": "4", "nu": None}),
                             ("abbreviated", {"eps": 0.1, "t": "4"})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            runs[name] = run_cli(["boundary", "--config", str(path)], capsys)[:2]
        # a null keeps the option's default, and an abbreviation argparse accepts is its flag
        assert runs["null"] == runs["abbreviated"] == runs["plain"] == (0, "1.298371384\n")

    def test_bad_json_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        code, _, _ = run_cli(["boundary", "--config", str(config), "--epsilon", "0.1", "--t", "1"], capsys)
        assert code == 2


class TestIngestCommand:
    def test_end_to_end(self, tmp_path, capsys):
        src = tmp_path / "sources.csv"
        obs = tmp_path / "obs.csv"
        src.write_text(
            "id,lat,lon,capacity_mw\nbig,30,-95,500\nsmall,30.5,-95.5,90\n"
        )
        rows = ["lat,lon,period,outcome"]
        rows += [f"30.1,-95.0,2019-{m:02d},2.5" for m in range(1, 13)]
        rows += ["45.0,-95.0,2019-01,9.9"]  # far away: dropped by distance
        obs.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            ["ingest", "--sources", str(src), "--observations", str(obs)], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13  # header + 12 kept months
        assert all(line.split(",")[4] == "big" for line in lines[1:])

    @staticmethod
    def _round_trip(tmp_path, capsys, source_id, delimiter):
        """ingest with one source named source_id and observations delimited by
        delimiter, then estimate on its output: (the rows csv reads back from
        the ingest output, the estimate output)."""
        import csv

        src, obs, sample = (tmp_path / name for name in ("sources.csv", "obs.txt", "out.csv"))
        with open(src, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("id", "lat", "lon", "capacity_mw"),
                                      (source_id, 30, -95, 500)])
        rows = [("lat", "lon", "period", "outcome")]
        rows += [(30 + 0.1 * k, -95, f"2019-{m:02d}", math.exp(-0.1 * k) + 0.01 * (m % 3))
                 for k in range(1, 16) for m in range(1, 13)]
        obs.write_text("".join(delimiter.join(map(str, row)) + "\n" for row in rows))
        code, _, _ = run_cli(["ingest", "--sources", str(src), "--observations", str(obs),
                              "--out", str(sample)], capsys)
        assert code == 0
        with open(sample, newline="", encoding="utf-8") as fh:
            read = list(csv.DictReader(fh, delimiter=delimiter))
        code, out, err = run_cli(["estimate", "--input", str(sample)], capsys)
        assert (code, err.count("error")) == (0, 0)
        return read, out

    @pytest.mark.parametrize("delimiter, source_id", [
        (",", "Plant, Unit 1"), ("\t", "Plant\tUnit 1"), (",", '"A" plant'), ("\t", '"A" plant'),
    ], ids=["comma", "tab", "leading-quote", "leading-quote-tab"])
    def test_ids_that_need_quotes_survive_a_round_trip(self, tmp_path, capsys, delimiter,
                                                       source_id):
        read, out = self._round_trip(tmp_path, capsys, source_id, delimiter)
        plain_read, plain_out = self._round_trip(tmp_path, capsys, "plain", delimiter)
        assert len(read) == 180 and {row["nearest_source_id"] for row in read} == {source_id}
        assert [row["distance_km"] for row in read] == [row["distance_km"] for row in plain_read]
        assert out == plain_out

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_fields_are_quoted_as_csv_quotes_them(self, tmp_path, delimiter):
        import csv
        import io

        from plumefront.cli import _write_table

        ids = ["a", "a,b", 'a"b', '"A" plant', "a\tb", "a\nb", "a\rb", " a", "", "none"]
        xs = [0.1 * i for i in range(len(ids))]
        _write_table({"id": ids, "x": xs, "n": list(range(len(ids)))}, tmp_path / "t.csv",
                     "csv", delimiter)
        lines = []
        rows = [(a, f"{x:.10g}", n) for n, (a, x) in enumerate(zip(ids, xs))]
        for row in [("id", "x", "n")] + rows:
            buf = io.StringIO()  # csv's own dialect, whose line end "\r\n" quotes "\r" too
            csv.writer(buf, delimiter=delimiter).writerow(row)
            lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
        assert (tmp_path / "t.csv").read_bytes().decode() == "".join(lines)


class TestFunctionalArguments:
    @pytest.mark.parametrize("argv", [
        ["exposure", "--profile", "kummer", "--r", "1"],
        ["moments", "--profile", "kummer", "--t", "1"],
    ])
    def test_divergent_integral_is_exit_two(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "did not converge" in err and out == ""

    @pytest.mark.parametrize("profile,k", [
        (["--profile", "bessel"], "400"),
        (["--profile", "kummer"], "400"),
        (["--profile", "decaying", "--lam", "1"], "400"),
        (["--profile", "decaying", "--lam", "1"], "200"),
    ], ids=["bessel", "kummer", "decaying-400", "decaying-200"])
    def test_moment_whose_power_overflows_is_exit_two(self, capsys, profile, k):
        # the quadrature integrand r^k tau raises OverflowError past the floats
        code, out, err = run_cli(["moments", *profile, "--k", k, "--t", "1"], capsys)
        assert code == 2 and out == ""
        assert f"moment k={k} at t=1.0 overflows" in err

    def test_nan_horizon_is_exit_two(self, capsys):
        code, out, err = run_cli(["exposure", "--r", "1", "--horizon", "nan"], capsys)
        assert code == 2
        assert "horizon" in err and out == ""

    @pytest.mark.parametrize("k", ["2.5", "nan", "inf", "0,-2"])
    def test_moment_order_must_be_a_non_negative_integer(self, capsys, k):
        code, out, err = run_cli(["moments", "--t", "1", "--k", k], capsys)
        assert code == 1
        assert "usage error" in err and out == ""


class TestFieldEdges:
    @pytest.mark.parametrize("t", ["1e-163", "1e300"])
    def test_gaussian_underflow_prints_zero(self, capsys, t):
        code, out, _ = run_cli(["field", "--r", "1", "--t", t], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "0"

    @pytest.mark.parametrize("t", ["1e-300", "1e-320"])
    def test_bessel_rows_hold_no_nan(self, capsys, t):
        code, out, _ = run_cli(["field", "--profile", "bessel", "--r", "1,1e-150", "--t", t],
                               capsys)
        assert code == 0
        assert "nan" not in out and len(out.splitlines()) == 3

    @pytest.mark.parametrize("argv", [
        ["--nu", "inf"],
        ["--q", "inf"],
        ["--profile", "bessel", "--amplitude", "inf"],
        ["--profile", "kummer", "--coeffs", "nan"],
    ])
    def test_non_finite_parameter_is_exit_two(self, capsys, argv):
        code, out, err = run_cli(["field", "--r", "1", "--t", "1", *argv], capsys)
        assert code == 2
        assert out == "" and "finite" in err

    # the decaying source's exposure goes through quadrature, the Gaussian's is closed
    DECAYING = ["--profile", "decaying", "--lam", "1"]

    def test_exposure_whose_time_underflows_is_exit_two(self, capsys):
        code, out, _ = run_cli(["exposure", "--r", "1e-300", *self.DECAYING], capsys)
        assert code == 2 and out == ""

    def test_exposure_whose_integrand_underflows_is_exit_two(self, capsys):
        code, out, err = run_cli(["exposure", "--r", "1e110", *self.DECAYING], capsys)
        assert code == 2 and out == "" and "underflows" in err

    def test_exposure_whose_field_is_subnormal_is_exit_two(self, capsys):
        # the field at s = 1 underflows, where QUADPACK would integrate rounding noise
        code, out, err = run_cli(["exposure", "--r", "1e103", *self.DECAYING], capsys)
        assert code == 2 and out == "" and "underflows" in err

    @pytest.mark.parametrize("r", ["1e-300", "1e103", "1e110"])
    def test_gaussian_exposure_at_extreme_radii_is_the_closed_form(self, capsys, r):
        code, out, _ = run_cli(["exposure", "--r", r], capsys)
        assert code == 0
        exposure = float(out.splitlines()[1].split(",")[3])
        assert exposure == pytest.approx(1.0 / (4.0 * math.pi * float(r)), rel=1e-9)

    @pytest.mark.parametrize("argv", [["--n-boot", "0"], ["--fraction", "1.5"], ["--methods", ","],
                                      ["--methods", "parametric,parametric"]])
    def test_bad_montecarlo_argument_is_exit_two(self, capsys, argv):
        code, out, _ = run_cli(["montecarlo", "--dgp", "flat", "--reps", "10", "--n", "300",
                                *argv], capsys)
        assert code == 2 and out == ""


class TestParserRules:
    """Presence, exclusivity and list types are the parser's: a usage error is
    one line, before any config echo."""

    @pytest.mark.parametrize("argv, missing", [
        (["field", "--t", "1"], "--r"),
        (["field", "--r", "1"], "--t"),
        (["boundary", "--epsilon", "0.1"], "--t"),
        (["moments"], "--t"),
        (["exposure"], "--r"),
        (["estimate"], "--input"),
        (["diagnose", "--bins", "4"], "--input"),
        (["ingest", "--observations", "obs.csv"], "--sources"),
        (["ingest", "--sources", "src.csv"], "--observations"),
        (["boundary", "--t", "1"], "--epsilon --fraction --tau-min"),
    ], ids=["field-r", "field-t", "boundary-t", "moments-t", "exposure-r", "estimate-input",
            "diagnose-input", "ingest-sources", "ingest-observations", "boundary-threshold"])
    def test_missing_required_option_is_one_usage_line(self, capsys, argv, missing):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert missing in err and "resolved config" not in err

    @pytest.mark.parametrize("argv", [
        ["field", "--r", ",", "--t", "1"],
        ["field", "--r", "1", "--t", ""],
        ["field", "--profile", "kummer", "--coeffs", "", "--r", "1", "--t", "1"],
        ["moments", "--t", "1", "--k", ","],
        ["field", "--r", "1,a", "--t", "1"],
        ["moments", "--t", "1", "--k", "two"],
    ], ids=["empty-r", "empty-t", "empty-coeffs", "empty-k", "text-r", "text-k"])
    def test_empty_or_non_numeric_list_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage error: argument --") and err.count("\n") == 1

    def test_config_threshold_and_flag_threshold_conflict(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"epsilon": 0.1, "t": "4"}))
        code, out, err = run_cli(["boundary", "--config", str(path), "--tau-min", "0.01"],
                                 capsys)
        assert code == 1 and out == ""
        assert err == "usage error: argument --tau-min: not allowed with argument --epsilon\n"

    def test_echo_shows_parsed_values(self, capsys):
        code, _, err = run_cli(["exposure", "--r", "1,2", "--horizon", "10"], capsys)
        assert code == 0
        config = json.loads(err.removeprefix("# resolved config: "))
        assert config["r"] == [1.0, 2.0] and config["horizon"] == 10.0
        assert config["coeffs"] == [1.0]
        code, _, err = run_cli(["moments", "--t", "4"], capsys)
        assert code == 0
        assert '"k": [0, 2, 4]' in err and '"t": [4.0]' in err

    def test_one_full_parse_with_a_config(self, tmp_path, capsys, monkeypatch):
        from plumefront import cli

        parses = []
        build = cli.build_parser

        def counting_parser():
            parser = build()
            parse = parser.parse_args
            parser.parse_args = lambda argv: parses.append(argv) or parse(argv)
            return parser

        monkeypatch.setattr(cli, "build_parser", counting_parser)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"epsilon": 0.1, "t": "4"}))
        code, out, _ = run_cli(["boundary", "--config", str(path), "--nu", "1"], capsys)
        assert (code, out) == (0, "1.298371384\n")
        assert parses == [["boundary", "--epsilon=0.1", "--t=4", "--config", str(path),
                           "--nu", "1"]]

    def test_help_shows_required_options(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "300")
        code, out, err = run_cli(["boundary", "--help"], capsys)
        assert code == 0 and err == ""
        usage = out.splitlines()[0]
        assert " --t T " in usage and "[--t T]" not in usage
        assert "(--epsilon EPSILON | --fraction FRACTION | --tau-min TAU_MIN)" in usage

    def test_decaying_profile_without_lam_is_usage_error(self, capsys):
        for lam in ([], ["--lam", "0"]):
            code, out, err = run_cli(["field", "--profile", "decaying", "--r", "1", "--t", "1",
                                      *lam], capsys)
            assert code == 1 and out == ""
            assert err.splitlines()[1:] == ["usage error: --lam > 0 is required for the "
                                            "decaying profile"]


class TestConfigFileErrors:
    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys):
        code, out, err = run_cli(["boundary", "--config", str(tmp_path / "missing.json")],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1

    def test_config_that_is_not_an_object_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli(["boundary", "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == "error: config file must contain a JSON object\n"


class TestMontecarloPerRep:
    def test_per_replication_table(self, tmp_path, capsys):
        per_rep = tmp_path / "reps.csv"
        code, out, _ = run_cli(["montecarlo", "--dgp", "flat", "--reps", "10", "--n", "300",
                                "--n-boot", "20", "--per-rep", str(per_rep)], capsys)
        assert code == 0
        summary = out.splitlines()
        assert len(summary) == 3  # header + one row per method
        assert "bias_km" in summary[0].split(",") and "rmse_km" in summary[0].split(",")
        lines = per_rep.read_text().splitlines()
        assert lines[0] == "dgp_id,method,rep,seed,estimate_km,ci_lo_km,ci_hi_km,failed"
        assert len(lines) == 1 + 2 * 10  # 10 replications of each method
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["parametric"] * 10 + ["nonparametric"] * 10
        assert [int(r[2]) for r in rows[:10]] == list(range(10))

    def test_all_dgps(self, capsys):
        code, out, _ = run_cli(["montecarlo", "--dgp", "all", "--reps", "10", "--n", "300",
                                "--methods", "parametric"], capsys)
        assert code == 0
        dgps = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert dgps == ["strong_decay", "weak_decay", "hump", "flat"]


class TestDeclineGateWithoutBins:
    def test_gate_that_cannot_run_is_exit_two(self, tmp_path, capsys):
        from plumefront.montecarlo import STANDARD_DGPS, generate_dgp

        # 400 bins of about 0.25 km: no bin centre lies within 0.05 km of either endpoint
        d, y = generate_dgp(STANDARD_DGPS["strong_decay"], 2000, 3)
        data = tmp_path / "d.csv"
        data.write_text("distance_km,outcome\n"
                        + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(d, y)))
        code, out, err = run_cli(["estimate", "--input", str(data), "--method",
                                  "nonparametric", "--bandwidth", "0.05"], capsys)
        assert code == 2 and out == ""
        (line,) = err.splitlines()[1:]
        assert line.startswith("error: decline gate: ") and "0.05 km" in line
