"""End-to-end runs: CSV/SVG emission, sweeps, and the command-line front end."""

import csv
import json
import math
import os

import pytest

from lexsim import (
    ConfigError,
    DomainError,
    load_config,
    run,
)
from lexsim.cli import main

GOLDEN_G = (3.0 - math.sqrt(5.0)) / 2.0
CONFIG_DIR = "configs"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_model(model, config_path, out, svg=None):
    cfg = load_config(config_path, model)
    cfg.output_path = str(out)
    if svg is not None:
        cfg.svg_path = str(svg)
    return run(cfg)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestEquilibriumOutput:
    HEADER = ["b_scale", "beta", "k_scale", "kappa", "delta_contracting",
              "delta_litigation", "g_star_baseline", "g_star_shocked",
              "g_star_change", "level", "residual", "iterations"]

    def test_golden_row(self, tmp_path):
        out = tmp_path / "eq.csv"
        result = run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_golden.json", out)
        assert result.rows == 1
        header, rows = read_csv(out)
        assert header == self.HEADER
        row = dict(zip(header, rows[0]))
        assert float(row["g_star_baseline"]) == pytest.approx(GOLDEN_G, abs=1e-9)
        assert row["g_star_shocked"] == row["g_star_baseline"]
        assert float(row["g_star_change"]) == 0.0
        assert float(row["residual"]) <= 1e-9

    def test_litigation_shock_lowers_completeness(self, tmp_path):
        out = tmp_path / "eq.csv"
        run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_shock.json", out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["delta_contracting"]) == 0.3
        assert float(row["g_star_shocked"]) > float(row["g_star_baseline"])

    def test_svg_written_on_request(self, tmp_path):
        out, svg = tmp_path / "eq.csv", tmp_path / "eq.svg"
        result = run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_golden.json", out, svg)
        assert result.svg_path == str(svg)
        text = svg.read_text()
        assert text.startswith("<svg ") and "<polyline" in text


class TestSettleOutput:
    def test_fixture_row(self, tmp_path):
        out = tmp_path / "settle.csv"
        run_model("settle", f"{CONFIG_DIR}/settle_fixture.json", out)
        header, rows = read_csv(out)
        assert header == ["index", "rule", "p_q", "p_g", "j", "c_q", "c_g",
                          "cost_reduction", "lower", "upper", "width", "outcome",
                          "amount", "shrink_ratio"]
        row = dict(zip(header, rows[0]))
        assert row["index"] == "0" and row["rule"] == "american"
        assert row["lower"] == "50" and row["upper"] == "60" and row["width"] == "10"
        assert row["outcome"] == "settle" and row["amount"] == "55"
        assert float(row["shrink_ratio"]) == pytest.approx(1.0 / 0.9, rel=1e-15)

    def test_reduction_rewrites_bounds_but_echoes_costs(self, tmp_path):
        payload = {"settle": {
            "rule": "american",
            "disputes": [{"p_q": 0.6, "p_g": 0.5, "j": 100.0, "c_q": 10.0, "c_g": 10.0}],
            "cost_reduction": 5.0,
        }}
        out = tmp_path / "settle.csv"
        run_model("settle", write_config(tmp_path, payload), out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["c_q"] == "10" and row["cost_reduction"] == "5"
        assert row["lower"] == "55" and row["upper"] == "55" and row["width"] == "0"
        assert row["outcome"] == "settle" and row["amount"] == "55"

    def test_trial_row_has_empty_amount(self, tmp_path):
        payload = {"settle": {
            "rule": "english",
            "disputes": [{"p_q": 0.6, "p_g": 0.5, "j": 100.0, "c_q": 10.0, "c_g": 10.0}],
            "cost_reduction": 5.0,
        }}
        out = tmp_path / "settle.csv"
        run_model("settle", write_config(tmp_path, payload), out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["outcome"] == "trial" and row["amount"] == ""
        assert float(row["width"]) == pytest.approx(-1.0, abs=1e-12)


class TestFrivolousOutput:
    def test_nuisance_rows(self, tmp_path):
        out = tmp_path / "friv.csv"
        run_model("frivolous", f"{CONFIG_DIR}/frivolous_nuisance.json", out)
        header, rows = read_csv(out)
        assert header == ["plaintiff_type", "belief", "filed", "defendant_action",
                          "plaintiff_followup", "plaintiff_payoff", "defendant_payoff",
                          "region_shift"]
        assert len(rows) == 2
        friv = dict(zip(header, rows[0]))
        merit = dict(zip(header, rows[1]))
        assert friv["plaintiff_type"] == "frivolous"
        assert friv["filed"] == "true" and friv["defendant_action"] == "settle"
        assert friv["plaintiff_payoff"] == "4" and friv["defendant_payoff"] == "-5"
        assert merit["plaintiff_type"] == "meritorious"
        assert merit["plaintiff_payoff"] == "4"
        # deltas are cost cuts; cheaper filing widens the extraction wedge
        assert friv["region_shift"] == "more_filings"


class TestEvolveOutput:
    def test_row_count_and_initial_state(self, tmp_path):
        out = tmp_path / "evolve.csv"
        run_model("evolve", f"{CONFIG_DIR}/evolve_tort.json", out)
        header, rows = read_csv(out)
        assert header == ["t", "fraction_efficient", "disputes", "settlements",
                          "trials", "frivolous_filings", "frivolous_settlements",
                          "frivolous_drops"]
        assert len(rows) == 201
        assert rows[0] == ["0", "0.5", "0", "0", "0", "0", "0", "0"]
        assert [r[0] for r in rows] == [str(t) for t in range(201)]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_model("evolve", f"{CONFIG_DIR}/evolve_tort.json", a)
        run_model("evolve", f"{CONFIG_DIR}/evolve_tort.json", b)
        assert a.read_bytes() == b.read_bytes()


class TestCompositionOutput:
    def test_rows_match_direct_shift(self, tmp_path):
        out = tmp_path / "comp.csv"
        run_model("composition", f"{CONFIG_DIR}/composition_docket.json", out)
        header, rows = read_csv(out)
        assert header == ["name", "old_share", "new_share", "unit_cost", "cost_after",
                          "relative_decline", "demand_elasticity"]
        byname = {r[0]: dict(zip(header, r)) for r in rows}
        assert set(byname) == {"civil", "contract", "tort"}
        tort = byname["tort"]
        assert float(tort["new_share"]) < float(tort["old_share"])
        assert tort["cost_after"] == "25"
        assert float(tort["relative_decline"]) == pytest.approx(5.0 / 30.0, rel=1e-15)
        civil = byname["civil"]
        assert float(civil["new_share"]) == pytest.approx(0.51589595375722543, rel=1e-12)


class TestSweepOutput:
    def test_litigation_delta_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_model("sweep", f"{CONFIG_DIR}/sweep_litigation_delta.json", out)
        header, rows = read_csv(out)
        assert header == ["equilibrium.shock.delta_litigation", "replicate", "seed",
                          "g_star", "g_star_change"]
        assert len(rows) == 6
        deltas = [float(r[0]) for r in rows]
        assert deltas == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        g_stars = [float(dict(zip(header, r))["g_star"]) for r in rows]
        assert all(a > b for a, b in zip(g_stars, g_stars[1:]))
        assert g_stars[0] == pytest.approx(GOLDEN_G, abs=1e-9)

    def test_replicates_vary_seed_not_grid(self, tmp_path):
        payload = {
            "seed": 40,
            "evolve": {
                "area": {"name": "negligence", "kind": "tort", "dispute_rate": 0.8,
                         "stakes_j": 100.0, "stakes_multiplier": 2.0, "cost_q": 18.0,
                         "cost_g": 18.0, "belief_spread": 0.4, "overturn_prob": 0.5},
                "population": {"n_rules": 50, "fraction_efficient": 0.5},
                "periods": 20,
            },
            "sweep": {
                "model": "evolve",
                "axes": [{"path": "evolve.periods", "values": [10, 20]}],
                "replicates": 3,
            },
        }
        out = tmp_path / "sweep.csv"
        run_model("sweep", write_config(tmp_path, payload), out)
        header, rows = read_csv(out)
        assert len(rows) == 6
        assert [r[header.index("replicate")] for r in rows] == ["0", "1", "2"] * 2
        assert [r[header.index("seed")] for r in rows] == ["40", "41", "42"] * 2

    def test_invalid_point_names_its_coordinates(self, tmp_path):
        payload = {
            "equilibrium": {"curve": {"b_scale": 1.0, "beta": 1.0,
                                      "k_scale": 1.0, "kappa": 1.0}},
            "sweep": {
                "model": "equilibrium",
                "axes": [{"path": "equilibrium.curve.k_scale", "values": [1.0, -1.0]}],
                "replicates": 1,
            },
        }
        out = tmp_path / "sweep.csv"
        with pytest.raises(ConfigError) as exc:
            run_model("sweep", write_config(tmp_path, payload), out)
        assert "sweep point" in str(exc.value)
        assert not out.exists()

    def test_every_point_is_validated_before_any_runs(self, tmp_path, monkeypatch):
        from lexsim import runner

        calls = []
        header, summarize = runner._SUMMARIES["equilibrium"]
        monkeypatch.setitem(runner._SUMMARIES, "equilibrium",
                            (header, lambda p, seed: calls.append(p) or summarize(p, seed)))
        payload = {
            "equilibrium": {"curve": {"b_scale": 1.0, "beta": 1.0,
                                      "k_scale": 1.0, "kappa": 1.0}},
            "sweep": {
                "model": "equilibrium",
                "axes": [{"path": "equilibrium.curve.k_scale", "values": [1.0, 2.0, -1.0]}],
            },
        }
        out = tmp_path / "sweep.csv"
        with pytest.raises(ConfigError) as exc:
            run_model("sweep", write_config(tmp_path, payload), out)
        assert exc.value.errors == [
            ("sweep point (equilibrium.curve.k_scale=-1.0) -> equilibrium.curve.k_scale",
             "must be > 0.0, got -1.0"),
        ]
        assert calls == []
        assert not out.exists()

    def test_sweep_svg_plots_first_summary(self, tmp_path):
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        run_model("sweep", f"{CONFIG_DIR}/sweep_litigation_delta.json", out, svg)
        assert "<polyline" in svg.read_text()


class TestRunGuards:
    def test_output_path_required(self):
        cfg = load_config(f"{CONFIG_DIR}/equilibrium_golden.json", "equilibrium")
        with pytest.raises(DomainError):
            run(cfg)


class TestCli:
    def test_success_writes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        code = main(["equilibrium", "--config", f"{CONFIG_DIR}/equilibrium_golden.json",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert captured.out.strip() == f"wrote {out}"
        assert captured.err == ""

    def test_svg_flag_reports_both(self, tmp_path, capsys):
        out, svg = tmp_path / "eq.csv", tmp_path / "eq.svg"
        code = main(["equilibrium", "--config", f"{CONFIG_DIR}/equilibrium_golden.json",
                     "--out", str(out), "--svg", str(svg)])
        assert code == 0
        assert capsys.readouterr().out.strip() == f"wrote {out} and {svg}"

    def test_missing_config_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        code = main(["equilibrium", "--config", str(tmp_path / "absent.json"),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_validation_failure_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"settle": {
            "rule": "american",
            "disputes": [{"p_q": 1.5, "p_g": 0.5, "j": 100.0, "c_q": 1.0, "c_g": 1.0}],
            "cost_reduction": 0.0,
        }}))
        out = tmp_path / "settle.csv"
        code = main(["settle", "--config", str(bad), "--out", str(out)])
        assert code == 1
        assert "p_q" in capsys.readouterr().err
        assert not out.exists()

    def test_model_failure_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({"equilibrium": {
            "curve": {"b_scale": 1.0, "beta": 1.0, "k_scale": 1.0, "kappa": 1.0},
            "tolerance": 1e-30,
        }}))
        out = tmp_path / "eq.csv"
        code = main(["equilibrium", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: model:")
        assert not out.exists()

    def test_unwritable_svg_cleans_up_csv(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        svg = tmp_path / "no_such_dir" / "eq.svg"
        code = main(["equilibrium", "--config", f"{CONFIG_DIR}/equilibrium_golden.json",
                     "--out", str(out), "--svg", str(svg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: io:")
        assert not out.exists()

    def test_svg_onto_the_csv_is_exit_one_and_writes_nothing(self, tmp_path, capsys):
        cfg = f"{CONFIG_DIR}/equilibrium_golden.json"
        out = tmp_path / "eq.csv"
        (tmp_path / "sub").mkdir()
        same = tmp_path / "sub" / ".." / "eq.csv"
        code = main(["equilibrium", "--config", cfg, "--out", str(out), "--svg", str(same)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: svg:")
        assert err.count("\n") == 1
        assert not out.exists()
        out.write_text("kept")
        assert main(["equilibrium", "--config", cfg, "--out", str(out),
                     "--svg", str(out)]) == 1
        assert out.read_text() == "kept"
        capsys.readouterr()

    def test_seed_flag_changes_stochastic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = f"{CONFIG_DIR}/evolve_tort.json"
        assert main(["evolve", "--config", cfg, "--out", str(a)]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(b), "--seed", "8"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_bad_seed_is_usage_error(self, tmp_path, capsys):
        code = main(["evolve", "--config", f"{CONFIG_DIR}/evolve_tort.json",
                     "--out", str(tmp_path / "x.csv"), "--seed", "-1"])
        assert code == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "equilibrium" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self, capsys):
        code = main(["equilibrium", "--config", "x.json"])
        assert code == 1
        capsys.readouterr()


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "eq.csv"
        run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_golden.json", out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        text = row["g_star_baseline"]
        assert float(text) == float(format(float(text), ".17g"))
        assert os.linesep not in ("\n",) or "\r" not in out.read_text()
