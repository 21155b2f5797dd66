"""Configuration plumbing and the four CLI commands."""

import csv
import subprocess
import sys

import numpy as np
import pytest

from specjac.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from specjac.config import build_config, load_config_file
from specjac.errors import ConfigError


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestConfig:
    def test_defaults_are_desk_scale(self):
        cfg = build_config()
        assert cfg.model.vocab_size == 4
        assert cfg.decode.length == 5
        assert cfg.decode.window == 4
        assert cfg.run.trials == 200000

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "model:\n  vocab_size: 8\n  flatness: 4.0\n"
            "decode:\n  coupler: gumbel\n  window: 6\n"
            "run:\n  trials: 10\n"
        )
        cfg = build_config(load_config_file(str(path)))
        assert cfg.model.vocab_size == 8
        assert cfg.model.flatness == 4.0
        assert cfg.decode.coupler == "gumbel"
        assert cfg.decode.window == 6
        assert cfg.run.trials == 10

    def test_overrides_and_string_coercion(self):
        cfg = build_config(overrides={
            "decode.window": "8",
            "sampling.top_k": "3",
            "decode.redraft": "true",
            "model.flatness": "1.5",
        })
        assert cfg.decode.window == 8
        assert cfg.sampling.top_k == 3
        assert cfg.decode.redraft is True
        assert cfg.model.flatness == 1.5

    def test_none_sentinels(self):
        cfg = build_config(overrides={"sampling.top_k": "none", "output.path": "null"})
        assert cfg.sampling.top_k is None
        assert cfg.output.path is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="decode.widnow"):
            build_config(overrides={"decode.widnow": 3})

    def test_invalid_values_name_the_field(self):
        with pytest.raises(ConfigError, match="decode.window"):
            build_config(overrides={"decode.window": 0})
        with pytest.raises(ConfigError, match="decode.coupler"):
            build_config(overrides={"decode.coupler": "turbo"})
        with pytest.raises(ConfigError, match="sampling.top_k"):
            build_config(overrides={"sampling.top_k": 99})
        with pytest.raises(ConfigError, match="model.vocab_size"):
            build_config(overrides={"model.vocab_size": 1})

    @pytest.mark.parametrize("data, overrides, field", [
        ({"model": {"vocab_size": 4.7}}, None, "model.vocab_size"),
        ({"model": {"seed": True}}, None, "model.seed"),
        (None, {"run.trials": 2.9}, "run.trials"),
        (None, {"model.cfg_seed": True}, "model.cfg_seed"),
    ])
    def test_int_fields_reject_fractions_and_booleans(self, data, overrides, field):
        with pytest.raises(ConfigError, match=field):
            build_config(data, overrides)

    def test_malformed_yaml_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("model:\n  vocab_size: [4\n")
        with pytest.raises(ConfigError, match="broken.yaml"):
            load_config_file(str(path))
        assert main(["generate", "--config", str(path)]) == EXIT_CONFIG
        assert "broken.yaml" in capsys.readouterr().err

    def test_fingerprint_tracks_semantic_fields_only(self):
        base = build_config()
        assert base.fingerprint() == build_config().fingerprint()
        assert base.fingerprint() != build_config(
            overrides={"decode.window": 8}
        ).fingerprint()
        assert base.fingerprint() != build_config(
            overrides={"run.seed": 5}
        ).fingerprint()
        assert base.fingerprint() == build_config(
            overrides={"output.path": "elsewhere.csv"}
        ).fingerprint()

    def test_replace_field(self):
        cfg = build_config()
        varied = cfg.replace_field("model.flatness", 9.0)
        assert varied.model.flatness == 9.0
        assert cfg.model.flatness == 2.0


class TestGenerate:
    def test_rows_and_aggregate(self, tmp_path):
        out = tmp_path / "gen.csv"
        code = main([
            "generate", "--run.trials", "5", "--out", str(out),
            "--decode.coupler", "vanilla",
        ])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert len(rows) == 6
        assert rows[-1]["row"] == "aggregate"
        for row in rows[:-1]:
            assert row["nfe"] == "5"
            assert len(row["sequence"].split()) == 5

    def test_degenerate_window_aggregate_nfe(self, tmp_path):
        out = tmp_path / "gen.csv"
        code = main([
            "generate", "--run.trials", "6", "--decode.window", "1",
            "--decode.coupler", "maximal", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert float(rows[-1]["nfe"]) == 5.0

    def test_byte_identical_replay(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["generate", "--run.trials", "20", "--decode.coupler", "gumbel"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_io_error(self, tmp_path):
        code = main([
            "generate", "--run.trials", "2", "--out", str(tmp_path / "no" / "dir.csv"),
        ])
        assert code == EXIT_IO


class TestVerifyLossless:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "reports.csv"
        code = main([
            "verify-lossless", "--model.vocab_size", "3", "--decode.length", "3",
            "--decode.window", "2", "--run.trials", "4000", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert len(rows) == 8
        assert all(row["passed"] == "true" for row in rows)
        assert {row["name"].split(".")[2] for row in rows} == {
            "vanilla", "independent", "maximal", "gumbel",
        }

    def test_report_format(self, tmp_path):
        out = tmp_path / "reports.txt"
        code = main([
            "verify-lossless", "--model.vocab_size", "3", "--decode.length", "2",
            "--decode.window", "2", "--run.trials", "2000", "--out", str(out),
            "--format", "report",
        ])
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("report=")
        assert "passed=true" in text
        assert "master_seed=1234" in text
        assert "fingerprint=" in text

    def test_budget_exceeded_is_config_error(self, capsys):
        code = main([
            "verify-lossless", "--model.vocab_size", "16", "--decode.length", "8",
        ])
        assert code == EXIT_CONFIG
        assert "reduce" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--decode.widnow", "3"])
        assert exc.value.code == 2


class TestCouplingStats:
    def test_emitted_geometry(self, tmp_path):
        out = tmp_path / "pairs.csv"
        code = main([
            "coupling-stats", "--pairs", "12", "--vocab", "8",
            "--trials", "20000", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert len(rows) == 12
        for row in rows:
            tv = float(row["tv"])
            sigma = 3.0 * np.sqrt(0.25 / 20000) + 1e-9
            # maximal points sit on the 1 - TV line
            assert float(row["maximal_cost"]) == pytest.approx(1.0 - tv, abs=1e-12)
            # gumbel points live between the two bound curves
            assert float(row["gumbel_empirical"]) >= float(row["gumbel_lower_bound"]) - sigma
            assert float(row["gumbel_empirical"]) <= 1.0 - tv + sigma
            # independent collisions respect the entropy bound
            assert float(row["independent_analytic"]) <= float(row["renyi2_bound"]) + 1e-12
            assert float(row["independent_empirical"]) == pytest.approx(
                float(row["independent_analytic"]), abs=4 * sigma
            )

    def test_replay_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["coupling-stats", "--pairs", "4", "--trials", "2000"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--vocab", "1"), ("--vocab", "0"), ("--pairs", "0"), ("--pairs", "-3"), ("--trials", "0"),
    ])
    def test_out_of_range_flags_exit_2(self, flag, value, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        assert main(["coupling-stats", flag, value, "--out", str(out)]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_identical_pairs_degenerate_columns(self, tmp_path):
        # sharpness 0 makes the even (independent) pairs identical uniforms
        out = tmp_path / "pairs.csv"
        code = main([
            "coupling-stats", "--pairs", "6", "--vocab", "4", "--trials", "4000",
            "--sharpness-range", "0", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        for row in _read_csv(out)[::2]:
            assert float(row["tv"]) == 0.0
            assert float(row["maximal_cost"]) == 1.0
            assert float(row["gumbel_empirical"]) == 1.0
            assert float(row["independent_analytic"]) == pytest.approx(0.25)


class TestSweep:
    def test_degenerate_window_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--axis", "L", "--values", "1", "--run.trials", "8",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["nfe_mean"]) == 5.0

    def test_coupler_axis_ordering_on_flat_model(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--axis", "coupler", "--values", "independent,maximal",
            "--model.vocab_size", "16", "--model.flatness", "4.0",
            "--decode.length", "48", "--decode.window", "12",
            "--run.trials", "60", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = {row["value"]: row for row in _read_csv(out)}
        assert float(rows["maximal"]["nfe_mean"]) < float(rows["independent"]["nfe_mean"])

    def test_cfg_scale_axis_reports_trend(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--axis", "cfg_scale", "--values", "0", "3", "7",
            "--run.trials", "20", "--decode.length", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert [row["value"] for row in rows] == ["0.0", "3.0", "7.0"]
        # distinct fingerprints per sweep point, same master seed
        assert len({row["fingerprint"] for row in rows}) == 3
        assert {row["master_seed"] for row in rows} == {"1234"}

    def test_empty_values_rejected(self):
        assert main(["sweep", "--axis", "L", "--values", ","]) == EXIT_CONFIG


def test_console_entrypoint_smoke(tmp_path):
    out = tmp_path / "gen.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "specjac.cli", "generate",
         "--run.trials", "3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "generate:" in proc.stderr
