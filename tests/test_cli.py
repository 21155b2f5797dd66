"""Configuration plumbing and the four CLI commands."""

import csv
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import specjac
import specjac.decoder as decoder_mod
from specjac.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main, write_csv, write_reports
from specjac.config import build_config, load_config_file
from specjac.errors import ConfigError
from specjac import oracle


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

    def test_invalid_values_name_the_field(self, capsys):
        with pytest.raises(ConfigError, match="decode.window"):
            build_config(overrides={"decode.window": 0})
        with pytest.raises(ConfigError, match="decode.coupler"):
            build_config(overrides={"decode.coupler": "turbo"})
        with pytest.raises(ConfigError, match="sampling.top_k"):
            build_config(overrides={"sampling.top_k": 99})
        with pytest.raises(ConfigError, match="model.vocab_size"):
            build_config(overrides={"model.vocab_size": 1})
        # NaN fails every range check; an infinite guidance scale overflows
        # the logit mix, and so do tiny divisors and a huge finite scale
        for path, value, *other in (
            ("model.flatness", "nan"), ("sampling.temperature", "nan"),
            ("sampling.cfg_scale", "nan"), ("sampling.cfg_scale", "inf"),
            ("sampling.temperature", "1e-320"), ("model.flatness", "1e-320"),
            ("sampling.cfg_scale", "1e308", "model.flatness", "0.5"),
            # context codes, (vocab_size + 1) ** context_order, must fit in int64
            ("model.context_order", "40", "model.vocab_size", "2"),
        ):
            overrides = dict(zip([path, *other[::2]], [value, *other[1::2]]))
            with pytest.raises(ConfigError, match=path):
                build_config(overrides=overrides)
            flags = [arg for key, val in overrides.items() for arg in (f"--{key}", val)]
            assert main(["generate", *flags, "--run.trials", "2"]) == EXIT_CONFIG
            assert path in capsys.readouterr().err

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


CHUNKED = [
    "--model.vocab_size", "16", "--model.flatness", "4.0", "--model.seed", "5",
    "--decode.length", "24", "--decode.window", "6", "--run.trials", "10",
]


@pytest.mark.parametrize("argv", [
    ["generate", *CHUNKED, "--decode.coupler", "maximal"],
    ["generate", *CHUNKED, "--decode.coupler", "maximal", "--decode.redraft", "true"],
    ["sweep", *CHUNKED, "--axis", "coupler", "--values", "vanilla,independent,maximal,gumbel"],
], ids=["generate", "generate-redraft", "sweep-coupler"])
def test_trial_chunks_keep_output_bytes(argv, tmp_path, monkeypatch):
    # 10 trials in chunks of 3 cross every chunk boundary of the engine
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    assert main(argv + ["--out", str(whole)]) == EXIT_OK
    monkeypatch.setattr(decoder_mod, "TRIAL_CHUNK", 3)
    assert main(argv + ["--out", str(chunked)]) == EXIT_OK
    assert chunked.read_bytes() == whole.read_bytes()


class TestAtomicWrites:
    """An output file is written whole or not at all."""

    @staticmethod
    def _rows_failing_after(count):
        for i in range(count):
            yield (i, float(i))
        raise RuntimeError("row source failed")

    @pytest.mark.parametrize("earlier", [None, b"earlier,content\n"])
    def test_failed_csv_leaves_no_partial_file(self, tmp_path, earlier):
        out = tmp_path / "rows.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(str(out), ("k", "v"), self._rows_failing_after(1000))
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["rows.csv"])

    def test_failed_report_leaves_earlier_content(self, tmp_path):
        out = tmp_path / "reports.txt"
        out.write_bytes(b"earlier\n")

        class Broken:
            name = "broken"

            @property
            def value(self):
                raise RuntimeError("report failed")

        good = oracle.TestReport("ok", 1.0, 0.5, True, 10)
        with pytest.raises(RuntimeError, match="report failed"):
            write_reports(str(out), [good, Broken()], 1, "fp", "report")
        assert out.read_bytes() == b"earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["reports.txt"]

    def test_symlink_target_is_replaced_not_the_link(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_bytes(b"old\n")
        (tmp_path / "link.csv").symlink_to(real)
        write_csv(str(tmp_path / "link.csv"), ("k",), [(1,)])
        assert (tmp_path / "link.csv").is_symlink()
        assert real.read_bytes() == b"k\n1\n"

    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_csv(str(fifo), ("k",), [(1,)])
        reader.join(timeout=10)
        assert got == [b"k\n1\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_success_replaces_the_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        out.write_bytes(b"old\n")
        write_csv(str(out), ("k",), [(1,), (2,)])
        assert out.read_bytes() == b"k\n1\n2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


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
        ("--sharpness-range", "nan 1"), ("--sharpness-range", "1 inf"),
    ])
    def test_out_of_range_flags_exit_2(self, flag, value, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        argv = ["coupling-stats", flag, *value.split(), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
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
    # the child imports the specjac under test, installed or not
    src = os.path.dirname(os.path.dirname(specjac.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "specjac.cli", "generate",
         "--run.trials", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "generate:" in proc.stderr
